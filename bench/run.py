#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ci2d.

Run from the repository root:

    python3 bench/run.py --workload acceptance_n512 --seed 1 --seconds 30 --trace 0

Each run is one fresh process that drives ci2d through its public entry
points only (`ci2d.cli.main`, `init_state`, `iterate_step`,
`diagnostics.write_state_report`), checks every output with the
independent checker in `checker.py`, and prints one JSON object as its
last line: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end timings; with `--trace 1` the
run also wraps each layer (see `tracer.py`) and reports per-layer totals,
self times and exact call counts.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")

RESIDUAL_TOL = 1e-4     # the config's "residual" tolerance, passed to ci2d too
MIN_PROPERTIES = 25     # `ci2d check` must run at least this many properties

# Common physical and time parameters of both workloads; each workload
# sets its own number of time samples n_t.
BASE = {"theta": 0.4, "nu": 1.0, "T": 1.0, "t_pad": 0.1,
        "ell": 0.05, "A": 5.0, "eps": 0.04}
WAVE_SMALL = (25, 5, 2, 3)    # (lambda, sigma^-1, r, mu)
WAVE_LARGE = (50, 10, 2, 5)


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, cores))
        except ValueError:
            cur = cores
        os.environ[var] = str(max(1, min(cur, cores)))


def import_ci2d() -> float:
    """Import ci2d from the checkout's src/ and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "ci2d", "__init__.py")):
        raise SystemExit(f"no ci2d package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ci2d
    # The commands import these lazily; importing them here keeps the
    # import out of the first round's timings.
    import ci2d.checks
    import ci2d.cli
    import ci2d.config
    import ci2d.diagnostics
    import ci2d.generators
    import ci2d.param_schedule
    import ci2d.state_io
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(ci2d.__file__))) != SRC:
        raise SystemExit(f"imported ci2d from {ci2d.__file__}, not from {SRC}")
    return elapsed


def toy_section(wave) -> dict:
    lam, sigma_inv, r, mu = wave
    return {"lambda": lam, "sigma_inv": sigma_inv, "r": r, "mu": mu,
            "ell": BASE["ell"], "A": BASE["A"], "eps": BASE["eps"]}


def config(n: int, n_t: int, wave, initial: dict) -> dict:
    return {"mode": "toy", "theta": BASE["theta"], "nu": BASE["nu"],
            "grid": {"n": n},
            "time": {"n_t": n_t, "T": BASE["T"], "t_pad": BASE["t_pad"]},
            "toy": toy_section(wave), "initial": initial,
            "tolerances": {"residual": RESIDUAL_TOL}}


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def run_cli(argv) -> tuple:
    """(exit code, captured stdout) of one in-process `ci2d` command."""
    from ci2d.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def check_report_failures(out: str) -> list:
    rep = json.loads(out)
    fails = []
    if rep["n_failed"] != 0:
        fails.append(f"check: {rep['n_failed']} properties failed")
    if rep["n_passed"] < MIN_PROPERTIES:
        fails.append(f"check: only {rep['n_passed']} properties passed")
    return fails


# -- workloads ------------------------------------------------------------------

class Workload:
    """A set-up operation plus the operations that follow it.

    A round is `setup()` and then each of `ops()` once.  `ops` lists
    (metric, name, callable); a callable returns an exit code (0 =
    success).  `check()` runs after the last round and returns the list of
    failed output checks.
    """

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def step_ops(self) -> list:
        return [op for op in self.ops() if op[0] == "step_s"]


class AcceptanceN512(Workload):
    """ROADMAP acceptance parameters at n = 512, run in memory.

    The input is the unit-mode shear, which has no seed; the same seed
    therefore always gives the same input.
    """

    n, n_t = 512, 6

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg_path = write_json(os.path.join(work, "check_config.json"),
                                   config(self.n, self.n_t, WAVE_LARGE,
                                          {"generator": "shear", "m": 1}))
        self.state = self.new_state = None
        self.reports = {}

    def setup(self) -> int:
        from ci2d import init_state, make_grid
        from ci2d.generators import build_initial, time_grid
        self.state = self.new_state = None
        grid = make_grid(self.n)
        times = time_grid(BASE["T"], BASE["t_pad"], self.n_t)
        u = build_initial("shear", grid, times, BASE["T"], {"m": 1})
        self.state = init_state(u, BASE["theta"], BASE["nu"], BASE["T"])
        return 0

    def _check(self) -> int:
        code, self.check_out = run_cli(["check", "--config", self.cfg_path])
        return code

    def _step(self) -> int:
        from ci2d import iterate_step, toy_params
        self.new_state = None
        lam, sigma_inv, r, mu = WAVE_LARGE
        toy = toy_params(lam, sigma_inv, r, mu, BASE["ell"], BASE["theta"], BASE["nu"],
                         a_const=BASE["A"], eps_next=BASE["eps"])
        self.new_state, self.diags = iterate_step(self.state, toy)
        return 0

    def _diagnose(self, q: int) -> int:
        """Report on the initial (q = 0) or the stepped (q = 1) state."""
        from ci2d.diagnostics import write_state_report
        out = os.path.join(self.work, f"diagnose{q}")
        os.makedirs(out, exist_ok=True)
        self.reports[q] = write_state_report(out, (self.state, self.new_state)[q])
        return 0

    def ops(self) -> list:
        return [("check_s", "check", self._check),
                ("diagnose_s", "diagnose0", lambda: self._diagnose(0)),
                ("step_s", "step", self._step),
                ("diagnose_s", "diagnose1", lambda: self._diagnose(1))]

    def check(self) -> list:
        import checker
        failures = list(check_report_failures(self.check_out))
        old, new = memory_state(self.state), memory_state(self.new_state)
        failures += checker.check_time_nodes(old.times, BASE["T"], BASE["t_pad"])
        failures += checker.check_initial_structure(old, shear_mode=1)
        bal_old = checker.check_balance(old, RESIDUAL_TOL)
        bal_new = checker.check_balance(new, RESIDUAL_TOL)
        failures += ["initial: " + f for f in bal_old["failures"]]
        failures += ["stepped: " + f for f in bal_new["failures"]]
        failures += checker.check_stress_support(new.times, bal_old["sup"],
                                                 bal_new["sup"], BASE["ell"])
        for q, bal in enumerate((bal_old, bal_new)):
            failures += [f"state{q}: " + f for f in
                         checker.check_report_l1(self.reports[q]["R_LinfL1"], bal["l1"])]
        failures += checker.negative_control(new, RESIDUAL_TOL)
        return failures


def memory_state(state):
    """Hand a ci2d state to the checker as physical samples per node."""
    import checker

    def node(i):
        return {"v": state.v.slices[i].values(), "dv": state.v.dslices[i].values(),
                "p": state.p.slices[i].values()[0], "R": state.R.slices[i].values()}

    return checker.MemoryState(state.times, state.grid.n, state.theta, state.nu,
                               state.T, node)


class CliChainN256(Workload):
    """init -> check -> step (25,5,2,3) -> step (50,10,2,5) through
    `ci2d.cli.main`, with state directories on disk and `diagnose` run on
    each state as it is written."""

    n, n_t = 256, 9

    def __init__(self, seed, work):
        super().__init__(seed, work)
        initial = {"generator": "stream", "seed": int(seed)}
        self.cfg = [write_json(os.path.join(work, f"config{i}.json"),
                               config(self.n, self.n_t, wave, initial))
                    for i, wave in enumerate((WAVE_LARGE, WAVE_SMALL, WAVE_LARGE))]
        self.states = [os.path.join(work, f"state{q}") for q in range(3)]
        self.outputs = {}

    def _cli(self, name, argv) -> int:
        code, self.outputs[name] = run_cli(argv)
        return code

    def setup(self) -> int:
        return self._cli("init", ["init", "--config", self.cfg[0], "--out", self.states[0]])

    def ops(self) -> list:
        s, c = self.states, self.cfg

        def diagnose(q):
            return ("diagnose_s", f"diagnose{q}", lambda: self._cli(
                f"diagnose{q}", ["diagnose", "--state", s[q]]))

        return [
            ("check_s", "check", lambda: self._cli("check", ["check"])),
            diagnose(0),
            ("step_s", "step1", lambda: self._cli(
                "step1", ["step", "--config", c[1], "--state", s[0], "--out", s[1]])),
            diagnose(1),
            ("step_s", "step2", lambda: self._cli(
                "step2", ["step", "--config", c[2], "--state", s[1], "--out", s[2]])),
            diagnose(2),
        ]

    def check(self) -> list:
        import checker
        failures = list(check_report_failures(self.outputs["check"]))
        states = [checker.DumpState(d) for d in self.states]
        for q, st in enumerate(states):
            if st.manifest["q"] != q or st.n != self.n:
                failures.append(f"state{q}: manifest q={st.manifest['q']} n={st.n}")
        failures += checker.check_time_nodes(states[0].times, BASE["T"], BASE["t_pad"])
        failures += checker.check_initial_structure(states[0], sup_amplitude=1.0)
        bal = []
        for q, st in enumerate(states):
            bal.append(checker.check_balance(st, RESIDUAL_TOL))
            failures += [f"state{q}: " + f for f in bal[-1]["failures"]]
        for q in (1, 2):
            failures += checker.check_stress_support(states[q].times, bal[q - 1]["sup"],
                                                     bal[q]["sup"], BASE["ell"])
        for q, d in enumerate(self.states):
            with open(os.path.join(d, "diagnose.json")) as fh:
                failures += [f"state{q}: " + f for f in
                             checker.check_report_l1(json.load(fh)["R_LinfL1"], bal[q]["l1"])]
        failures += checker.negative_control(states[2], RESIDUAL_TOL)
        return failures


WORKLOADS = {"acceptance_n512": AcceptanceN512, "cli_chain_n256": CliChainN256}


# -- driver -----------------------------------------------------------------------

class Runner:
    """Times operations and counts attempts and failures."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def timed(self, name: str, fn) -> tuple:
        """(seconds, ok) of one operation; an exception counts as a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code = self.tracer.span("op." + name, fn) if self.tracer else fn()
        except Exception as exc:  # an operation that raises is a failed operation
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
        return elapsed, code == 0

    def round(self, ops) -> dict:
        """One pass over ops; per metric the total time of its operations,
        or None on a failure."""
        sums = {}
        ok_all = True
        for metric, name, fn in ops:
            elapsed, ok = self.timed(name, fn)
            ok_all &= ok
            sums[metric] = sums.get(metric, 0.0) + elapsed
        return sums if ok_all else None


def end_to_end(wl: Workload, runner: Runner, seconds: float, t_import: float) -> dict:
    """Whole rounds (set-up, then every operation) until `seconds` have
    passed; each metric is the median over the rounds.  Short rounds
    spread every metric's samples across the whole run, so that a slow
    spell of the machine a few seconds long weighs little on any one
    metric."""
    samples = {}
    t0 = time.perf_counter()
    while True:
        setup_s, ok = runner.timed("setup", wl.setup)
        sums = runner.round(wl.ops()) if ok else None
        if sums is None:
            return {}
        sums["setup_s"] = setup_s
        for metric, val in sums.items():
            samples.setdefault(metric, []).append(val)
        if time.perf_counter() - t0 >= seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {metric: (statistics.median(vals), "s") for metric, vals in samples.items()}
    out["setup_s"] = (t_import + out["setup_s"][0], "s")
    out["peak_rss_mib"] = (rss, "MiB")
    return out


def traced(wl: Workload, runner: Runner, trace_path: str) -> dict:
    """An untraced set-up and two untraced step passes, then one traced
    full round.  The first step pass fills the caches that the second and
    the traced one find filled; the second is the untraced reference."""
    from tracer import Tracer
    if not runner.timed("setup", wl.setup)[1]:
        return {}
    for _ in range(2):
        plain = runner.round(wl.step_ops())
        if plain is None:
            return {}
    tracer = Tracer()
    tracer.install()
    try:
        runner.tracer = tracer
        ok = runner.timed("setup", wl.setup)[1]
        sums = runner.round(wl.ops()) if ok else None
    finally:
        tracer.uninstall()
        runner.tracer = None
    if sums is None:
        return {}
    tracer.write(trace_path)
    out = tracer.metrics()
    overhead = sums["step_s"] - plain["step_s"]
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / plain["step_s"], "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    warnings.simplefilter("ignore")  # toy-mode scale-separation warnings
    t_import = import_ci2d()

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        runner = Runner()
        if args.trace:
            path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
            metrics = traced(wl, runner, path)
        else:
            metrics = end_to_end(wl, runner, args.seconds, t_import)
        if not metrics:
            failures = ["an operation failed"]
        else:
            try:
                failures = wl.check()
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
                failures = [f"checker: {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print("check failed: " + f, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
