"""Batch front door: ci2d check | init | step | diagnose.

Exit codes: 0 ok, 1 test failure, 2 numerical guard tripped,
3 constraint violation.

`check` runs a fixed-size property suite; it reads the config only to
validate the schedule (paper mode) or to guard that the configured
waves fit the grid (toy mode).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import contextmanager

from .errors import (AliasingRisk, ConfigError, ConstraintViolation,
                     DerivativeChannelMissing, DivisibilityError, InvalidInput,
                     NonFiniteValue, PaddingError)

GUARD_ERRORS = (AliasingRisk, PaddingError, DerivativeChannelMissing, NonFiniteValue)
CONSTRAINT_ERRORS = (ConstraintViolation, DivisibilityError, ConfigError, InvalidInput)


def _out_dir(path: str | None) -> str | None:
    """path, as an output directory: a path that names a file raises ConfigError."""
    if path and os.path.isfile(path):
        raise ConfigError(f"output path {path} is a file, not a directory")
    return path


@contextmanager
def _staged(out_dir: str, *inputs: str):
    """(`<out>.partial`, publish) to build an output directory in:
    publish() replaces `<out>` whole with it, and `.partial` is removed on
    every way out.  Before any work, ConfigError refuses an `<out>` or
    `.partial` that is a file, an `<out>` that is, or holds, the working
    directory or an input directory, and a non-empty `<out>` with no
    manifest.json, which is not a ci2d state."""
    out_dir = os.path.normpath(out_dir)
    tmp_dir, out = out_dir + ".partial", os.path.realpath(out_dir)
    for path in (out_dir, tmp_dir):
        _out_dir(path)
    for path in (os.getcwd(), *inputs):
        if os.path.commonpath([out, os.path.realpath(path)]) == out:
            raise ConfigError(f"output directory {out_dir} holds {path}")
    if (os.path.isdir(out) and os.listdir(out)
            and not os.path.isfile(os.path.join(out, "manifest.json"))):
        raise ConfigError(f"output directory {out_dir} is not empty and not a ci2d state")
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)

    def publish():
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp_dir, out_dir)

    try:
        yield tmp_dir, publish
    finally:
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)


def cmd_check(cfg: dict, out_dir: str | None) -> int:
    from .checks import run_all
    from .config import schedule_from_config, toy_from_config
    from .diagnostics import json_report

    if cfg["mode"] == "paper":
        from .param_schedule import validate_schedule
        validate_schedule(schedule_from_config(cfg))
    else:
        toy = toy_from_config(cfg)
        from .building_blocks import eta_band
        from .spectral_field import make_grid
        grid = make_grid(int(cfg["grid"]["n"]))
        band = eta_band(toy.wp) + toy.wp.lam
        if band > grid.max_mode:
            raise AliasingRisk(
                f"grid n={grid.n} cannot resolve the configured waves (band {band})")
    report = run_all()
    text = json_report(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "check_report.json"), "w") as fh:
            fh.write(text)
    print(text)
    return 0 if report["n_failed"] == 0 else 1


def cmd_init(cfg: dict, out_dir: str | None) -> int:
    """Builds the initial state and writes it as `ci2d step` writes its
    output (`_staged`): into `<out>.partial`, which replaces `<out>` whole
    once the state is written, so no file of an earlier state is left."""
    from .ci_step import init_state, nsr_residual
    from .generators import build_initial, time_grid
    from .spectral_field import divergence, lp_norm, make_grid
    from .state_io import write_state

    out_dir = out_dir or cfg["out"]
    with _staged(out_dir) as (tmp_dir, publish):
        grid = make_grid(int(cfg["grid"]["n"]))
        tc = cfg["time"]
        times = time_grid(float(tc["T"]), float(tc["t_pad"]), int(tc["n_t"]))
        init_cfg = dict(cfg["initial"])
        gen = init_cfg.pop("generator")
        u = build_initial(gen, grid, times, float(tc["T"]), init_cfg)
        state = init_state(u, float(cfg["theta"]), float(cfg["nu"]), float(tc["T"]))
        rep = nsr_residual(state)
        tol = float(cfg["tolerances"]["init_residual"])
        if not rep["max_rel"] <= tol:
            raise InvalidInput(f"initial residual {rep['max_rel']:.3e} exceeds {tol}")
        max_div = max(lp_norm(divergence(s), 2) for s in state.v.slices)
        write_state(tmp_dir, state, float(tc["t_pad"]), cfg["mode"],
                    {"toy": cfg["toy"], "initial": cfg["initial"],
                     "tolerances": cfg["tolerances"]})
        publish()
    print(json.dumps({"state_dir": out_dir, "initial_residual": rep["max_rel"],
                      "max_div": max_div}, indent=1))
    return 0


def cmd_step(cfg: dict, state_dir: str, out_dir: str | None) -> int:
    """Steps the state node by node: the input's dumps are read as the
    step's sweeps reach them, each new node's dumps go into `<out>.partial`
    as soon as the node is made, and the directory replaces `<out>` whole
    once the step and its reports are complete and its verdict passes
    (`_staged`, which also refuses, before any sample is read, an `<out>`
    it must not replace).  An input whose mollified residual exceeds
    `tolerances.init_residual` is not a solution and raises InvalidInput;
    on that, on a failed verdict and on any error `.partial` is removed
    and an existing `<out>` is kept."""
    from dataclasses import replace

    from .ci_step import step_nodes
    from .config import toy_from_config
    from .diagnostics import json_report, write_step_csv
    from .state_io import read_state, write_manifest, write_node

    if cfg["mode"] != "toy":
        raise ConfigError("stepping runs in toy mode; the exact schedule is a gate only")
    state, manifest = read_state(state_dir)
    toy = toy_from_config(cfg)
    out_dir = out_dir or state_dir.rstrip("/") + f"_q{state.q + 1}"
    with _staged(out_dir, state_dir) as (tmp_dir, publish):
        write_manifest(tmp_dir, replace(state, q=state.q + 1), float(manifest["t_pad"]),
                       cfg["mode"], manifest.get("params", {}))
        diags = step_nodes(state, toy, lambda i, v, dv, p, R: write_node(
            tmp_dir, i, state.times[i], v, dv, p, R))
        moll_res = diags.identities["mollified_residual_rel"]
        tol = float(cfg["tolerances"]["init_residual"])
        if not moll_res <= tol:
            raise InvalidInput(f"input residual {moll_res:.3e} (mollified) exceeds {tol}: "
                               "the input state is not a solution")
        resid = diags.residual_report["window_max_rel"]
        passed = resid <= float(cfg["tolerances"]["residual"]) and all(diags.support.values())
        if passed:
            write_step_csv(os.path.join(tmp_dir, "step_diagnostics.csv"), diags)
            text = json_report({"residual": resid, "support": diags.support,
                                "identities": diags.identities})
            with open(os.path.join(tmp_dir, "step_report.json"), "w") as fh:
                fh.write(text)
            publish()
    print(json.dumps({"state_dir": out_dir if passed else None, "residual": resid,
                      "support": diags.support}, indent=1, sort_keys=True))
    return 0 if passed else 1


def cmd_diagnose(state_dir: str, out_dir: str | None) -> int:
    from .diagnostics import write_state_report
    from .state_io import read_state

    state, _ = read_state(state_dir)
    target = out_dir or state_dir
    rep = write_state_report(target, state)
    print(json.dumps({"report_dir": target,
                      "R_LinfL1": rep["R_LinfL1"],
                      "residual_max_rel": rep["residual"]["max_rel"]},
                     indent=1, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ci2d",
        description="Desk-scale spectral toolkit for intermittent torus flows")
    parser.add_argument("command", choices=["check", "init", "step", "diagnose"])
    parser.add_argument("--config", default=None, help="path to a JSON config")
    parser.add_argument("--state", default=None, help="state directory (step/diagnose)")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    from .config import load_config
    try:
        cfg = load_config(args.config)
        _out_dir(args.out)
        if args.command == "check":
            return cmd_check(cfg, args.out)
        if args.command == "init":
            return cmd_init(cfg, args.out)
        if args.command == "step":
            if not args.state:
                raise ConfigError("step needs --state <dir>")
            return cmd_step(cfg, args.state, args.out)
        if args.command == "diagnose":
            if not args.state:
                raise ConfigError("diagnose needs --state <dir>")
            return cmd_diagnose(args.state, args.out)
    except GUARD_ERRORS as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except CONSTRAINT_ERRORS as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
