import json
import os
import shutil
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ci2d import lp_norm, make_grid, random_field
from ci2d.cli import main
from ci2d.config import DEFAULT_CONFIG, load_config, schedule_from_config
from ci2d.errors import ConfigError
from ci2d.state_io import MAGIC, read_field, read_state, write_field, write_state


def test_field_dump_roundtrip_real(tmp_path):
    g = make_grid(32)
    f = random_field(g, "vector", 10, seed=0)
    path = tmp_path / "f.ci2d"
    write_field(str(path), f, time=0.25)
    back, header = read_field(str(path))
    assert header["n"] == 32 and header["rank"] == "vector"
    assert header["reality"] is True and header["time"] == 0.25
    assert lp_norm(back - f, np.inf) < 1e-12
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    length = int.from_bytes(raw[8:12], "little")
    meta = json.loads(raw[12:12 + length])
    assert meta["units"] == "1" and set(meta) == {"n", "rank", "reality", "time", "units"}
    # payload: 2 components of 32*32 float64
    assert len(raw) == 12 + length + 2 * 32 * 32 * 8


def test_field_dump_roundtrip_complex(tmp_path):
    g = make_grid(16)
    from ci2d import SpectralField
    f = SpectralField.from_modes(g, "scalar", {(3, 1): 1.0 + 0.5j}, reality=False)
    path = tmp_path / "c.ci2d"
    write_field(str(path), f)
    back, header = read_field(str(path))
    assert header["reality"] is False
    assert lp_norm(back - f, np.inf) < 1e-12
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    assert len(raw) == 12 + length + 16 * 16 * 16  # interleaved re/im


def test_dump_determinism(tmp_path):
    g = make_grid(32)
    f = random_field(g, "scalar", 8, seed=1)
    p1, p2 = tmp_path / "a.ci2d", tmp_path / "b.ci2d"
    write_field(str(p1), f, time=0.5)
    write_field(str(p2), f, time=0.5)
    assert p1.read_bytes() == p2.read_bytes()


def _small_cfg(tmp_path, **over):
    cfg = {
        "mode": "toy",
        "theta": 0.4,
        "nu": 1.0,
        "grid": {"n": 64},
        "time": {"n_t": 17, "T": 1.0, "t_pad": 0.1},
        "toy": {"lambda": 25, "sigma_inv": 5, "r": 2, "mu": 3,
                "ell": 0.05, "A": 5.0, "eps": 0.04},
        "initial": {"generator": "shear", "m": 1},
        "out": str(tmp_path / "state0"),
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_cli_init_step_diagnose_roundtrip(tmp_path, capsys):
    # a config may carry values no command reads; they load and change nothing
    cfg_path, cfg = _small_cfg(tmp_path, seed=0, tolerances={
        "stream_identity": 1e-10, "solenoidality": 1e-10, "oscillation": 1e-8,
        "reality": 1e-12, "support_rtol": 1e-13})
    assert main(["init", "--config", cfg_path]) == 0
    state_dir = cfg["out"]
    state, manifest = read_state(state_dir)
    assert set(manifest) == {"T", "t_pad", "n", "n_t", "theta", "nu", "q",
                             "mode", "params"}
    assert manifest["q"] == 0 and manifest["mode"] == "toy"
    # generator closed form: max slice L2 norm of chi(t) sin(x2) e1
    got = max(lp_norm(s, 2) for s in state.v.slices)
    chi_max = max(np.exp(1.0 - 1.0 / (1.0 - ((t - 0.5) / 0.25) ** 2))
                  if abs(t - 0.5) < 0.25 else 0.0 for t in state.times)
    assert got == pytest.approx(chi_max * np.sqrt(2) * np.pi, rel=1e-8)

    out_dir = str(tmp_path / "state1")
    assert main(["step", "--config", cfg_path, "--state", state_dir,
                 "--out", out_dir]) == 0
    report = json.loads((tmp_path / "state1" / "step_report.json").read_text())
    assert report["residual"] <= 1e-4
    assert os.path.exists(tmp_path / "state1" / "step_diagnostics.csv")
    header = (tmp_path / "state1" / "step_diagnostics.csv").read_text().splitlines()[0]
    assert header == "quantity,paper_ref,value,predicted_scaling,margin"
    assert not os.path.exists(out_dir + ".partial")

    assert main(["diagnose", "--state", out_dir]) == 0
    rep = json.loads((tmp_path / "state1" / "diagnose.json").read_text())
    assert "R_LinfL1" in rep
    spectrum = (tmp_path / "state1" / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "shell,energy"
    shells = np.array([[float(a) for a in line.split(",")] for line in spectrum[1:]])
    lam = cfg["toy"]["lambda"]
    inshell = shells[(shells[:, 0] >= lam / 2) & (shells[:, 0] <= 2 * lam), 1].sum()
    assert inshell > 0.0


def test_cli_state_determinism(tmp_path):
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    other = str(tmp_path / "again")
    assert main(["init", "--config", cfg_path, "--out", other]) == 0
    a = sorted(os.listdir(cfg["out"]))
    assert a == sorted(os.listdir(other))
    for name in a:
        with open(os.path.join(cfg["out"], name), "rb") as f1, \
             open(os.path.join(other, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_init_support_stays_inside_generator_window(tmp_path):
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    state, _ = read_state(cfg["out"])
    from ci2d.ci_step import support_mask
    rmask = support_mask(state.R)
    dt = state.v.dt
    inside = (state.times >= 0.25 - dt * 1.001) & (state.times <= 0.75 + dt * 1.001)
    assert np.all(~rmask | inside)


def test_cli_guard_exit_codes(tmp_path):
    # grid too coarse for the configured waves: numerical guard, exit 2
    cfg_path, _ = _small_cfg(tmp_path, grid={"n": 16},
                             toy={"lambda": 50, "sigma_inv": 10, "r": 2, "mu": 5})
    assert main(["check", "--config", cfg_path]) == 2
    # 3 nodes (5 with padding) are too few for the 7-node difference channel
    cfg_path, _ = _small_cfg(tmp_path, time={"n_t": 3})
    assert main(["init", "--config", cfg_path]) == 2
    # malformed schedule in paper mode: constraint violation, exit 3
    cfg_path, _ = _small_cfg(tmp_path, mode="paper",
                             paper={"A": 390625, "B": 100, "alpha": "1/8",
                                    "beta": "1/1000000000", "q": 0})
    assert main(["check", "--config", cfg_path]) == 3
    # step without a state directory: constraint violation family
    cfg_path, _ = _small_cfg(tmp_path)
    assert main(["step", "--config", cfg_path]) == 3


def test_cli_malformed_config_exits_3(tmp_path):
    path = tmp_path / "config.json"
    assert main(["check", "--config", str(tmp_path / "missing.json")]) == 3
    for text in ('{"theta": 0.4, "time": {',                 # cut off
                 "[1, 2]",                                  # not an object
                 json.dumps({"time": {"n_t": "9"}}),
                 json.dumps({"grid": {"n": "x"}})):
        path.write_text(text)
        assert main(["check", "--config", str(path)]) == 3, text


@pytest.mark.parametrize("initial", [
    {"generator": "stream", "band": "x"},
    {"generator": "shear", "support": [0.5]},
    {"generator": "shear", "support": [0.75, 0.25]},
    {"generator": "shear", "support": "early"},
    {"generator": "shear", "m": 1.5},
    {"generator": "stream", "seed": "7"},
    {"generator": "stream", "decay": "fast"},
    {"generator": "stream", "amplitude": [1.0]},
])
def test_cli_mistyped_initial_key_exits_3(tmp_path, initial):
    cfg_path, _ = _small_cfg(tmp_path, grid={"n": 16}, initial=initial)
    assert main(["init", "--config", cfg_path]) == 3


@pytest.mark.parametrize("paper", [{"alpha": "x"}, {"beta": "1/0"}])
def test_cli_check_unparsed_paper_fraction_exits_3(tmp_path, paper):
    cfg_path, _ = _small_cfg(tmp_path, mode="paper", paper=paper)
    out = tmp_path / "report"
    assert main(["check", "--config", cfg_path, "--out", str(out)]) == 3
    assert not out.exists()


def test_paper_fraction_may_be_a_number(tmp_path):
    cfg_path, _ = _small_cfg(tmp_path, mode="paper", paper={"alpha": 0.125, "beta": 1e-9})
    schedule = schedule_from_config(load_config(cfg_path))
    assert (schedule.alpha, schedule.beta) == (Fraction(1, 8), Fraction(1, 10 ** 9))


@pytest.mark.parametrize("out", [5, ""])
def test_cli_init_out_not_a_nonempty_string_exits_3(tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = _small_cfg(tmp_path, out=out)
    assert main(["init", "--config", cfg_path]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_cli_malformed_state_exits_3(tmp_path):
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    dump = Path(cfg["out"], "v_0000.ci2d")
    raw = dump.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    payload = raw[12 + length:]
    matrix = json.dumps(dict(json.loads(raw[12:12 + length]), rank="matrix")).encode()
    for bad in (raw[:-8],                                    # payload cut short
                MAGIC + struct.pack("<I", len(matrix)) + matrix + payload,
                raw[:12] + b"\xff" * length + payload):      # header not UTF-8
        dump.write_bytes(bad)
        assert main(["diagnose", "--state", cfg["out"]]) == 3
    dump.write_bytes(raw)
    manifest = Path(cfg["out"], "manifest.json")
    text = manifest.read_text()
    keys = json.loads(text)
    for bad in (text[:text.index(",")],                      # cut after its first key
                json.dumps({k: v for k, v in keys.items() if k != "nu"}),
                json.dumps(dict(keys, n_t=str(keys["n_t"])))):
        manifest.write_text(bad)
        assert main(["diagnose", "--state", cfg["out"]]) == 3
    assert main(["diagnose", "--state", str(tmp_path / "missing")]) == 3


def test_cli_dumps_must_match_manifest_exits_3(tmp_path):
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    state = Path(cfg["out"])
    text = (state / "manifest.json").read_text()
    # a manifest that claims a grid its dumps do not have
    (state / "manifest.json").write_text(json.dumps(dict(json.loads(text), n=128)))
    assert main(["diagnose", "--state", cfg["out"]]) == 3
    (state / "manifest.json").write_text(text)
    assert main(["diagnose", "--state", cfg["out"]]) == 0
    # scalar pressure dumps in the vector tracks
    for dump in [*state.glob("v_*"), *state.glob("dv_*")]:
        shutil.copyfile(state / ("p_" + dump.name.split("_")[1]), dump)
    assert main(["diagnose", "--state", cfg["out"]]) == 3


@pytest.mark.parametrize("prefix", ["dv", "dR"])
def test_cli_partial_derivative_channel_exits_3(tmp_path, prefix):
    # a channel is dumped at every node or at none; a partial set must not
    # load as a track without its channel
    cfg_path, cfg = _small_cfg(tmp_path, grid={"n": 32})
    assert main(["init", "--config", cfg_path]) == 0
    state = Path(cfg["out"])
    (state / f"{prefix}_0004.ci2d").unlink()
    with pytest.raises(ConfigError, match=f"{prefix}_0004"):
        read_state(cfg["out"])
    assert main(["diagnose", "--state", cfg["out"]]) == 3
    for dump in state.glob(f"{prefix}_*"):
        dump.unlink()
    loaded, _ = read_state(cfg["out"])
    assert not (loaded.v if prefix == "dv" else loaded.R).has_channel()
    assert main(["diagnose", "--state", cfg["out"]]) == 0


def test_cli_step_rejects_theta_unlike_init(tmp_path):
    # the toy's theta comes from the step config, the state's from init's
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    step_cfg, _ = _small_cfg(tmp_path, theta=0.6)
    out_dir = str(tmp_path / "state1")
    assert main(["step", "--config", step_cfg, "--state", cfg["out"],
                 "--out", out_dir]) == 3
    assert not os.path.exists(out_dir) and not os.path.exists(out_dir + ".partial")


def test_write_state_requires_consistent_grid(tmp_path):
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    state, manifest = read_state(cfg["out"])
    target = tmp_path / "copy"
    write_state(str(target), state, manifest["t_pad"], manifest["mode"],
                manifest["params"])
    again, _ = read_state(str(target))
    for a, b in zip(state.v.slices, again.v.slices):
        assert lp_norm(a - b, np.inf) < 1e-12


def test_cli_init_on_the_smallest_grid(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"n": 4}, "time": {"n_t": 9},
                                "out": str(tmp_path / "state0")}))
    assert main(["init", "--config", str(path)]) == 0
    state, _ = read_state(str(tmp_path / "state0"))
    assert state.grid.n == 4 and all(s.storage == 4 for s in state.R.slices)


def _dump_payload(path):
    """(header, payload bytes) of a field dump."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    return json.loads(raw[12:12 + length]), raw[12 + length:]


def test_cli_zero_state_reports_zero(tmp_path):
    # the zero generator's states: every command exits 0, every report
    # value is 0.0 and every dump holds +0.0 samples only
    cfg_path, cfg = _small_cfg(tmp_path)
    cfg["initial"] = {"generator": "zero"}
    Path(cfg_path).write_text(json.dumps(cfg))
    state0, state1 = tmp_path / "state0", tmp_path / "state1"
    assert main(["init", "--config", cfg_path]) == 0
    assert main(["diagnose", "--state", str(state0)]) == 0
    assert main(["step", "--config", cfg_path, "--state", str(state0),
                 "--out", str(state1)]) == 0
    assert main(["diagnose", "--state", str(state1)]) == 0
    for d in (state0, state1):
        rep = json.loads((d / "diagnose.json").read_text())
        assert len(rep["slices"]) == 21 and rep["R_LinfL1"] == 0.0
        assert {v for row in rep["slices"] for k, v in row.items() if k != "t"} == {0.0}
        assert set(rep["residual"]["per_slice_l2"]) == {0.0}
        assert rep["residual"]["max_rel"] == 0.0
        dumps = sorted(d.glob("*.ci2d"))
        assert len(dumps) == 21 * (5 if d == state0 else 4)   # v, dv, p, R and dR at init
        for path in dumps:
            header, payload = _dump_payload(path)
            ncomp = {"scalar": 1, "vector": 2, "symtensor": 2}[header["rank"]]
            assert header["n"] == 64 and header["reality"] is True
            assert payload == bytes(8 * ncomp * 64 * 64), path.name
    rows = (state1 / "step_diagnostics.csv").read_text().splitlines()[1:]
    assert rows and {float(line.split(",")[2]) for line in rows} == {0.0}
    report = json.loads((state1 / "step_report.json").read_text())
    assert report["residual"] == 0.0 and set(report["identities"].values()) == {0.0}


def _initialized_step(tmp_path):
    """`ci2d step` arguments from a fresh initial state, with the output
    directory and its temporary sibling."""
    cfg_path, cfg = _small_cfg(tmp_path)
    assert main(["init", "--config", cfg_path]) == 0
    out_dir = tmp_path / "state1"
    step = ["step", "--config", cfg_path, "--state", cfg["out"], "--out", str(out_dir)]
    return step, out_dir, tmp_path / "state1.partial"


@pytest.mark.parametrize("leftover", ["stale_partial", "existing_out"])
def test_cli_step_replaces_its_output_whole(tmp_path, leftover):
    step, out_dir, partial = _initialized_step(tmp_path)
    stale = partial if leftover == "stale_partial" else out_dir
    stale.mkdir()
    (stale / "sentinel").write_text("left by an earlier run")
    assert main(step) == 0
    assert not partial.exists()
    assert sorted(p.name for p in out_dir.iterdir() if p.suffix != ".ci2d") == [
        "manifest.json", "step_diagnostics.csv", "step_report.json"]


def test_cli_step_failure_leaves_no_output(tmp_path, monkeypatch):
    step, out_dir, partial = _initialized_step(tmp_path)

    def fail(*args, **kwargs):
        assert partial.is_dir()
        raise RuntimeError("disk full")

    monkeypatch.setattr("ci2d.diagnostics.write_step_csv", fail)
    with pytest.raises(RuntimeError, match="disk full"):
        main(step)
    assert not partial.exists() and not out_dir.exists()


def test_cli_step_guard_mid_stream_leaves_no_output(tmp_path, monkeypatch):
    # a guard that trips at the last active node, after the earlier nodes'
    # dumps are in `<out>.partial`, exits 2 and leaves an existing `<out>`
    # as it was
    from ci2d import ci_step
    from ci2d.errors import AliasingRisk

    step, out_dir, partial = _initialized_step(tmp_path)
    out_dir.mkdir()
    (out_dir / "sentinel").write_text("left by an earlier run")
    step_node = ci_step._step_node

    def trip_at_last_active(moll, cut, toy, i, peak=False):
        if i == np.flatnonzero((cut.values != 0.0) | (cut.dvalues != 0.0))[-1]:
            assert sorted(p.name for p in partial.glob("v_*")) == [
                f"v_{j:04d}.ci2d" for j in range(i)]
            raise AliasingRisk("tripped at the last active node")
        return step_node(moll, cut, toy, i, peak)

    monkeypatch.setattr(ci_step, "_step_node", trip_at_last_active)
    assert main(step) == 2
    assert not partial.exists()
    assert [p.name for p in out_dir.iterdir()] == ["sentinel"]
    assert (out_dir / "sentinel").read_text() == "left by an earlier run"


def test_cli_step_peak_memory(tmp_path):
    # `ci2d step` mollifies node by node and writes each node as it is made:
    # the traced peak of a step from a stepped n = 128 state, which has no
    # dR_ dumps, in two-component half planes (61.6 when the step mollified
    # the whole state and wrote the new state at the end; 37.4 here)
    import tracemalloc
    cfg_path, cfg = _small_cfg(tmp_path, grid={"n": 128}, time={"n_t": 9})
    cfg["initial"] = {"generator": "stream", "seed": 1}
    Path(cfg_path).write_text(json.dumps(cfg))
    state1 = str(tmp_path / "state1")
    assert main(["init", "--config", cfg_path]) == 0
    assert main(["step", "--config", cfg_path, "--state", cfg["out"], "--out", state1]) == 0
    assert not list(Path(state1).glob("dR_*"))
    step = ["step", "--config", cfg_path, "--state", state1, "--out", str(tmp_path / "state2")]
    assert main(step) == 0   # warm caches outside the trace
    tracemalloc.start()
    try:
        assert main(step) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = 128
    plane = 2 * n * (n // 2 + 1) * 16
    assert peak <= 48 * plane, peak / plane


def test_readme_defaults_match_the_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("`ci2d.config.DEFAULT_CONFIG`:")[1].split("```json")[1].split("```")[0]
    assert json.loads(block) == DEFAULT_CONFIG


def test_cli_modules_import_no_scipy():
    # ci2d runs on numpy alone: a fresh interpreter that loads every module
    # the command line uses holds no scipy module afterwards
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ci2d, ci2d.cli, "
            "ci2d.checks, ci2d.config, ci2d.diagnostics, ci2d.generators, "
            "ci2d.param_schedule, ci2d.state_io; "
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
