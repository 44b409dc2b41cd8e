import json
import os
import shutil
import struct
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ci2d import NSRState, TimeTrack, analyze, lp_norm, make_grid, random_field
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
    # every field is real: a dump in the old complex layout (header
    # "reality": false, re/im interleaved) is refused, by `read_field` and
    # by `ci2d diagnose` on a state that holds it (exit 3, no report)
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 9})
    assert main(["init", "--config", cfg_path]) == 0
    path = Path(cfg["out"], "p_0004.ci2d")
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + length])
    assert header["reality"] is True
    blob = json.dumps({**header, "reality": False}).encode("utf-8")
    samples = np.frombuffer(raw[12 + length:], dtype="<f8")
    payload = np.stack([samples, np.zeros_like(samples)], axis=-1).tobytes()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload)
    with pytest.raises(ConfigError, match="not a real field"):
        read_field(str(path))
    report = tmp_path / "report"
    assert main(["diagnose", "--state", cfg["out"], "--out", str(report)]) == 3
    assert not report.exists()


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
    from ci2d.ci_step import sup_norms, support_mask
    rmask = support_mask(sup_norms(state.R))
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


def test_cli_seven_node_guard_exits_2_and_writes_nothing(tmp_path, capsys):
    # 3 nodes in [0, T] (5 with padding) cannot carry the 7-node difference
    # stencil that makes init's d^2/dt^2 channel: exit 2, no state directory
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 3})
    assert main(["init", "--config", cfg_path]) == 2
    assert "need at least 7 nodes for the difference channel" in capsys.readouterr().err
    assert not os.path.exists(cfg["out"])


@pytest.mark.parametrize("command, target", [
    ("check", "--out"), ("init", "--out"), ("init", "config"),
    ("step", "--out"), ("step", "default"), ("diagnose", "--out")])
def test_cli_output_path_that_is_a_file_exits_3(tmp_path, command, target):
    # an output path that names an existing file is refused before any work
    # (check's properties, step's nodes) is done: exit 3, the file as it
    # was and no `.partial`
    cfg_path, cfg = _small_cfg(tmp_path)
    args = [command, "--config", cfg_path]
    if command in ("step", "diagnose"):
        assert main(["init", "--config", cfg_path]) == 0
        args += ["--state", cfg["out"]]
    path = Path(cfg["out"] + "_q1") if target == "default" else tmp_path / "taken"
    if target == "--out":
        args += ["--out", str(path)]
    if target == "config":
        _small_cfg(tmp_path, out=str(path))   # rewrites the config
    path.write_bytes(b"not a directory")
    assert main(args) == 3
    assert path.read_bytes() == b"not a directory"
    assert not list(tmp_path.glob("*.partial"))


def test_cli_malformed_config_exits_3(tmp_path):
    path = tmp_path / "config.json"
    assert main(["check", "--config", str(tmp_path / "missing.json")]) == 3
    for text in ('{"theta": 0.4, "time": {',                 # cut off
                 "[1, 2]",                                  # not an object
                 json.dumps({"time": {"n_t": "9"}}),
                 json.dumps({"grid": {"n": "x"}}),
                 '{"nu": 1e400}'):                           # past the float range
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


@pytest.mark.parametrize("initial, key", [
    ({"generator": "stream", "seed": -1}, "initial.seed"),   # numpy's generator refuses it
    ({"generator": "shear", "m": 0}, "initial.m"),           # sin(0 x2) is the zero field
])
def test_cli_initial_value_out_of_range_exits_3(tmp_path, capsys, initial, key):
    cfg_path, cfg = _small_cfg(tmp_path, grid={"n": 16}, initial=initial)
    assert main(["init", "--config", cfg_path]) == 3
    assert f"config value {key}" in capsys.readouterr().err
    assert not os.path.exists(cfg["out"])


@pytest.mark.parametrize("over", [{"time": {"t_pad": float("inf")}},
                                  {"time": {"T": float("nan")}}, {"nu": float("nan")}])
def test_cli_non_finite_config_value_exits_3(tmp_path, capsys, over):
    # Python's json reads NaN and Infinity; the config refuses them before
    # any node is built
    cfg_path, cfg = _small_cfg(tmp_path, **over)
    assert main(["init", "--config", cfg_path]) == 3
    assert "is not a finite number" in capsys.readouterr().err
    assert not os.path.exists(cfg["out"]) and not list(tmp_path.glob("*.partial"))


def test_cli_check_accepts_a_paper_q(tmp_path):
    # the gate decides every q at once, so a config may still carry paper.q
    cfg_path, _ = _small_cfg(tmp_path, mode="paper", paper={
        "A": 390625, "B": 2561, "alpha": "1/8", "beta": "1/1000000000", "q": 3})
    assert main(["check", "--config", cfg_path]) == 0


def test_cli_check_alpha_with_a_large_numerator_exits_3_at_once(tmp_path):
    # A^alpha is tested through the 100000-th root of A, with no power
    # A^99999 formed: the gate answers within the timeout
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "paper", "paper": {"alpha": "99999/100000"}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-m", "ci2d.cli", "check", "--config", str(path)],
                         capture_output=True, text=True, timeout=10,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 3
    labels = run.stderr.strip().split(" at ")[-1].split(", ")
    assert "7.16+" in labels and "++.3" in labels


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


@pytest.mark.parametrize("command", ["diagnose", "step"])
@pytest.mark.parametrize("key, value", [("T", float("nan")), ("t_pad", float("inf"))])
def test_cli_non_finite_manifest_value_exits_3(tmp_path, command, key, value):
    cfg_path, cfg = _small_cfg(tmp_path, grid={"n": 32})
    assert main(["init", "--config", cfg_path]) == 0
    manifest = Path(cfg["out"], "manifest.json")
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), **{key: value})))
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--state", cfg["out"], "--out", str(out)]) == 3
    assert not out.exists() and not list(tmp_path.glob("*.partial"))


@pytest.mark.parametrize("n", [float("nan"), float("inf")])
def test_cli_non_finite_dump_header_exits_3(tmp_path, n):
    cfg_path, cfg = _small_cfg(tmp_path, grid={"n": 32})
    assert main(["init", "--config", cfg_path]) == 0
    dump = Path(cfg["out"], "v_0003.ci2d")
    raw = dump.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    header = json.dumps(dict(json.loads(raw[12:12 + length]), n=n)).encode()
    dump.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + raw[12 + length:])
    out = tmp_path / "report"
    assert main(["diagnose", "--state", cfg["out"], "--out", str(out)]) == 3
    assert not out.exists()


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


def _earlier_output(out_dir):
    """out_dir as an earlier ci2d state: a manifest.json and a sentinel;
    returns its files' bytes by name."""
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text('{"q": 1}')
    (out_dir / "sentinel").write_text("left by an earlier run")
    return _files(out_dir)


def _files(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("leftover", ["stale_partial", "existing_out"])
def test_cli_step_replaces_its_output_whole(tmp_path, leftover):
    step, out_dir, partial = _initialized_step(tmp_path)
    if leftover == "existing_out":
        _earlier_output(out_dir)
    else:
        partial.mkdir()
        (partial / "sentinel").write_text("left by an earlier run")
    assert main(step) == 0
    assert not partial.exists()
    assert sorted(p.name for p in out_dir.iterdir() if p.suffix != ".ci2d") == [
        "manifest.json", "step_diagnostics.csv", "step_report.json"]


@pytest.mark.parametrize("command, out", [
    ("step", "cwd"), ("step", "input_parent"), ("step", "other_files"),
    ("init", "cwd"), ("init", "other_files")])
def test_cli_out_that_is_not_a_ci2d_output_exits_3(tmp_path, monkeypatch, command, out):
    # an `<out>` that is the working directory, that holds the input state
    # (its parent), or that holds files of no ci2d state is refused before
    # any work: exit 3 and every file as it was.  (The step used to delete
    # such an `<out>` before it renamed its output into place.)
    work = tmp_path / "work"
    work.mkdir()
    cfg_path, cfg = _small_cfg(work, time={"n_t": 9})
    assert main(["init", "--config", cfg_path]) == 0
    if out == "other_files":
        target = tmp_path / "other"
        target.mkdir()
        (target / "precious.txt").write_text("not a ci2d state")
    else:
        target = work
    if out == "cwd":
        monkeypatch.chdir(work)
    args = [command, "--config", cfg_path, "--out", "." if out == "cwd" else str(target)]
    if command == "step":
        args += ["--state", cfg["out"]]
    before = _files(tmp_path)
    assert main(args) == 3
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command, target", [
    ("step", "--out"), ("step", "default"), ("init", "--out")])
def test_cli_partial_that_is_a_file_exits_3(tmp_path, command, target):
    # a `<out>.partial` that exists as a file is refused before any work:
    # exit 3, the file as it was and no `<out>` (the step used to stop with
    # NotADirectoryError)
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 9})
    assert main(["init", "--config", cfg_path]) == 0
    out_dir = Path(cfg["out"] + "_q1") if target == "default" else tmp_path / "state1"
    args = [command, "--config", cfg_path]
    if command == "step":
        args += ["--state", cfg["out"]]
    if target == "--out":
        args += ["--out", str(out_dir)]
    partial = Path(str(out_dir) + ".partial")
    partial.write_bytes(b"not a directory")
    assert main(args) == 3
    assert partial.read_bytes() == b"not a directory"
    assert not out_dir.exists()


def test_cli_step_out_with_a_trailing_slash(tmp_path):
    # `--out state1/` names the directory state1, staged beside it in
    # state1.partial (the step used to stage inside it, in state1/.partial,
    # and to stop with FileNotFoundError when it replaced state1)
    step, out_dir, partial = _initialized_step(tmp_path)
    assert main(step[:-1] + [str(out_dir) + "/"]) == 0
    assert read_state(str(out_dir))[1]["q"] == 1
    assert not partial.exists()


def test_cli_init_replaces_a_stepped_state_whole(tmp_path):
    # `init` over a directory that holds a stepped state with more nodes
    # and its reports leaves only the new state's files, as a fresh `init`
    # writes them
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 17})
    state1, fresh = tmp_path / "state1", tmp_path / "fresh"
    assert main(["init", "--config", cfg_path]) == 0
    assert main(["step", "--config", cfg_path, "--state", cfg["out"],
                 "--out", str(state1)]) == 0
    assert main(["diagnose", "--state", str(state1)]) == 0
    _small_cfg(tmp_path, time={"n_t": 9})   # rewrites the config
    assert main(["init", "--config", cfg_path, "--out", str(state1)]) == 0
    assert main(["init", "--config", cfg_path, "--out", str(fresh)]) == 0
    assert _files(state1) == _files(fresh)
    assert read_state(str(state1))[1]["q"] == 0
    assert not Path(str(state1) + ".partial").exists()


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
    # as it was; the node is found from the input state's own cutoff
    from ci2d import ci_step
    from ci2d.errors import AliasingRisk

    step, out_dir, partial = _initialized_step(tmp_path)
    before = _earlier_output(out_dir)
    state, _ = read_state(step[step.index("--state") + 1])
    ell = load_config(step[step.index("--config") + 1])["toy"]["ell"]
    cut = ci_step.temporal_cutoff(state.times, ci_step._stress_sups(state, ell)[0], ell)
    last = np.flatnonzero((cut.values != 0.0) | (cut.dvalues != 0.0))[-1]
    step_node = ci_step._step_node

    def trip_at_last_active(node, t, phi, dphi, toy, peak=False):
        if t == state.times[last]:
            assert sorted(p.name for p in partial.glob("v_*")) == [
                f"v_{j:04d}.ci2d" for j in range(last)]
            raise AliasingRisk("tripped at the last active node")
        return step_node(node, t, phi, dphi, toy, peak)

    monkeypatch.setattr(ci_step, "_step_node", trip_at_last_active)
    assert main(step) == 2
    assert not partial.exists()
    assert _files(out_dir) == before


@pytest.mark.parametrize("scale, code", [(0.0, 0), (1.0, 3), (20.0, 3)])
def test_cli_step_refuses_an_input_that_is_not_a_solution(tmp_path, scale, code):
    # a divergence-free field added to v at the three plateau nodes, with
    # dv, p and R left as they were, gives an input residual of 1.0e-2
    # (scale 1) or 0.19 (scale 20); the step used to pass the first (exit 0,
    # new residual 5.9e-5) and to fail the second (exit 1) but write both.
    # Its mollified residual exceeds `init_residual`: exit 3, no output.
    # The unedited state (scale 0) steps as before
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 9},
                               toy={"lambda": 10, "sigma_inv": 2, "r": 1, "mu": 5},
                               initial={"generator": "stream", "seed": 7})
    assert main(["init", "--config", cfg_path]) == 0
    x = make_grid(64).nodes()
    X, Y = np.meshgrid(x, x, indexing="ij")
    defect = scale * 0.025 * np.stack([2.0 * np.sin(X) * np.sin(2.0 * Y),
                                       np.cos(X) * np.cos(2.0 * Y)])
    edited = 0
    for path in Path(cfg["out"]).glob("v_*.ci2d"):
        field, header = read_field(str(path))
        if header["time"] in (0.375, 0.5, 0.625):
            write_field(str(path), analyze(field.grid, field.values() + defect, "vector"),
                        header["time"])
            edited += 1
    assert edited == 3
    out_dir = tmp_path / "state1"
    assert main(["step", "--config", cfg_path, "--state", cfg["out"],
                 "--out", str(out_dir)]) == code
    assert out_dir.exists() == (code == 0)
    assert not (tmp_path / "state1.partial").exists()


def test_cli_step_failed_verdict_leaves_out_as_it_was(tmp_path):
    # a step whose residual exceeds `tolerances.residual` exits 1 and, like
    # every other failure, leaves an existing `<out>` as it was and no
    # `.partial`
    step, out_dir, partial = _initialized_step(tmp_path)
    assert main(step) == 0
    (out_dir / "sentinel").write_text("left by an earlier run")
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    _small_cfg(tmp_path, tolerances={"residual": 1e-30})   # rewrites the step's config
    assert main(step) == 1
    assert not partial.exists()
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_cli_step_peak_memory(tmp_path):
    # `ci2d step` reads its input node by node, mollifies node by node and
    # writes each node as it is made: the traced peak of a step from a
    # stepped n = 128 state, which has no dR_ dumps, in two-component half
    # planes (61.6 when the step mollified the whole state and wrote the new
    # state at the end; 37.4 when it read the whole input state first and
    # kept R_ls at every node; 31.2 when an active node held its stress
    # samples, the coefficients' weights over the whole grid, every d/dt a_k
    # and all seven perturbation accumulators at once; 26.7 here)
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
    assert peak <= 29 * plane, peak / plane


def _poke(path, value):
    """Overwrite one sample of a field dump with value."""
    raw = bytearray(path.read_bytes())
    start = 12 + int.from_bytes(raw[8:12], "little") + 8 * 100
    raw[start:start + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))


def _last_active_node(state_dir, cfg_path):
    from ci2d import ci_step
    state, _ = read_state(state_dir)
    ell = load_config(cfg_path)["toy"]["ell"]
    cut = ci_step.temporal_cutoff(state.times, ci_step._stress_sups(state, ell)[0], ell)
    return np.flatnonzero((cut.values != 0.0) | (cut.dvalues != 0.0))[-1]


@pytest.mark.parametrize("prefix", ["v", "p"])
def test_cli_non_finite_sample_exits_3(tmp_path, prefix):
    # a NaN sample in a dump of the last active node of an n = 64, n_t = 9
    # stream state: v is read by the step's first sweep, p only by the
    # second, after the earlier nodes' dumps are in `<out>.partial`.  Both
    # commands exit 3; the step leaves no `.partial` and `<out>` as it was
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 9},
                               initial={"generator": "stream", "seed": 1})
    assert main(["init", "--config", cfg_path]) == 0
    last = _last_active_node(cfg["out"], cfg_path)
    assert 0 < last < 10
    _poke(Path(cfg["out"], f"{prefix}_{last:04d}.ci2d"), float("nan"))
    with pytest.raises(ConfigError, match="not finite"):
        read_field(str(Path(cfg["out"], f"{prefix}_{last:04d}.ci2d")))
    out_dir = tmp_path / "state1"
    before = _earlier_output(out_dir)
    assert main(["step", "--config", cfg_path, "--state", cfg["out"],
                 "--out", str(out_dir)]) == 3
    assert not (tmp_path / "state1.partial").exists()
    assert _files(out_dir) == before
    report = tmp_path / "report"
    assert main(["diagnose", "--state", cfg["out"], "--out", str(report)]) == 3
    assert not report.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_cli_step_overflow_exits_2(tmp_path):
    # a sample of 1e300 is finite, so the dump reads, but the step's
    # products overflow on it: the node's scalars are not finite, and the
    # step stops with the numerical guard before it writes the node
    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": 9},
                               initial={"generator": "stream", "seed": 1})
    assert main(["init", "--config", cfg_path]) == 0
    _poke(Path(cfg["out"], "v_0005.ci2d"), 1e300)
    out_dir = tmp_path / "state1"
    assert main(["step", "--config", cfg_path, "--state", cfg["out"],
                 "--out", str(out_dir)]) == 2
    assert not out_dir.exists() and not (tmp_path / "state1.partial").exists()
    # its report holds no NaN either: diagnose stops with the guard too
    assert main(["diagnose", "--state", cfg["out"], "--out", str(tmp_path / "report")]) == 2
    assert not (tmp_path / "report").exists()


def _in_memory(state):
    """The state with every slice of every track read into memory."""
    def held(track):
        return TimeTrack(track.times, list(track.slices),
                         None if track.dslices is None else list(track.dslices))
    return NSRState(held(state.v), held(state.p), held(state.R), state.theta, state.nu,
                    state.q, state.T)


@pytest.mark.parametrize("n_t, taps", [(17, 1), (33, 3), (65, 7)])
@pytest.mark.parametrize("dR", [True, False])
def test_cli_step_and_diagnose_stream_the_in_memory_state(tmp_path, monkeypatch, n_t, taps,
                                                          dR):
    # `ci2d step` and `ci2d diagnose` read their input state through
    # windows over the temporal kernel's reach (widened to the fd6_channel
    # stencils of a state without dR_ dumps), and write byte for byte what
    # the in-memory step and report write of the same state; the step reads
    # each input dump at most twice (once per sweep), the report once
    from ci2d import iterate_step
    from ci2d.config import toy_from_config
    from ci2d.diagnostics import write_state_report, write_step_csv
    from ci2d.mollifier import TemporalKernel

    cfg_path, cfg = _small_cfg(tmp_path, time={"n_t": n_t})
    assert main(["init", "--config", cfg_path]) == 0
    state0 = Path(cfg["out"])
    if not dR:
        for dump in state0.glob("dR_*"):
            dump.unlink()
    lazy, manifest = read_state(str(state0))
    assert TemporalKernel(lazy.times, cfg["toy"]["ell"]).weights.size == taps
    assert lazy.R.has_channel() == dR
    state = _in_memory(lazy)

    reads = Counter()
    read = read_field

    def counted(path):
        reads[Path(path).name] += 1
        return read(path)

    monkeypatch.setattr("ci2d.state_io.read_field", counted)
    out_dir = tmp_path / "state1"
    assert main(["step", "--config", cfg_path, "--state", str(state0),
                 "--out", str(out_dir)]) == 0
    assert max(reads.values()) == 2   # v and R once per sweep, the rest once
    assert {name for name, count in reads.items() if count == 2} == {
        p.name for p in state0.glob("[vR]_*")}
    reads.clear()
    report = tmp_path / "report"
    assert main(["diagnose", "--state", str(state0), "--out", str(report)]) == 0
    assert set(reads.values()) == {1}
    assert {name.split("_")[0] for name in reads} == {"v", "dv", "p", "R"}

    want = tmp_path / "want"
    new, diags = iterate_step(state, toy_from_config(load_config(cfg_path)))
    write_state(str(want), new, manifest["t_pad"], manifest["mode"], manifest["params"])
    write_step_csv(str(want / "step_diagnostics.csv"), diags)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [p.name for p in want.iterdir()] + ["step_report.json"])
    for path in want.iterdir():
        assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name
    write_state_report(str(want), state)
    for name in ("diagnose.json", "spectrum.csv"):
        assert (report / name).read_bytes() == (want / name).read_bytes(), name


def test_cli_step_memory_follows_the_window(tmp_path):
    # a step's memory follows the temporal kernel's window, not the node
    # count: twice the horizon at the same dt = 1/16 (one kernel tap) leaves
    # the traced peak of a step from a stepped n = 64 stream state, which
    # has no dR_ dumps, where it was (37.1 and 37.0 two-component half
    # planes; 58.2 and 95.6 when the step read the whole input state first
    # and kept R_ls at every node).  The first step warms the caches.
    import tracemalloc
    peaks = []
    for T, n_t in ((1.0, 17), (2.0, 33)):
        work = tmp_path / f"T{T:g}"
        work.mkdir()
        cfg_path, cfg = _small_cfg(work, time={"n_t": n_t, "T": T},
                                   initial={"generator": "stream", "seed": 1})
        state1 = str(work / "state1")
        assert main(["init", "--config", cfg_path]) == 0
        assert main(["step", "--config", cfg_path, "--state", cfg["out"],
                     "--out", state1]) == 0
        tracemalloc.start()
        try:
            assert main(["step", "--config", cfg_path, "--state", state1,
                         "--out", str(work / "state2")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


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
