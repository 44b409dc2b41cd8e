"""The benchmark tracer's layer targets must resolve in ci2d.

`bench/tracer.py` looks every `LAYER_TARGETS` entry up by name, so a
deleted or renamed function would crash a traced benchmark run.  The
tracer is executed from its source (no bytecode is written next to it),
installed and uninstalled, and every patched reference must come back.
A traced benchmark round must also run and count its transforms.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    mod = types.ModuleType("ci2d_bench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_targets_resolve_and_restore():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    fft2 = np.fft.fft2
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        wrapped = {attr.split(".")[-1] for _, attr, _ in tracer_mod.LAYER_TARGETS}
        assert wrapped <= {attr for _, attr, _ in patches}
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
    assert np.fft.fft2 is fft2


def test_tracer_counts_real_transforms():
    # ci2d synthesizes real fields by numpy.fft.irfft2 from full storage,
    # or by two single-axis passes (ifftn, then irfftn) when pruned from
    # storage below the grid, and analyzes real samples by numpy.fft.rfft2
    # in one transform; every call is traced
    from ci2d import analyze, make_grid, random_field
    g = make_grid(32)
    for band, storage, passes in ((10, 32, 1), (2, 8, 2)):
        f = random_field(g, "vector", band, seed=1)
        assert f.storage == storage
        samples = f.values()
        tracer = _load_tracer().Tracer()
        try:
            tracer.install()
            before = tracer.counts["fft.transforms"]
            vals = f.values()
            assert tracer.counts["fft.transforms"] == before + passes
            analyze(g, vals, "vector")
            assert tracer.counts["fft.transforms"] == before + passes + 1
        finally:
            tracer.uninstall()
        assert np.array_equal(vals, samples)


def test_tracer_counts_fused_product_transforms():
    # the trace-free product synthesizes each vector operand once and
    # analyzes both tensor entries in one transform
    from ci2d import make_grid, random_field, sym_tracefree_product, tf_square
    g = make_grid(64)
    f = random_field(g, "vector", 12, seed=2)
    h = random_field(g, "vector", 9, seed=3)
    assert f.storage < 64 and h.storage < 64    # both pruned: 2 passes each
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        before = tracer.counts["fft.transforms"]
        tf_square(f)
        assert tracer.counts["fft.transforms"] == before + 3
        sym_tracefree_product(f, h)
        assert tracer.counts["fft.transforms"] == before + 8
    finally:
        tracer.uninstall()


def _nodes(state, idx):
    """The state at the time nodes idx (consecutive), channels included."""
    from ci2d import NSRState, TimeTrack

    def track(tr):
        d = None if tr.dslices is None else [tr.dslices[i] for i in idx]
        return TimeTrack(tr.times[idx], [tr.slices[i] for i in idx], d)

    return NSRState(track(state.v), track(state.p), track(state.R),
                    state.theta, state.nu, state.q, state.T)


def test_zero_slices_spend_no_transform(shear_state, tmp_path):
    # a zero slice adds no transform to the state report, nor to writing
    # or reading its dump; the nonzero nodes are the control
    from ci2d.diagnostics import state_report
    from ci2d.state_io import read_field, write_field
    zero = [i for i, s in enumerate(shear_state().v.slices) if s.is_zero]
    live = [i for i in range(8) if i not in zero]
    assert len(zero) == 6 and live == [3, 4]
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()

        def transforms(fn, *args):
            before = tracer.counts["fft.transforms"]
            fn(*args)
            return tracer.counts["fft.transforms"] - before

        full = transforms(state_report, shear_state())
        assert full > 0
        assert transforms(state_report, _nodes(shear_state(), live)) == full
        assert transforms(state_report, _nodes(shear_state(), zero[:3])) == 0
        state = shear_state()
        for i in range(8):
            for name, f in (("v", state.v.slices[i]), ("dv", state.v.dslices[i]),
                            ("p", state.p.slices[i]), ("R", state.R.slices[i])):
                path = str(tmp_path / f"{name}_{i}.ci2d")
                spent = transforms(write_field, path, f) + transforms(read_field, path)
                assert (spent == 0) == f.is_zero, (name, i)
                assert f.is_zero == (i in zero or name == "p")
    finally:
        tracer.uninstall()


def test_traced_round_is_correct_and_counts_its_work(tmp_path):
    # one traced round of the CLI chain, run from a copy of bench/ beside
    # this checkout's src/, so its trace and work files stay out of the
    # checkout
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "traces", "results", "__pycache__"))
    os.symlink(ROOT / "src", tmp_path / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_chain_n256", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    for name in ("fft.transforms", "spectral_field.multiply_mode_calls"):
        assert result["metrics"][name]["value"] > 0, name
