"""Every `ci2d check` property is a tier-1 test, one test id per name,
each asserting its own entry of one `ci2d check` report."""

import contextlib
import io
import json
import warnings

import pytest

from ci2d.checks import REGISTRY
from ci2d.cli import main

NAMES = [name for name, _ in REGISTRY]


@pytest.fixture(scope="module")
def check_run():
    # module scope runs outside the autouse warning filter of conftest.py
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*separation.*")
        warnings.filterwarnings("ignore", message=".*ordering.*")
        code = main(["check"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name", NAMES, ids=NAMES)
def test_property(check_run, name):
    entry = check_run[1]["properties"][NAMES.index(name)]
    assert entry["name"] == name and entry["passed"], entry["detail"]


def test_cli_check_default_config_counts(check_run):
    code, report = check_run
    assert code == 0 and report["n_failed"] == 0
    assert report["n_passed"] == len(REGISTRY)
    assert [p["name"] for p in report["properties"]] == NAMES


def test_weights_property_catches_a_swapped_antipode(monkeypatch):
    # negative control: two antipodes handed each other's weights
    import ci2d.checks as checks
    decompose = checks.decompose

    def swapped(*args):
        w = decompose(*args)
        a, b = [k for k in w if not k.positive][:2]
        w[a], w[b] = w[b], w[a]
        return w

    monkeypatch.setattr(checks, "decompose", swapped)
    assert not dict(REGISTRY)["geometry.weights_positive_bounded"]()[0]


def test_step_pair_and_blocks_properties_reach_multiply_mode(monkeypatch):
    # negative control: `multiply_mode` with the sign of its mode flipped.
    # `_perturbation_slice` makes every wave term through it, so its w_p
    # leaves the test-side oracle (numpy samples of exp(i lam k.x)), and
    # the properties that certify the step's pair against numpy samples fail
    import numpy as np

    import ci2d.checks as checks
    import ci2d.ci_step as ci_step
    from ci2d import analyze, eta, make_grid, multiply_mode
    from ci2d.building_blocks import WaveParams, lattice_vector, positive_directions
    from waves import mode_pair

    def flipped(acc, f, xi, amp):
        return multiply_mode(acc, f, (-xi[0], -xi[1]), amp)

    g, wp = make_grid(64), WaveParams(25, 5, 2, 3)
    k = positive_directions()[0]
    want = mode_pair(analyze(g, eta(k, wp, 0.3, g)[0].values()),
                     lattice_vector(k.five_k, wp.lam // 5), 1j * k.k_perp).values()

    def gap():
        w_p = checks._one_pair(k, wp, 0.3, g)["w_p"].values()
        return np.max(np.abs(w_p - want)) / np.max(np.abs(want))

    properties = dict(REGISTRY)
    assert gap() <= 1e-13
    monkeypatch.setattr(ci_step, "multiply_mode", flipped)
    assert gap() > 1.0
    for name in ("blocks.wave_pair", "blocks.sum_reality"):
        assert not properties[name]()[0], name
