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
