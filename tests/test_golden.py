"""Golden regression: a digest of one small step and its report, compared
at 1e-12.

Both files in tests/data were written by this module's `main()` from one
`iterate_step` at n = 128 on 21 time nodes (`stream` generator, seed 1,
wave tuple (25, 5, 2, 3)).  golden_step_n128.json holds, per slice, the
L2 and L-infinity norms and the band of v, dv, p and R, and a few
coefficients of v and R at the node where R peaks.
golden_step_report_n128.json holds the step's diagnostics: the CSV rows,
`identities`, `support` and `residual_report`.  A change that is meant to
leave the step's output as it is must pass these tests unchanged;
regenerate the files (`PYTHONPATH=src python tests/test_golden.py`) only
for a change that is meant to alter the output, and say so.
"""

import json
import os
import warnings

import numpy as np
import pytest

from ci2d import (init_state, iterate_step, lp_norm, make_grid, nsr_residual,
                  toy_params)
from ci2d.generators import build_initial, time_grid
from waves import full_plane

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_step_n128.json")
REPORT = os.path.join(os.path.dirname(__file__), "data", "golden_step_report_n128.json")
RTOL = 1e-12
N_COEFFS = 5


def _step():
    """(new state, diagnostics) of the golden configuration."""
    grid = make_grid(128)
    times = time_grid(1.0, 0.1, 17)
    u = build_initial("stream", grid, times, 1.0, {"seed": 1})
    state = init_state(u, theta=0.4, nu=1.0, T=1.0)
    toy = toy_params(25, 5, 2, 3, 0.05, 0.4, 1.0, a_const=5.0, eps_next=0.04)
    return iterate_step(state, toy)


@pytest.fixture(scope="module")
def golden_step():
    # a module fixture runs outside conftest's per-test warning filter
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*separation.*")
        return _step()


def _tracks(state):
    return {"v": state.v.slices, "dv": state.v.dslices,
            "p": state.p.slices, "R": state.R.slices}


def _norms(state):
    return {name: {"l2": [lp_norm(s, 2) for s in slices],
                   "linf": [lp_norm(s, np.inf) for s in slices],
                   "band": [s.band() for s in slices]}
            for name, slices in _tracks(state).items()}


def _peak(state):
    return int(np.argmax([lp_norm(s, np.inf) for s in state.R.slices]))


def _largest_modes(field, count):
    """(component, xi1, xi2) of the `count` largest coefficients, ranked
    over the full plane (a real field stores only its xi_2 >= 0 half)."""
    m = field.storage
    ks = np.fft.fftfreq(m, 1.0 / m).astype(int)
    full = full_plane(field.coeffs)
    mag = np.abs(full).ravel()
    out = []
    for flat in np.argsort(-mag, kind="stable")[:count]:
        c, i, j = np.unravel_index(flat, full.shape)
        out.append((int(c), int(ks[i]), int(ks[j])))
    return out


def digest(state) -> dict:
    peak = _peak(state)
    coeffs = {}
    for name in ("v", "R"):
        field = _tracks(state)[name][peak]
        coeffs[name] = [[c, x1, x2, field.coeff((x1, x2))[c].real,
                         field.coeff((x1, x2))[c].imag]
                        for c, x1, x2 in _largest_modes(field, N_COEFFS)]
    return {"peak": peak, "norms": _norms(state), "coeffs": coeffs}


def report(diags) -> dict:
    rep = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
           for k, v in diags.residual_report.items()}
    return {"rows": diags.rows, "identities": diags.identities,
            "support": diags.support, "residual_report": rep}


def test_step_matches_golden_digest(golden_step):
    with open(DATA) as fh:
        gold = json.load(fh)
    state, _ = golden_step
    got = digest(state)
    assert got["peak"] == gold["peak"]
    # the regenerator ranks the same coefficients that the file holds
    assert {name: [r[:3] for r in rows] for name, rows in got["coeffs"].items()} == \
        {name: [r[:3] for r in rows] for name, rows in gold["coeffs"].items()}
    for name, kinds in gold["norms"].items():
        for kind, want in kinds.items():
            have = got["norms"][name][kind]
            if kind == "band":
                assert have == want, f"{name} {kind}"
            else:
                # relative to the track's largest slice, so that slices
                # which vanish compare at the same absolute scale
                scale = max(max(want), 1e-300)
                np.testing.assert_allclose(have, want, rtol=RTOL, atol=RTOL * scale,
                                           err_msg=f"{name} {kind}")
    for name, rows in gold["coeffs"].items():
        field = _tracks(state)[name][gold["peak"]]
        scale = max(np.hypot(r[3], r[4]) for r in rows)
        for c, x1, x2, re, im in rows:
            have = field.coeff((x1, x2))[c]
            assert abs(have - complex(re, im)) <= RTOL * scale, f"{name} {(c, x1, x2)}"


def _assert_same(have, want, name):
    if isinstance(want, list):
        # relative to the list's largest entry, as for the digest's slices
        scale = max(max(map(abs, want)), 1e-300)
        np.testing.assert_allclose(have, want, rtol=RTOL, atol=RTOL * scale, err_msg=name)
    elif isinstance(want, float):
        assert abs(have - want) <= RTOL * abs(want), name
    else:   # flags, notes and absent predictions compare exactly
        assert have == want, name


def test_step_report_matches_golden_report(golden_step):
    with open(REPORT) as fh:
        gold = json.load(fh)
    got = report(golden_step[1])
    assert [row["quantity"] for row in got["rows"]] == [row["quantity"] for row in gold["rows"]]
    for have, want in zip(got["rows"], gold["rows"]):
        assert have.keys() == want.keys(), want["quantity"]
        for key, value in want.items():
            _assert_same(have[key], value, f"{want['quantity']} {key}")
    for section in ("identities", "support", "residual_report"):
        assert got[section].keys() == gold[section].keys(), section
        for key, value in gold[section].items():
            _assert_same(got[section][key], value, f"{section} {key}")


def test_step_residual_is_the_verifier_on_the_new_state(golden_step):
    new_state, diags = golden_step
    assert np.array_equal(diags.residual_report["per_slice_l2"],
                          nsr_residual(new_state)["per_slice_l2"])


def main():
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    state, diags = _step()
    for path, obj in ((DATA, digest(state)), (REPORT, report(diags))):
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
