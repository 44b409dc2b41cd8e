"""Golden regression: a digest of one small step, compared at 1e-12.

The digest in tests/data/golden_step_n128.json was written by this
module's `main()` from one `iterate_step` at n = 128 on 21 time nodes
(`stream` generator, seed 1, wave tuple (25, 5, 2, 3)).  It holds, per
slice, the L2 and L-infinity norms and the band of v, dv, p and R, and a
few coefficients of v and R at the node where R peaks.  A change that is
meant to leave the step's output as it is must pass this test unchanged;
regenerate the file (`PYTHONPATH=src python tests/test_golden.py`) only
for a change that is meant to alter the output, and say so.
"""

import json
import os

import numpy as np

from ci2d import init_state, iterate_step, lp_norm, make_grid, toy_params
from ci2d.generators import build_initial, time_grid

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_step_n128.json")
RTOL = 1e-12
N_COEFFS = 5


def _step():
    grid = make_grid(128)
    times = time_grid(1.0, 0.1, 17)
    u = build_initial("stream", grid, times, 1.0, {"seed": 1})
    state = init_state(u, theta=0.4, nu=1.0, T=1.0)
    toy = toy_params(25, 5, 2, 3, 0.05, 0.4, 1.0, a_const=5.0, eps_next=0.04)
    new_state, _ = iterate_step(state, toy)
    return new_state


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
    """(component, xi1, xi2) of the `count` largest coefficients."""
    m = field.storage
    ks = np.fft.fftfreq(m, 1.0 / m).astype(int)
    mag = np.abs(field.coeffs).ravel()
    out = []
    for flat in np.argsort(-mag, kind="stable")[:count]:
        c, i, j = np.unravel_index(flat, field.coeffs.shape)
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


def test_step_matches_golden_digest():
    with open(DATA) as fh:
        gold = json.load(fh)
    state = _step()
    got = digest(state)
    assert got["peak"] == gold["peak"]
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


def main():
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(digest(_step()), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
