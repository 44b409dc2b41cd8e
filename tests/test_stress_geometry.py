import numpy as np
import pytest

from ci2d import decompose, default_ramp, directions, reconstruct, toy_params
from ci2d.stress_geometry import W11, W12
from waves import flow

RAMP = default_ramp()


def test_ramp_bounds_and_antisymmetry():
    # exact linear tails outside the mollifier window; sampled bounds and
    # antisymmetry are the `geometry.ramp_profile` property
    assert RAMP.value(np.array([70.0]))[0] == 71.0
    assert RAMP.value(np.array([-70.0]))[0] == 1.0


def test_ramp_value_at_zero_quadrature_oracle():
    # independent oracle: value(0) = 1 + int_0^1 s bump(s) ds on a dense
    # trapezoid grid, not the Gauss nodes the table was built from
    s = np.linspace(0.0, 1.0, 2_000_001)
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - s ** 2)), 0.0)
    full = np.linspace(-1.0, 1.0, 4_000_001)
    mass = np.trapezoid(np.exp(-1.0 / np.maximum(1e-300, 1.0 - full ** 2))
                        * (np.abs(full) < 1.0), full)
    oracle = 1.0 + np.trapezoid(s * bump, s) / mass
    assert RAMP.value_at_zero() == pytest.approx(oracle, abs=1e-8)


def test_ramp_tables_match_direct_quadrature():
    # the odd part of the bump's CDF and its first moment at 20,000 seeded
    # points against a direct quadrature on [-1, u]: 32 panels of
    # 48-point Gauss-Legendre (a single rule of several hundred numpy
    # nodes is itself off by a few 1e-14)
    from ci2d.mollifier import bump1
    u = np.random.default_rng(17).random(20_000)
    x, w = np.polynomial.legendre.leggauss(48)
    cdf = np.zeros_like(u)
    moment = np.zeros_like(u)
    edges = np.linspace(0.0, 1.0, 33)
    for a, b in zip(edges[:-1], edges[1:]):
        lo, hi = -1.0 + (u + 1.0) * a, -1.0 + (u + 1.0) * b
        ys = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x[None, :]
        wts = 0.5 * (hi - lo)[:, None] * w[None, :] * bump1(ys)
        cdf += wts.sum(axis=1)
        moment += (wts * ys).sum(axis=1)
    c, m = RAMP._tables(u)
    assert np.max(np.abs(c - (cdf - 0.5))) <= 1e-14
    assert np.max(np.abs(m - moment)) <= 1e-14


def test_gamma_at_zero_equal_across_directions():
    vals = [np.sqrt(w) for w in decompose(0.0, 0.0).values()]
    expected = np.sqrt((W11 + W12) * RAMP.value_at_zero())
    assert np.allclose(vals, expected, atol=1e-12)


def test_decompose_identity_examples():
    r11, r12 = reconstruct(decompose(0.0, 0.0).items())
    assert abs(r11) < 1e-12 and abs(r12) < 1e-12
    r11, r12 = reconstruct(decompose(1.0, 0.0).items())
    assert abs(r11 - 1.0) < 1e-10 and abs(r12) < 1e-10


def _flow_means(wp, sign=1):
    """{5k: the full display of <W_k x W_-k>} from numpy samples of the
    flows on n = 256, which resolves their products; sign=-1 gives W_-k
    the mode of W_k instead of its opposite (a negative control)."""
    means = {}
    for k in directions():
        (w1, w2), (m1, m2) = flow(k, wp, 0.29, 256)[0], flow(k.antipode, wp, 0.29, 256, sign)[0]
        avg = lambda a, b: np.mean(a * b).real
        t11 = 0.5 * avg(w1, m1) - 0.5 * avg(w2, m2)
        means[k.five_k] = np.array([[t11, avg(w1, m2)], [avg(w2, m1), -t11]])
    return means


def _cancellation_defect(means):
    """Largest gap between the weighted flow means and the negated stress
    over five seeded stresses."""
    rng = np.random.default_rng(5)
    stress = rng.uniform(-50, 50, (5, 2))
    weights = decompose(stress[:, 0], stress[:, 1])
    return max(np.max(np.abs(sum(w2[i] * means[k.five_k] for k, w2 in weights.items())
                             + np.array([[r11, r12], [r12, -r11]])))
               for i, (r11, r12) in enumerate(stress))


def test_weights_cancel_against_flow_means():
    # composite: the squared weights against the measured flow mean
    # tensors reproduce the negated stress
    tp = toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0)
    assert _cancellation_defect(_flow_means(tp.wp)) < 1e-10


def test_flow_means_need_opposite_modes():
    # negative control of the flow oracle: with the antipode's mode sign
    # flipped, W_k x W_-k oscillates at 2 lam k, its mean vanishes and the
    # stress is left uncancelled
    tp = toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0)
    assert _cancellation_defect(_flow_means(tp.wp, sign=-1)) > 1.0
