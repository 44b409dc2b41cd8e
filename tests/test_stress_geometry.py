import numpy as np
import pytest

from ci2d import (StressMatrix, decompose, default_ramp, directions, gamma,
                  make_grid, mean, multiply, reconstruct, toy_params)
from ci2d.building_blocks import intermittent_flow, positive_directions
from ci2d.stress_geometry import W11, W12, gamma_squared_grid

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


def test_gamma_at_zero_equal_across_directions():
    z = StressMatrix(0.0, 0.0)
    vals = [gamma(k, z) for k in directions()]
    expected = np.sqrt((W11 + W12) * RAMP.value_at_zero())
    assert np.allclose(vals, expected, atol=1e-12)


def test_gamma_antipodal_equality_and_positivity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        stress = StressMatrix(*rng.uniform(-100, 100, 2))
        for k in positive_directions():
            gk = gamma(k, stress)
            assert gk == gamma(k.antipode, stress)
            assert gk * gk >= 25 / 14 + 25 / 48 - 1e-9
            assert gk * gk <= (W11 + W12) * (stress.sup + 2) * (1 + 1e-9)


def test_gamma_monotone_in_first_entry():
    k3 = [d for d in positive_directions() if d.five_k == (4, 3)][0]
    vals = [gamma(k3, StressMatrix(r11, 0.3)) for r11 in np.linspace(-2, 2, 41)]
    assert np.all(np.diff(vals) >= -1e-12)


def test_decompose_identity_examples():
    r11, r12 = reconstruct(decompose(0.0, 0.0))
    assert abs(r11) < 1e-12 and abs(r12) < 1e-12
    r11, r12 = reconstruct(decompose(1.0, 0.0))
    assert abs(r11 - 1.0) < 1e-10 and abs(r12) < 1e-10


def test_weights_cancel_against_flow_means():
    # composite: the squared weights against the measured flow mean
    # tensors reproduce the negated stress
    g = make_grid(256)
    tp = toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0)
    rng = np.random.default_rng(5)
    means = {}
    for k in directions():
        w, _ = intermittent_flow(k, tp.wp, 0.29, g)
        wm, _ = intermittent_flow(k.antipode, tp.wp, 0.29, g)
        (w1, w2), (m1, m2) = ([u.component(j) for j in (0, 1)] for u in (w, wm))
        avg = lambda a, b: mean(multiply(a, b)).real
        t11 = 0.5 * avg(w1, m1) - 0.5 * avg(w2, m2)
        means[k.five_k] = np.array([[t11, avg(w1, m2)], [avg(w2, m1), -t11]])
    stress = rng.uniform(-50, 50, (5, 2))
    weights = decompose(stress[:, 0], stress[:, 1])
    for i, (r11, r12) in enumerate(stress):
        acc = sum(w2[i] * means[k.five_k] for k, w2 in weights.items())
        assert np.max(np.abs(acc + StressMatrix(r11, r12).as_array())) < 1e-10


def test_gamma_grid_vectorization_agrees():
    rng = np.random.default_rng(9)
    r11 = rng.uniform(-50, 50, 100)
    r12 = rng.uniform(-50, 50, 100)
    for k in positive_directions():
        vec = gamma_squared_grid(k, r11, r12)
        for i in (0, 17, 99):
            assert vec[i] == pytest.approx(
                gamma(k, StressMatrix(r11[i], r12[i])) ** 2, rel=1e-14)
