import numpy as np
import pytest

from ci2d import (AliasingRisk, DivisibilityError, NonIntegerFrequency,
                  SpectralField, dirichlet_kernel, directions, eta,
                  intermittent_flow, lp_norm, make_grid, mean, multiply,
                  wave_b, wave_psi)
from ci2d.building_blocks import (WaveParams, eta_band, flow_shell,
                                  pair_shell, positive_directions)
from ci2d.spectral_field import derive


def test_direction_list():
    # the set's size, norms and pair gap are the `blocks.direction_set` property
    pos = {d.five_k for d in directions() if d.positive}
    assert pos == {(3, 4), (3, -4), (4, 3), (4, -3)}


def test_wave_amplitude_and_frequency():
    g = make_grid(32)
    k = [d for d in positive_directions() if d.five_k == (3, 4)][0]
    b = wave_b(k, 5, g)
    amp = b.coeff((3, 4))
    assert np.allclose(amp, 1j * np.array([-4, 3]) / 5.0)
    assert wave_psi(k, 5, g).coeff((3, 4))[0] == pytest.approx(0.2)
    # the flow/potential identities and norms are the `blocks.wave_pair` property
    with pytest.raises(NonIntegerFrequency):
        wave_b(k, 7, g)


def test_wave_params_divisibility():
    WaveParams(50, 10, 2, 5)
    with pytest.raises(DivisibilityError):
        WaveParams(12, 4, 1, 2)       # lambda not in 5N
    with pytest.raises(DivisibilityError):
        WaveParams(10, 4, 1, 2)       # sigma_inv does not divide lambda
    with pytest.raises(DivisibilityError):
        WaveParams(20, 10, 1, 2)      # lambda sigma = 2, not a multiple of 5
    # ordering problems warn, they do not raise
    assert WaveParams(25, 5, 4, 3).separation_warnings()


def test_dirichlet_kernel_peak_by_direct_summation():
    g = make_grid(64)
    for r in (1, 2, 5):
        d = dirichlet_kernel(r, g)
        # oracle: sum of (2r+1)^2 unit phases at x = 0, weighted 1/(2r+1)
        assert d.values()[0, 0, 0] == pytest.approx((2 * r + 1), rel=1e-12)
    assert dirichlet_kernel(1, g).values()[0, 0, 0] == pytest.approx(3.0)
    with pytest.raises(AliasingRisk):
        dirichlet_kernel(40, make_grid(64))


def test_dirichlet_l2_and_l4():
    g = make_grid(256)
    for r in (2, 5, 10):
        assert abs(lp_norm(dirichlet_kernel(r, g), 2) - 2 * np.pi) < 1e-8
    ratios = [lp_norm(dirichlet_kernel(r, g), 4) / np.sqrt(r) for r in (4, 8, 16, 32)]
    for a, b in zip(ratios, ratios[1:]):
        assert 0.5 < b / a < 2.0


def test_eta_mass_transport_antipodes():
    g = make_grid(128)
    wp = WaveParams(50, 10, 2, 5)
    for k in directions():
        f, df = eta(k, wp, 0.37, g)
        # quadrature oracle for the mean square
        vals = f.values()
        brute = np.sum(vals[0] ** 2) * g.cell_measure / (2 * np.pi) ** 2
        assert abs(brute - 1.0) < 1e-10
        assert abs(mean(multiply(f, f)).real - 1.0) < 1e-10
        sgn = 1.0 if k.positive else -1.0
        kdot = (float(k.k[0]) * derive(f, (1, 0)).coeffs
                + float(k.k[1]) * derive(f, (0, 1)).coeffs)
        assert np.max(np.abs(df.coeffs / wp.mu - sgn * kdot)) <= 1e-12
        fm, _ = eta(k.antipode, wp, 0.37, g)
        assert np.array_equal(np.asarray(f.coeffs), np.asarray(fm.coeffs))


def test_eta_band_guard():
    wp = WaveParams(50, 10, 2, 5)
    assert eta_band(wp) <= 2 * 50 // 10 * 2 * 7 // 5 + 14
    with pytest.raises(AliasingRisk):
        eta(positive_directions()[0], wp, 0.0, make_grid(16))


def test_flow_shell_and_mean_tensor():
    g = make_grid(256)
    wp = WaveParams(50, 10, 2, 5)
    lo, hi = flow_shell(wp)
    assert wp.lam / 2 <= lo <= hi <= 2 * wp.lam
    k = positive_directions()[0]
    w, dw = intermittent_flow(k, wp, 0.37, g)
    rad, mag2 = w.mode_magnitudes()
    outside = mag2[(rad < wp.lam / 2) | (rad > 2 * wp.lam)].sum()
    assert outside <= 1e-12 * mag2.sum()
    # mean of w x w(antipode) equals -(k x k), through eta^2 having mean 1;
    # the entries of the full display are formed with multiply
    from ci2d import multiply, tracefree_product
    wm, _ = intermittent_flow(k.antipode, wp, 0.37, g)
    (w1, w2), (m1, m2) = ([u.component(j) for j in (0, 1)] for u in (w, wm))
    avg = lambda a, b: mean(multiply(a, b)).real
    t11 = 0.5 * avg(w1, m1) - 0.5 * avg(w2, m2)
    got = np.array([[t11, avg(w1, m2)], [avg(w2, m1), -t11]])
    assert np.max(np.abs(got + tracefree_product(k.k, k.k))) < 1e-12


def test_flow_lp_scaling_band():
    g = make_grid(512)
    vals = []
    for r in (2, 4, 8):
        wp = WaveParams(100, 20, r, 5)
        w, _ = intermittent_flow(positive_directions()[0], wp, 0.0, g)
        vals.append(lp_norm(w, 4) / r ** 0.5)
    for a, b in zip(vals, vals[1:]):
        assert 0.25 < b / a < 4.0


@pytest.mark.parametrize("K,N,p", [(0, 0, 4 / 3), (0, 1, 4), (1, 0, 4), (1, 1, 4 / 3)])
def test_flow_derivative_scaling_band(K, N, p):
    # measured norms track lam^N (lam sigma r mu)^K r^(1 - 2/p) within a
    # factor-4 band across one doubling of r and of lam
    g = make_grid(512)

    def measure(wp):
        w, dw = intermittent_flow(positive_directions()[2], wp, 0.13, g)
        f = dw if K else w
        if N == 0:
            val = lp_norm(f, p)
        else:
            comps = [derive(f, (1, 0)), derive(f, (0, 1))]
            mag = np.sqrt(sum(np.abs(c.values()) ** 2 for c in comps).sum(axis=0))
            val = (np.sum(mag ** p) * g.cell_measure) ** (1 / p)
        pred = (wp.lam ** N * (wp.lam / wp.sigma_inv * wp.r * wp.mu) ** K
                * wp.r ** (1 - 2 / p))
        return val / pred

    base = measure(WaveParams(100, 20, 2, 5))
    double_r = measure(WaveParams(100, 20, 4, 5))
    double_lam = measure(WaveParams(200, 40, 2, 5))
    for other in (double_r, double_lam):
        assert 0.25 < other / base < 4.0


def test_pair_shell_enumeration():
    wp = WaveParams(200, 40, 1, 5)
    ds = directions()
    for a in ds:
        for b in ds:
            if (a.five_k[0] + b.five_k[0], a.five_k[1] + b.five_k[1]) == (0, 0):
                continue
            lo, hi = pair_shell(a, b, wp)
            assert wp.lam / 5 <= lo and hi <= 4 * wp.lam


def test_flow_sum_reality():
    g = make_grid(128)
    wp = WaveParams(50, 10, 2, 5)
    rng = np.random.default_rng(3)
    amps = {k.five_k: rng.standard_normal() + 1j * rng.standard_normal()
            for k in positive_directions()}
    acc = SpectralField.zeros(g, "vector", reality=False)
    for k in directions():
        a = amps[k.five_k] if k.positive else np.conj(amps[k.antipode.five_k])
        w, _ = intermittent_flow(k, wp, 0.4, g)
        acc = acc + a * w
    vals = acc.values()
    assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals.real))
