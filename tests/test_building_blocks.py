import numpy as np
import pytest

from ci2d import (AliasingRisk, DivisibilityError, NonIntegerFrequency,
                  dirichlet_kernel, directions, eta, intermittent_flow,
                  lp_norm, make_grid, wave_b, wave_psi)
from ci2d.building_blocks import (WaveParams, eta_band, pair_shell,
                                  positive_directions)
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
    with pytest.raises(AliasingRisk):
        dirichlet_kernel(40, make_grid(64))


def test_eta_band_guard():
    wp = WaveParams(50, 10, 2, 5)
    # the corner modes r (k +- k_perp) reach |xi|_inf = 7 r lambda sigma / 5
    assert eta_band(wp) == 7 * wp.r * wp.lam_sigma // 5
    with pytest.raises(AliasingRisk):
        eta(positive_directions()[0], wp, 0.0, make_grid(16))


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
