import numpy as np
import pytest

from ci2d import (AliasingRisk, DivisibilityError, analyze, dirichlet_kernel,
                  directions, eta, make_grid, perp_grad)
from ci2d.building_blocks import (WaveParams, _eta_modes, eta_band, lattice_vector,
                                  positive_directions)
from ci2d.ci_step import _perturbation_slice
from waves import flow, mode_pair


def _one_pair(k, wp, t, grid):
    """The step's perturbation slice with a = 1 on direction k, 0 elsewhere."""
    return _perturbation_slice(grid, wp, {d: float(d == k) for d in positive_directions()},
                               {d: 0.0 for d in positive_directions()}, t)[1]


def test_direction_list():
    # the set's size, norms and pair gap are the `blocks.direction_set` property
    pos = {d.five_k for d in directions() if d.positive}
    assert pos == {(3, 4), (3, -4), (4, 3), (4, -3)}


def test_wave_amplitude_and_frequency():
    # the step's pair eta (b + c.c.) of b = i k-perp exp(i lam k.x) at lam = 5:
    # only the kernel's mean 1/(2r + 1) lands on lam k, so the coefficient
    # there is i k-perp / 3, and the stream function's is 1 / (3 lam)
    g = make_grid(32)
    k = [d for d in positive_directions() if d.five_k == (3, 4)][0]
    assert lattice_vector(k.five_k, 5 // 5) == (3, 4)
    pert = _one_pair(k, WaveParams(5, 1, 1, 1), 0.0, g)
    assert np.allclose(pert["w_p"].coeff((3, 4)), 1j * np.array([-4, 3]) / 15.0)
    assert np.allclose(pert["w_p"].coeff((-3, -4)), -1j * np.array([-4, 3]) / 15.0)
    assert pert["stream"].coeff((3, 4))[0] == pytest.approx(1.0 / 15.0)
    # the flow/potential identities and norms are the `blocks.wave_pair` property


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
    # oracle: the largest |xi|_inf over every direction's enumerated modes
    for tup in ((50, 10, 2, 5), (25, 5, 2, 3), (100, 20, 4, 5),
                (25, 5, 1, 1), (200, 10, 3, 7), (50, 5, 5, 2)):
        wp = WaveParams(*tup)
        modes = [xi for k in positive_directions() for xi in _eta_modes(k, wp, 0.0)[0]]
        assert eta_band(wp) == max(max(abs(x1), abs(x2)) for x1, x2 in modes), tup
    wp = WaveParams(50, 10, 2, 5)
    with pytest.raises(AliasingRisk):
        eta(positive_directions()[0], wp, 0.0, make_grid(16))


@pytest.mark.parametrize("K,N,p", [(0, 0, 4 / 3), (0, 1, 4), (1, 0, 4), (1, 1, 4 / 3)])
def test_flow_derivative_scaling_band(K, N, p):
    # measured norms track lam^N (lam sigma r mu)^K r^(1 - 2/p) within a
    # factor-4 band across one doubling of r and of lam
    g = make_grid(512)
    ks = np.fft.fftfreq(g.n, 1.0 / g.n)

    def measure(wp):
        w, dw = flow(positive_directions()[2], wp, 0.13, g.n)
        f = dw if K else w
        if N == 0:
            mag = np.sqrt(np.sum(np.abs(f) ** 2, axis=0))
        else:   # spectral derivatives of the complex samples
            c = np.fft.fft2(f)
            mag = np.sqrt(sum(np.abs(np.fft.ifft2(1j * kk * c)) ** 2
                              for kk in (ks[:, None], ks[None, :])).sum(axis=0))
        val = (np.sum(mag ** p) * g.cell_measure) ** (1 / p)
        pred = (wp.lam ** N * (wp.lam / wp.sigma_inv * wp.r * wp.mu) ** K
                * wp.r ** (1 - 2 / p))
        return val / pred

    base = measure(WaveParams(100, 20, 2, 5))
    double_r = measure(WaveParams(100, 20, 4, 5))
    double_lam = measure(WaveParams(200, 40, 2, 5))
    for other in (double_r, double_lam):
        assert 0.25 < other / base < 4.0


@pytest.mark.parametrize("sign", [1, -1])
def test_flow_oracle_is_the_step_pair(sign):
    # the test-side flow W_k from numpy samples of exp(i lam k.x): W_k + c.c.
    # and its d/dt are the step's w_p and dw_p with a = 1 on k, on a grid
    # where no shift clips; a flipped mode sign (the negative control)
    # gives -w_p instead
    g = make_grid(128)
    wp = WaveParams(25, 5, 2, 3)
    for k in positive_directions():
        pert = _one_pair(k, wp, 0.3, g)
        w, dw = flow(k, wp, 0.3, g.n, sign)
        gaps = [np.max(np.abs(2.0 * f.real - pert[name].values()))
                for f, name in ((w, "w_p"), (dw, "dw_p"))]
        scale = np.max(np.abs(pert["w_p"].values()))
        assert (max(gaps) <= 1e-13 * scale) == (sign == 1), gaps


@pytest.mark.parametrize("sign", [1, -1])
def test_mode_pair_oracle_is_the_step_pair(sign):
    # the test-side real pair from samples on the doubled grid, cut to the
    # grid band, gives the step's w_p, w_c and stream function from the
    # kernel product P; at n = 32 the shifts clip, as the step's do.  A
    # flipped mode sign (the negative control) misses w_p
    wp = WaveParams(25, 5, 2, 3)
    for n in (32, 64):
        g = make_grid(n)
        for k in positive_directions():
            pert = _one_pair(k, wp, 0.3, g)
            P = analyze(g, eta(k, wp, 0.3, g)[0].values())
            xi = lattice_vector(k.five_k, wp.lam // 5)
            got = {"w_p": mode_pair(P, xi, 1j * k.k_perp, sign),
                   "w_c": mode_pair(perp_grad(P), xi, 1.0 / wp.lam, sign),
                   "stream": mode_pair(P, xi, 1.0 / wp.lam, sign)}
            gaps = {name: np.max(np.abs(f.values() - pert[name].values()))
                    / np.max(np.abs(pert[name].values())) for name, f in got.items()}
            assert (gaps["w_p"] <= 1e-13) == (sign == 1), gaps
            assert max(gaps["w_c"], gaps["stream"]) <= 1e-13, gaps
