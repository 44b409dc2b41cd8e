import numpy as np
import pytest

from ci2d import (InvalidInput, NSRState, SpectralField, TimeTrack,
                  anti_divergence, divergence, frac_laplacian, helmholtz,
                  init_state, iterate_step, lp_norm, make_grid, mean, mollify,
                  multiply, nsr_residual, project, random_field, temporal_cutoff,
                  tf_square, toy_params)
from ci2d.ci_step import (_coefficient_slice, _mollified_nodes, _perturbation_slice,
                          _step_node, _stress_sups, _switch_eval, _wave_slice,
                          fd6_channel, mask_intervals, sup_norms, support_mask)
from ci2d.errors import AliasingRisk, ConfigError, PaddingError
from ci2d.fourier_calculus import FreqBand, sym_tracefree_product
from ci2d.generators import bump_profile, build_initial, time_grid, zero_track
from ci2d.mollifier import (TemporalKernel, smoothstep, smoothstep_prime,
                            spatial_mollify)
from ci2d.building_blocks import positive_directions
from ci2d.stress_geometry import W11, W12, default_ramp

GRID = make_grid(128)
TIMES = time_grid(1.0, 0.1, 17)


def small_state(amplitude=1.0, theta=0.4, nu=1.0, grid=GRID):
    chi, dchi = bump_profile(TIMES, 0.5, 0.25)
    base = SpectralField.from_modes(
        grid, "vector",
        {(0, 1): np.array([-0.5j * amplitude, 0]),
         (0, -1): np.array([0.5j * amplitude, 0])})
    u = TimeTrack(TIMES, [float(c) * base for c in chi],
                  [float(c) * base for c in dchi])
    return init_state(u, theta=theta, nu=nu, T=1.0)


def small_toy(**kw):
    args = dict(lam=25, sigma_inv=5, r=2, mu=3, ell=0.05, theta=0.4, nu=1.0,
                a_const=5.0, eps_next=0.04)
    return toy_params(**{**args, **kw})


def _node(moll, i):
    """Node i of a mollified state, as `_mollified_nodes` yields it."""
    return (moll.v.slices[i], moll.v.dslices[i], moll.p.slices[i],
            moll.R.slices[i], moll.R.dslices[i])


def _switch_at(moll, cut, i):
    """Time, switch value and switch derivative at node i."""
    return float(moll.times[i]), float(cut.values[i]), float(cut.dvalues[i])


def _perturb(moll, cut, toy, i):
    """Stress samples, coefficients {k: (a, da)}, kernels and perturbation
    slice at node i of a mollified state, made as `_step_node` makes them:
    `_coefficient_slice` on the samples, read by `_perturbation_slice`."""
    R, dR = moll.R.slices[i], moll.R.dslices[i]
    t, phi, dphi = _switch_at(moll, cut, i)
    rv = R.values()
    a, da = _coefficient_slice(*rv, *dR.values(), phi, dphi, toy.a_const, toy.eps_next)
    coeffs = {k: (a[k], da[k]) for k in a}
    kernels, pert = _perturbation_slice(R.grid, toy.wp, a, da, t)
    # the perturbation takes each d/dt a_k out of da and leaves a as it was
    assert not da and all(a[k] is coeffs[k][0] for k in coeffs)
    return rv, coeffs, kernels, pert


def _assert_slices_off(new, moll, i):
    """The new (v, dv, p, R) of node i hold the mollified v, dv and p and
    anti_divergence(divergence(R_ls)), coefficient for coefficient."""
    want = (moll.v.slices[i], moll.v.dslices[i], moll.p.slices[i],
            anti_divergence(divergence(moll.R.slices[i])))
    for got, ref in zip(new, want, strict=True):
        assert np.array_equal(got.coeffs, ref.coeffs), i


def _assert_node_off(moll, cut, toy, i):
    """Node i keeps the values of the mollified v, dv and p, passes R_ls
    through anti_divergence(divergence(.)) and reports no perturbation
    sizes."""
    new, rep = _step_node(_node(moll, i), *_switch_at(moll, cut, i), toy)
    _assert_slices_off(new, moll, i)
    assert not {"w_p", "w_c", "w_t", "dw_p"} & rep.keys(), i


# -- initialization -----------------------------------------------------------

def test_init_zero_track():
    # the zero stress is part of the `step.init_residual` property
    state = init_state(zero_track(GRID, TIMES), 0.4, 1.0, 1.0)
    assert all(lp_norm(s, 2) == 0.0 for s in state.p.slices)


def test_init_shear_residual_and_support():
    state = small_state()
    # stress support stays inside the generator's temporal support
    assert np.all(~support_mask(sup_norms(state.R)) | support_mask(sup_norms(state.v)))
    assert all(abs(mean(s)).max() == 0.0 for s in state.v.slices)


def test_init_rejects_bad_input():
    bad = SpectralField.from_modes(
        GRID, "vector", {(1, 0): np.array([0.5, 0]), (-1, 0): np.array([0.5, 0])})
    track = TimeTrack(TIMES, [bad] * TIMES.size, [0.0 * bad] * TIMES.size)
    with pytest.raises(InvalidInput):
        init_state(track, 0.4, 1.0, 1.0)  # gradient field: not solenoidal
    nonzero_mean = SpectralField.from_modes(GRID, "vector", {(0, 0): np.array([1.0, 0.0])})
    track = TimeTrack(TIMES, [nonzero_mean] * TIMES.size, [0.0 * nonzero_mean] * TIMES.size)
    with pytest.raises(InvalidInput):
        init_state(track, 0.4, 1.0, 1.0)


# -- mollification ------------------------------------------------------------

def test_mollify_single_mode_damping_oracle():
    # independent 2D quadrature of the mollifier transform at the mode
    M, ell = 8, 0.05
    rho = np.linspace(0, 1, 4001)[None, :]
    th = np.linspace(0, 2 * np.pi, 1001)[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        prof = np.where(rho < 1, np.exp(-1.0 / np.maximum(1e-300, 1 - rho ** 2)), 0.0)
    num = np.trapezoid(np.trapezoid(prof * np.cos(M * ell * rho * np.cos(th)) * rho,
                                    rho[0], axis=1), th[:, 0])
    den = 2.0 * np.pi * np.trapezoid((prof * rho)[0], rho[0])
    oracle = 1.0 - num / den
    base = SpectralField.from_modes(
        GRID, "vector", {(0, M): np.array([0.5, 0]), (0, -M): np.array([0.5, 0])})
    u = TimeTrack(TIMES, [base] * TIMES.size, [0.0 * base] * TIMES.size)
    state = init_state(u, 0.0, 1.0, 1.0)
    def drift(moll):
        return max(lp_norm(a - b, np.inf) for a, b in zip(moll.v.slices, u.slices))

    got = drift(mollify(state, ell))
    assert got == pytest.approx(oracle, abs=1e-8)
    # damping grows with ell
    worse = drift(mollify(state, 0.1))
    assert worse > got


def test_bump2_hat_matches_bessel_oracle():
    # independent oracle: the Hankel form 2 pi int_0^1 rho bump(rho)
    # J0(u rho) d rho / mass by 2,000-point Gauss-Legendre; per block of
    # radii, so that each node count the cosine sum picks is exercised
    special = pytest.importorskip("scipy.special")
    from ci2d.mollifier import bump2_hat
    x, w = np.polynomial.legendre.leggauss(2000)
    rho, wts = 0.5 * (x + 1.0), 0.5 * w
    radial = wts * rho * np.exp(-1.0 / (1.0 - rho ** 2))
    for lo in range(0, 400, 50):
        u = np.linspace(lo, lo + 50, 501)
        oracle = special.j0(u[:, None] * rho[None, :]) @ radial / radial.sum()
        assert np.max(np.abs(bump2_hat(u) - oracle)) <= 2e-15, lo
    assert bump2_hat(0.0)[0] == pytest.approx(1.0, abs=1e-15)


def test_mollify_commutator_vanishes_for_space_time_constants():
    # constant-in-(x, t) velocity: both mollifications are exact on it and
    # the product commutator vanishes identically; with R = 0 the
    # mollified stress is that commutator alone
    c = SpectralField.from_modes(GRID, "vector", {(0, 0): np.array([2.0, -1.0])})
    zs = SpectralField.zeros(GRID, "scalar")
    zt = SpectralField.zeros(GRID, "symtensor")
    state = NSRState(
        v=TimeTrack(TIMES, [c] * TIMES.size, [0.0 * c] * TIMES.size),
        p=TimeTrack(TIMES, [zs] * TIMES.size),
        R=TimeTrack(TIMES, [zt] * TIMES.size, [zt] * TIMES.size),
        theta=0.4, nu=1.0, q=0, T=1.0)
    moll = mollify(state, 0.05)
    assert max(lp_norm(s, np.inf) for s in moll.R.slices) <= 1e-13
    assert max(lp_norm(a - b, np.inf)
               for a, b in zip(moll.v.slices, state.v.slices)) <= 1e-13


def test_mollified_triple_balances():
    assert nsr_residual(mollify(small_state(), 0.05))["max_rel"] <= 1e-12


def test_mollify_requires_padding():
    with pytest.raises(PaddingError):
        mollify(small_state(), 0.5)


def _whole_state_mollify(state, ell, per_tap=False):
    """(v_l, dv_l, p_l, R_ls, dR_ls) by the whole-state loop: every node of
    every track smoothed first, in time and then in space (per_tap: every
    input node in space, then the temporal sums), then the commutator
    products combined."""
    kern = TemporalKernel(state.times, ell)
    v = state.v if state.v.has_channel() else fd6_channel(state.v)
    R = state.R if state.R.has_channel() else fd6_channel(state.R)

    def smooth(fields):
        fields = list(fields)
        if per_tap:
            spatial = [spatial_mollify(f, ell) for f in fields]
            return [kern.apply_fields(spatial, i) for i in range(len(state.times))]
        return [spatial_mollify(kern.apply_fields(fields, i), ell)
                for i in range(len(state.times))]

    v_l, dv_l, p_l = smooth(v.slices), smooth(v.dslices), smooth(state.p.slices)
    vxv = smooth(tf_square(s, allow_interpolant=True) for s in v.slices)
    dvxv = smooth(sym_tracefree_product(ds, s, allow_interpolant=True)
                  for s, ds in zip(v.slices, v.dslices))
    R_ls = [r + (tf_square(a, allow_interpolant=True) - b)
            for r, a, b in zip(smooth(R.slices), v_l, vxv)]
    dR_ls = [r + (sym_tracefree_product(da, a, allow_interpolant=True) - b)
             for r, a, da, b in zip(smooth(R.dslices), v_l, dv_l, dvxv)]
    return v_l, dv_l, p_l, R_ls, dR_ls


@pytest.mark.parametrize("n_t, taps", [(9, 1), (33, 3), (65, 7)])
@pytest.mark.parametrize("channels", [True, False])
def test_mollify_matches_the_whole_state_loop_bitwise(n_t, taps, channels):
    # the node-by-node sweeps keep the input nodes' products and difference
    # stencils only over the kernel's reach, and make exactly the fields of
    # the whole-state loop; without channels d/dt v and d/dt R are fd6's
    times = time_grid(1.0, 0.1, n_t)
    state = init_state(build_initial("stream", make_grid(64), times, 1.0, {"seed": 1}),
                       0.4, 1.0, 1.0)
    if not channels:
        state = NSRState(TimeTrack(times, state.v.slices), state.p,
                         TimeTrack(times, state.R.slices), state.theta, state.nu,
                         state.q, state.T)
    assert TemporalKernel(times, 0.05).weights.size == taps
    want = _whole_state_mollify(state, 0.05)
    got = mollify(state, 0.05)
    got = (got.v.slices, got.v.dslices, got.p.slices, got.R.slices, got.R.dslices)
    for name, fields, oracle in zip(("v", "dv", "p", "R_ls", "dR_ls"), got, want):
        for i, (f, g) in enumerate(zip(fields, oracle, strict=True)):
            assert np.array_equal(f.coeffs, g.coeffs), (name, i)
    # the spatial multiplier commutes with the temporal weights: smoothing
    # each output node once stays within 1e-15 of each track's largest
    # coefficient of the form that smooths every tap in space first
    for name, fields, oracle in zip(("v", "dv", "p", "R_ls", "dR_ls"), want,
                                    _whole_state_mollify(state, 0.05, per_tap=True)):
        top = max(np.max(np.abs(g.coeffs)) for g in oracle)
        gap = max(np.max(np.abs((f - g).coeffs)) for f, g in zip(fields, oracle, strict=True))
        assert gap <= 1e-15 * top, (name, gap, top)
    # the step's first sweep keeps the sups of R_ls and of R, from the
    # same arithmetic
    R_ls_sups, R_sups = _stress_sups(state, 0.05)
    assert np.array_equal(R_ls_sups, [lp_norm(f, np.inf) for f in want[3]])
    assert np.array_equal(R_sups, sup_norms(state.R))
    # the step's second sweep makes d/dt R_ls at the active nodes alone, and
    # the same there when the active nodes leave gaps in the windows
    active = np.zeros(times.size, dtype=bool)
    active[[1, 2, times.size // 2, times.size - 3]] = True
    for i, node in enumerate(_mollified_nodes(state, 0.05, active)):
        for f, g in zip(node[:4], want):
            assert np.array_equal(f.coeffs, g[i].coeffs), i
        if active[i]:
            assert np.array_equal(node[4].coeffs, want[4][i].coeffs), i
        else:
            assert node[4] is None, i


def test_each_sweep_smooths_each_output_node_once(monkeypatch):
    # at n_t = 33 the kernel has three taps, and each sweep applies the
    # spatial multiplier once per track and output node: v, R and v x v in
    # `_stress_sups`; v, R, v x v, dv and p, and at an active node dR and
    # dv x v, in `_mollified_nodes`
    from ci2d import ci_step
    times = time_grid(1.0, 0.1, 33)
    assert TemporalKernel(times, 0.05).weights.size == 3
    state = init_state(build_initial("stream", make_grid(64), times, 1.0, {"seed": 1}),
                       0.4, 1.0, 1.0)
    calls = []
    monkeypatch.setattr(ci_step, "spatial_mollify", lambda f, ell, _f=ci_step.spatial_mollify:
                        calls.append(1) or _f(f, ell))
    _stress_sups(state, 0.05)
    assert len(calls) == 3 * times.size
    calls.clear()
    active = np.zeros(times.size, dtype=bool)
    active[[1, 2, times.size // 2]] = True
    for _ in _mollified_nodes(state, 0.05, active):
        pass
    assert len(calls) == 5 * times.size + 2 * active.sum()


# -- temporal cutoff ----------------------------------------------------------

def test_cutoff_zero_stress_gives_zero_switch():
    state = init_state(zero_track(GRID, TIMES), 0.4, 1.0, 1.0)
    moll = mollify(state, 0.05)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), 0.05)
    assert np.all(cut.values == 0.0)
    new_state, diags = iterate_step(state, small_toy())
    assert all(lp_norm(a - b, 2) == 0.0
               for a, b in zip(new_state.v.slices, moll.v.slices))


def _bump_stress(t_pad, center, halfwidth, seed):
    """41 nodes on [0, 1] of a random n = 32 stress times a bump in time."""
    times = time_grid(1.0, t_pad, 41)
    chi, dchi = bump_profile(times, center, halfwidth)
    base = anti_divergence(random_field(make_grid(32), "vector", 4, seed=seed))
    return times, TimeTrack(times, [float(c) * base for c in chi],
                            [float(c) * base for c in dchi])


def test_cutoff_neighborhood_containment():
    # stress supported in [0.3, 0.5] with ell = 0.05 keeps the switch
    # inside [0.25, 0.55] and at one on the support
    times, track = _bump_stress(0.1, 0.4, 0.1, seed=2)
    cut = temporal_cutoff(track.times, sup_norms(track), 0.05)
    sup = support_mask(sup_norms(track))
    assert np.all(cut.values[sup] == 1.0)
    outside = (times < 0.25 - 1e-9) | (times > 0.55 + 1e-9)
    assert np.all(cut.values[outside] == 0.0)
    assert np.all((cut.values >= 0.0) & (cut.values <= 1.0))


def test_cutoff_slope_scales_with_ell():
    times, track = _bump_stress(0.2, 0.5, 0.12, seed=3)
    slopes = {}
    intervals = mask_intervals(times, support_mask(sup_norms(track)))
    for ell in (0.05, 0.1):
        fine = np.linspace(times[0], times[-1], 20001)
        vals, dvals = _switch_eval(intervals, ell, fine)
        fd = np.gradient(vals, fine)
        slopes[ell] = np.max(np.abs(fd))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.max(np.abs(fd[3:-3] - dvals[3:-3])) <= 1e-3 / ell
        assert np.max(np.abs(dvals)) <= 4.5 / ell
    # the measured slope scales like 1/ell
    assert 1.5 < slopes[0.05] / slopes[0.1] < 2.5


def _interval_distance(intervals, t):
    """Distance from each time to the nearest of the intervals."""
    return np.min([np.maximum(np.maximum(a - t, t - b), 0.0) for a, b in intervals], axis=0)


def test_two_interval_switch():
    # the intervals lie closer than 2 ell, so their ramps overlap and the
    # switch and its derivative take the product over the other interval
    ell = 0.05
    intervals = [(0.2, 0.3), (0.38, 0.6)]
    fine = np.linspace(0.0, 1.0, 200001)
    vals, dvals = _switch_eval(intervals, ell, fine)
    dist = _interval_distance(intervals, fine)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(vals[dist <= ell / 2] == 1.0)
    assert np.all(vals[dist >= ell] == 0.0)
    assert np.max(np.abs(np.gradient(vals, fine) - dvals)) <= 1e-4


def test_three_interval_switch_is_one_minus_the_product():
    # three ramps overlap on (0.38, 0.40); the switch is 1 - prod_j (1 - p_j)
    # and its derivative sum_i p_i' prod_{j != i} (1 - p_j), where p_j is
    # interval j's product of a rising and a falling smooth step
    ell, w = 0.1, 0.05
    intervals = [(0.3, 0.31), (0.32, 0.33), (0.45, 0.5)]
    fine = np.linspace(0.0, 1.0, 20001)
    ramps = []
    for a, b in intervals:
        xa, xb = (fine - (a - ell)) / w, ((b + ell) - fine) / w
        ramps.append((smoothstep(xa) * smoothstep(xb),
                      smoothstep_prime(xa) / w * smoothstep(xb)
                      - smoothstep(xa) * smoothstep_prime(xb) / w))
    value = 1.0 - np.prod([1.0 - p for p, _ in ramps], axis=0)
    slope = sum(dp * np.prod([1.0 - q for j, (q, _) in enumerate(ramps) if j != i], axis=0)
                for i, (_, dp) in enumerate(ramps))
    overlap = np.all([(0.0 < p) & (p < 1.0) for p, _ in ramps], axis=0)
    assert overlap.sum() > 100
    vals, dvals = _switch_eval(intervals, ell, fine)
    assert np.array_equal(vals, value)
    np.testing.assert_allclose(dvals, slope, rtol=0.0, atol=1e-12)


def test_cutoff_two_bump_stress():
    # two bumps 0.2 apart leave two support intervals 0.05 apart
    ell = 0.05
    times = time_grid(1.0, 0.1, 41)
    chi = bump_profile(times, 0.3, 0.1)[0] + bump_profile(times, 0.5, 0.1)[0]
    base = anti_divergence(random_field(make_grid(32), "vector", 4, seed=2))
    track = TimeTrack(times, [float(c) * base for c in chi])
    intervals = mask_intervals(times, support_mask(sup_norms(track)))
    assert len(intervals) == 2 and intervals[1][0] - intervals[0][1] < 2 * ell
    cut = temporal_cutoff(track.times, sup_norms(track), ell)
    dist = _interval_distance(intervals, times)
    assert np.all((cut.values >= 0.0) & (cut.values <= 1.0))
    assert np.all(cut.values[dist < ell / 2 - 1e-9] == 1.0)
    assert np.all(cut.values[dist > ell + 1e-9] == 0.0)
    assert np.all(cut.values[support_mask(sup_norms(track))] == 1.0)


def _mask_intervals_loop(times, mask):
    """The run-by-run scan that `mask_intervals` replaced, kept as its reference."""
    out, i, n = [], 0, mask.size
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            out.append((float(times[i]), float(times[j])))
            i = j + 1
        else:
            i += 1
    return out


def test_mask_intervals_matches_loop_reference():
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 33):
        for density in (0.0, 0.3, 0.7, 1.0):
            mask = rng.random(size) < density
            times = np.sort(rng.random(size))
            assert mask_intervals(times, mask) == _mask_intervals_loop(times, mask)


# -- coefficients --------------------------------------------------------------

def test_coefficients_flat_stress_is_isotropic():
    chi, _ = bump_profile(TIMES, 0.5, 0.25)
    z = SpectralField.zeros(GRID, "symtensor")
    cut_track = TimeTrack(TIMES, [float(c) * anti_divergence(
        random_field(GRID, "vector", 2, seed=4)) for c in chi])
    cut = temporal_cutoff(TIMES, sup_norms(cut_track), 0.05)
    i = int(np.argmax(cut.values))
    toy = small_toy()
    a, _ = _coefficient_slice(*z.values(), *z.values(), float(cut.values[i]),
                              float(cut.dvalues[i]), toy.a_const, toy.eps_next)
    # one coefficient per positive direction; the step uses it for the
    # antipode as well
    ks = positive_directions()
    assert list(a) == ks
    ref = a[ks[0]]
    expected = np.sqrt(5.0 * 0.04) * np.sqrt((W11 + W12) * default_ramp().value_at_zero())
    assert np.max(np.abs(ref)) == pytest.approx(expected, rel=1e-12)
    for k in ks[1:]:
        assert np.max(np.abs(a[k] - ref)) < 1e-12


def test_coefficient_slice_matches_per_direction_weights_bitwise():
    # the ramp runs once per stress entry for all directions; the weights
    # must be the explicit formula and its chain rule, bit for bit, inside
    # the ramp's window and on its linear pieces
    rng = np.random.default_rng(11)
    a_const, eps_next, phi, dphi = 5.0, 0.04, 0.7, -2.5
    ae = a_const * eps_next
    r11, r12 = (ae * rng.uniform(-3.0, 3.0, (32, 32)) for _ in range(2))
    r11[0, :5] = ae * np.array([-1.0, 1.0, 0.0, -0.5, 0.5])
    dr11, dr12 = rng.standard_normal((2, 32, 32))
    a_slice, da_slice = _coefficient_slice(r11, r12, dr11, dr12, phi, dphi, a_const, eps_next)
    inv = 1.0 / ae
    g11, g12, dg11, dg12 = r11 * inv, r12 * inv, dr11 * inv, dr12 * inv
    ramp = default_ramp()
    for k in positive_directions():
        s1, s2 = k.gamma_signs
        g2 = W11 * ramp.value(s1 * g11) + W12 * ramp.value(s2 * g12)
        dg2 = (W11 * ramp.derivative(s1 * g11) * s1 * dg11
               + W12 * ramp.derivative(s2 * g12) * s2 * dg12)
        g = np.sqrt(g2)
        a, da = a_slice[k], da_slice[k]
        assert np.array_equal(a, np.sqrt(ae) * g * phi)
        assert np.array_equal(da, np.sqrt(ae) * (g * dphi + phi * dg2 / (2.0 * g)))


def test_coefficient_size_tracks_amplitude_constants():
    # measured form of the size bound: the squared weights are affine in
    # the normalized stress, so the slice L2 norm of a_k is controlled by
    # sqrt(A eps) times the stress budget
    state = small_state()
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    cell = state.grid.cell_measure
    ae = toy.a_const * toy.eps_next
    for i in range(len(moll.R)):
        rv, a_slice, _, _ = _perturb(moll, cut, toy, i)
        budget = ae * (W11 + W12) * (
            np.sum(np.hypot(rv[0], rv[1])) * cell / ae + 2.0 * (2 * np.pi) ** 2)
        for k in positive_directions():
            lhs = np.sum(a_slice[k][0] ** 2) * cell
            assert lhs <= budget * (1 + 1e-9)


def test_coefficient_cancellation_on_plateau():
    # the cancellation is an algebraic identity of the weights; it holds
    # to round-off for the coefficient values the step uses
    state = small_state()
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    plateau = np.where(cut.values >= 1.0)[0]
    i = int(plateau[len(plateau) // 2])
    rv, a_slice, _, _ = _perturb(moll, cut, toy, i)
    acc11, acc12 = rv[0].copy(), rv[1].copy()
    for k in positive_directions():
        a = a_slice[k][0]
        acc11 -= 2.0 * a * a * 0.5 * (k.k[0] ** 2 - k.k[1] ** 2)
        acc12 -= 2.0 * a * a * k.k[0] * k.k[1]
    assert np.max(np.hypot(acc11, acc12)) <= 1e-8 * np.max(np.abs(rv))


# -- perturbations -------------------------------------------------------------

@pytest.mark.parametrize("n, wave", [(128, (25, 5, 2, 3)), (256, (50, 10, 2, 5))])
def test_wave_slice_square_samples_match_projected_products(n, wave):
    # oracle: eta^2 and 2 eta d/dt eta as spectral products, projected off
    # the mean and synthesized on the grid
    from ci2d.building_blocks import WaveParams, eta
    grid, wp = make_grid(n), WaveParams(*wave)
    for k in positive_directions():
        f, df = eta(k, wp, 0.37, grid)
        waves = _wave_slice(k, wp, 0.37, grid)
        for name, sq in (("p_eta2_vals", multiply(f, f)), ("dp_eta2_vals", 2.0 * multiply(f, df))):
            ref = project(sq, FreqBand.nonzero()).values(n)
            assert np.max(np.abs(waves[name] - ref)) <= 1e-13 * np.max(np.abs(ref)), name


def _perturbation_setup(amplitude=0.05, lam=50, sigma_inv=10, n=256):
    state = small_state(amplitude, grid=make_grid(n))
    toy = small_toy(lam=lam, sigma_inv=sigma_inv, mu=5)
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    return state, toy, moll, cut


def test_every_node_goes_through_the_assembly(monkeypatch):
    # the golden configuration's 21-node step assembles each node once; an
    # inactive node is handed the zero perturbation and corrector, so its
    # v, dv and p are the mollified ones and its R is
    # anti_divergence(divergence(R_ls)), coefficient for coefficient
    from ci2d import ci_step
    state = init_state(build_initial("stream", GRID, TIMES, 1.0, {"seed": 1}), 0.4, 1.0, 1.0)
    toy = small_toy()
    calls = []
    monkeypatch.setattr(ci_step, "assemble_stress", lambda *a, _f=ci_step.assemble_stress:
                        calls.append(1) or _f(*a))
    new, _ = iterate_step(state, toy)
    assert len(calls) == len(state.times) == 21
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, _stress_sups(state, toy.ell)[0], toy.ell)
    off = np.flatnonzero((cut.values == 0.0) & (cut.dvalues == 0.0))
    assert 0 < off.size < len(state.times)
    for i in off:
        _assert_slices_off((new.v.slices[i], new.v.dslices[i], new.p.slices[i],
                            new.R.slices[i]), moll, i)


def test_perturbations_vanish_without_cutoff():
    state = small_state(amplitude=0.0)
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    assert np.all(cut.values == 0.0) and np.all(cut.dvalues == 0.0)
    for i in range(len(TIMES)):
        _assert_node_off(moll, cut, toy, i)


def test_stream_identity_and_solenoidality():
    from ci2d import analyze, perp_grad
    from ci2d.building_blocks import eta, lattice_vector
    from waves import mode_pair
    state, toy, moll, cut = _perturbation_setup()
    i = int(np.argmax(cut.values))
    _, a_slice, _, pert = _perturb(moll, cut, toy, i)
    w_p, w_c, w_t = pert["w_p"], pert["w_c"], pert["w_t"]
    grid = state.grid
    # rebuild the potential from the public pieces: per direction, the real
    # pair of the kernel product with exp(i lam k.x) / lam, from samples
    stream = SpectralField.zeros(grid, "scalar")
    for k in positive_directions():
        e, _ = eta(k, toy.wp, float(TIMES[i]), grid)
        prod = analyze(grid, a_slice[k][0] * e.values())
        stream = stream + mode_pair(prod, lattice_vector(k.five_k, toy.wp.lam // 5),
                                    1.0 / toy.wp.lam)
    lhs = w_p + w_c - perp_grad(stream)
    assert lp_norm(lhs, 2) <= 1e-10 * lp_norm(w_p, 2)
    assert lp_norm(divergence(w_p + w_c), 2) <= 1e-10 * lp_norm(w_p, 2)
    assert lp_norm(divergence(w_t), 2) <= 1e-10 * max(lp_norm(w_t, 2), 1e-300)
    assert np.isrealobj(w_p.values())


def _roll_shift(coeffs, xi, n):
    """exp(i xi . x) f for stacked full-plane FFT-layout components, as a
    roll on storage _fft_size(m/2 - 1 + |xi|_inf, n), where every
    stored coefficient lands on its own target.  On storage n the sources
    whose target lies past the grid band wrap around, and those target
    rows and columns are zeroed.  Returns the shifted array and the
    largest share of a component's energy sum |c|^2 that was dropped."""
    from ci2d.spectral_field import _fft_size
    from waves import on_grid
    x1, x2 = int(xi[0]), int(xi[1])
    m = _fft_size(coeffs.shape[-1] // 2 - 1 + max(abs(x1), abs(x2)), n)
    out = np.roll(on_grid(coeffs, m), (x1, x2), axis=(-2, -1))
    if m < n:
        return out, 0.0
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    rows, cols = ((np.flatnonzero(np.abs(ks + x) > n // 2 - 1) + x) % n for x in (x1, x2))
    strip_r = out[..., rows, :]
    out[..., rows, :] = 0.0
    strip_c = out[..., :, cols]
    out[..., :, cols] = 0.0
    dropped = (np.sum(np.abs(strip_r) ** 2, axis=(-2, -1))
               + np.sum(np.abs(strip_c) ** 2, axis=(-2, -1)))
    total = np.array([np.vdot(c, c).real for c in coeffs])
    return out, float(np.max(dropped / np.where(total > 0.0, total, 1.0)))


def _perturbation_oracle(grid, wp, a_slice, t, mirror=False):
    """The perturbation slice at time t from full-plane roll shifts: both
    shifts (+xi and -xi) of every direction made explicitly or, with
    mirror=True, the +xi shift alone and each sum's conjugate mirror
    c(xi) -> conj c(-xi) added once after the loop.  The kernel samples
    come from `_wave_slice`.  Returns the seven fields as full planes on
    the n-grid and the largest energy share a shift dropped."""
    from ci2d import analyze, perp_grad
    from ci2d.building_blocks import lattice_vector
    from ci2d.spectral_field import _resize
    from waves import conj_mirror, full_plane, on_grid
    n, lam = grid.n, wp.lam
    acc = {name: np.zeros((2, n, n), dtype=complex) for name in ("w_p", "dw_p", "w_c", "dw_c")}
    stream = np.zeros((1, n, n), dtype=complex)
    carrier = np.zeros((4, n, n), dtype=complex)
    clipped = 0.0
    for k in positive_directions():
        a, da = a_slice[k]
        wav = _wave_slice(k, wp, t, grid)
        P = analyze(grid, a * wav["eta_vals"])
        dP = analyze(grid, da * wav["eta_vals"] + a * wav["deta_vals"])
        m = max(P.storage, dP.storage)
        stack = np.concatenate([full_plane(_resize(f.coeffs, m))
                                for f in (P, dP, perp_grad(P), perp_grad(dP))])
        xi = lattice_vector(k.five_k, lam // 5)
        shifts = ((xi, 1.0),) if mirror else ((xi, 1.0), ((-xi[0], -xi[1]), -1.0))
        for shift, sign in shifts:
            sh, frac = _roll_shift(stack, shift, n)
            sh = on_grid(sh, n)
            clipped = max(clipped, frac)
            amp = (sign * 1j * k.k_perp)[:, None, None]
            acc["w_p"] += amp * sh[0]
            acc["dw_p"] += amp * sh[1]
            acc["w_c"] += sh[2:4] / lam
            acc["dw_c"] += sh[4:6] / lam
            stream += sh[0:1] / lam
        m_f = analyze(grid, a * a * wav["p_eta2_vals"])
        dm_f = analyze(grid, 2.0 * a * da * wav["p_eta2_vals"] + a * a * wav["dp_eta2_vals"])
        carrier[:2] += full_plane(_resize(m_f.coeffs, n)) * k.k[:, None, None]
        carrier[2:] += full_plane(_resize(dm_f.coeffs, n)) * k.k[:, None, None]
    if mirror:
        for c in (*acc.values(), stream):
            c += conj_mirror(c)
    out = dict(acc, stream=stream)
    for name, c in (("w_t", carrier[:2]), ("dw_t", carrier[2:])):
        w_t = (2.0 / wp.mu) * helmholtz(project(
            SpectralField(grid, "vector", c[..., :n // 2 + 1]), FreqBand.nonzero()))
        out[name] = full_plane(_resize(w_t.coeffs, n))
    return out, clipped


def _assert_matches_perturbation_oracle(pert, oracle, clipped):
    from ci2d.spectral_field import _resize
    from waves import full_plane
    for name in ("w_p", "w_c", "w_t", "dw_p", "dw_c", "dw_t", "stream"):
        ref = oracle[name]
        gap = np.max(np.abs(full_plane(_resize(pert[name].coeffs, ref.shape[-1])) - ref))
        assert 0.0 < np.max(np.abs(ref))
        assert gap <= 1e-14 * np.max(np.abs(ref)), name
    assert pert["clipped"] == pytest.approx(clipped, rel=1e-14, abs=0.0)


def test_perturbation_slice_mirror_matches_both_explicit_shifts():
    state = small_state()
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    node = int(np.argmax(cut.values))
    _, a_slice, _, pert = _perturb(moll, cut, toy, node)
    oracle, clipped = _perturbation_oracle(GRID, toy.wp, a_slice, float(moll.times[node]))
    # the -xi strips hold the mirrored coefficients of the +xi strips, so
    # the two dropped shares agree to the round-off of the operands' symmetry
    assert clipped > 0.0
    _assert_matches_perturbation_oracle(pert, oracle, clipped)


@pytest.mark.parametrize("n, wave", [(128, (25, 5, 2, 3)), (256, (50, 10, 2, 5))])
def test_perturbation_slice_matches_roll_and_mirror_oracle(n, wave):
    # the block-added half planes against full-plane rolls of the +xi
    # shift with the accumulators' conjugate mirrors added afterwards
    lam, sigma_inv, r, mu = wave
    grid = make_grid(n)
    toy = small_toy(lam=lam, sigma_inv=sigma_inv, r=r, mu=mu)
    moll = mollify(small_state(grid=grid), toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    node = int(np.argmax(cut.values))
    _, a_slice, _, pert = _perturb(moll, cut, toy, node)
    oracle, clipped = _perturbation_oracle(grid, toy.wp, a_slice, float(moll.times[node]),
                                           mirror=True)
    assert clipped > 0.0
    _assert_matches_perturbation_oracle(pert, oracle, clipped)


def test_pstar_real_pairs_match_complex_pair_syntheses():
    # oracle: every pair spectrum goes through numpy's complex inverse FFT
    # and the accumulated samples through its complex forward FFT; the
    # transport moments are formed here from `_wave_slice`'s samples
    from ci2d import analyze
    from ci2d.ci_step import _inv_lap_div_const, _pstar_slice
    from ci2d.spectral_field import _resize
    from waves import full_plane, on_grid
    state = small_state()
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    node = int(np.argmax(cut.values))
    _, a_slice, kernels, pert = _perturb(moll, cut, toy, node)
    grid, wp, n = state.grid, toy.wp, state.grid.n
    pstar, _ = _pstar_slice(grid, wp, {k: c[0] for k, c in a_slice.items()}, kernels,
                            pert["transport"])
    waves = {k: _wave_slice(k, wp, float(moll.times[node]), grid) for k in positive_directions()}

    step = wp.lam // 5
    dirs = list(positive_directions())
    accum = np.zeros((n, n), dtype=complex)
    for i, k in enumerate(dirs):
        for j in range(i, len(dirs)):
            kp = dirs[j]
            fast = multiply(waves[k]["eta"], waves[kp]["eta"])
            signs = [(1, 1, 0.5), (-1, -1, 0.5)] if j == i else \
                [(s1, s2, 1.0) for s1 in (1, -1) for s2 in (1, -1)]
            spec = np.zeros((n, n), dtype=complex)
            for s1, s2, weight in signs:
                xi = (step * (s1 * k.five_k[0] + s2 * kp.five_k[0]),
                      step * (s1 * k.five_k[1] + s2 * kp.five_k[1]))
                spec += weight * on_grid(_roll_shift(full_plane(fast.coeffs), xi, n)[0][0], n)
            # the sign combinations make the pair's spectrum Hermitian
            pair = project(SpectralField(grid, "scalar", spec[None, :, :n // 2 + 1]),
                           FreqBand.at_least(wp.lam_sigma / 2.0))
            vals = np.fft.ifft2(full_plane(_resize(pair.coeffs, n))[0]) * (n * n)
            accum -= (a_slice[k][0] * a_slice[kp][0]) * vals
    c = np.fft.fft2(accum) / (n * n)
    c[n // 2, :] = 0.0
    c[:, n // 2] = 0.0
    oracle = SpectralField(grid, "scalar", c[None, :, :n // 2 + 1])
    for k in dirs:
        a, da = a_slice[k]
        m_f = analyze(grid, a * a * waves[k]["p_eta2_vals"])
        dm_f = analyze(grid, 2.0 * a * da * waves[k]["p_eta2_vals"]
                       + a * a * waves[k]["dp_eta2_vals"])
        oracle = oracle + m_f - (2.0 / wp.mu) * _inv_lap_div_const(dm_f, k.k)
    assert lp_norm(pstar, 2) > 0.0
    assert lp_norm(pstar - oracle, 2) <= 1e-13 * lp_norm(pstar, 2)


def test_corrector_sizes_at_inductive_stress():
    # with the stress at its inductive size the principal wave dominates
    state, toy, moll, cut = _perturbation_setup(amplitude=0.05)
    pert = _perturb(moll, cut, toy, int(np.argmax(cut.values)))[3]
    assert lp_norm(pert["w_c"], 2) < lp_norm(pert["w_p"], 2)
    assert lp_norm(pert["w_t"], 2) < lp_norm(pert["w_p"], 2)


def test_perturbation_scaling_probes_across_doubling():
    # measured sizes track the predicted combinations within a factor-4
    # band when the frequency doubles (at fixed lambda*sigma)
    ratios = {}
    for lam, sig in ((50, 10), (100, 20)):
        state, toy, moll, cut = _perturbation_setup(lam=lam, sigma_inv=sig)
        pert = _perturb(moll, cut, toy, int(np.argmax(cut.values)))[3]
        s = 1.0 / sig
        ell = toy.ell
        preds = {
            "w_p": np.sqrt(toy.a_const * toy.eps_next) + ell ** -2 / np.sqrt(lam * s),
            "w_ct": ell ** -4 * (s + 1.0 / toy.wp.mu) * toy.wp.r,
        }
        ratios.setdefault("w_p", []).append(lp_norm(pert["w_p"], 2) / preds["w_p"])
        ratios.setdefault("w_ct", []).append(
            (lp_norm(pert["w_c"], 2) + lp_norm(pert["w_t"], 2)) / preds["w_ct"])
    for key, (a, b) in ratios.items():
        assert 0.25 < b / a < 4.0, key


def test_perturbation_support_inside_cutoff():
    # wherever the switch and its derivative vanish, the node step builds
    # no perturbation
    state, toy, moll, cut = _perturbation_setup()
    off = np.where((cut.values == 0.0) & (cut.dvalues == 0.0))[0]
    assert off.size and off.size < len(TIMES)
    for i in off:
        _assert_node_off(moll, cut, toy, int(i))


def test_active_node_peak_memory():
    # each direction's samples and moments live only while its terms are
    # added, and the node drops each field at its last use: one active
    # node's traced peak, in two-component half planes at n = 256 (18.0
    # when the coefficients' weights, the stress samples and every d/dt a_k
    # lived through the perturbation and the parts through the assembly;
    # 13.5 here)
    import tracemalloc
    state, toy, moll, cut = _perturbation_setup()
    n = state.grid.n
    i = int(np.argmax(cut.values))
    node, at = _node(moll, i), _switch_at(moll, cut, i)
    _step_node(node, *at, toy, peak=True)   # warm caches outside the trace
    tracemalloc.start()
    try:
        _step_node(node, *at, toy, peak=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    plane = 2 * n * (n // 2 + 1) * 16
    assert peak <= 15 * plane, peak / plane


def test_node_residuals_are_fresh_slice_residuals():
    # the node takes the mollified residual with the tf_square(v_ell) the
    # assembly reads, and the new one with the assembly's tf_square(v), one
    # term at a time: each is the residual made from scratch, bit for bit,
    # on an inactive node and on the plateau's peak node of the golden
    # configuration, whose mollified residual is nonzero
    from ci2d.ci_step import _slice_residual, gradient
    from ci2d.spectral_field import combine

    def fresh(v, dv, p, R):   # every term held, then one sum
        terms = [dv, divergence(tf_square(v, allow_interpolant=True)), gradient(p),
                 toy.nu * frac_laplacian(v, toy.theta), -1.0 * divergence(R)]
        return (lp_norm(combine(terms, np.ones(len(terms))), 2),
                sum(lp_norm(t, 2) for t in terms))

    state = init_state(build_initial("stream", GRID, TIMES, 1.0, {"seed": 1}), 0.4, 1.0, 1.0)
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    before = int(np.flatnonzero(cut.values)[0]) - 1   # inactive, where the input vanishes
    for i, peak in ((before, False), (int(np.argmax(cut.values)), True)):
        node = _node(moll, i)
        new, rep = _step_node(node, *_switch_at(moll, cut, i), toy, peak=peak)
        assert rep["moll_res"] == fresh(*node[:4]) == _slice_residual(
            *node[:4], toy.theta, toy.nu)
        assert rep["res"] == fresh(*new) == _slice_residual(*new, toy.theta, toy.nu)
    assert rep["moll_res"][0] > 0.0 and rep["res"][0] > 0.0   # the peak node's


def test_each_direction_costs_the_same_and_pairs_fill_a_triangle(monkeypatch):
    # the perturbation makes exactly the directions of a, in a's order, each
    # at the same transform cost; the corrector analyzes one product per
    # pair of them, the diagonal included
    import numpy.fft as nfft
    from ci2d import ci_step
    from ci2d.building_blocks import WaveParams
    calls, products = [], []
    for name in ("rfft2", "irfft2", "ifftn", "irfftn"):
        monkeypatch.setattr(nfft, name, lambda *a, _f=getattr(nfft, name), **kw:
                            calls.append(1) or _f(*a, **kw))
    monkeypatch.setattr(ci_step, "_analysis", lambda x, _f=ci_step._analysis:
                        products.append(1) or _f(x))
    grid, wp, dirs = make_grid(128), WaveParams(25, 5, 2, 3), positive_directions()

    def spend(ks):
        """Transforms of the perturbation, the pair products the corrector
        analyzed, the kernels, fields and corrector."""
        calls.clear(), products.clear()
        a = {k: 1.0 for k in ks}
        kernels, pert = ci_step._perturbation_slice(grid, wp, a, {k: 0.0 for k in a}, 0.4)
        spent = len(calls)
        pstar = ci_step._pstar_slice(grid, wp, a, kernels, pert["transport"])[0]
        return spent, len(products), kernels, pert, pstar

    singles = [spend([k]) for k in dirs]
    assert singles[0][0] > 0 and {one[0] for one in singles} == {singles[0][0]}
    two = spend(dirs[2:0:-1])
    assert two[0] == 2 * singles[0][0] and list(two[2]) == dirs[2:0:-1]
    assert (singles[0][1], two[1]) == (1, 3)
    assert not two[3]["w_p"].is_zero and not two[4].is_zero


def test_switch_zero_node_skips_every_corrector_pair(monkeypatch):
    # at n_t = 82 the shear input's node 23 is active with phi = 0 and
    # dphi != 0: every a_k is all-zero and every d/dt a_k is not, so the
    # corrector analyzes no pair product and is the transport part alone,
    # while d/dt w_p is not zero
    from itertools import islice

    from ci2d import ci_step
    from ci2d.ci_step import _pstar_slice
    times = time_grid(1.0, 0.1, 82)
    state = init_state(build_initial("shear", GRID, times, 1.0, {}), 0.4, 1.0, 1.0)
    toy, i = small_toy(), 23
    cut = temporal_cutoff(times, _stress_sups(state, toy.ell)[0], toy.ell)
    t, phi, dphi = float(times[i]), float(cut.values[i]), float(cut.dvalues[i])
    assert phi == 0.0 and dphi != 0.0
    active = np.arange(times.size) == i
    node = next(islice(_mollified_nodes(state, toy.ell, active), i, None))
    a, da = _coefficient_slice(*node[3].values(), *node[4].values(), phi, dphi,
                               toy.a_const, toy.eps_next)
    assert not any(np.any(a_k) for a_k in a.values())
    assert all(np.any(da_k) for da_k in da.values())
    kernels, pert = _perturbation_slice(GRID, toy.wp, a, da, t)
    products = []
    monkeypatch.setattr(ci_step, "_analysis", lambda x, _f=ci_step._analysis:
                        products.append(1) or _f(x))
    pstar, clipped = _pstar_slice(GRID, toy.wp, a, kernels, pert["transport"])
    assert products == [] and clipped == 0.0
    assert np.array_equal(pstar.coeffs, pert["transport"].coeffs)
    _, rep = _step_node(node, t, phi, dphi, toy)
    assert rep["w_p"] == 0.0 and rep["dw_p"] > 0.0


def test_five_nodes_without_a_stress_channel_raise_derivative_channel_missing():
    # a 5-node state whose v carries its channel and whose R carries none:
    # d/dt R at the active nodes needs the 7-node difference stencil; with
    # an R channel (here the zero one) the same state steps
    from ci2d import DerivativeChannelMissing
    times = time_grid(1.0, 0.1, 3)
    u = build_initial("shear", GRID, times, 1.0, {})
    R = [anti_divergence(ds + frac_laplacian(s, 0.4)) + tf_square(s)
         for s, ds in zip(u.slices, u.dslices)]
    p = TimeTrack(times, [SpectralField.zeros(GRID, "scalar")] * times.size)
    with pytest.raises(DerivativeChannelMissing, match="at least 7 nodes"):
        iterate_step(NSRState(u, p, TimeTrack(times, R), 0.4, 1.0), small_toy())
    dR = [SpectralField.zeros(GRID, "symtensor")] * times.size
    new, _ = iterate_step(NSRState(u, p, TimeTrack(times, R, dR), 0.4, 1.0), small_toy())
    assert len(new.times) == 5


# -- assembly and residual ------------------------------------------------------

def _golden_peak():
    """The golden configuration's mollified state, cutoff, toy and peak node."""
    state = init_state(build_initial("stream", GRID, TIMES, 1.0, {"seed": 1}), 0.4, 1.0, 1.0)
    toy = small_toy()
    moll = mollify(state, toy.ell)
    cut = temporal_cutoff(moll.times, sup_norms(moll.R), toy.ell)
    return moll, cut, toy, int(np.argmax(cut.values))


def _golden_peak_parts():
    """`_golden_peak`'s mollified state, cutoff, toy and peak node, with the
    node's fields, its perturbation parts and `_pstar_slice`'s corrector."""
    from ci2d.ci_step import _pstar_slice
    moll, cut, toy, i = _golden_peak()
    _, coeffs, kernels, pert = _perturb(moll, cut, toy, i)
    pstar, _ = _pstar_slice(GRID, toy.wp, {k: c[0] for k, c in coeffs.items()}, kernels,
                            pert["transport"])
    return moll, cut, toy, i, _node(moll, i), pert, pstar


def _bits(f):
    return np.ascontiguousarray(f.coeffs).view(np.uint64)


def test_assemble_stress_public_call():
    # the exported assembly reads the summed perturbation, its d/dt and
    # tf_square(v_ell), changes none of its arguments, and returns the
    # node's new (v, dv, p, R) and tf_square of the new v, all equal to
    # what the step makes, bit for bit
    from ci2d import assemble_stress
    moll, cut, toy, i, node, pert, pstar = _golden_peak_parts()
    w = (pert["w_p"] + pert["w_c"]) + pert["w_t"]
    dw = (pert["dw_p"] + pert["dw_c"]) + pert["dw_t"]
    t_old = tf_square(node[0], allow_interpolant=True)
    args = (*node, w, dw, pstar, t_old)
    held = [(f.coeffs, _bits(f).copy()) for f in args]
    out = assemble_stress(node, w, dw, pstar, toy.theta, toy.nu, t_old)
    assert len(out) == 5
    for f, (c, bits) in zip(args, held):
        assert f.coeffs is c and np.array_equal(_bits(f), bits)
    v, dv, p, R, t_new = out
    for peak in (False, True):
        new, _ = _step_node(node, *_switch_at(moll, cut, i), toy, peak=peak)
        for got, want in zip((v, dv, p, R), new):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(t_new), _bits(tf_square(new[0], allow_interpolant=True)))


def test_peak_stress_groups_match_fresh_sums():
    # oracle for the peak node's groups 7.16a-d: each group made again from
    # fresh sums of the perturbation's parts with the public operators,
    # and `_pstar_slice`'s corrector; the step's values agree bit for bit.
    # A corrector built with w_c in place of w_c + w_t (the negative
    # control) differs
    from ci2d.spectral_field import gradient
    moll, cut, toy, i, node, pert, pstar = _golden_peak_parts()
    v_l, R_ls = node[0], node[3]
    _, rep = _step_node(node, *_switch_at(moll, cut, i), toy, peak=True)
    w_p, w_c, w_t, dw_p, dw_c, dw_t = (pert[name] for name in
                                       ("w_p", "w_c", "w_t", "dw_p", "dw_c", "dw_t"))
    w = (w_p + w_c) + w_t

    def corrector(w_ct):   # half the symmetrized sum, which counts each term twice
        return 0.5 * lp_norm(sym_tracefree_product(w_ct, w, allow_interpolant=True)
                             + sym_tracefree_product(w_p, w_ct, allow_interpolant=True), 1.5)

    want = {
        "lin_time": lp_norm(anti_divergence(dw_p + dw_c), 1.5),
        "lin_dissipation": lp_norm(anti_divergence(toy.nu * frac_laplacian(w, toy.theta))
                                   + sym_tracefree_product(v_l, w, allow_interpolant=True), 1.5),
        "corrector": corrector(w_c + w_t),
        "oscillation": lp_norm(anti_divergence(
            divergence(tf_square(w_p, allow_interpolant=True) + R_ls) + dw_t
            - gradient(pstar)), 1.5),
    }
    assert all(value > 0.0 for value in want.values()), want
    assert {key: rep[key] for key in want} == want
    assert corrector(w_c) != rep["corrector"]


def test_peak_stress_groups_sum_to_the_new_stress():
    # the four groups 7.16a-d sum to the peak node's new R through
    # antidiv(div(.)), at round-off; their raw tensors do not, since groups
    # b and c are plain products, not anti-divergences.  A corrector built
    # with w_c in place of w_c + w_t (the negative control) misses by far
    from ci2d.spectral_field import combine, gradient
    moll, cut, toy, i, node, pert, pstar = _golden_peak_parts()
    v_l, R_ls = node[0], node[3]
    (_, _, _, R), _ = _step_node(node, *_switch_at(moll, cut, i), toy, peak=True)
    w_p, w_c, w_t, dw_p, dw_c, dw_t = (pert[name] for name in
                                       ("w_p", "w_c", "w_t", "dw_p", "dw_c", "dw_t"))
    w = (w_p + w_c) + w_t

    def groups(w_ct):
        return [anti_divergence(dw_p + dw_c),
                anti_divergence(toy.nu * frac_laplacian(w, toy.theta))
                + sym_tracefree_product(v_l, w, allow_interpolant=True),
                0.5 * (sym_tracefree_product(w_ct, w, allow_interpolant=True)
                       + sym_tracefree_product(w_p, w_ct, allow_interpolant=True)),
                anti_divergence(divergence(tf_square(w_p, allow_interpolant=True) + R_ls)
                                + dw_t - gradient(pstar))]

    def miss(tensors):
        return lp_norm(combine(tensors, np.ones(len(tensors))) - R, 2) / lp_norm(R, 2)

    exact = groups(w_c + w_t)
    assert miss([anti_divergence(divergence(g)) for g in exact]) <= 1e-12
    assert miss(exact) > 1e-3
    assert miss([anti_divergence(divergence(g)) for g in groups(w_c)]) > 0.1


def test_peak_node_builds_each_sum_once(monkeypatch):
    # the peak node adds w_p + w_c, (w_p + w_c) + w_t, w_c + w_t,
    # dw_p + dw_c and (dw_p + dw_c) + dw_t once each, and makes one band
    # mask in `_perturbation_slice` and one in `_pstar_slice`
    from ci2d import ci_step
    moll, cut, toy, i = _golden_peak()
    parts, adds, masks = {}, [], []

    def perturbation(*args, _f=ci_step._perturbation_slice):
        kernels, pert = _f(*args)
        parts.update((name, pert[name]) for name in ("w_p", "w_c", "w_t", "dw_p", "dw_c", "dw_t"))
        return kernels, pert

    def add(a, b, _f=SpectralField.__add__):
        adds.append((a, b, _f(a, b)))   # held, so no identity is reused
        return adds[-1][2]

    monkeypatch.setattr(ci_step, "_perturbation_slice", perturbation)
    monkeypatch.setattr(SpectralField, "__add__", add)
    monkeypatch.setattr(ci_step, "_band_mask", lambda *a, _f=ci_step._band_mask:
                        masks.append(1) or _f(*a))
    _step_node(_node(moll, i), *_switch_at(moll, cut, i), toy, peak=True)

    def count(a, b):
        return sum(x is a and y is b for x, y, _ in adds)

    (w_pc,) = [s for x, y, s in adds if x is parts["w_p"] and y is parts["w_c"]]
    (dw_pc,) = [s for x, y, s in adds if x is parts["dw_p"] and y is parts["dw_c"]]
    assert count(w_pc, parts["w_t"]) == count(parts["w_c"], parts["w_t"]) == 1
    assert count(dw_pc, parts["dw_t"]) == 1
    assert len(masks) == 2


def test_zero_cutoff_step_keeps_mollified_residual():
    state = small_state(amplitude=0.0)
    new_state, diags = iterate_step(state, small_toy())
    assert diags.residual_report["max_rel"] <= 1e-12
    # with no perturbation the new residual is the mollified one
    moll_res = diags.identities["mollified_residual_rel"]
    assert diags.residual_report["max_rel"] <= moll_res + 1e-14


def test_step_reports_the_mollified_residual_of_nsr_residual():
    # the nodes' own mollified residuals reduce to the whole-state report
    # (the golden configuration: the stream generator's mollified triple
    # has a nonzero residual, the unit shear's is exactly zero)
    state = init_state(build_initial("stream", GRID, TIMES, 1.0, {"seed": 1}), 0.4, 1.0, 1.0)
    toy = small_toy()
    _, diags = iterate_step(state, toy)
    expected = nsr_residual(mollify(state, toy.ell))["max_rel"]
    assert expected > 0.0
    assert diags.identities["mollified_residual_rel"] == expected


def test_step_guards_the_kernel_square_band():
    # the kernel band is 14 at (25, 5, 2, 3); its square's 28 exceeds n = 32's Nyquist 15
    state = small_state(grid=make_grid(32))
    with pytest.raises(AliasingRisk, match="product band 28"):
        iterate_step(state, small_toy())


def test_step_rejects_theta_of_one():
    # theta* (and so the predicted 7.16b and 7.16 columns) is defined on [0, 1)
    with pytest.raises(ConfigError, match="theta must lie"):
        iterate_step(small_state(theta=1.0), small_toy(theta=1.0))


def test_step_rejects_toy_theta_or_nu_unlike_the_state():
    state = small_state()
    for kw in ({"theta": 0.9}, {"nu": 2.0}):
        with pytest.raises(ConfigError, match="differs from the state"):
            iterate_step(state, small_toy(**kw))


def test_nsr_residual_exact_steady_solution():
    # v = (sin x2, 0), theta = 1, nu = 1, p = 0, stress chosen to absorb
    # the forcing exactly; the verifier sees a residual at round-off
    grid = make_grid(64)
    times = time_grid(1.0, 0.1, 9)
    v = SpectralField.from_modes(
        grid, "vector", {(0, 1): np.array([-0.5j, 0]), (0, -1): np.array([0.5j, 0])})
    stress = [anti_divergence(frac_laplacian(v, 1.0)
                              + divergence(tf_square(v))) for _ in times]
    state = NSRState(
        v=TimeTrack(times, [v] * times.size, [0.0 * v] * times.size),
        p=TimeTrack(times, [SpectralField.zeros(grid, "scalar")] * times.size),
        R=TimeTrack(times, stress),
        theta=1.0, nu=1.0, q=0, T=1.0)
    assert nsr_residual(state)["max_rel"] <= 1e-10
    # the difference fallback agrees on a steady state: a track without
    # a channel goes through fd6_channel
    no_channel = NSRState(TimeTrack(times, [v] * times.size), state.p, state.R,
                          state.theta, state.nu, state.q, state.T)
    assert nsr_residual(no_channel)["max_rel"] <= 1e-10
    zero = init_state(zero_track(grid, times), 1.0, 1.0, 1.0)
    assert nsr_residual(zero)["max_rel"] == 0.0


def test_derivative_fallback_is_fd6_channel_bitwise():
    # a track without a channel reads fd6_channel's stencil node by node:
    # the residual verifier and init_state give what they give on the
    # track with fd6_channel attached, bit for bit
    times = time_grid(1.0, 0.1, 17)
    u = build_initial("stream", make_grid(64), times, 1.0, {"seed": 1})
    state = init_state(u, 0.4, 1.0, 1.0)
    bare = NSRState(TimeTrack(times, state.v.slices), state.p,
                    TimeTrack(times, state.R.slices), state.theta, state.nu,
                    state.q, state.T)
    filled = NSRState(fd6_channel(bare.v), bare.p, bare.R, bare.theta, bare.nu,
                      bare.q, bare.T)
    got = nsr_residual(bare)["per_slice_l2"]
    assert np.array_equal(got, nsr_residual(filled)["per_slice_l2"])
    # the analytic channel gives other residuals, so the fallback is read
    assert not np.array_equal(got, nsr_residual(state)["per_slice_l2"])
    bare_u = TimeTrack(times, u.slices)
    got, want = init_state(bare_u, 0.4, 1.0, 1.0), init_state(fd6_channel(bare_u), 0.4, 1.0, 1.0)
    for name in ("v", "p", "R"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.has_channel() == b.has_channel(), name
        for f, g in zip(a.slices + (a.dslices or []), b.slices + (b.dslices or []), strict=True):
            assert np.array_equal(f.coeffs, g.coeffs), name


def test_fd6_channel_matches_analytic():
    chi, dchi = bump_profile(TIMES, 0.5, 0.25)
    base = SpectralField.from_modes(GRID, "scalar", {(0, 1): 0.5, (0, -1): 0.5})
    track = TimeTrack(TIMES, [float(c) * base for c in chi])
    fd = fd6_channel(track)
    mid = len(TIMES) // 2
    got = fd.dslices[mid].coeff((0, 1))[0].real
    assert got == pytest.approx(0.5 * dchi[mid], rel=2e-3)
