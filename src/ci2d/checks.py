"""Machine-run property suites behind the `check` command.

Each property is a named predicate over seeded data at desk-scale sizes.
The tier-1 suite runs every property as its own test (tests/test_checks.py),
so a test body need not repeat a statement made here; tests keep expected
raises, independent oracles and exact values.  A clean `check` run is a
quick health gate for an installed build.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from . import ci_step
from .building_blocks import (WaveParams, dirichlet_kernel, directions, eta,
                              flow_shell, lattice_vector, positive_directions)
from .errors import ConstraintViolation, DivisibilityError
from .fourier_calculus import (FreqBand, anti_divergence, frac_laplacian,
                               helmholtz, inv_grad, project, tracefree_product)
from .generators import shear_track, time_grid, zero_track
from .mollifier import bump2_hat
from .param_schedule import PaperSchedule, theta_star, toy_params, validate_schedule
from .spectral_field import (SpectralField, TimeTrack, _resize, analyze,
                             cn_norm, derive, divergence, lp_norm, make_grid,
                             mean, multiply, perp_grad, pointwise_magnitude,
                             random_field)
from .stress_geometry import W11, W12, decompose, default_ramp, reconstruct

REGISTRY = []


def check(name):
    def deco(fn):
        REGISTRY.append((name, fn))
        return fn
    return deco


# ----------------------------------------------------------------- fields

@check("field.roundtrip_identity")
def _roundtrip():
    g = make_grid(64)
    coeff_err = grid_err = 0.0
    for seed, band in ((1, 20), (0, 25)):
        f = random_field(g, "vector", band, seed=seed)
        back = analyze(g, f.values(), "vector")
        coeff_err = max(coeff_err, np.max(np.abs(back.coeffs - np.asarray(f.coeffs))))
        grid_err = max(grid_err, lp_norm(back - f, np.inf))
    return coeff_err < 1e-12 and grid_err < 1e-12, \
        f"max coefficient error {coeff_err:.2e}, grid sup error {grid_err:.2e}"


@check("field.parseval")
def _parseval():
    # lp_norm(., 2) sums coefficients; the oracle is the grid rectangle rule
    g = make_grid(64)
    rel = 0.0
    for rank, seed in (("scalar", 2), ("symtensor", 12), ("scalar", 1), ("symtensor", 11)):
        f = random_field(g, rank, 20, seed=seed)
        quad = np.sqrt(np.sum(pointwise_magnitude(f) ** 2) * g.cell_measure)
        rel = max(rel, abs(lp_norm(f, 2) - quad) / quad)
    return rel < 1e-10, f"relative mismatch {rel:.2e}"


@check("field.reality_flag")
def _reality():
    # the half spectrum stands for a real field: numpy's complex inverse
    # transform of its conjugate-mirrored full plane is real and equals it
    g = make_grid(64)
    n, h = g.n, g.n // 2
    ok = True
    err = gap = 0.0   # relative to the samples' sup
    for seed, band in ((3, 20), (2, 24)):
        f = random_field(g, "scalar", band, seed=seed)
        half = _resize(f.coeffs, n)[0]
        full = np.zeros((n, n), dtype=complex)
        full[:, :h] = half[:, :h]
        full[:, n - h + 1:] = np.conj(half[-np.arange(n) % n, h - 1:0:-1])
        vals = np.fft.ifft2(full, norm="forward")[None]
        scale = np.max(np.abs(vals))
        real_vals = f.values()
        err = max(err, np.max(np.abs(vals.imag)) / scale)
        gap = max(gap, np.max(np.abs(real_vals - vals.real)) / scale)
        ok &= np.isrealobj(real_vals)
    ok &= err <= 1e-12 and gap <= 1e-12
    return bool(ok), f"relative imag residue {err:.2e}, real synthesis gap {gap:.2e}"


@check("field.div_perp_grad_zero")
def _divperp():
    g = make_grid(64)
    f = random_field(g, "scalar", 25, seed=4)
    d = divergence(perp_grad(f))
    err = lp_norm(d, 2) / lp_norm(f, 2)
    return err <= 1e-12, f"relative residue {err:.2e}"


@check("field.quadrature_constants")
def _quadconst():
    g = make_grid(32)
    one = SpectralField.from_modes(g, "scalar", {(0, 0): 1.0})
    cosx = SpectralField.from_modes(g, "scalar", {(1, 0): 0.5, (-1, 0): 0.5})
    ok1 = abs(lp_norm(one, 2) - 2 * np.pi) < 1e-12
    ok2 = abs(lp_norm(cosx, 2) - 2 * np.pi * np.sqrt(0.5)) < 1e-12
    ok3 = abs(cn_norm(cosx, 1) - 1.0) < 1e-12
    return ok1 and ok2 and ok3, "norm conventions hold"


# ------------------------------------------------------------- operators

@check("op.projector_idempotent_orthogonal")
def _proj():
    g = make_grid(64)
    f = random_field(g, "scalar", 30, seed=5)
    lowband = FreqBand(0, 10)
    hi = FreqBand.at_least(10.000001)
    a = project(f, lowband)
    b = project(f, hi)
    idem = np.max(np.abs(project(a, lowband).coeffs - a.coeffs))
    cross = np.max(np.abs(project(a, hi).coeffs))
    split = lp_norm(f - a - b, 2)
    return idem == 0.0 and cross == 0.0 and split == 0.0, \
        f"idem {idem:.1e}, cross {cross:.1e}, split {split:.1e}"


@check("op.helmholtz_projector")
def _helm():
    dd = idem = keep = 0.0   # div and idempotence relative to the input
    for n, band, seed, mean_zero in ((64, 25, 6, False), (32, 10, 1, True)):
        f = random_field(make_grid(n), "vector", band, seed=seed, mean_zero=mean_zero)
        pf = helmholtz(f)
        dd = max(dd, lp_norm(divergence(pf), 2) / lp_norm(f, 2))
        idem = max(idem, lp_norm(helmholtz(pf) - pf, 2) / lp_norm(f, 2))
        keep = max(keep, np.max(np.abs(np.asarray(mean(pf)) - np.asarray(mean(f)))))
    ok = dd <= 1e-12 and idem <= 1e-12 and keep < 1e-14
    return ok, f"div {dd:.2e}, idempotence {idem:.2e}"


@check("op.multiplier_composition")
def _fraccomp():
    f = random_field(make_grid(64), "scalar", 20, seed=7)
    twice = frac_laplacian(frac_laplacian(f, 0.5), 0.5)
    once = frac_laplacian(f, 1.0)
    rel = lp_norm(twice - once, 2) / lp_norm(once, 2)
    # |grad|^-2 is the inverse of (-Lap) on mean-free fields
    cyc = 0.0
    for h in (f, random_field(make_grid(32), "scalar", 10, seed=2)):
        back = frac_laplacian(inv_grad(inv_grad(h)), 1.0)
        cyc = max(cyc, lp_norm(back - project(h, FreqBand.nonzero()), 2) / lp_norm(h, 2))
    return rel < 1e-12 and cyc < 1e-10, f"compose {rel:.2e}, inverse {cyc:.2e}"


@check("op.anti_divergence_inverse")
def _antidiv():
    worst = 0.0
    zero_means = True
    for n, band, seeds in ((128, 40, range(100, 120)), (64, 20, range(10))):
        for s in seeds:
            f = random_field(make_grid(n), "vector", band, seed=s)
            rf = anti_divergence(f)
            worst = max(worst, lp_norm(divergence(rf) - f, 2) / lp_norm(f, 2))
            zero_means &= not np.any(mean(f)) and not np.any(mean(rf))
    return worst < 1e-10 and zero_means, \
        f"worst relative defect {worst:.2e}, means exactly zero: {zero_means}"


@check("op.product_estimate_constant")
def _lemma_prod():
    g = make_grid(128)
    rng = np.random.default_rng(11)
    fitted = 0.0
    for trial in range(200):
        kappa = int(rng.choice([4, 8, 16, 32]))
        f = random_field(g, "scalar", 16, seed=int(rng.integers(1 << 30)), decay=1.5)
        sub = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        modes = {}
        for (a_, b_), amp in np.ndenumerate(sub):
            if (a_, b_) != (0, 0):
                modes[(kappa * a_, kappa * b_)] = amp
                modes[(-kappa * a_, -kappa * b_)] = np.conj(amp)
        gfield = SpectralField.from_modes(g, "scalar", modes)
        prod = multiply(f, gfield)
        lhs = lp_norm(prod, 2)
        main = lp_norm(f, 2) * lp_norm(gfield, 2) / (2 * np.pi)
        rest = kappa ** -0.5 * cn_norm(f, 1) * lp_norm(gfield, 2)
        fitted = max(fitted, (lhs - main) / rest)
    return fitted <= 10.0, f"fitted constant {fitted:.3f}"


@check("op.high_frequency_gain")
def _lemma_gain():
    g = make_grid(512)
    a = random_field(g, "scalar", 6, seed=21, decay=1.0, mean_zero=False)
    na = cn_norm(a, 2)
    ratios = []
    full = random_field(g, "scalar", 250, seed=22, decay=0.0)
    for lam in (16, 32, 64, 128):
        f = project(full, FreqBand.at_least(lam))
        comp = inv_grad(project(multiply(a, f, allow_interpolant=True),
                                FreqBand.nonzero()))
        ratios.append(lp_norm(comp, 2) / (lam ** -1 * na * lp_norm(f, 2)))
    ok = all(r2 <= 2.0 * r1 for r1, r2 in zip(ratios, ratios[1:]))
    return ok, "ratios " + ", ".join(f"{r:.3f}" for r in ratios)


@check("op.antidiv_vs_invgrad")
def _lemma_310():
    g = make_grid(128)
    worst = 0.0
    for s in range(20):
        f = project(random_field(g, "vector", 40, seed=300 + s), FreqBand.nonzero())
        worst = max(worst, lp_norm(anti_divergence(f), 2) / lp_norm(inv_grad(f), 2))
    return worst <= 2.0001, f"constant {worst:.4f}"


# ---------------------------------------------------------------- blocks

@check("blocks.direction_set")
def _dirs():
    ds = directions()
    ok = len(ds) == 8
    ok &= all(k.five_k[0] ** 2 + k.five_k[1] ** 2 == 25 for k in ds)
    pairs = [np.linalg.norm(a.k + b.k) for a in ds for b in ds
             if (a.five_k[0] + b.five_k[0], a.five_k[1] + b.five_k[1]) != (0, 0)]
    ok &= abs(min(pairs) - np.sqrt(2) / 5) <= 1e-15
    ok &= any(k.five_k == (3, 4) and k.positive for k in ds)
    ok &= any(k.five_k == (-3, -4) and not k.positive for k in ds)
    return ok, f"min non-antipodal |k+k'| = {min(pairs):.6f}"


def _plane_wave(n: int, xi) -> np.ndarray:
    """numpy samples of exp(i xi . x) on the n-grid, each phase reduced to
    a whole multiple of 2 pi / n before the exponential."""
    j = np.arange(n)
    return (np.exp(2j * np.pi * (xi[0] * j % n) / n)[:, None]
            * np.exp(2j * np.pi * (xi[1] * j % n) / n)[None, :])


def _one_pair(k, wp: WaveParams, t: float, g):
    """The step's perturbation slice of the one direction k at a = 1: its
    w_p is eta_k (b_k + c.c.), the real antipodal pair of the flow
    b_k = i k-perp exp(i lambda k.x), and its stream function
    eta_k (exp(i lambda k.x) + c.c.) / lambda."""
    return ci_step._perturbation_slice(g, wp, {k: 1.0}, {k: 0.0}, t)[1]


@check("blocks.wave_pair")
def _wavepair():
    # the complex single mode psi = exp(i lam k.x) / lam, b = i k-perp
    # exp(i lam k.x) from numpy samples, part by part; then the real pair
    # that the step builds from it
    lam = 5
    k = positive_directions()[0]
    xi = lattice_vector(k.five_k, lam // 5)
    wp = WaveParams(lam, 1, 1, 1)
    ok = True
    for n in (32, 64):
        g = make_grid(n)
        e = _plane_wave(n, xi)
        flow = 1j * k.k_perp[:, None, None] * e
        for part in (np.real, np.imag):
            psi = analyze(g, part(e) / lam)
            b = analyze(g, part(flow), "vector")
            ok &= np.max(np.abs(perp_grad(psi).coeffs - b.coeffs)) < 1e-15
            ok &= lp_norm(divergence(b), 2) < 1e-13
            curl = divergence(SpectralField(g, "vector", np.stack([b.coeffs[1], -b.coeffs[0]])))
            ok &= lp_norm(curl + lam ** 2 * psi, 2) < 1e-12
            ok &= abs(cn_norm(b, 0) - 1.0) < 1e-12 and abs(cn_norm(psi, 0) - 1 / lam) < 1e-12
            for N in (1, 2):
                ok &= abs(cn_norm(b, N) - lam ** N) < 1e-9 * lam ** N
                ok &= abs(cn_norm(psi, N) - lam ** (N - 1)) < 1e-9 * lam ** (N - 1)
        pert = _one_pair(k, wp, 0.37, g)
        kernel = eta(k, wp, 0.37, g)[0].values()
        ok &= np.max(np.abs(pert["w_p"].values() - kernel * 2.0 * flow.real)) < 1e-13
        ok &= np.max(np.abs(pert["stream"].values() - kernel * 2.0 * e.real / lam)) < 1e-13
        pair = pert["w_p"] + pert["w_c"]
        ok &= np.max(np.abs(perp_grad(pert["stream"]).coeffs - pair.coeffs)) < 1e-15
        ok &= lp_norm(divergence(pair), 2) < 1e-13
    return bool(ok), "potential/flow identities hold"


@check("blocks.dirichlet_kernel")
def _dirichlet():
    g = make_grid(256)
    ok = True
    for r in (2, 5, 10):
        d = dirichlet_kernel(r, g)
        peak = d.values()[0, 0, 0]
        ok &= abs(peak - (2 * r + 1)) < 1e-10
        ok &= abs(lp_norm(d, 2) - 2 * np.pi) < 1e-8
    vals = []
    for r in (4, 8, 16, 32):
        d = dirichlet_kernel(r, g)
        vals.append(lp_norm(d, 4) / np.sqrt(r))
    for a, b in zip(vals, vals[1:]):
        ok &= 0.5 < b / a < 2.0
    return bool(ok), "L2 = 2pi; L4/sqrt(r) in " + ", ".join(f"{v:.3f}" for v in vals)


@check("blocks.kernel_transport_and_mass")
def _etachecks():
    g = make_grid(128)
    wp = WaveParams(50, 10, 2, 5)
    ok = True
    worst_t = 0.0
    for k in directions():
        f, df = eta(k, wp, 0.37, g)
        sq = multiply(f, f)
        ok &= abs(mean(sq).real - 1.0) < 1e-10
        # rectangle-rule oracle for the mean square
        ok &= abs(np.sum(f.values()[0] ** 2) * g.cell_measure / (2 * np.pi) ** 2 - 1.0) < 1e-10
        sgn = 1.0 if k.positive else -1.0
        kdot = (float(k.k[0]) * derive(f, (1, 0)).coeffs
                + float(k.k[1]) * derive(f, (0, 1)).coeffs)
        resid = np.max(np.abs(df.coeffs / wp.mu - sgn * kdot))
        worst_t = max(worst_t, resid)
        ok &= resid <= 1e-12
        fm, _ = eta(k.antipode, wp, 0.37, g)
        ok &= np.array_equal(np.asarray(f.coeffs), np.asarray(fm.coeffs))
        pz = project(f, FreqBand.nonzero())
        ph = project(f, FreqBand.at_least(wp.lam_sigma / 2))
        ok &= np.array_equal(np.asarray(pz.coeffs), np.asarray(ph.coeffs))
    return bool(ok), f"transport residue {worst_t:.2e}"


@check("blocks.flow_shells")
def _flowshell():
    g = make_grid(128)   # holds the pair's band lam + 7 r lam sigma / 5 = 54
    wp = WaveParams(50, 10, 2, 5)
    lo, hi = flow_shell(wp)
    ok = wp.lam / 2 <= lo <= hi <= 2 * wp.lam
    k = positive_directions()[0]
    for t in (0.1, 0.37):
        rad, mag2 = _one_pair(k, wp, t, g)["w_p"].mode_magnitudes()
        outside = mag2[(rad < wp.lam / 2) | (rad > 2 * wp.lam)].sum()
        ok &= outside / mag2.sum() <= 1e-12
    return bool(ok), f"shell [{lo:.1f}, {hi:.1f}] inside [{wp.lam/2}, {2*wp.lam}]"


@check("blocks.flow_mean_tensor")
def _flowmean():
    # <W_k x W_-k> = k-perp x k-perp from numpy samples of the complex
    # flows, and the trace-free mean of the step's pair w_p = W_k + W_-k,
    # twice that; the grid mean of a product of bands 54 is exact at n = 128
    g = make_grid(128)
    wp = WaveParams(50, 10, 2, 5)
    err = 0.0
    for k, t in ((positive_directions()[1], 0.2), (positive_directions()[0], 0.37)):
        e = _plane_wave(g.n, lattice_vector(k.five_k, wp.lam // 5))
        kernel = eta(k, wp, t, g)[0].values()[0]
        (w1, w2), (m1, m2) = (kernel * s * 1j * k.k_perp[:, None, None] * w
                              for s, w in ((1.0, e), (-1.0, np.conj(e))))
        avg = lambda a, b: np.mean(a * b).real
        # entries of the full (not symmetrized) display of W_k x W_-k
        t11 = 0.5 * avg(w1, m1) - 0.5 * avg(w2, m2)
        got = np.array([[t11, avg(w1, m2)], [avg(w2, m1), -t11]])
        err = max(err, np.max(np.abs(got + tracefree_product(k.k, k.k))))
        p1, p2 = _one_pair(k, wp, t, g)["w_p"].values()
        pair = np.array([0.5 * avg(p1, p1) - 0.5 * avg(p2, p2), avg(p1, p2)])
        err = max(err, np.max(np.abs(pair + 2.0 * tracefree_product(k.k, k.k)[0])))
    return err < 1e-12, f"mean tensor error {err:.2e}"


@check("blocks.flow_lp_scaling")
def _flowlp():
    # quadrature on a grid that resolves the pair gives its exact L4 norm
    g = make_grid(256)
    vals = []
    for r in (1, 2, 4):
        wp = WaveParams(100, 20, r, 5)
        w = _one_pair(positive_directions()[0], wp, 0.0, g)["w_p"]
        vals.append(lp_norm(w, 4) / r ** 0.5)
    ok = all(0.25 < b / a < 4.0 for a, b in zip(vals, vals[1:]))
    return ok, "L4/r^(1/2): " + ", ".join(f"{v:.3f}" for v in vals)


@check("blocks.sum_reality")
def _sumreal():
    # the step's sum of real pairs over every direction against the numpy
    # sum of the complex flows a_k W_k over all eight, whose imaginary
    # part must vanish
    g = make_grid(128)
    wp = WaveParams(50, 10, 2, 5)
    flows = [(k if k.positive else k.antipode, eta(k, wp, 0.4, g)[0].values()[0] * 1j
              * k.k_perp[:, None, None] * _plane_wave(g.n, lattice_vector(k.five_k, wp.lam // 5)))
             for k in directions()]
    resid = 0.0
    for seed in (31, 3):
        rng = np.random.default_rng(seed)
        a = {k: rng.standard_normal() for k in positive_directions()}
        w_p = ci_step._perturbation_slice(g, wp, a, {k: 0.0 for k in a}, 0.4)[1]["w_p"].values()
        total = sum(a[k] * flow for k, flow in flows)
        scale = max(np.max(np.abs(total.real)), 1e-300)
        resid = max(resid, np.max(np.abs(total.imag)) / scale,
                    np.max(np.abs(w_p - total.real)) / scale)
    return resid < 1e-12, f"imaginary residue {resid:.2e}"


# -------------------------------------------------------------- geometry

@check("geometry.ramp_profile")
def _ramp():
    ramp = default_ramp()
    s = np.concatenate([np.linspace(-5, 5, 20001), np.linspace(-80, 80, 400001)])
    v = ramp.value(s)
    anti = np.max(np.abs(v - ramp.value(-s) - s))
    bounds = np.all(v >= 1.0 - 1e-9) and np.all(v <= np.maximum(1.0, s + 2.0) + 1e-9)
    x, w = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (x + 1)
    bump = np.exp(-1.0 / (1 - u ** 2))
    bump_mass = np.dot(w, np.exp(-1.0 / (1 - x ** 2)))
    g0 = 1.0 + np.dot(0.5 * w, u * bump) / bump_mass
    zero_err = abs(ramp.value_at_zero() - g0)
    delta = 1e-3
    s = np.concatenate([np.linspace(-5, 5, 20001), np.linspace(-3, 3, 20001)])
    fd = (ramp.value(s + delta) - ramp.value(s - delta)) / (2 * delta)
    fd_err = np.max(np.abs(fd - ramp.derivative(s)))
    ok = anti < 1e-12 and bounds and zero_err < 1e-9 and fd_err < 1e-6
    return bool(ok), (f"antisymmetry {anti:.1e}, value(0) err {zero_err:.1e}, "
                      f"derivative fd err {fd_err:.1e}")


@check("geometry.weights_positive_bounded")
def _weights():
    # seeded stresses, then a sweep of r11 at r12 = 0.3 and a close pair
    stress = np.concatenate([np.random.default_rng(41).uniform(-100, 100, (200, 2)),
                             np.random.default_rng(0).uniform(-100, 100, (100, 2))])
    sweep = np.concatenate([np.linspace(-2, 2, 41), [1.0, 1.0 + 1e-4]])
    r11 = np.concatenate([stress[:, 0], sweep])
    r12 = np.concatenate([stress[:, 1], np.full(sweep.size, 0.3)])
    w = decompose(r11, r12)
    sup = np.maximum(np.abs(r11), np.abs(r12))
    ramp = default_ramp()
    ok = True
    for k in directions():
        # each direction, antipodes included, against the formula at its own signs
        s1, s2 = k.gamma_signs
        ok &= np.array_equal(w[k], W11 * ramp.value(s1 * r11) + W12 * ramp.value(s2 * r12))
        ok &= np.all(w[k] >= W11 + W12 - 1e-9)
        ok &= np.all(w[k] <= (W11 + W12) * (sup + 2) * (1 + 1e-9))
    g = np.sqrt(w[positive_directions()[2]][len(stress):])   # k = (4, 3) / 5
    ok &= np.all(np.diff(g[:41]) >= -1e-12) and g[42] >= g[41]
    return bool(ok), "formula per direction, positivity, growth, monotonicity"


@check("geometry.decomposition_identity")
def _decomp():
    rng = np.random.default_rng(42)
    worst = []
    for bound, count in ((100, 2000), (1000, 200)):
        stress = rng.uniform(-bound, bound, (count, 2))
        r11, r12 = reconstruct(decompose(stress[:, 0], stress[:, 1]).items())
        worst.append(max(np.max(np.abs(r11 - stress[:, 0])),
                         np.max(np.abs(r12 - stress[:, 1]))))
    return bool(max(worst) <= 1e-10), (f"max reconstruction error {worst[0]:.2e} on "
                                       f"[-100, 100], {worst[1]:.2e} on [-1000, 1000]")


# -------------------------------------------------------------- schedule

@check("schedule.theta_star")
def _tstar():
    ok = theta_star(0.75) == 0.5
    ok &= theta_star(0.5) == 0.0
    ok &= theta_star(0.0) == 0.0
    ok &= abs(theta_star(0.5 + 1e-12)) < 1e-11
    ok &= abs(theta_star(0.5 + 1e-13) - theta_star(0.5 - 1e-13)) < 1e-12
    return bool(ok), "piecewise values and continuity"


@check("schedule.witness_and_mutations")
def _gate():
    from fractions import Fraction as F
    witness = dict(theta=F(0), alpha=F(1, 8), B=2561, beta=F(1, 10 ** 9), A=5 ** 8, q=0)
    validate_schedule(PaperSchedule(**witness))
    ok = True
    mutations = [
        (dict(witness, B=100), "++.1"),
        (dict(witness, beta=F(1, 100)), "++.2"),
        (dict(witness, A=5 ** 8 + 5), "++.3"),
        (dict(witness, A=6 ** 8), "++.3"),
        (dict(witness, theta=F(9, 10), alpha=F(1, 4)), "7.16+"),
        (dict(witness, beta=F(7, 2561)), "ell_lambda8"),
    ]
    for mut, label in mutations:
        try:
            validate_schedule(PaperSchedule(**mut))
            ok = False
        except ConstraintViolation as exc:
            ok &= label in exc.labels
    sched = PaperSchedule(**witness)
    p = sched.p_holder
    ok &= 1 < p < 2 and (1 - 6 * sched.alpha) * (2 - 2 / p) == sched.alpha
    ok &= sched.r.exponent * (2 - 2 / p) == sched.alpha * sched.lam(1).exponent
    return bool(ok), "witness accepted, six mutations labeled"


@check("schedule.toy_divisibility")
def _toydiv():
    ok = True
    toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0)
    try:
        toy_params(10, 4, 1, 2, 0.05, 0.4, 1.0)
        ok = False
    except DivisibilityError:
        pass
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        toy_params(25, 5, 4, 3, 0.05, 0.4, 1.0)
        ok &= any("ordering" in str(w.message) for w in rec)
    return bool(ok), "divisibility fatal, ordering advisory"


# ------------------------------------------------------------------ step

def _small_setup():
    grid = make_grid(128)
    times = time_grid(1.0, 0.1, 17)
    u = shear_track(grid, times, m=1, T=1.0)
    state = ci_step.init_state(u, theta=0.4, nu=1.0, T=1.0)
    toy = toy_params(25, 5, 2, 3, 0.05, 0.4, 1.0, a_const=5.0, eps_next=0.04)
    return state, toy


@check("step.init_residual")
def _initres():
    state, _ = _small_setup()
    rep = ci_step.nsr_residual(state)
    g = state.grid
    zero = ci_step.init_state(zero_track(g, state.times), 0.4, 1.0, 1.0)
    ok = rep["max_rel"] < 1e-6
    ok &= all(lp_norm(s, 2) == 0.0 for s in zero.R.slices)
    return bool(ok), f"initial residual {rep['max_rel']:.2e}"


@check("step.identities_and_supports")
def _stepids():
    state, toy = _small_setup()
    new_state, diags = ci_step.iterate_step(state, toy)
    idn = diags.identities
    wp_scale = max(idn["w_p_l2"], 1e-300)
    ok = idn["stream_identity_l2"] <= 1e-10 * wp_scale
    ok &= idn["solenoidality_l2"] <= 1e-10 * wp_scale
    ok &= idn["oscillation_c0"] <= 1e-8 * max(idn["oscillation_scale"], 1e-300)
    ok &= all(diags.support.values())
    ok &= diags.residual_report["window_max_rel"] <= 1e-4
    ok &= new_state.q == state.q + 1
    ok &= all(np.max(np.abs(mean(s))) <= 1e-13 for s in new_state.v.slices)
    ok &= {"w_p_L_inf_L2", "R_new_L1", "residual_window_max_rel"} <= {
        r["quantity"] for r in diags.rows}
    ok &= all(r["ref"] for r in diags.rows)
    return bool(ok), (f"stream {idn['stream_identity_l2']:.2e}, "
                      f"residual {diags.residual_report['window_max_rel']:.2e}")


@check("step.negative_control")
def _negctrl():
    state, _ = _small_setup()
    rep0 = ci_step.nsr_residual(state)
    least = np.inf
    for seed in (17, 11):
        bad = random_field(state.grid, "vector", 10, seed=seed)
        bad = helmholtz(project(bad, FreqBand.nonzero()))
        bad = ((1.0 + rep0["scale"]) / max(lp_norm(bad, 2), 1e-300)) * bad
        slices = [s + bad for s in state.v.slices]
        broken = ci_step.NSRState(
            TimeTrack(state.times, slices, state.v.dslices),
            state.p, state.R, state.theta, state.nu, state.q, state.T)
        least = min(least, ci_step.nsr_residual(broken)["max_rel"])
    return least >= 0.1, f"least perturbed residual {least:.3f}"


@check("step.mollify_exactness")
def _mollconst():
    times = time_grid(1.0, 0.1, 17)
    M = 8
    predicted = 1.0 - bump2_hat(np.array([M * 0.05]))[0]
    ok = True
    for n in (64, 128):
        base = SpectralField.from_modes(make_grid(n), "vector",
                                        {(0, M): np.array([0.5, 0]),
                                         (0, -M): np.array([0.5, 0])})
        u = TimeTrack(times, [base] * times.size, [0.0 * base] * times.size)
        moll = ci_step.mollify(ci_step.init_state(u, 0.0, 1.0, 1.0), 0.05)
        drift = max(lp_norm(a - b, np.inf)
                    for a, b in zip(moll.v.slices, moll.v.slices[1:]))
        got = max(lp_norm(a - b, np.inf) for a, b in zip(moll.v.slices, u.slices))
        ok &= drift < 1e-13 and abs(got - predicted) < 1e-12
    return bool(ok), f"multiplier damping {got:.3e} vs {predicted:.3e}"


def run_all() -> dict:
    results = []
    t0 = time.perf_counter()
    for name, fn in REGISTRY:
        t1 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # property crashes count as failures
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(ok), "detail": detail,
                        "seconds": round(time.perf_counter() - t1, 3)})
    passed = sum(r["passed"] for r in results)
    return {
        "properties": results,
        "n_passed": passed,
        "n_failed": len(results) - passed,
        "seconds": round(time.perf_counter() - t0, 3),
    }
