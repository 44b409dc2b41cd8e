"""Acceptance gate: one test per criterion, each printing a verdict line.

The heavyweight end-to-end configuration (n = 512, 33 time samples on the
unit horizon, wave tuple (50, 10, 2, 5), ell = 0.05, amplitude constants
A = 5 and eps = 0.04, unit-mode shear initial data) is built once and
shared by the criteria that inspect it.
"""

import time
import warnings

import numpy as np
import pytest

import ci2d
from ci2d import (ConstraintViolation, FreqBand, NSRState, PaperSchedule,
                  SpectralField, TimeTrack, analyze, anti_divergence, cn_norm,
                  dirichlet_kernel, directions, divergence, eta, helmholtz,
                  init_state, inv_grad, iterate_step, lp_norm, make_grid, mean,
                  multiply, nsr_residual, perp_grad, project, random_field,
                  temporal_cutoff, validate_schedule)
from ci2d.building_blocks import WaveParams, lattice_vector, positive_directions
from ci2d.ci_step import (_coefficient_slice, _mollified_nodes, _perturbation_slice,
                          _stress_sups)
from ci2d.generators import shear_track, time_grid
from ci2d.stress_geometry import decompose, reconstruct
from waves import flow, mode_pair, pair_shell

warnings.filterwarnings("ignore", message=".*separation.*")

# the shared n = 512 run dominates the suite's time; `-m "not slow"` skips it
pytestmark = pytest.mark.slow


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared end-to-end run ---------------------------------------------------

@pytest.fixture(scope="module")
def endtoend():
    grid = make_grid(512)
    times = time_grid(1.0, 0.1, 33)
    u = shear_track(grid, times, m=1, T=1.0)
    state = init_state(u, theta=0.4, nu=1.0, T=1.0)
    toy = ci2d.toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0,
                          a_const=5.0, eps_next=0.04)
    t0 = time.time()
    new_state, diags = iterate_step(state, toy)
    elapsed = time.time() - t0
    # criteria 7 and 8 read R_ls at every node (the cutoff) and the middle
    # plateau node's mollified fields, which the step's own sweeps build
    cut = temporal_cutoff(times, _stress_sups(state, toy.ell)[0], toy.ell)
    plateau = np.where(cut.values >= 1.0)[0]
    i = int(plateau[len(plateau) // 2])
    nodes = _mollified_nodes(state, toy.ell, np.arange(times.size) == i)
    return {"state": state, "new_state": new_state, "diags": diags,
            "elapsed": elapsed, "plateau": i, "cut": cut, "toy": toy,
            "node": next(node for j, node in enumerate(nodes) if j == i),
            "grid": grid, "times": times}


def test_criterion_01_geometric_lemma():
    rng = np.random.default_rng(2024)
    n = 10_000
    r11 = rng.uniform(-100.0, 100.0, n)
    r12 = rng.uniform(-100.0, 100.0, n)
    t0 = time.time()
    acc11, acc12 = reconstruct(decompose(r11, r12).items())
    elapsed = time.time() - t0
    err = max(np.max(np.abs(acc11 - r11)), np.max(np.abs(acc12 - r12)))
    _verdict(1, err <= 1e-10 and elapsed < 5.0,
             f"max reconstruction error {err:.2e} over 10^4 stresses in {elapsed:.2f}s")


def test_criterion_02_dirichlet_kernel():
    g = make_grid(256)
    worst = max(abs(lp_norm(dirichlet_kernel(r, g), 2) - 2 * np.pi)
                for r in (2, 5, 10, 25))
    vals = [lp_norm(dirichlet_kernel(r, g), 4) / np.sqrt(r) for r in (4, 8, 16, 32)]
    band_ok = all(0.5 < b / a < 2.0 for a, b in zip(vals, vals[1:]))
    _verdict(2, worst <= 1e-8 and band_ok,
             f"L2 deviation {worst:.2e}; L4/sqrt(r) = "
             + ", ".join(f"{v:.3f}" for v in vals))


def test_criterion_03_kernel_mass_and_transport():
    g = make_grid(128)
    wp = WaveParams(50, 10, 2, 5)
    worst_mass, worst_tr = 0.0, 0.0
    for k in directions():
        f, df = eta(k, wp, 0.37, g)
        vals = f.values()
        mass = np.sum(vals[0] ** 2) * g.cell_measure / (2 * np.pi) ** 2
        worst_mass = max(worst_mass, abs(mass - 1.0))
        sgn = 1.0 if k.positive else -1.0
        from ci2d.spectral_field import derive
        kdot = (float(k.k[0]) * derive(f, (1, 0)).coeffs
                + float(k.k[1]) * derive(f, (0, 1)).coeffs)
        worst_tr = max(worst_tr, float(np.max(np.abs(df.coeffs / wp.mu - sgn * kdot))))
    _verdict(3, worst_mass <= 1e-10 and worst_tr <= 1e-12,
             f"mean-square defect {worst_mass:.2e}, transport defect {worst_tr:.2e}")


def test_criterion_04_frequency_localization():
    # pair localization needs genuinely separated scales: lambda = 200,
    # sigma = 1/40, r = 1 obeys every divisibility rule and keeps the
    # pair supports inside [lambda/5, 4 lambda]
    # the flows and their products are numpy samples on n = 1024, which
    # resolves every pair product, and their spectra numpy's FFTs
    wp = WaveParams(200, 40, 1, 5)
    n = 1024
    ks = np.fft.fftfreq(n, 1.0 / n)
    rad = np.hypot(ks[:, None], ks[None, :])

    def mag2(samples):   # |coefficient|^2 summed over the components
        return np.sum(np.abs(np.fft.fft2(samples, norm="forward")) ** 2, axis=0)

    worst_flow = 0.0
    for k in directions():
        m2 = mag2(flow(k, wp, 0.23, n)[0])
        out = m2[(rad < wp.lam / 2) | (rad > 2 * wp.lam)].sum()
        worst_flow = max(worst_flow, out / m2.sum())
    worst_pair = 0.0
    ds = directions()
    for i, a in enumerate(ds):
        for b in ds[i:]:
            if (a.five_k[0] + b.five_k[0], a.five_k[1] + b.five_k[1]) == (0, 0):
                continue
            lo, hi = pair_shell(a, b, wp)
            assert wp.lam / 5 <= lo and hi <= 4 * wp.lam
            # entries t11, t12, t21 of the full display of w_a x w_b
            (f1, f2), (g1, g2) = flow(a, wp, 0.23, n)[0], flow(b, wp, 0.23, n)[0]
            t11 = 0.5 * f1 * g1 - 0.5 * f2 * g2
            total, outside = 0.0, 0.0
            for comp, wgt in ((t11, 2.0), (f1 * g2, 1.0), (f2 * g1, 1.0)):
                m2 = mag2(comp[None])
                total += wgt * m2.sum()
                outside += wgt * m2[(rad < wp.lam / 5) | (rad > 4 * wp.lam)].sum()
            worst_pair = max(worst_pair, outside / total)
    # the kernel's nonzero modes all sit at or above lambda*sigma
    wp_small = WaveParams(50, 10, 2, 5)
    g2 = make_grid(128)
    exact = True
    for k in positive_directions():
        f, _ = eta(k, wp_small, 0.1, g2)
        pa = project(f, FreqBand.nonzero())
        pb = project(f, FreqBand.at_least(wp_small.lam_sigma / 2.0))
        exact &= np.array_equal(np.asarray(pa.coeffs), np.asarray(pb.coeffs))
    _verdict(4, worst_flow <= 1e-12 and worst_pair <= 1e-12 and exact,
             f"flow leak {worst_flow:.1e}, pair leak {worst_pair:.1e}, "
             f"mean-free floor exact: {exact}")


def test_criterion_05_anti_divergence():
    g = make_grid(128)
    worst_inv, worst_struct = 0.0, 0.0
    for seed in range(100):
        f = random_field(g, "vector", 40, seed=1000 + seed)
        rf = anti_divergence(f)
        worst_inv = max(worst_inv, lp_norm(divergence(rf) - f, 2) / lp_norm(f, 2))
        vals = rf.values()
        full = np.array([[vals[0], vals[1]], [vals[1], -vals[0]]])
        scale = max(np.max(np.abs(vals)), 1e-300)
        worst_struct = max(
            worst_struct,
            np.max(np.abs(full[0, 1] - full[1, 0])) / scale,
            np.max(np.abs(full[0, 0] + full[1, 1])) / scale,
            float(np.max(np.abs(mean(rf)))) / scale)
    _verdict(5, worst_inv <= 1e-10 and worst_struct <= 1e-12,
             f"right-inverse defect {worst_inv:.2e}, structure defect {worst_struct:.2e}")


def test_criterion_06_operator_lemmas():
    g = make_grid(128)
    rng = np.random.default_rng(7)
    fitted = 0.0
    for _ in range(200):
        kappa = int(rng.choice([4, 8, 16, 32]))
        f = random_field(g, "scalar", 16, seed=int(rng.integers(1 << 30)), decay=1.5)
        modes = {}
        reach = min(2, (g.max_mode - 1) // kappa)
        for a in range(reach + 1):
            for b in range(reach + 1):
                if (a, b) == (0, 0):
                    continue
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                modes[(kappa * a, kappa * b)] = amp
                modes[(-kappa * a, -kappa * b)] = np.conj(amp)
        fast = SpectralField.from_modes(g, "scalar", modes)
        lhs = lp_norm(multiply(f, fast, allow_interpolant=True), 2)
        main = lp_norm(f, 2) * lp_norm(fast, 2) / (2 * np.pi)
        rest = kappa ** -0.5 * cn_norm(f, 1) * lp_norm(fast, 2)
        fitted = max(fitted, (lhs - main) / rest)

    g5 = make_grid(512)
    a = random_field(g5, "scalar", 6, seed=21, decay=1.0, mean_zero=False)
    na = cn_norm(a, 2)
    ratios = []
    for lam in (16, 32, 64, 128):
        f = project(random_field(g5, "scalar", 250, seed=22, decay=0.0),
                    FreqBand.at_least(lam))
        smoothed = inv_grad(project(multiply(a, f, allow_interpolant=True),
                                    FreqBand.nonzero()))
        ratios.append(lp_norm(smoothed, 2) / (na * lp_norm(f, 2) / lam))
    mono = all(r2 <= 2.0 * r1 for r1, r2 in zip(ratios, ratios[1:]))
    _verdict(6, fitted <= 10.0 and mono,
             f"fitted product constant {fitted:.3f}; smoothing ratios "
             + ", ".join(f"{r:.3f}" for r in ratios))


def _plateau_node(run):
    """Middle plateau node: its index, time, coefficients {k: a_k} and
    perturbation slice, from the step's own node functions."""
    i, cut, toy = run["plateau"], run["cut"], run["toy"]
    t = float(run["times"][i])
    R, dR = run["node"][3:]
    a_slice, da = _coefficient_slice(*R.values(), *dR.values(), float(cut.values[i]),
                                     float(cut.dvalues[i]), toy.a_const, toy.eps_next)
    _, pert = _perturbation_slice(R.grid, toy.wp, a_slice, da, t)
    return i, t, a_slice, pert


def test_criterion_07_stream_function_and_solenoidality(endtoend):
    run = endtoend
    toy = run["toy"]
    grid = run["grid"]
    i, t, a_slice, pert = _plateau_node(run)
    w_p, w_c, w_t = pert["w_p"], pert["w_c"], pert["w_t"]
    # the potential rebuilt from the public pieces: per direction, the real
    # pair of the kernel product with exp(i lam k.x) / lam, from samples
    stream = SpectralField.zeros(grid, "scalar")
    for k in positive_directions():
        e, _ = eta(k, toy.wp, t, grid)
        stream = stream + mode_pair(analyze(grid, a_slice[k] * e.values()),
                                    lattice_vector(k.five_k, toy.wp.lam // 5), 1.0 / toy.wp.lam)
    wp_norm = lp_norm(w_p, 2)
    stream_defect = lp_norm(w_p + w_c - perp_grad(stream), 2)
    div_defect = max(
        lp_norm(divergence(w_p + w_c), 2) / wp_norm,
        lp_norm(divergence(w_t), 2) / max(lp_norm(w_t, 2), 1e-300),
        lp_norm(divergence(w_c + w_p), 2) / wp_norm)
    ok = stream_defect <= 1e-10 * wp_norm and div_defect <= 1e-10
    _verdict(7, ok, f"stream defect {stream_defect:.2e} vs |w_p| {wp_norm:.2f}; "
                    f"divergence defect {div_defect:.2e}")


def test_criterion_08_oscillation_cancellation(endtoend):
    run = endtoend
    toy = run["toy"]
    grid = run["grid"]
    i, t, a_slice, _ = _plateau_node(run)
    rv = run["node"][3].values(grid.n)
    acc11, acc12 = rv[0].copy(), rv[1].copy()
    for k in positive_directions():
        # means of the t11, t12 entries of w x wm, from numpy samples of the
        # flows on the grid, which resolves their products
        (w1, w2), (m1, m2) = flow(k, toy.wp, t, grid.n)[0], flow(k.antipode, toy.wp, t, grid.n)[0]
        m11 = 0.5 * np.mean(w1 * m1).real - 0.5 * np.mean(w2 * m2).real
        m12 = np.mean(w1 * m2).real
        a = a_slice[k]
        acc11 += 2.0 * a * a * m11
        acc12 += 2.0 * a * a * m12
    err = float(np.max(np.hypot(acc11, acc12)))
    scale = float(np.max(np.hypot(rv[0], rv[1])))
    _verdict(8, err <= 1e-8 * scale,
             f"cancellation defect {err:.2e} vs stress sup {scale:.2f}")


def test_criterion_09_end_to_end_step(endtoend):
    run = endtoend
    rep = run["diags"].residual_report
    support = run["diags"].support
    ok = (rep["window_max_rel"] <= 1e-4 and run["elapsed"] <= 300.0
          and all(support.values()))
    _verdict(9, ok, f"residual {rep['window_max_rel']:.2e}, "
                    f"runtime {run['elapsed']:.0f}s, supports {support}")


def test_criterion_10_parameter_gate():
    from fractions import Fraction as F
    witness = dict(theta=F(0), alpha=F(1, 8), B=2561, beta=F(1, 10 ** 9), A=5 ** 8)
    validate_schedule(PaperSchedule(**witness))
    mutations = [
        (dict(witness, B=100), "++.1"),
        (dict(witness, beta=F(1, 100)), "++.2"),
        (dict(witness, A=5 ** 8 + 5), "++.3"),
        (dict(witness, theta=F(9, 10), alpha=F(1, 4)), "7.16+"),
        (dict(witness, beta=F(7, 2561)), "ell_lambda8"),
    ]
    labels = []
    ok = True
    for mut, label in mutations:
        try:
            validate_schedule(PaperSchedule(**mut))
            ok = False
            labels.append(f"{label}: NOT rejected")
        except ConstraintViolation as exc:
            ok &= label in exc.labels
            labels.append(f"{label}: {'ok' if label in exc.labels else exc.labels}")
    _verdict(10, ok, "witness accepted; " + "; ".join(labels))


def test_criterion_11_negative_control(endtoend):
    state = endtoend["state"]
    rep0 = nsr_residual(state)
    bad = helmholtz(project(random_field(state.grid, "vector", 12, seed=33),
                            FreqBand.nonzero()))
    bad = ((1.0 + rep0["scale"]) / lp_norm(bad, 2)) * bad
    broken = NSRState(TimeTrack(state.times, [s + bad for s in state.v.slices],
                                state.v.dslices),
                      state.p, state.R, state.theta, state.nu, state.q, state.T)
    rep = nsr_residual(broken)
    _verdict(11, rep["max_rel"] >= 0.1,
             f"perturbed relative residual {rep['max_rel']:.3f}")
