import numpy as np
import pytest

from ci2d import (FreqBand, RankError, SpectralField, anti_divergence,
                  divergence, frac_laplacian, helmholtz, inv_grad, lp_norm,
                  make_grid, mean, multiply, project, random_field,
                  sym_tracefree_product, tf_square, tracefree_product)
from ci2d.building_blocks import WaveParams, directions, positive_directions
from ci2d.errors import ConfigError


def test_project_mean_removal():
    g = make_grid(16)
    f = SpectralField.from_modes(g, "scalar", {(0, 0): 3.0, (1, 0): 0.5, (-1, 0): 0.5})
    got = project(f, FreqBand.nonzero())
    assert mean(got) == 0.0
    assert got.coeff((1, 0))[0] == 0.5


def test_project_keeps_flow_shell():
    # the closed band [lam/2, 2 lam] leaves the intermittent flow intact:
    # the real pair eta (b + c.c.) of the kernel's exact coefficients
    from ci2d import eta, multiply_mode
    from ci2d.building_blocks import lattice_vector
    g = make_grid(64)
    wp = WaveParams(10, 2, 1, 1)
    k = positive_directions()[0]
    acc = np.zeros((2, g.n, g.n // 2 + 1), dtype=complex)
    multiply_mode(acc, eta(k, wp, 0.0, g)[0], lattice_vector(k.five_k, wp.lam // 5),
                  (1j * k.k_perp)[:, None, None])
    w = SpectralField(g, "vector", acc)
    assert lp_norm(w, 2) > 0.0
    kept = project(w, FreqBand(5.0, 20.0))
    assert np.array_equal(np.asarray(kept.coeffs), np.asarray(w.coeffs))


def test_project_at_least_drops_low_modes():
    g = make_grid(16)
    cosx = SpectralField.from_modes(g, "scalar", {(1, 0): 0.5, (-1, 0): 0.5})
    assert lp_norm(project(cosx, FreqBand.at_least(5)), 2) == 0.0


def test_helmholtz_examples():
    g = make_grid(32)
    grad = SpectralField.from_modes(
        g, "vector", {(1, 0): np.array([0.5, 0]), (-1, 0): np.array([0.5, 0])})
    assert lp_norm(helmholtz(grad), 2) < 1e-14
    shear = SpectralField.from_modes(
        g, "vector", {(0, 1): np.array([-0.5j, 0]), (0, -1): np.array([0.5j, 0])})
    assert lp_norm(helmholtz(shear) - shear, 2) < 1e-14
    with pytest.raises(RankError):
        helmholtz(grad.component(0))


def test_frac_laplacian_multiplier():
    g = make_grid(32)
    e34 = SpectralField.from_modes(g, "scalar", {(3, 4): 1.0, (-3, -4): 1.0})
    assert frac_laplacian(e34, 1.0).coeff((3, 4))[0] == pytest.approx(25.0)
    assert frac_laplacian(e34, 0.5).coeff((3, 4))[0] == pytest.approx(5.0)
    f = SpectralField.from_modes(g, "scalar", {(0, 0): 2.0, (3, 4): 1.0, (-3, -4): 1.0})
    ident = frac_laplacian(f, 0.0)
    assert ident.coeff((0, 0))[0] == 2.0
    assert ident.coeff((3, 4))[0] == 1.0
    assert frac_laplacian(f, 0.7).coeff((0, 0))[0] == 0.0
    with pytest.raises(ConfigError):
        frac_laplacian(f, 1.5)
    with pytest.raises(ConfigError):
        frac_laplacian(f, -0.1)


def test_inv_grad_examples():
    g = make_grid(32)
    cos3 = SpectralField.from_modes(g, "scalar", {(3, 0): 0.5, (-3, 0): 0.5})
    assert lp_norm(inv_grad(cos3) - (1.0 / 3.0) * cos3, np.inf) < 1e-14
    const = SpectralField.from_modes(g, "scalar", {(0, 0): 7.0})
    assert lp_norm(inv_grad(const), 2) == 0.0


def test_anti_divergence_single_mode_oracle():
    # oracle: solve Lap g = (sin x2, 0) by hand: g = (-sin x2, 0); then
    # grad g + (grad g)^T - div g Id has t11 = 0 and t12 = -cos x2
    g = make_grid(32)
    f = SpectralField.from_modes(
        g, "vector", {(0, 1): np.array([-0.5j, 0]), (0, -1): np.array([0.5j, 0])})
    rf = anti_divergence(f)
    vals = rf.values()
    x = g.nodes()
    assert np.max(np.abs(vals[0])) < 1e-14
    assert np.max(np.abs(vals[1] - (-np.cos(x))[None, :])) < 1e-14
    zero = SpectralField.zeros(g, "vector")
    assert lp_norm(anti_divergence(zero), 2) == 0.0


def test_anti_divergence_right_inverse_and_metadata():
    g = make_grid(64)
    # the mean (2, -1) of the input is what the divergence drops
    shifted = SpectralField.from_modes(
        g, "vector", {(0, 0): np.array([2.0, -1.0]), (1, 0): np.array([0.5, 0]),
                      (-1, 0): np.array([0.5, 0])})
    dropped = shifted - divergence(anti_divergence(shifted))
    assert np.allclose(mean(dropped), [2.0, -1.0])
    assert lp_norm(dropped - project(dropped, FreqBand(0, 0)), 2) <= 1e-14


def test_tracefree_product_display():
    got = tracefree_product((1.0, 0.0), (0.0, 1.0))
    assert np.allclose(got, [[0.0, 1.0], [0.0, 0.0]])
    k = np.array([3.0, 4.0]) / 5.0
    kk = tracefree_product(k, k)
    assert kk[0, 0] == pytest.approx(-7.0 / 50.0)
    assert kk[0, 1] == pytest.approx(12.0 / 25.0)
    assert kk[1, 0] == pytest.approx(12.0 / 25.0)
    # brute force over the eight directions: the rotated frame flips sign
    for d in directions():
        left = tracefree_product(d.k_perp, d.k_perp)
        right = -tracefree_product(d.k, d.k)
        assert np.allclose(left, right, atol=1e-15)


def test_tracefree_product_fields_and_symmetry():
    g = make_grid(64)
    f = random_field(g, "vector", 10, seed=3)
    h = random_field(g, "vector", 10, seed=4)
    (f1, f2), (h1, h2) = ([u.component(j) for j in (0, 1)] for u in (f, h))
    st = sym_tracefree_product(f, h)
    assert st.rank == "symtensor"
    # entries of f x h + h x f, trace-free: (f1 h1 - f2 h2, f1 h2 + f2 h1)
    assert lp_norm(st.component(0) - (multiply(f1, h1) - multiply(f2, h2)), 2) \
        <= 1e-14 * lp_norm(st, 2)
    assert lp_norm(st.component(1) - (multiply(f1, h2) + multiply(f2, h1)), 2) \
        <= 1e-14 * lp_norm(st, 2)
    # f x h alone is not symmetric: its off-diagonal entries differ
    asym = lp_norm(multiply(f1, h2) - multiply(f2, h1), np.inf)
    assert asym > 1e-3 * lp_norm(st, np.inf)
    with pytest.raises(RankError):
        tracefree_product(f, (1.0, 0.0))
    with pytest.raises(RankError):
        sym_tracefree_product(f, f.component(0))


def test_square_and_symmetric_product_identities():
    g = make_grid(64)
    f = random_field(g, "vector", 15, seed=41)
    h = random_field(g, "vector", 15, seed=42)
    sq = tf_square(f)
    half = 0.5 * sym_tracefree_product(f, f)
    assert np.max(np.abs(sq.coeffs - half.coeffs)) <= 1e-15 * np.max(np.abs(sq.coeffs))
    fh, hf = sym_tracefree_product(f, h), sym_tracefree_product(h, f)
    assert np.max(np.abs(fh.coeffs - hf.coeffs)) <= 1e-15 * np.max(np.abs(fh.coeffs))
    # the square through the general branch (a distinct but equal operand)
    twin = SpectralField(g, "vector", f.coeffs)
    general = 0.5 * sym_tracefree_product(f, twin)
    assert np.max(np.abs(sq.coeffs - general.coeffs)) <= 1e-15 * np.max(np.abs(sq.coeffs))


def _tf_product_oracle(f, h, allow_interpolant=False):
    """(t11, t12) of f x h + h x f from one scalar product per entry pair."""
    from ci2d.spectral_field import _resize
    p = lambda a, b: multiply(a, b, allow_interpolant=allow_interpolant)
    (f1, f2), (h1, h2) = ([u.component(j) for j in (0, 1)] for u in (f, h))
    t11 = p(f1, h1) - p(f2, h2)
    t12 = p(f1, h2) + p(f2, h1)
    m = max(t11.storage, t12.storage)
    return np.stack([_resize(t11.coeffs[0], m), _resize(t12.coeffs[0], m)])


def _assert_matches_oracle(got, oracle, rtol=1e-14):
    from ci2d.spectral_field import _resize
    m = max(got.storage, oracle.shape[-1])
    a, b = _resize(got.coeffs, m), _resize(oracle, m)
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def _vector_of_bands(g, bands, seed):
    """Real vector field whose two components have the given bands."""
    from ci2d.spectral_field import _resize
    comps = [random_field(g, "scalar", b, seed=seed + j) for j, b in enumerate(bands)]
    m = max(c.storage for c in comps)
    return SpectralField(g, "vector", np.stack([_resize(c.coeffs[0], m) for c in comps]))


def test_fused_product_matches_scalar_products_in_the_interpolant_regime():
    # full-band operands: every entry product aliases on the master grid
    g = make_grid(64)
    f = random_field(g, "vector", g.max_mode, seed=51, decay=0.0)
    h = random_field(g, "vector", g.max_mode, seed=52, decay=0.0)
    _assert_matches_oracle(sym_tracefree_product(f, h, allow_interpolant=True),
                           _tf_product_oracle(f, h, True))
    _assert_matches_oracle(sym_tracefree_product(f, f, allow_interpolant=True),
                           _tf_product_oracle(f, f, True))
    _assert_matches_oracle(tf_square(f, allow_interpolant=True) * 2.0,
                           _tf_product_oracle(f, f, True))


def test_fused_product_matches_scalar_products_for_unequal_bands():
    # the oracle forms each entry product on the grid of its own bands
    g = make_grid(128)
    f = _vector_of_bands(g, (3, 21), seed=60)
    h = _vector_of_bands(g, (17, 5), seed=70)
    assert f.band() == 21 and h.band() == 17
    _assert_matches_oracle(sym_tracefree_product(f, h), _tf_product_oracle(f, h))
    _assert_matches_oracle(sym_tracefree_product(h, f), _tf_product_oracle(h, f))
    _assert_matches_oracle(sym_tracefree_product(f, f), _tf_product_oracle(f, f))


def test_fused_product_raises_where_an_entry_product_overflows():
    from ci2d.errors import AliasingRisk
    g = make_grid(64)
    f = _vector_of_bands(g, (20, 5), seed=80)
    h = _vector_of_bands(g, (5, 15), seed=90)   # f1 h2 reaches 35 > 31
    for a, b in ((f, h), (f, f)):
        with pytest.raises(AliasingRisk):
            _tf_product_oracle(a, b)
        with pytest.raises(AliasingRisk):
            sym_tracefree_product(a, b)
    with pytest.raises(AliasingRisk):
        tf_square(f)
    _assert_matches_oracle(sym_tracefree_product(f, h, allow_interpolant=True),
                           _tf_product_oracle(f, h, True))


def test_gradient_and_inv_lap_div_const_need_a_scalar():
    from ci2d.ci_step import _inv_lap_div_const, gradient
    g = make_grid(16)
    for rank in ("vector", "symtensor"):
        f = random_field(g, rank, 5, seed=8)
        with pytest.raises(RankError):
            gradient(f)
        with pytest.raises(RankError):
            _inv_lap_div_const(f, np.array([0.6, 0.8]))


def _full_mollifier(m, ell):
    """bump2_hat(ell |xi|) on the full m x m plane, each radius once."""
    from ci2d.mollifier import bump2_hat
    ks = np.fft.fftfreq(m, 1.0 / m)
    rad = np.hypot(ks[:, None], ks[None, :])
    uniq, inv = np.unique(rad, return_inverse=True)
    return bump2_hat(ell * uniq)[inv].reshape(m, m)


def _multiplier_cases():
    """(name, rank of the input, operator, oracle on (coeffs, xi1, xi2, |xi|^2))."""
    from ci2d.ci_step import _inv_lap_div_const, gradient
    from ci2d.mollifier import spatial_mollify
    from ci2d.spectral_field import derive, perp_grad
    kvec = np.array([0.6, -0.8])

    def safe(k2):
        return np.where(k2 == 0.0, 1.0, k2)

    def leray(c, kx, ky, k2):
        dot = kx * c[0] + ky * c[1]
        out = np.stack([c[0] - kx * dot / safe(k2), c[1] - ky * dot / safe(k2)])
        out[:, 0, 0] = c[:, 0, 0]
        return out

    def anti(c, kx, ky, k2):
        out = -1j * np.stack([kx * c[0] - ky * c[1], ky * c[0] + kx * c[1]]) / safe(k2)
        out[:, 0, 0] = 0.0
        return out

    def ild(c, kx, ky, k2):
        mult = -1j * (kvec[0] * kx + kvec[1] * ky) / safe(k2)
        mult[0, 0] = 0.0
        return c * mult

    cases = [(f"derive{o}", "scalar", lambda f, o=o: derive(f, o),
              lambda c, kx, ky, k2, o=o: c * (1j ** sum(o) * kx ** o[0] * ky ** o[1]))
             for o in ((1, 0), (0, 2), (2, 1))]
    cases += [
        ("gradient", "scalar", gradient,
         lambda c, kx, ky, k2: 1j * np.stack([kx * c[0], ky * c[0]])),
        ("perp_grad", "scalar", perp_grad,
         lambda c, kx, ky, k2: 1j * np.stack([-ky * c[0], kx * c[0]])),
        ("divergence_vector", "vector", divergence,
         lambda c, kx, ky, k2: 1j * (kx * c[0] + ky * c[1])[None]),
        ("divergence_symtensor", "symtensor", divergence,
         lambda c, kx, ky, k2: 1j * np.stack([kx * c[0] + ky * c[1], kx * c[1] - ky * c[0]])),
    ]
    cases += [(f"frac_laplacian{th}", "vector", lambda f, th=th: frac_laplacian(f, th),
               lambda c, kx, ky, k2, th=th: c if th == 0.0 else c * k2 ** th)
              for th in (0.0, 0.4, 1.0)]
    cases += [
        ("inv_grad", "vector", inv_grad,
         lambda c, kx, ky, k2: c * np.divide(1.0, np.sqrt(k2), out=np.zeros_like(k2),
                                             where=k2 > 0.0)),
        ("anti_divergence", "vector", anti_divergence, anti),
        ("helmholtz", "vector", helmholtz, leray),
        ("project", "vector", lambda f: project(f, FreqBand(1.0, f.storage / 4)),
         lambda c, kx, ky, k2: c * ((k2 >= 1.0) & (k2 <= (c.shape[-2] / 4) ** 2))),
        ("inv_lap_div_const", "scalar", lambda f: _inv_lap_div_const(f, kvec), ild),
        ("spatial_mollify", "symtensor", lambda f: spatial_mollify(f, 0.05),
         lambda c, kx, ky, k2: c * _full_mollifier(c.shape[-2], 0.05)[:, :c.shape[-1]]),
    ]
    return cases


MULTIPLIERS = _multiplier_cases()


@pytest.mark.parametrize("m", [8, 64, 512])
@pytest.mark.parametrize("name, rank, op, oracle", MULTIPLIERS, ids=[c[0] for c in MULTIPLIERS])
def test_multiplier_matches_lattice_formula_bit_for_bit(name, rank, op, oracle, m):
    # oracle: the multiplier's formula on wave numbers from np.fft.fftfreq;
    # the comparison folds the sign of a zero (x + 0.0)
    g = make_grid(m)
    f = random_field(g, rank, m // 2 - 1, seed=m + len(name), mean_zero=False)
    assert f.storage == m
    ks = np.fft.fftfreq(m, 1.0 / m)
    kx, ky = ks[:, None], ks[None, :m // 2 + 1]
    want = oracle(np.array(f.coeffs), kx, ky, kx ** 2 + ky ** 2)
    got = op(f).coeffs
    assert got.shape == want.shape
    assert np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))


@pytest.mark.parametrize("m, ell", [(8, 0.3), (64, 0.05), (512, 0.05), (512, 0.7)])
def test_half_mollifier_multiplier_is_the_full_planes_leading_columns(m, ell):
    from ci2d.mollifier import _spatial_multiplier
    half = _spatial_multiplier(m, ell)
    assert half.shape == (m, m // 2 + 1)
    assert np.array_equal(half, _full_mollifier(m, ell)[:, :m // 2 + 1])
    with pytest.raises(ValueError):
        half[0, 0] = 0.0
