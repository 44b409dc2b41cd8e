import itertools

import numpy as np
import pytest

from ci2d import (AliasingRisk, ConfigError, RankError, SpectralField,
                  TimeTrack, analyze, cn_norm, derive, divergence, l1_norm,
                  lp_norm, make_grid, mean, multiply, perp_grad, random_field)
from ci2d.building_blocks import dirichlet_kernel
from ci2d.spectral_field import (BAND_RTOL, _fft_size, _measure_band, _resize,
                                 combine, multiply_mode, pointwise_magnitude)


def test_make_grid_accepts_powers_of_two():
    g = make_grid(8)
    assert np.allclose(g.nodes(), 2 * np.pi * np.arange(8) / 8)
    assert make_grid(512).n ** 2 == 262144


@pytest.mark.parametrize("bad", [6, 3, 0, -4, 2])
def test_make_grid_rejects_bad_sizes(bad):
    with pytest.raises(ConfigError):
        make_grid(bad)


def test_single_mode_synthesis_is_cosine():
    g = make_grid(8)
    f = SpectralField.from_modes(g, "scalar", {(1, 0): 0.5, (-1, 0): 0.5})
    x = g.nodes()
    assert np.max(np.abs(f.values()[0] - np.cos(x)[:, None])) < 1e-14


def test_parseval_against_quadrature_oracle():
    # oracle: int cos^2 over the torus = 2 pi^2, so the L2 norm is
    # sqrt(2) * pi = 2 pi sqrt(1/2)
    g = make_grid(64)
    f = SpectralField.from_modes(g, "scalar", {(1, 0): 0.5, (-1, 0): 0.5})
    x = g.nodes()
    brute = np.sqrt(np.sum(np.cos(x)[:, None] ** 2 * np.ones(64)) * g.cell_measure)
    assert abs(brute - 2 * np.pi ** 2 / (np.pi * np.sqrt(2))) < 1e-12
    assert abs(lp_norm(f, 2) - 2 * np.pi * np.sqrt(0.5)) < 1e-12


# -- real transforms against numpy's complex FFT --------------------------------

def _full(coeffs):
    """Oracle mirror: the full FFT-layout plane of a stored half spectrum
    (rfft2 layout), c(xi1, -xi2) = conj c(-xi1, xi2)."""
    m = coeffs.shape[-2]
    h = m // 2
    out = np.zeros(coeffs.shape[:-2] + (m, m), dtype=complex)
    out[..., :h] = coeffs[..., :h]
    rows, cols = (-np.arange(m)) % m, m - np.arange(1, h)
    out[..., rows[:, None], cols[None, :]] = np.conj(coeffs[..., :, 1:h])
    return out


def _on_grid(coeffs, n):
    """Oracle placement: every stored mode with |xi_i| <= n/2 - 1 goes to
    its slot in an n-by-n FFT layout."""
    coeffs = _full(coeffs)
    m = coeffs.shape[-1]
    ks = np.fft.fftfreq(m, 1.0 / m).astype(int)
    keep = np.flatnonzero(np.abs(ks) <= n // 2 - 1)
    out = np.zeros(coeffs.shape[:-2] + (n, n), dtype=complex)
    for i in keep:
        for j in keep:
            out[..., ks[i] % n, ks[j] % n] = coeffs[..., i, j]
    return out


def _complex_synthesis(coeffs, n):
    return np.fft.ifft2(_on_grid(coeffs, n), axes=(-2, -1)) * (n * n)


def _complex_analysis(samples):
    n = samples.shape[-1]
    c = np.fft.fft2(samples, axes=(-2, -1)) / (n * n)
    c[..., n // 2, :] = 0.0
    c[..., :, n // 2] = 0.0
    return c


def _assert_close(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("rank", ["scalar", "vector", "symtensor"])
def test_real_synthesis_matches_complex_oracle(rank):
    g = make_grid(64)
    f = random_field(g, rank, 6, seed=40)
    assert f.storage == 16
    # the same field stored larger than the grid it is sampled on
    wide = SpectralField(g, rank, _on_grid(f.coeffs, 64)[..., :33])
    for field, n in ((f, 64), (f, 16), (wide, 16), (wide, 64)):
        vals = field.values(n)
        want = _complex_synthesis(field.coeffs, n)
        assert np.isrealobj(vals) and vals.shape == want.shape
        assert np.max(np.abs(want.imag)) <= 1e-14 * np.max(np.abs(want))
        _assert_close(vals, want.real, 1e-14)


@pytest.mark.parametrize("rank", ["scalar", "vector", "symtensor"])
@pytest.mark.parametrize("bitwise", [True, False])
@pytest.mark.parametrize("storage", [8, 32, 64, 128])
def test_synthesis_matches_2d_oracle(rank, bitwise, storage):
    # a pruned half spectrum (storage < n), full storage and a cut
    # (storage > n) all give the samples of numpy.fft's single real 2-D
    # transform on the padded or cut half plane bit for bit, and those of
    # its complex 2-D transform on the mirrored full plane to round-off
    n = 64
    g = make_grid(max(storage, n))
    band = min(storage // 2 - 1, 20)
    f = random_field(g, rank, band, seed=47)
    f = SpectralField(g, rank, _resize(f.coeffs, storage))
    assert f.storage == storage
    got = f.values(n)
    assert got.dtype == np.float64 and got.shape == (f.ncomp, n, n)
    if bitwise:
        c = _resize(f.coeffs, n)
        assert np.array_equal(got, np.fft.irfft2(c, s=(n, n), norm="forward"))
    else:
        want = _complex_synthesis(f.coeffs, n)
        assert np.max(np.abs(want.imag)) <= 1e-14 * np.max(np.abs(want))
        _assert_close(got, want.real, 1e-14)


def test_real_analysis_matches_complex_oracle():
    g = make_grid(64)
    rng = np.random.default_rng(41)
    # full-band samples (storage n) and band-limited ones (trimmed storage)
    for samples in (rng.standard_normal((2, 64, 64)),
                    random_field(g, "vector", 9, seed=42).values()):
        got = analyze(g, samples, "vector")
        assert got.coeffs.shape[-1] == got.storage // 2 + 1
        _assert_close(_on_grid(got.coeffs, 64), _complex_analysis(samples), 1e-14)


@pytest.mark.parametrize("rank", ["scalar", "vector"])
def test_real_multiply_matches_complex_oracle(rank):
    g = make_grid(64)
    f = random_field(g, "scalar", 12, seed=43)
    h = random_field(g, rank, 15, seed=44)
    prod = multiply(f, h)
    assert prod.rank == rank
    want = _complex_analysis(_complex_synthesis(f.coeffs, 64)[0][None]
                             * _complex_synthesis(h.coeffs, 64))
    _assert_close(_on_grid(prod.coeffs, 64), want, 1e-14)


def test_coeff_reads_the_mirror_at_negative_xi2():
    g = make_grid(32)
    f = random_field(g, "symtensor", 3, seed=46)
    full = _full(f.coeffs)
    m = f.storage
    assert m == 8
    for x1 in range(-g.max_mode, g.max_mode + 1):
        for x2 in range(-g.max_mode, g.max_mode + 1):
            want = full[:, x1 % m, x2 % m] if max(abs(x1), abs(x2)) < m // 2 else 0.0
            assert np.array_equal(f.coeff((x1, x2)), want * np.ones(2)), (x1, x2)


@pytest.mark.parametrize("rank, seed", [("scalar", 47), ("vector", 48), ("symtensor", 49)])
def test_half_spectrum_parseval_matches_grid_sum(rank, seed):
    # full-band (storage n) and band-limited (trimmed storage) fields
    g = make_grid(64)
    for f in (random_field(g, rank, g.max_mode, seed=seed, decay=0.0),
              random_field(g, rank, 10, seed=seed, mean_zero=False)):
        quad = np.sqrt(np.sum(pointwise_magnitude(f) ** 2) * g.cell_measure)
        assert abs(lp_norm(f, 2) - quad) <= 1e-12 * quad


def test_energy_spectrum_matches_full_plane_oracle():
    from ci2d.diagnostics import energy_spectrum
    g = make_grid(64)
    f = random_field(g, "vector", 20, seed=55, mean_zero=False)
    full = _full(f.coeffs)
    ks = np.fft.fftfreq(f.storage, 1.0 / f.storage)
    shells = np.rint(np.hypot(ks[:, None], ks[None, :])).astype(int)
    want = np.zeros(shells.max() + 1)
    np.add.at(want, shells.ravel(), np.sum(np.abs(full) ** 2, axis=0).ravel())
    want *= 0.5 * (2 * np.pi) ** 2
    got_shells, got = energy_spectrum(f)
    assert np.array_equal(got_shells, np.arange(want.size))
    _assert_close(got, want, 1e-14)


def test_field_layout_must_match_reality_flag():
    # every field is real and held as its half spectrum: a full plane (the
    # layout of a complex field) or any other last axis is refused, and so
    # are complex samples and a complex factor
    g = make_grid(16)
    assert SpectralField(g, "vector", np.zeros((2, 8, 5))).storage == 8
    for shape in ((2, 8, 8), (2, 8, 4), (2, 8, 9), (2, 8)):
        with pytest.raises(ConfigError):
            SpectralField(g, "vector", np.zeros(shape))
    f = random_field(g, "scalar", 5, seed=58)
    assert f.coeffs.shape == (1, 16, 9) and (2.0 * f).coeffs.shape == (1, 16, 9)
    with pytest.raises(ConfigError):
        2j * f
    with pytest.raises(ConfigError):
        analyze(g, f.values() + 0j)


@pytest.mark.parametrize("modes", [{(1, 2): 1.0}, {(1, -2): 1.0},
                                   {(1, 2): 1.0, (-1, -2): 1.0 + 1e-9}])
def test_real_flag_needs_conjugate_symmetric_modes(modes):
    g = make_grid(16)
    with pytest.raises(ConfigError, match="conjugate symmetric"):
        SpectralField.from_modes(g, "scalar", modes)
    # within 1e-10 of the largest amplitude the modes count as symmetric
    near = SpectralField.from_modes(g, "scalar", {(1, 2): 1.0, (-1, -2): 1.0 + 1e-11})
    assert near.coeff((1, 2))[0] == 1.0


def _mirror(coeffs):
    """conj c(-xi) of stacked full planes, by flips and a roll: the
    construction `from_modes` and `random_field` used before they formed
    the half spectrum directly."""
    out = np.roll(np.flip(coeffs, axis=(-2, -1)), 1, axis=(-2, -1))
    return np.conjugate(out, out=out)


def _old_half(full):
    """The xi_2 >= 0 half (rfft2 layout) of a full plane, Nyquist column 0."""
    m = full.shape[-1]
    out = np.zeros(full.shape[:-1] + (m // 2 + 1,), dtype=complex)
    out[..., :m // 2] = full[..., :m // 2]
    return out


@pytest.mark.parametrize("rank", ["scalar", "vector", "symtensor"])
def test_from_modes_matches_the_full_plane_construction(rank):
    # the old construction: every mode in a full plane, the symmetry gap
    # over the plane and its mirror, then the half; the same modes raise
    # and the same half results
    g = make_grid(32)
    nc = 1 if rank == "scalar" else 2
    rng = np.random.default_rng(60)
    for trial in range(40):
        band = int(rng.integers(0, 16))
        modes = {}
        for _ in range(int(rng.integers(0, 12))):
            xi = tuple(int(x) for x in rng.integers(-band, band + 1, 2))
            amp = rng.standard_normal(nc) + 1j * rng.standard_normal(nc)
            modes[xi] = amp
            if trial % 3:   # symmetric, exactly or to the tolerance's edge
                modes[(-xi[0], -xi[1])] = np.conj(amp) * (1.0 + (trial % 3 - 1) * 2e-10)
        m = _fft_size(max((max(map(abs, xi)) for xi in modes), default=0), g.n)
        full = np.zeros((nc, m, m), dtype=complex)
        for (x1, x2), amp in modes.items():
            full[:, x1 % m, x2 % m] += amp
        symmetric = np.max(np.abs(full - _mirror(full))) <= 1e-10 * np.max(np.abs(full))
        if not symmetric:
            with pytest.raises(ConfigError):
                SpectralField.from_modes(g, rank, modes)
            continue
        got = SpectralField.from_modes(g, rank, modes).coeffs
        assert np.array_equal(got, _old_half(full))


@pytest.mark.parametrize("rank", ["scalar", "vector", "symtensor"])
@pytest.mark.parametrize("mean_zero", [True, False])
def test_random_field_matches_the_full_plane_construction(rank, mean_zero):
    # the old construction of the same draws, kept here: symmetrize the
    # full plane by its mirror, then keep the half
    for n, band, seed, decay in ((16, 7, 0, 1.0), (64, 20, 3, 0.0), (128, 40, 5, 1.5)):
        g = make_grid(n)
        nc = 1 if rank == "scalar" else 2
        m = _fft_size(band, n)
        rng = np.random.default_rng(seed)
        ks = np.fft.fftfreq(m, 1.0 / m).astype(np.int64)
        kx, ky = np.meshgrid(ks, ks, indexing="ij")
        amp = rng.standard_normal((nc, m, m)) + 1j * rng.standard_normal((nc, m, m))
        amp *= (np.maximum(np.abs(kx), np.abs(ky)) <= band) / (1.0 + np.hypot(kx, ky)) ** decay
        want = _old_half(0.5 * (amp + _mirror(amp)))
        want[..., 0, 0] = 0.0 if mean_zero else want[..., 0, 0].real
        got = random_field(g, rank, band, seed, decay=decay, mean_zero=mean_zero).coeffs
        assert np.array_equal(got, want)


def test_zeros_storage_is_capped_at_the_grid():
    # the storage rule caps at n, so the smallest legal grid holds a zero field
    g = make_grid(4)
    assert SpectralField.zeros(g, "vector").coeffs.shape == (2, 4, 3)
    assert SpectralField.zeros(make_grid(64), "scalar").storage == 8


@pytest.mark.parametrize("other, err", [
    (random_field(make_grid(64), "vector", 5, seed=2), ConfigError),
    (random_field(make_grid(32), "symtensor", 5, seed=3), RankError)], ids=["grid", "rank"])
def test_mismatched_operands_raise(other, err):
    f = random_field(make_grid(32), "vector", 5, seed=1)
    for op in (lambda: f + other, lambda: f - other,
               lambda: combine([f, other], [1.0, 2.0])):
        with pytest.raises(err):
            op()


def _band_oracle(coeffs):
    """The band as the largest |xi|_inf over two full index grids."""
    mag = np.max(np.abs(coeffs), axis=0)
    cmax = mag.max()
    if cmax == 0.0:
        return 0
    m = coeffs.shape[-1]
    ks = np.abs(np.fft.fftfreq(m, 1.0 / m).astype(np.int64))
    kx = ks[:, None] * np.ones(m, dtype=np.int64)[None, :]
    ky = np.ones(m, dtype=np.int64)[:, None] * ks[None, :]
    return int(np.maximum(kx, ky)[mag > BAND_RTOL * cmax].max())


@pytest.mark.parametrize("m, ncomp, seed", [(8, 1, 0), (16, 2, 1), (64, 1, 2), (128, 2, 3)])
def test_measure_band_matches_index_grid_oracle(m, ncomp, seed):
    rng = np.random.default_rng(seed)
    assert _measure_band(np.zeros((ncomp, m, m), dtype=complex)) == 0
    for _ in range(20):
        c = (rng.standard_normal((ncomp, m, m)) + 1j * rng.standard_normal((ncomp, m, m)))
        # a random band plus a tail straddling the threshold
        band = int(rng.integers(0, m // 2))
        ks = np.abs(np.fft.fftfreq(m, 1.0 / m))
        outside = np.maximum(ks[:, None], ks[None, :]) > band
        tail = rng.uniform(0.0, 1.05, size=(ncomp, int(outside.sum())))
        c[:, outside] = BAND_RTOL * np.abs(c).max() * tail
        assert _measure_band(c) == _band_oracle(c)

@pytest.mark.parametrize("m", [8, 64, 512])
def test_lattice_is_read_only_and_shared_per_storage(m):
    from ci2d.spectral_field import _lattice
    lat = _lattice(m)
    assert _lattice(m) is lat
    ks = np.fft.fftfreq(m, 1.0 / m)
    assert np.array_equal(lat.xi1, ks[:, None])
    assert np.array_equal(lat.xi2, ks[None, :m // 2 + 1])
    for axis in lat:                    # the cache holds the two axes only
        assert axis.size in (m, m // 2 + 1)
        with pytest.raises(ValueError):
            axis[0, 0] = 1.0
    k2 = lat.norm2()
    assert np.array_equal(k2, ks[:, None] ** 2 + ks[None, :m // 2 + 1] ** 2)
    assert k2.flags.writeable and lat.norm2() is not k2
    safe = lat.divisor()
    assert safe[0, 0] == 1.0 and np.array_equal(safe.ravel()[1:], k2.ravel()[1:])


def test_derivative_examples():
    g = make_grid(16)
    cos3 = SpectralField.from_modes(g, "scalar", {(3, 0): 0.5, (-3, 0): 0.5})
    assert derive(cos3, (1, 0)).coeff((3, 0))[0] == 1.5j
    cosy = SpectralField.from_modes(g, "scalar", {(0, 1): 0.5, (0, -1): 0.5})
    assert lp_norm(derive(cosy, (0, 2)) + cosy, np.inf) < 1e-14
    const = SpectralField.from_modes(g, "scalar", {(0, 0): 4.0})
    assert lp_norm(derive(const, (1, 0)), np.inf) == 0.0


def test_perp_grad_examples():
    g = make_grid(16)
    sinx = SpectralField.from_modes(g, "scalar", {(1, 0): -0.5j, (-1, 0): 0.5j})
    got = perp_grad(sinx).values()
    x = g.nodes()
    assert np.max(np.abs(got[0])) < 1e-14
    assert np.max(np.abs(got[1] - np.cos(x)[:, None])) < 1e-14
    f = random_field(g, "scalar", 6, seed=3)
    assert lp_norm(divergence(perp_grad(f)), 2) <= 1e-12 * lp_norm(f, 2)
    with pytest.raises(RankError):
        perp_grad(random_field(g, "vector", 4, seed=4))


def test_divergence_examples():
    g = make_grid(16)
    x = g.nodes()
    siny = SpectralField.from_modes(
        g, "vector", {(0, 1): np.array([-0.5j, 0]), (0, -1): np.array([0.5j, 0])})
    assert lp_norm(divergence(siny), np.inf) < 1e-14
    sinx = SpectralField.from_modes(
        g, "vector", {(1, 0): np.array([-0.5j, 0]), (-1, 0): np.array([0.5j, 0])})
    got = divergence(sinx).values()[0]
    assert np.max(np.abs(got - np.cos(x)[:, None])) < 1e-14
    # symbolic oracle: stress (t11, t12) = (cos x1, 0) has divergence
    # (d1 t11, -d2 t11) = (-sin x1, 0), which is mean-free
    st = SpectralField.from_modes(g, "symtensor",
                                  {(1, 0): np.array([0.5, 0]), (-1, 0): np.array([0.5, 0])})
    got = divergence(st).values()
    assert np.max(np.abs(got[0] - (-np.sin(x))[:, None])) < 1e-14
    assert np.max(np.abs(got[1])) < 1e-14
    assert np.max(np.abs(mean(divergence(st)))) == 0.0
    with pytest.raises(RankError):
        divergence(st.component(0))


def test_lp_norm_conventions():
    g = make_grid(64)
    one = SpectralField.from_modes(g, "scalar", {(0, 0): 1.0})
    assert abs(lp_norm(one, 2) - 2 * np.pi) < 1e-12
    d3 = dirichlet_kernel(3, g)
    assert abs(lp_norm(d3, 2) - 2 * np.pi) < 1e-10
    with pytest.raises(ConfigError):
        lp_norm(one, 1.0)
    with pytest.raises(ConfigError):
        lp_norm(one, 0.5)
    assert lp_norm(d3, np.inf) == pytest.approx(7.0, abs=1e-10)
    assert l1_norm(one) == pytest.approx((2 * np.pi) ** 2, abs=1e-9)


def test_cn_norm_grid_sup():
    # analytic sup of cos and its first derivative tensor is 1
    g = make_grid(64)
    cosx = SpectralField.from_modes(g, "scalar", {(1, 0): 0.5, (-1, 0): 0.5})
    assert abs(cn_norm(cosx, 1) - 1.0) < 1e-12
    assert abs(cn_norm(cosx, 0) - 1.0) < 1e-10


@pytest.mark.parametrize("order", list(itertools.permutations((1, 1.5, np.inf))))
def test_cached_sup_matches_fresh_magnitude(order):
    # the sup a field caches from any grid norm is the fresh grid max
    g = make_grid(64)
    for rank, seed in (("vector", 31), ("symtensor", 32)):
        f = random_field(g, rank, 20, seed=seed)
        fresh = float(pointwise_magnitude(random_field(g, rank, 20, seed=seed)).max())
        got = {p: l1_norm(f) if p == 1 else lp_norm(f, p) for p in order}
        assert got[np.inf] == fresh
        assert lp_norm(f, np.inf) == fresh
        assert cn_norm(f, 0) == fresh


class _TransformCalled(Exception):
    pass


class _NoTransforms:
    """Stands in for numpy.fft: touching any transform raises."""

    def __getattr__(self, name):
        raise _TransformCalled(name)


def _no_samples(field):
    raise _TransformCalled("pointwise magnitude")


@pytest.mark.parametrize("rank", ["scalar", "vector", "symtensor"])
@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("m", [_fft_size(0, 32), 32])
def test_zero_field_spends_no_transform(rank, positive, m, monkeypatch):
    # coefficients of +0.0 or of -0.0 (which products of zeros leave) are
    # all exactly zero
    import ci2d.spectral_field as sf
    g = make_grid(32)
    shape = (1 if rank == "scalar" else 2, m, m // 2 + 1)
    zero = SpectralField(g, rank, np.full(shape, complex(0.0, 0.0) if positive
                                          else complex(-0.0, -0.0)))
    c = np.zeros(shape, dtype=complex)
    c[0, 1, 1] = 1e-300
    tiny = SpectralField(g, rank, c)
    # no transform runs, and the grid norms form no samples either
    monkeypatch.setattr(sf, "nfft", _NoTransforms())
    monkeypatch.setattr(sf, "_magnitude_squared", _no_samples)
    for norm in (lp_norm(zero, 1.5), lp_norm(zero, np.inf), l1_norm(zero), cn_norm(zero, 1)):
        assert type(norm) is float and norm == 0.0
    vals = zero.values()
    assert vals.shape == (shape[0], 32, 32)
    assert vals.dtype == np.float64 and not vals.any() and not np.signbit(vals).any()
    back = analyze(g, vals, rank)
    assert back.band() == 0 and back.storage == _fft_size(0, 32) and back.is_zero
    # negative control: one tiny coefficient is not zero, so the field
    # synthesizes, and its squares' underflow does not zero its norms
    with pytest.raises(_TransformCalled):
        tiny.values()
    monkeypatch.undo()
    assert not tiny.is_zero and tiny.values().any()
    assert l1_norm(tiny) > 0.0 and lp_norm(tiny, np.inf) > 0.0 and cn_norm(tiny, 1) > 0.0


def _report_oracle(f, n):
    """(L1, L2, sup, C^1) of a real field from np.fft.irfft2 of its
    coefficients on the n-grid: rectangle rule, grid max and explicit
    i xi multipliers; a symtensor's magnitude counts t11 and t12 twice."""
    c = _resize(f.coeffs, n)
    k1 = np.fft.fftfreq(n, 1.0 / n)[:, None]
    k2 = np.fft.rfftfreq(n, 1.0 / n)[None, :]
    w = 2.0 if f.rank == "symtensor" else 1.0

    def mag2(coeffs):
        vals = np.fft.irfft2(coeffs, s=(n, n), norm="forward")
        return w * np.sum(vals ** 2, axis=0)

    mag = np.sqrt(mag2(c))
    cell = (2 * np.pi / n) ** 2
    grad = np.sqrt(mag2(1j * k1 * c) + mag2(1j * k2 * c))
    return (np.sum(mag) * cell, np.sqrt(np.sum(mag ** 2) * cell), mag.max(),
            max(mag.max(), grad.max()))


def test_state_report_matches_numpy_oracle(shear_state):
    from ci2d.diagnostics import state_report
    state = shear_state()
    n = state.grid.n
    rows = state_report(state)["slices"]
    zero = [i for i in range(len(rows)) if state.v.slices[i].is_zero]
    assert len(zero) == 6 and all(state.R.slices[i].is_zero for i in zero)
    for i, row in enumerate(rows):
        for name in ("v", "R"):
            keys = [f"{name}_{k}" for k in ("L1", "L2", "Linf", "C1")]
            if i in zero:
                assert [row[k] for k in keys] == [0.0] * 4
                continue
            want = _report_oracle(getattr(state, name).slices[i], n)
            for k, ref in zip(keys, want):
                assert ref > 0.0 and abs(row[k] - ref) <= 1e-13 * ref, (i, k)


def test_mean_is_zero_mode():
    g = make_grid(16)
    f = SpectralField.from_modes(g, "scalar", {(0, 0): 3.0, (1, 0): 0.5, (-1, 0): 0.5})
    assert mean(f) == pytest.approx(3.0)


def test_symtensor_storage_reconstruction():
    g = make_grid(16)
    st = random_field(g, "symtensor", 5, seed=5)
    vals = st.values()
    # full matrix is [[t11, t12], [t12, -t11]]: trace-free and symmetric
    # by storage, no tolerance involved
    assert vals.shape[0] == 2


def test_band_measurement_and_trim():
    g = make_grid(128)
    f = SpectralField.from_modes(g, "scalar", {(40, 3): 1.0, (-40, -3): 1.0,
                                                (0, 1): 1e-20, (0, -1): 1e-20})
    assert f.band() == 40
    assert f.storage <= 128
    # a constructed field keeps its storage; analysis fits storage to the
    # band, dropping a sub-threshold mode on the cut storage's Nyquist row
    c = np.zeros((1, 64, 33), dtype=complex)
    c[0, 3, 0], c[0, -3, 0], c[0, 4, 0], c[0, -4, 0] = 1.0, 1.0, 1e-14, 1e-14
    f = SpectralField(g, "scalar", c)
    assert f.band() == 3 and f.storage == 64
    h = analyze(g, f.values())
    assert h.band() == 3 and h.storage == 8
    assert not np.any(h.coeffs[:, 4, :]) and not np.any(h.coeffs[:, :, 4])


def test_band_measured_only_by_analysis_and_band(monkeypatch):
    import ci2d.spectral_field as sf
    calls = []
    measure = sf._measure_band
    monkeypatch.setattr(sf, "_measure_band", lambda c: calls.append(c.shape) or measure(c))
    g = make_grid(256)
    f, h = random_field(g, "vector", 100, seed=50), random_field(g, "vector", 120, seed=51)
    s = combine([f, h, f - h], [0.5, 2.0, -1.0]) + derive(f, (1, 2))
    assert s.storage == 256 and calls == []
    assert s.band() == 120 and len(calls) == 1
    assert s.band() == 120 and len(calls) == 1
    back = analyze(g, s.values(), "vector")
    assert back.band() == 120 and len(calls) == 2


def test_multiply_exact_and_guard():
    g = make_grid(64)
    f = random_field(g, "scalar", 20, seed=6)
    h = random_field(g, "scalar", 10, seed=7)
    prod = multiply(f, h)
    brute = analyze(g, f.values() * h.values())
    assert lp_norm(prod - brute, 2) <= 1e-12 * lp_norm(prod, 2)
    big = random_field(g, "scalar", 25, seed=8)
    with pytest.raises(AliasingRisk):
        multiply(f, big)
    # opting in computes the interpolant product on the master grid
    multiply(f, big, allow_interpolant=True)


def test_timetrack_validation():
    g = make_grid(16)
    f = random_field(g, "scalar", 4, seed=9)
    times = np.linspace(0, 1, 5)
    TimeTrack(times, [f] * 5)
    with pytest.raises(ConfigError):
        TimeTrack(times, [f] * 4)
    with pytest.raises(ConfigError):
        TimeTrack(np.array([0.0, 0.1, 0.3]), [f] * 3)


# -- multiply_mode against an explicit loop over the modes ---------------------

def _shift_oracle(f, xi, amplitudes):
    """Add xi to every mode of f's full plane; targets with |xi|_inf >
    max_mode drop out.

    Returns {target: coefficients} and the largest share of a component's
    energy sum |c|^2 that dropped."""
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
    bmax = f.grid.max_mode
    ks = np.fft.fftfreq(f.storage, 1.0 / f.storage).astype(int)
    full = _full(f.coeffs)
    out, dropped = {}, np.zeros(f.ncomp)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            c = full[:, i, j]
            t = (int(k1) + xi[0], int(k2) + xi[1])
            if max(abs(t[0]), abs(t[1])) > bmax:
                dropped += np.abs(c) ** 2
                continue
            out[t] = out.get(t, 0.0) + np.concatenate([c * a for a in amps])
    total = np.sum(np.abs(full) ** 2, axis=(-2, -1))
    return out, float(np.max(dropped / np.where(total > 0.0, total, 1.0)))


def _pair_oracle(f, xi, amp):
    """{target: coefficients} of amp exp(i xi . x) f + conj(amp)
    exp(-i xi . x) f, and the energy share the +xi shift drops."""
    want, share = _shift_oracle(f, xi, amp)
    for t, c in _shift_oracle(f, (-xi[0], -xi[1]), np.conj(amp))[0].items():
        want[t] = want.get(t, 0.0) + c
    return want, share


def _pair(f, xi, amp, rank=None, acc=None):
    """(field, share) of `multiply_mode` into a half-spectrum accumulator
    on f's grid, all zero unless given."""
    n, rank = f.grid.n, rank or f.rank
    if acc is None:
        acc = np.zeros((1 if rank == "scalar" else 2, n, n // 2 + 1), dtype=complex)
    share = multiply_mode(acc, f, xi, amp)
    return SpectralField(f.grid, rank, acc), share


def _assert_matches_oracle(got, want):
    bmax = got.grid.max_mode
    for t1 in range(-bmax, bmax + 1):
        for t2 in range(-bmax, bmax + 1):
            w = want.get((t1, t2), np.zeros(got.ncomp))
            assert np.max(np.abs(got.coeff((t1, t2)) - w)) <= 1e-15, (t1, t2)
    # nothing is left on the Nyquist row or column of the storage
    h = got.storage // 2
    assert not np.any(got.coeffs[:, h, :]) and not np.any(got.coeffs[:, :, h])


@pytest.mark.parametrize("xi", [(2, 1), (-2, -1), (2, -1), (0, 0), (3, 0), (-3, -2),
                                (0, -3), (6, -6), (-7, 5)])
def test_multiply_mode_clip_matches_oracle(xi):
    # band 5 on n = 16 (max_mode 7): (2, 1) fits, (3, 0) lands on the
    # Nyquist row, (-3, -2) past it on the negative side, (6, -6) and
    # (-7, 5) wrap whole strips; the -xi shift clips the mirrored strips
    g = make_grid(16)
    f = random_field(g, "scalar", 5, seed=21)
    got, share = _pair(f, xi, 0.5 - 2.0j)
    want, want_share = _pair_oracle(f, xi, 0.5 - 2.0j)
    _assert_matches_oracle(got, want)
    assert share == pytest.approx(want_share, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("xi", [(2, 1), (-2, -1), (3, 0), (-3, -2), (6, -6)])
def test_multiply_mode_reports_a_share_exactly_when_weight_drops(xi):
    g = make_grid(16)
    f = random_field(g, "scalar", 5, seed=22)
    got, share = _pair(f, xi, 1.0)
    want, want_share = _pair_oracle(f, xi, 1.0)
    _assert_matches_oracle(got, want)
    assert (share > 0.0) == (want_share > 0.0)
    assert share == pytest.approx(want_share, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("small", [2 * BAND_RTOL, 0.5 * BAND_RTOL])
def test_multiply_mode_share_has_no_threshold(small):
    # only the weak mode (6, 0) is pushed onto the Nyquist row by (2, 0)
    # (and its mirror by (-2, 0)): its energy share is reported however
    # small, above the band threshold or below it
    g = make_grid(16)
    f = SpectralField.from_modes(g, "scalar", {(0, 0): 1.0, (6, 0): small, (-6, 0): small})
    got, share = _pair(f, (2, 0), 1.0)
    _assert_matches_oracle(got, _pair_oracle(f, (2, 0), 1.0)[0])
    assert got.coeff((2, 0))[0] == 1.0
    assert share == pytest.approx(small ** 2 / (1.0 + 2.0 * small ** 2), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("filled", [False, True])
def test_multiply_mode_moves_sub_threshold_modes(filled):
    # the weak mode (20, 0) lies outside the measured band (1) but inside
    # the storage (64); the +xi shift takes it to (45, 0), not a wrapped
    # (-19, 0).  The pair adds in place, to an empty accumulator or to one
    # that holds earlier sums
    g = make_grid(128)
    f = SpectralField.from_modes(g, "scalar", {(1, 0): 1.0, (-1, 0): 1.0,
                                               (20, 0): 5e-14, (-20, 0): 5e-14})
    assert f.band() == 1 and f.storage == 64
    prior = _resize(random_field(g, "scalar", 10, seed=59).coeffs, 128) * filled
    got, _ = _pair(f, (25, 0), 1.0, acc=prior.copy())
    _assert_matches_oracle(SpectralField(g, "scalar", got.coeffs - prior),
                           _pair_oracle(f, (25, 0), 1.0)[0])
    assert got.coeff((45, 0))[0] == 5e-14 and got.coeff((-19, 0))[0] == 0.0


def test_multiply_mode_vector_amplitude_promotes_rank():
    # a scalar field under one amplitude per component adds to a vector
    g = make_grid(16)
    f = random_field(g, "scalar", 5, seed=23)
    amps = np.array([0.6j, -0.8j])
    for xi in [(1, 2), (4, -3)]:
        got, _ = _pair(f, xi, amps[:, None, None], rank="vector")
        _assert_matches_oracle(got, _pair_oracle(f, xi, amps)[0])


@pytest.mark.parametrize("m", [16, 32, 64])
@pytest.mark.parametrize("xi", [(0, 0), (2, -3), (12, 1), (-13, 2), (1, -11), (-2, 14),
                                (13, -14), (30, 0)])
def test_half_source_shift_matches_full_plane(m, xi):
    # a half spectrum's xi_2 < 0 blocks read as conj c(-xi) give what its
    # mirrored full plane gives, mode by mode: storage m below, at and
    # above n = 32, with shifts that clip rows, columns, both, neither or
    # everything
    from ci2d.spectral_field import _add_shifted, _shift_loss
    n = 32
    src = random_field(make_grid(m), "vector", m // 2 - 1, seed=51).coeffs
    full = _full(src)
    rng = np.random.default_rng(52)
    amp = (rng.standard_normal(2) + 1j * rng.standard_normal(2))[:, None]
    acc = rng.standard_normal((2, n, n // 2 + 1)) + 1j * rng.standard_normal((2, n, n // 2 + 1))
    got, want = acc.copy(), acc.copy()
    _add_shifted(got, src, xi, amp[..., None])
    ks = np.fft.fftfreq(m, 1.0 / m).astype(int)
    t1, t2 = ks[:, None] + xi[0], ks[None, :] + xi[1]
    inside = (np.abs(t1) <= n // 2 - 1) & (np.abs(t2) <= n // 2 - 1)
    rows, cols = np.nonzero(inside & (t2 >= 0))
    want[:, t1[rows, 0] % n, t2[0, cols]] += amp * full[:, rows, cols]
    assert np.array_equal(got, want)
    # the dropped share as the full plane's strips of rows, then of
    # columns, past the band
    out1, out2 = (np.abs(t) > n // 2 - 1 for t in (t1[:, 0], t2[0]))
    strips = (full[:, out1, :], full[:, :, out2][:, ~out1, :])
    dropped = sum(np.sum(np.abs(s) ** 2, axis=(-2, -1)) for s in strips)
    total = np.array([np.vdot(c, c).real for c in full])
    share = _shift_loss(src, xi, n)
    assert share == pytest.approx(np.max(dropped / np.where(total > 0.0, total, 1.0)),
                                  rel=1e-15, abs=0.0)
    clips = max(m // 2 - 1 + abs(x) for x in xi) > n // 2 - 1
    assert (share > 0.0) == clips, share
