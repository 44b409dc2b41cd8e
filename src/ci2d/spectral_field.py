"""Band-limited fields on the square 2-torus [0, 2pi)^2.

A field is a trigonometric polynomial stored by its complex Fourier
coefficients in FFT layout.  Scalars carry one component, vectors two,
and symmetric trace-free tensors two (t11, t12; the remaining entries
are reconstructed as t21 = t12, t22 = -t11).

Conventions fixed here and relied on everywhere else:

* f(x) = sum_xi c(xi) exp(i xi . x), xi on the integer lattice,
  |xi_i| < n/2 (the Nyquist bin is always empty);
* integrals are unnormalized Lebesgue integrals over the (2pi)^2 torus,
  evaluated by the rectangle rule, which is exact for trigonometric
  polynomials of degree below the grid Nyquist;
* Parseval: int |f|^2 dx = (2pi)^2 sum |c|^2.

Coefficient arrays may be stored on a smaller internal FFT size than the
logical grid; zero-padding between sizes is exact, so this is purely a
memory optimization.  Every field is real and is stored as its xi_2 >= 0
half spectrum in rfft2 layout, shape (ncomp, m, m//2 + 1): its xi_2 < 0
half is the conjugate mirror c(xi) = conj c(-xi) and is never held.
`_fft_size` is the one storage rule, `_resize` the one storage helper
(pad, cut), `_analysis` the one analysis helper, `_synthesis` the one
synthesis helper, `_pointwise_product` the one product path and
`_lattice` the one wave-number lattice, which every Fourier multiplier
reads.  A field keeps the storage its maker gives it: `analyze` fits
storage to the samples' measured band, products keep their product grid,
linear maps and sums (`combine`) the widest operand's storage.
Transforms run through numpy.fft: analysis by rfft2; synthesis of a half
spectrum stored below the grid by two single-axis passes (ifftn, then
irfftn) that skip the all-zero columns, else by irfft2.  `multiply_mode`
adds the real antipodal pair amp exp(i xi . x) f + c.c. of a
single-mode shift into a half-spectrum accumulator, each contiguous
block of the source at its offset in the target; the xi_2 < 0 blocks of
the source are read as conj c(-xi), so no full-plane copy is made.

A field whose coefficients are all exactly zero has zero samples and
zero norms and needs no transform.  `is_zero` tests the coefficients
once per field; `values`, the grid norms and `_pointwise_product` (a
zero factor gives a zero product) read it, and `analyze` maps all-zero
samples to the zero field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import numpy.fft as nfft

from .errors import AliasingRisk, ConfigError, RankError

# Relative floor below which coefficients are treated as numerically absent
# when measuring a field's band-limit.
BAND_RTOL = 1e-13

_RANK_NCOMP = {"scalar": 1, "vector": 2, "symtensor": 2}


@dataclass(frozen=True)
class Grid2:
    """Uniform n-by-n grid on [0, 2pi)^2 with nodes x_j = 2pi j / n."""

    n: int

    def nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def cell_measure(self) -> float:
        return (2.0 * np.pi / self.n) ** 2

    @property
    def max_mode(self) -> int:
        return self.n // 2 - 1


def make_grid(n: int) -> Grid2:
    """Validate and build a grid; n must be a power of two, n >= 4."""
    if not isinstance(n, (int, np.integer)) or n < 4 or (n & (n - 1)) != 0:
        raise ConfigError(f"grid size must be a power of two >= 4, got {n!r}")
    return Grid2(int(n))


def _fft_size(band: int, n: int) -> int:
    """Storage size for a band on the n-grid: the smallest power of two
    >= 8 whose Nyquist strictly exceeds band, capped at n."""
    m = 8
    while m // 2 - 1 < band:
        m *= 2
    return min(m, n)


def _resize(coeffs: np.ndarray, m_new: int) -> np.ndarray:
    """Half-spectrum coefficients on storage m_new: zero-padded when
    larger, cut to |xi_i| <= m_new/2 - 1 when smaller (the band must fit
    there)."""
    m = coeffs.shape[-2]
    if m_new == m:
        return coeffs
    h = min(m, m_new) // 2
    lo = h if m <= m_new else h - 1       # negative xi_1 rows kept
    out = np.zeros(coeffs.shape[:-2] + (m_new, m_new // 2 + 1), dtype=complex)
    out[..., :h, :h] = coeffs[..., :h, :h]
    out[..., m_new - lo:, :h] = coeffs[..., m - lo:, :h]
    return out


def _zero_coeffs(rank: str, m: int) -> np.ndarray:
    """All-zero half-spectrum coefficients of a rank on storage m."""
    return np.zeros((_RANK_NCOMP[rank], m, m // 2 + 1), dtype=complex)


class _Lattice(NamedTuple):
    """Wave numbers of half-spectrum storage m as read-only floats in FFT
    order: xi1 a column (m, 1), xi2 a row (1, m//2 + 1)."""

    xi1: np.ndarray
    xi2: np.ndarray

    def norm2(self) -> np.ndarray:
        """|xi|^2, a fresh plane."""
        return self.xi1 ** 2 + self.xi2 ** 2

    def divisor(self) -> np.ndarray:
        """|xi|^2 with 1 at xi = 0, the zero-safe divisor of Delta^-1."""
        k2 = self.norm2()
        k2[0, 0] = 1.0
        return k2


@lru_cache(maxsize=32)
def _lattice(m: int) -> _Lattice:
    """The one wave-number lattice of storage m; xi1 holds the whole axis."""
    ks = nfft.fftfreq(m, 1.0 / m)
    ks.flags.writeable = False
    return _Lattice(ks[:, None], ks[None, :m // 2 + 1])


class SpectralField:
    """A scalar / vector / symmetric-trace-free tensor trig polynomial."""

    __slots__ = ("grid", "rank", "coeffs", "_band", "_sup", "_zero")

    def __init__(self, grid: Grid2, rank: str, coeffs: np.ndarray):
        if rank not in _RANK_NCOMP:
            raise RankError(f"unknown rank {rank!r}")
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim == 2:
            coeffs = coeffs[None]
        if coeffs.ndim != 3 or coeffs.shape[0] != _RANK_NCOMP[rank]:
            raise ConfigError(f"coefficient array shape {coeffs.shape} does not match rank {rank!r}")
        m = coeffs.shape[-2]
        if coeffs.shape[-1] != m // 2 + 1:
            raise ConfigError(f"coefficient array shape {coeffs.shape} is not a half spectrum")
        if m > grid.n:
            raise AliasingRisk(f"storage size {m} exceeds grid {grid.n}")
        self.grid = grid
        self.rank = rank
        self._band = None
        self._sup = None
        self._zero = None
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid2, rank: str) -> "SpectralField":
        return cls(grid, rank, _zero_coeffs(rank, _fft_size(0, grid.n)))

    @classmethod
    def from_modes(cls, grid: Grid2, rank: str, modes: dict) -> "SpectralField":
        """Build a real field from a {(xi1, xi2): amplitude(s)} dictionary
        whose amplitudes are conjugate symmetric, c(-xi) = conj c(xi), to
        1e-10 of the largest; the xi_2 >= 0 ones are stored."""
        band = max((max(abs(x1), abs(x2)) for (x1, x2) in modes), default=0)
        if band > grid.max_mode:
            raise AliasingRisk(f"mode band {band} exceeds grid Nyquist {grid.max_mode}")
        keys = list(modes)
        amps = np.empty((len(keys), _RANK_NCOMP[rank]), dtype=complex)
        for i, xi in enumerate(keys):
            amps[i] = modes[xi]
        # the gap at xi equals the gap at -xi, so the given modes see the largest
        index = {xi: i for i, xi in enumerate(keys)}
        mirror = np.array([index.get((-x1, -x2), -1) for x1, x2 in keys], dtype=np.int64)
        gap = np.abs(amps - np.where(mirror[:, None] >= 0, np.conj(amps[mirror]), 0.0))
        if not np.max(gap, initial=0.0) <= 1e-10 * np.max(np.abs(amps), initial=0.0):
            raise ConfigError("modes of a real field are not conjugate symmetric")
        m = _fft_size(band, grid.n)
        arr = _zero_coeffs(rank, m)
        xs = np.array(keys, dtype=np.int64).reshape(-1, 2)
        upper = xs[:, 1] >= 0
        arr[:, xs[upper, 0] % m, xs[upper, 1]] += amps[upper].T
        return cls(grid, rank, arr)

    # -- basic queries -------------------------------------------------

    @property
    def ncomp(self) -> int:
        return _RANK_NCOMP[self.rank]

    @property
    def storage(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def is_zero(self) -> bool:
        """Whether every coefficient is exactly zero, tested once and
        cached (fields are immutable).  It reads the coefficients, never
        the samples: a field whose samples underflow is not zero."""
        if self._zero is None:
            self._zero = not self.coeffs.any()
        return self._zero

    def band(self) -> int:
        """Largest |xi|_inf carrying relative weight above BAND_RTOL."""
        if self._band is None:
            self._band = _measure_band(self.coeffs)
        return self._band

    def coeff(self, xi) -> np.ndarray:
        """Coefficient(s) at wave vector xi = (xi1, xi2); on a half
        spectrum xi_2 < 0 reads conj c(-xi)."""
        x1, x2 = int(xi[0]), int(xi[1])
        m = self.storage
        if max(abs(x1), abs(x2)) > m // 2 - 1:
            if max(abs(x1), abs(x2)) > self.grid.max_mode:
                raise ConfigError(f"mode {xi} outside the grid band")
            return np.zeros(self.ncomp, dtype=complex)
        if x2 < 0:
            return np.conjugate(self.coeffs[:, -x1 % m, -x2])
        return self.coeffs[:, x1 % m, x2 % m].copy()

    def mode_magnitudes(self):
        """(|xi| array, summed |coeff|^2 array) over the stored half
        lattice; each xi_2 > 0 column also counts its mirror."""
        kx, ky = _lattice(self.storage)
        mag2 = np.sum(np.abs(self.coeffs) ** 2, axis=0)
        mag2[:, 1:-1] *= 2.0
        return np.hypot(kx, ky), mag2

    # -- transforms ----------------------------------------------------

    def values(self, n: int | None = None) -> np.ndarray:
        """Real physical samples on the n-by-n grid; a zero field's are
        zeros, made without a transform."""
        n = self.grid.n if n is None else n
        if n < self.storage and self.band() > n // 2 - 1:
            raise AliasingRisk("requested grid coarser than the stored band")
        if self.is_zero:
            return np.zeros((self.ncomp, n, n))
        return _synthesis(self.coeffs, n)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return combine([self, other], [1.0, 1.0])

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return combine([self, other], [1.0, -1.0])

    def __mul__(self, c) -> "SpectralField":
        c = complex(c)
        if c.imag != 0.0:
            raise ConfigError(f"a real field's factor must be real, got {c}")
        return SpectralField(self.grid, self.rank, self.coeffs * c)

    __rmul__ = __mul__

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, "scalar", self.coeffs[i:i + 1])


def _measure_band(coeffs: np.ndarray) -> int:
    mag = np.max(np.abs(coeffs), axis=0)
    cmax = mag.max()
    if cmax == 0.0:
        return 0
    ks = np.abs(_lattice(coeffs.shape[-2]).xi1[:, 0])
    mask = mag > BAND_RTOL * cmax
    return int(max(ks[mask.any(axis=1)].max(), ks[:mask.shape[1]][mask.any(axis=0)].max()))


# -- spec operations -----------------------------------------------------

def _analysis(samples: np.ndarray) -> np.ndarray:
    """The xi_2 >= 0 half spectrum (rfft2 layout) of real samples on an
    m-by-m grid, with the Nyquist row and column zeroed."""
    h = samples.shape[-1] // 2
    # numpy runs the second (column) pass in place in `out`; without it
    # that pass writes a fresh array and takes about twice as long
    out = np.empty(samples.shape[:-1] + (h + 1,), dtype=complex)
    coeffs = nfft.rfft2(samples, norm="forward", out=out)
    coeffs[..., h, :] = 0.0
    coeffs[..., :, h] = 0.0
    return coeffs


def _synthesis(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real samples on the n-by-n grid of half-spectrum coefficients.

    Storage m < n is pruned: the xi_1 rows are padded to n, the xi_1 pass
    runs over the m/2 stored columns only and the xi_2 pass, last, pads
    the columns to n.  Storage m >= n is cut to n and synthesized in one
    2-D transform.
    """
    m = coeffs.shape[-2]
    if m >= n:
        return nfft.irfft2(_resize(coeffs, n), s=(n, n), norm="forward")
    h = m // 2
    rows = np.zeros(coeffs.shape[:-2] + (n, h), dtype=complex)
    rows[..., :h, :] = coeffs[..., :h, :h]
    rows[..., n - h:, :] = coeffs[..., h:, :h]
    rows = nfft.ifftn(rows, axes=(-2,), norm="forward")
    return nfft.irfftn(rows, s=(n,), axes=(-1,), norm="forward")


def analyze(grid: Grid2, values: np.ndarray, rank: str = "scalar") -> SpectralField:
    """Fourier-analyze real physical samples on the grid into a
    SpectralField; complex samples raise ConfigError.

    The Nyquist row/column is zeroed: fields never carry |xi_i| >= n/2.
    Storage is fitted to the measured band, which the field caches.
    All-zero samples give the zero field without a transform.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ConfigError("samples of a field must be real")
    if values.ndim == 2:
        values = values[None]
    if values.shape[0] != _RANK_NCOMP[rank]:
        raise RankError(f"component count {values.shape[0]} does not match rank {rank!r}")
    n = values.shape[-1]
    if n != grid.n or values.shape[-2] != grid.n:
        raise ConfigError(f"samples shaped {values.shape} do not live on the {grid.n}^2 grid")
    if not values.any():
        field = SpectralField.zeros(grid, rank)
        field._band, field._zero = 0, True
        return field
    coeffs = _analysis(values)
    band = _measure_band(coeffs)
    field = SpectralField(grid, rank, _resize(coeffs, _fft_size(band, n)))
    field._band = band
    return field


def combine(fields, weights) -> SpectralField:
    """sum_j w_j f_j for real weights, on the widest operand's storage.
    Every operand must share the first one's grid and rank."""
    first = fields[0]
    for f in fields[1:]:
        if f.grid != first.grid:
            raise ConfigError("fields live on different grids")
        if f.rank != first.rank:
            raise RankError(f"rank mismatch {first.rank} vs {f.rank}")
    m = max(f.storage for f in fields)
    acc = _zero_coeffs(first.rank, m)
    for f, w in zip(fields, weights):
        _accumulate(acc, f, w)
    return SpectralField(first.grid, first.rank, acc)


def _accumulate(acc: np.ndarray, f: SpectralField, w: float) -> None:
    """acc += w f in place, on acc's storage (at least f's)."""
    if w != 0.0:
        c = _resize(f.coeffs, acc.shape[-2])
        acc += c if w == 1.0 else w * c


def derive(field: SpectralField, multi_index) -> SpectralField:
    """Spectral derivative d^a/dx1^a d^b/dx2^b."""
    a, b = int(multi_index[0]), int(multi_index[1])
    if a < 0 or b < 0:
        raise ConfigError("derivative orders must be nonnegative")
    k1, k2 = _lattice(field.storage)
    return SpectralField(field.grid, field.rank, field.coeffs * ((1j * k1) ** a * (1j * k2) ** b))


def gradient(f: SpectralField) -> SpectralField:
    """Gradient (d1 f, d2 f) of a scalar field."""
    if f.rank != "scalar":
        raise RankError("gradient needs a scalar field")
    k1, k2 = _lattice(f.storage)
    c = np.empty((2,) + f.coeffs.shape[1:], dtype=complex)
    np.multiply(1j * k1, f.coeffs[0], out=c[0])
    np.multiply(1j * k2, f.coeffs[0], out=c[1])
    return SpectralField(f.grid, "vector", c)


def perp_grad(f: SpectralField) -> SpectralField:
    """Rotated gradient (-d2 f, d1 f); always divergence-free."""
    if f.rank != "scalar":
        raise RankError("perp_grad needs a scalar field")
    k1, k2 = _lattice(f.storage)
    c = np.empty((2,) + f.coeffs.shape[1:], dtype=complex)
    np.multiply(-1j * k2, f.coeffs[0], out=c[0])
    np.multiply(1j * k1, f.coeffs[0], out=c[1])
    return SpectralField(f.grid, "vector", c)


def divergence(field: SpectralField) -> SpectralField:
    """Row-wise spectral divergence of a vector or symtensor field; a
    symtensor's rows are (t11, t12) and (t12, -t11)."""
    if field.rank not in ("vector", "symtensor"):
        raise RankError("divergence needs a vector or symtensor field")
    d1, d2 = (1j * k for k in _lattice(field.storage))
    f1, f2 = field.coeffs
    vector = field.rank == "vector"
    c = np.empty((1 if vector else 2,) + f1.shape, dtype=complex)
    np.multiply(d1, f1, out=c[0])
    c[0] += d2 * f2
    if not vector:
        np.multiply(d1, f2, out=c[1])
        c[1] -= d2 * f1
    return SpectralField(field.grid, "scalar" if vector else "vector", c)


def _magnitude_squared(field: SpectralField) -> np.ndarray:
    """Pointwise squared magnitude on the field's grid; a symtensor's is
    the full 2x2 Frobenius square, twice that of its two stored entries."""
    vals = field.values()
    mag2 = np.sum(vals * vals, axis=0)
    if field.rank == "symtensor":
        mag2 *= 2.0
    return mag2


def pointwise_magnitude(field: SpectralField) -> np.ndarray:
    """Pointwise magnitude on the field's grid; its max is cached as the
    field's sup (fields are immutable).  When every square underflows,
    the samples are scaled by an exact power of two first, so a nonzero
    field never reads a zero magnitude everywhere."""
    mag = np.sqrt(_magnitude_squared(field))
    sup = float(mag.max())
    if sup == 0.0 and not field.is_zero:
        k = min(1000, -int(np.frexp(np.max(np.abs(field.coeffs)))[1]))
        mag = np.ldexp(np.sqrt(_magnitude_squared(np.ldexp(1.0, k) * field)), -k)
        sup = float(mag.max())
    field._sup = sup
    return mag


def _quadrature_norms(field: SpectralField, ps) -> list:
    """Rectangle-rule L^p sizes (each p >= 1) from one synthesis; a zero
    field's are 0.0, from none."""
    if field.is_zero:
        return [0.0 for _ in ps]
    mag = pointwise_magnitude(field)
    cell = field.grid.cell_measure
    return [float(np.sum(mag) * cell) if p == 1.0
            else float((np.sum(mag ** p) * cell) ** (1.0 / p)) for p in ps]


def lp_norm(field: SpectralField, p: float) -> float:
    """Unnormalized L^p norm by grid quadrature; p = inf is the grid max.

    p = 2 is summed in coefficient space: discrete Parseval makes that sum
    equal to the rectangle rule on the n-grid for any coefficients.  The
    half spectrum counts each xi_2 > 0 column twice, for its mirror.  A
    symtensor's Frobenius magnitude counts t11 and t12 twice each.  Any
    other p of a zero field is 0.0 without a synthesis.
    """
    if not (p > 1.0):
        raise ConfigError(f"L^p norm needs p in (1, inf], got {p}")
    if p == 2.0:
        c = field.coeffs
        edges = c[..., ::c.shape[-1] - 1]          # xi_2 = 0 and the Nyquist column
        s = 2.0 * _energy(c) - _energy(edges)
        w = 2.0 if field.rank == "symtensor" else 1.0
        return float(2.0 * np.pi * np.sqrt(w * s))
    if field.is_zero:
        return 0.0
    if np.isinf(p):
        if field._sup is None:
            pointwise_magnitude(field)
        return field._sup
    return _quadrature_norms(field, (p,))[0]


def l1_norm(field: SpectralField) -> float:
    """Quadrature L^1 size, used for reporting (lp_norm's contract is p > 1)."""
    return _quadrature_norms(field, (1.0,))[0]


def cn_norm(field: SpectralField, order: int) -> float:
    """Grid sup over the derivative tensors of total order <= order.

    The j-th derivative enters through its full tensor magnitude
    (sum over ordered index tuples, i.e. multinomial weights on the
    multi-indices); on a single-mode wave of frequency lambda this makes
    the C^N size exactly lambda^N.  A zero field's is 0.0 without a
    synthesis.
    """
    if order < 0:
        raise ConfigError("derivative order must be nonnegative")
    if field.is_zero:
        return 0.0
    from math import comb
    best = lp_norm(field, np.inf)
    for j in range(1, order + 1):
        acc = sum(_magnitude_squared(derive(field, (a, j - a))) * comb(j, a)
                  for a in range(j + 1))
        best = max(best, float(np.sqrt(acc.max())))
    return best


def _energy(c: np.ndarray) -> float:
    """sum |c|^2 over an array's entries without BLAS (np.vdot starts its
    thread pool): einsum's own loop sums each row of the float view, and
    numpy's pairwise sum adds the rows."""
    x = np.ravel(c).view(np.float64).reshape(-1, 2 * c.shape[-1])
    return float(np.einsum("ij,ij->i", x, x).sum())


def mean(field: SpectralField):
    """Torus average, i.e. the coefficient at xi = 0 (per component)."""
    val = field.coeff((0, 0)).real
    if field.rank == "scalar":
        return val[0]
    return val


# -- products -------------------------------------------------------------

def multiply(f: SpectralField, g: SpectralField, *,
             allow_interpolant: bool = False) -> SpectralField:
    """Pointwise product of a scalar with a scalar/vector/symtensor field.

    When the operand bands fit below Nyquist the product is formed on a
    grid that resolves their sum, hence exact.  Otherwise it is the
    interpolant product on the master grid, which is only legitimate for
    grid-defined compositions; callers must opt in via allow_interpolant.
    """
    if f.rank != "scalar" and g.rank != "scalar":
        raise RankError("multiply needs at least one scalar operand")
    if f.rank != "scalar":
        f, g = g, f
    return _pointwise_product(f, g, g.rank, np.multiply, allow_interpolant)


def _pointwise_product(f: SpectralField, g: SpectralField, rank: str, form,
                       allow_interpolant: bool) -> SpectralField:
    """The rank-`rank` field whose samples are form(f's samples, g's
    samples) on the product grid of f and g (`_product_size`), each
    operand synthesized once.  A zero operand gives the zero field on
    that grid without a transform: form must vanish when either does."""
    m = _product_size(f, g, allow_interpolant)
    if f.is_zero or g.is_zero:
        return SpectralField(f.grid, rank, _zero_coeffs(rank, m))
    a = f.values(m)
    return SpectralField(f.grid, rank, _analysis(form(a, a if g is f else g.values(m))))


def _product_size(f: SpectralField, g: SpectralField, allow_interpolant: bool) -> int:
    """Grid size on which pointwise products of f and g are formed: the
    smallest that resolves the sum of their bands, else the master grid
    for an interpolant product the caller opted into."""
    if f.grid.n != g.grid.n:
        raise ConfigError("fields live on different grids")
    bsum = f.band() + g.band()
    n = f.grid.n
    if bsum <= n // 2 - 1:
        return _fft_size(bsum, n)
    if allow_interpolant:
        return n
    raise AliasingRisk(
        f"product band {bsum} exceeds grid Nyquist {n // 2 - 1}; "
        "refine the grid or use the interpolant product knowingly")


def _shift_runs(x: int, m: int, n: int, t_lo: int) -> list:
    """(source, mirror, target) index slices along one axis for a shift by
    x from FFT storage m to storage n, over the targets t = s + x with
    t_lo <= t <= n/2 - 1; the mirror reads -s.  Runs split where s or t
    changes sign and around s = 0, so each slice is contiguous."""
    s_lo, s_hi = max(1 - m // 2, t_lo - x), min(m // 2 - 1, n // 2 - 1 - x)
    if s_lo > s_hi:
        return []
    cuts = sorted({s_lo, s_hi + 1} | {c for c in (0, 1, -x) if s_lo < c <= s_hi})
    return [(slice(a % m, a % m + b - a), slice(-a % m, -b % m, -1) if a else slice(0, 1),
             slice((a + x) % n, (a + x) % n + b - a)) for a, b in zip(cuts, cuts[1:])]


def _add_shifted(acc: np.ndarray, src: np.ndarray, xi, amp=1.0) -> None:
    """acc += amp exp(i xi . x) src, block by block in place.

    src is a half spectrum on its own storage, whose xi_2 < 0 blocks are
    read as conj c(-xi); acc is a half spectrum on storage n.  Sources
    whose target lies past acc's band or at xi_2 < 0 add nothing.
    """
    m, n = src.shape[-2], acc.shape[-2]
    rows = _shift_runs(int(xi[0]), m, n, 1 - n // 2)
    cols = _shift_runs(int(xi[1]), m, n, 0)
    for rs, rm, rt in rows:
        for cs, cm, ct in cols:
            if cs.start < src.shape[-1]:
                acc[..., rt, ct] += amp * src[..., rs, cs]
            else:   # columns past a half spectrum
                acc[..., rt, ct] += amp * np.conj(src[..., rm, cm])


def _shift_loss(src: np.ndarray, xi, n: int) -> float:
    """The largest share of a component's energy sum |c|^2 that a shift by
    xi pushes past the band of storage n, for a half-spectrum src read as
    in `_add_shifted`."""
    m = src.shape[-2]
    ks = _lattice(m).xi1[:, 0]
    out1, out2 = (np.abs(ks + int(x)) > n // 2 - 1 for x in xi)
    if not (out1.any() or out2.any()):
        return 0.0
    # half column j >= 1 also sits mirrored at row -xi_1, column -j
    h = m // 2
    parts = [(src[..., :h], out1, out2[:h]),
             (src[..., 1:h], out1[-np.arange(m) % m], out2[:h:-1])]
    total = np.array([2.0 * _energy(c) - _energy(c[:, 0]) for c in src])
    strips = [s for block, rows, cols in parts
              for s in (block[..., rows, :], block[..., :, cols][..., ~rows, :])]
    dropped = sum(np.sum(np.abs(s) ** 2, axis=(-2, -1)) for s in strips)
    return float(np.max(dropped / np.where(total > 0.0, total, 1.0)))


def multiply_mode(acc: np.ndarray, f: SpectralField, xi, amp) -> float:
    """acc += amp exp(i xi . x) f + conj(amp) exp(-i xi . x) f, in place.

    The real antipodal pair of f's product with the single mode xi, made
    as two coefficient shifts, +xi under amp and then -xi under conj(amp),
    added block by block into the half-spectrum accumulator acc on
    storage n (`_add_shifted`); no grid sampling or aliasing is involved.
    amp broadcasts against acc's components, so a scalar f with a vector
    amplitude adds to a vector accumulator.  Content shifted past acc's
    band is dropped; the mask depends on the target mode alone, so
    identities among consistently clipped objects stay mode-exact.
    Returns the largest share of a component's energy that the +xi shift
    dropped (the -xi shift of a real f drops its mirror).
    """
    _add_shifted(acc, f.coeffs, xi, amp)
    _add_shifted(acc, f.coeffs, (-xi[0], -xi[1]), np.conj(amp))
    return _shift_loss(f.coeffs, xi, acc.shape[-2])


def random_field(grid: Grid2, rank: str, band: int, seed: int,
                 decay: float = 1.0, mean_zero: bool = True) -> SpectralField:
    """Seeded random real field with spectrum ~ (1+|xi|)^-decay inside band."""
    if band > grid.max_mode:
        raise AliasingRisk(f"band {band} exceeds grid Nyquist {grid.max_mode}")
    rng = np.random.default_rng(seed)
    nc = _RANK_NCOMP[rank]
    m = _fft_size(band, grid.n)
    kx = _lattice(m).xi1                       # the full plane's rows; kx.T its columns
    inside = np.maximum(np.abs(kx), np.abs(kx.T)) <= band
    amp = (rng.standard_normal((nc, m, m)) + 1j * rng.standard_normal((nc, m, m)))
    amp *= inside / (1.0 + np.hypot(kx, kx.T)) ** decay
    # the xi_2 >= 0 half of the symmetrized draw (c(xi) + conj c(-xi)) / 2;
    # index i of an axis mirrors to (m - i) % m, and the Nyquist column stays 0
    mirror = np.roll(np.flip(amp, axis=(-2, -1)), 1, axis=(-2, -1))[..., :m // 2]
    half = _zero_coeffs(rank, m)
    half[..., :m // 2] = 0.5 * (amp[..., :m // 2] + np.conj(mirror))
    if mean_zero:
        half[..., 0, 0] = 0.0
    else:
        half[..., 0, 0] = half[..., 0, 0].real
    return SpectralField(grid, rank, half)


# -- time tracks ----------------------------------------------------------

class SliceReader:
    """A track's slices read on demand: reader[i] is read(i), a field of
    the given grid and rank, made anew at each access and not kept."""

    __slots__ = ("grid", "rank", "count", "read")

    def __init__(self, grid: Grid2, rank: str, count: int, read):
        self.grid, self.rank, self.count, self.read = grid, rank, count, read

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> SpectralField:
        if not 0 <= i < self.count:
            raise IndexError(f"slice {i} of {self.count}")
        return self.read(i)


class TimeTrack:
    """Uniformly sampled family of fields over a padded time interval.

    `dslices`, when present, is the analytic time-derivative channel; the
    pair (slices, dslices) is treated as a first-order jet and every
    linear operation maps both channels identically.  Each channel is a
    list of fields or a `SliceReader`, whose grid and rank stand for its
    slices' (a track on disk is checked from its dumps' headers).
    """

    __slots__ = ("times", "slices", "dslices", "grid")

    def __init__(self, times: np.ndarray, slices, dslices=None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ConfigError("a time track needs at least two nodes")
        dt = np.diff(times)
        if np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-12 * max(1.0, abs(dt[0])):
            raise ConfigError("time nodes must be strictly increasing and uniform")
        if len(slices) != times.size:
            raise ConfigError("slice count does not match time nodes")
        if dslices is not None and len(dslices) != times.size:
            raise ConfigError("derivative channel count does not match time nodes")
        reader = isinstance(slices, SliceReader)
        layouts = ({(slices.grid.n, slices.rank)} if reader
                   else {(s.grid.n, s.rank) for s in slices})
        if len(layouts) != 1:
            raise ConfigError("all slices must share one grid and rank")
        self.times = times
        self.slices = slices if reader else list(slices)
        self.dslices = (dslices if dslices is None or isinstance(dslices, SliceReader)
                        else list(dslices))
        self.grid = slices.grid if reader else self.slices[0].grid

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.slices)

    def has_channel(self) -> bool:
        return self.dslices is not None
