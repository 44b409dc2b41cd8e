"""Frequency-side operator toolkit.

Sharp-cutoff frequency projectors (Euclidean shells), the Helmholtz-Leray
projector, the fractional Laplacian, the order -1 smoother |grad|^-1, the
anti-divergence operator, and the symmetric trace-free tensor product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RankError
from .spectral_field import SpectralField, _axes, _pointwise_product


@dataclass(frozen=True)
class FreqBand:
    """The closed radial frequency window lo <= |xi| <= hi."""

    lo: float
    hi: float = np.inf

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise ConfigError("band needs 0 <= lo <= hi")

    @staticmethod
    def at_least(lo: float) -> "FreqBand":
        return FreqBand(float(lo))

    @staticmethod
    def nonzero() -> "FreqBand":
        """Mean removal: |xi| > 0, which on the integer lattice is |xi| >= 1."""
        return FreqBand(1.0)


def _lattice(coeffs: np.ndarray):
    """Wave numbers xi1 (column), xi2 (row) and |xi|^2 of a stored half
    spectrum."""
    k1, k2 = (k.astype(float) for k in _axes(coeffs))
    return k1, k2, k1 ** 2 + k2 ** 2


def _band_mask(coeffs: np.ndarray, band: FreqBand) -> np.ndarray:
    """Where the Euclidean |xi| of a stored half spectrum lies in the window."""
    k2 = _lattice(coeffs)[2]
    return (k2 >= band.lo ** 2) & (k2 <= band.hi ** 2)


def project(field: SpectralField, band: FreqBand) -> SpectralField:
    """Keep the coefficients whose Euclidean |xi| lies in the window."""
    return SpectralField(field.grid, field.rank, field.coeffs * _band_mask(field.coeffs, band))


def _leray(c: np.ndarray) -> np.ndarray:
    """`helmholtz` of a vector half spectrum c, in place; returns c."""
    kx, ky, k2 = _lattice(c)
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    mean = c[:, 0, 0].copy()
    dot = kx * c[0] + ky * c[1]
    c[0] -= kx * dot / k2safe
    c[1] -= ky * dot / k2safe
    c[:, 0, 0] = mean
    return c


def helmholtz(field: SpectralField) -> SpectralField:
    """Leray projection onto divergence-free fields; the mean is kept."""
    if field.rank != "vector":
        raise RankError("helmholtz projector needs a vector field")
    return SpectralField(field.grid, "vector", _leray(field.coeffs.copy()))


def frac_laplacian(field: SpectralField, theta: float) -> SpectralField:
    """(-Laplace)^theta via the |xi|^(2 theta) multiplier.

    The xi = 0 coefficient maps to 0 for theta > 0 and to itself for
    theta = 0 (the operator degenerates to the identity).
    """
    if not (0.0 <= theta <= 1.0):
        raise ConfigError(f"theta must lie in [0, 1], got {theta}")
    k2 = _lattice(field.coeffs)[2]
    if theta == 0.0:
        mult = np.ones_like(k2)
    else:
        mult = k2 ** theta
    return SpectralField(field.grid, field.rank, field.coeffs * mult)


def inv_grad(field: SpectralField) -> SpectralField:
    """|grad|^-1: divide nonzero modes by |xi|; the mean is dropped."""
    k2 = _lattice(field.coeffs)[2]
    mult = np.zeros_like(k2)
    nz = k2 > 0
    mult[nz] = 1.0 / np.sqrt(k2[nz])
    return SpectralField(field.grid, field.rank, field.coeffs * mult)


def anti_divergence(field: SpectralField) -> SpectralField:
    """Symmetric trace-free potential R f with div(R f) = f - avg f.

    Solves Delta g = f - avg f and returns grad g + (grad g)^T minus
    (div g) Id, assembled directly in coefficient space.
    """
    if field.rank != "vector":
        raise RankError("anti-divergence needs a vector field")
    kx, ky, k2 = _lattice(field.coeffs)
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    f1, f2 = field.coeffs[0], field.coeffs[1]
    t11 = -1j * (kx * f1 - ky * f2) / k2safe
    t12 = -1j * (ky * f1 + kx * f2) / k2safe
    t11[0, 0] = 0.0
    t12[0, 0] = 0.0
    return SpectralField(field.grid, "symtensor", np.stack([t11, t12]))


# -- trace-free tensor product --------------------------------------------

def tracefree_product(f, g) -> np.ndarray:
    """Trace-free part of the tensor product of two constant 2-vectors.

    The full 2x2 display (t11, t12; t21, -t11); fields go through
    `sym_tracefree_product`.
    """
    if isinstance(f, SpectralField) or isinstance(g, SpectralField):
        raise RankError("constant 2-vectors only; use sym_tracefree_product for fields")
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (2,) or g.shape != (2,):
        raise RankError("constant operands must be 2-vectors")
    return np.array([
        [0.5 * f[0] * g[0] - 0.5 * f[1] * g[1], f[0] * g[1]],
        [f[1] * g[0], 0.5 * f[1] * g[1] - 0.5 * f[0] * g[0]],
    ])


def sym_tracefree_product(f: SpectralField, g: SpectralField, *,
                          allow_interpolant: bool = False) -> SpectralField:
    """The symmetric combination f x g + g x f (trace-free), as a symtensor.

    Each operand is synthesized once (once in all for g is f) on the
    product grid of `multiply`; t11 = f1 g1 - f2 g2 and t12 = f1 g2 + f2 g1
    are formed there pointwise and analyzed together.
    """
    if f.rank != "vector" or g.rank != "vector":
        raise RankError("trace-free product needs vector fields")
    return _pointwise_product(
        f, g, "symtensor",
        lambda a, b: np.stack([a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]),
        allow_interpolant)


def tf_square(f: SpectralField, *, allow_interpolant: bool = False) -> SpectralField:
    """f x f trace-free (always symmetric), as a symtensor."""
    return 0.5 * sym_tracefree_product(f, f, allow_interpolant=allow_interpolant)
