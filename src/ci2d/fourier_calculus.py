"""Frequency-side operator toolkit.

Multipliers on `spectral_field._lattice` (sharp-cutoff Euclidean-shell
projectors, Helmholtz-Leray, (-Laplace)^theta, |grad|^-1, the
anti-divergence and Delta^-1 div of a constant vector times a scalar)
and the symmetric trace-free tensor product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RankError
from .spectral_field import SpectralField, _lattice, _pointwise_product


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


def _band_mask(m: int, band: FreqBand) -> np.ndarray:
    """Where the Euclidean |xi| of a half spectrum on storage m lies in the window."""
    k2 = _lattice(m).norm2()
    return (k2 >= band.lo ** 2) & (k2 <= band.hi ** 2)


def project(field: SpectralField, band: FreqBand) -> SpectralField:
    """Keep the coefficients whose Euclidean |xi| lies in the window."""
    return SpectralField(field.grid, field.rank, field.coeffs * _band_mask(field.storage, band))


def _leray(c: np.ndarray) -> np.ndarray:
    """`helmholtz` of a vector half spectrum c, in place; returns c."""
    kx, ky = lat = _lattice(c.shape[-2])
    k2 = lat.divisor()
    mean = c[:, 0, 0].copy()
    dot = kx * c[0] + ky * c[1]
    c[0] -= kx * dot / k2
    c[1] -= ky * dot / k2
    c[:, 0, 0] = mean
    return c


def helmholtz(field: SpectralField) -> SpectralField:
    """Leray projection onto divergence-free fields; the mean is kept."""
    if field.rank != "vector":
        raise RankError("helmholtz projector needs a vector field")
    return SpectralField(field.grid, "vector", _leray(field.coeffs.copy()))


def frac_laplacian(field: SpectralField, theta: float) -> SpectralField:
    """(-Laplace)^theta via the |xi|^(2 theta) multiplier: xi = 0 maps to 0
    for theta > 0, and theta = 0 is the identity (the field itself)."""
    if not (0.0 <= theta <= 1.0):
        raise ConfigError(f"theta must lie in [0, 1], got {theta}")
    if theta == 0.0:
        return field
    k2 = _lattice(field.storage).norm2()
    return SpectralField(field.grid, field.rank, field.coeffs * k2 ** theta)


def inv_grad(field: SpectralField) -> SpectralField:
    """|grad|^-1: divide nonzero modes by |xi|; the mean is dropped."""
    mult = 1.0 / np.sqrt(_lattice(field.storage).divisor())
    mult[0, 0] = 0.0
    return SpectralField(field.grid, field.rank, field.coeffs * mult)


def anti_divergence(field: SpectralField) -> SpectralField:
    """Symmetric trace-free potential R f with div(R f) = f - avg f.

    Solves Delta g = f - avg f and returns grad g + (grad g)^T minus
    (div g) Id, assembled directly in coefficient space.
    """
    if field.rank != "vector":
        raise RankError("anti-divergence needs a vector field")
    kx, ky = lat = _lattice(field.storage)
    f1, f2 = field.coeffs
    c = np.empty(field.coeffs.shape, dtype=complex)   # (t11, t12)
    np.multiply(-1j, kx * f1 - ky * f2, out=c[0])
    np.multiply(-1j, ky * f1 + kx * f2, out=c[1])
    c /= lat.divisor()
    c[:, 0, 0] = 0.0
    return SpectralField(field.grid, "symtensor", c)


def _inv_lap_div_const(f: SpectralField, kvec: np.ndarray) -> SpectralField:
    """Delta^-1 div (kvec * f) for scalar f and a constant vector kvec."""
    if f.rank != "scalar":
        raise RankError("_inv_lap_div_const needs a scalar field")
    lat = _lattice(f.storage)
    mult = -1j * (kvec[0] * lat.xi1 + kvec[1] * lat.xi2)
    mult /= lat.divisor()
    mult[0, 0] = 0.0
    return SpectralField(f.grid, "scalar", f.coeffs * mult)


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
