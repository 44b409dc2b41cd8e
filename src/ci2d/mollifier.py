"""Friedrichs mollification machinery: spatial multiplier, discrete
temporal kernel, and exact-support smooth switches.

Spatial mollification acts as the Fourier multiplier of the periodized
2D bump; temporal mollification is a row-normalized discrete convolution
with the sampled 1D bump and is applied to value and derivative channels
alike, so the jet calculus commutes with it exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import PaddingError
from .spectral_field import SpectralField, _wavenumbers, combine


def bump1(s: np.ndarray) -> np.ndarray:
    """Standard even bump on (-1, 1), unit mass."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out / 0.4439938161680794  # integral of exp(-1/(1-s^2)) over (-1,1)


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker)."""
    def split(v):
        t = 134217729.0 * v            # 2^27 + 1
        hi = t - (t - v)
        return hi, v - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@lru_cache(maxsize=8)
def _projected_bump_table(nodes: int):
    """Positive Gauss-Legendre nodes x_i on (0, 1) and weights W_i of the
    radial bump's Abel projection, P(x) = int bump(sqrt(x^2 + y^2)) dy,
    normalized so that sum over both signs of x is 1.  With y on
    (-sqrt(1-x^2), sqrt(1-x^2)) scaled to s on (-1, 1), P(x) =
    sqrt(1-x^2) int exp(-1/((1-x^2)(1-s^2))) ds, by 128-point GL in s."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    s, ws = np.polynomial.legendre.leggauss(128)
    q = 1.0 - x ** 2
    proj = np.sqrt(q) * (np.exp(-1.0 / (q[:, None] * (1.0 - s ** 2)[None, :])) @ ws)
    wts = w * proj
    pos = x > 0.0                      # nodes are symmetric; cos is even
    return x[pos], 2.0 * wts[pos] / wts.sum()


def bump2_hat(u: np.ndarray) -> np.ndarray:
    """2D Fourier transform of the unit-mass radial bump at radius u.

    The transform of a radial function equals the 1D transform of its
    Abel projection P, so bump2_hat(u) = sum_i W_i cos(u x_i) over the GL
    nodes of P on (-1, 1) (see `_projected_bump_table`).  The cosine sum
    resolves |u| <= nodes, so the node count (128, doubled as needed)
    follows the largest |u| asked for.  Each product u * x_i is carried
    with its rounding error, which would otherwise grow with |u|; the sum
    stays within 2e-15 of a J0 quadrature for |u| <= 400."""
    u = np.atleast_1d(np.abs(np.asarray(u, dtype=float)))
    umax = float(u.max(initial=0.0))
    nodes = 128 if umax <= 128.0 else 128 << math.ceil(math.log2(umax / 128.0))
    x, wts = _projected_bump_table(nodes)
    out = np.empty(u.shape)
    step = max(1, 2 ** 18 // x.size)   # radii per block: temporaries stay small
    for lo in range(0, u.size, step):
        p, e = _two_product(u[lo:lo + step, None], x)
        out[lo:lo + step] = (np.cos(p) - e * np.sin(p)) @ wts
    return out


@lru_cache(maxsize=32)
def _spatial_multiplier(m: int, ell: float) -> np.ndarray:
    ks = _wavenumbers(m).astype(float)
    rad = np.hypot(ks[:, None], ks[None, :])
    uniq, inv = np.unique(rad, return_inverse=True)
    return bump2_hat(ell * uniq)[inv].reshape(m, m)


def spatial_mollify(field: SpectralField, ell: float) -> SpectralField:
    # a half spectrum's columns are the leading columns of the full layout
    mult = _spatial_multiplier(field.storage, float(ell))[:, :field.coeffs.shape[-1]]
    return SpectralField(field.grid, field.rank, field.coeffs * mult)


class TemporalKernel:
    """Row-normalized discrete mollifier on a uniform time grid.

    Weights vanish exactly beyond |t_i - t_j| >= ell, so supports widen
    by strictly less than ell.  Normalization makes constants exact.
    """

    def __init__(self, times: np.ndarray, ell: float):
        times = np.asarray(times, dtype=float)
        dt = times[1] - times[0]
        self.times = times
        self.ell = float(ell)
        reach = int(np.ceil(ell / dt))
        offsets = np.arange(-reach, reach + 1)
        w = bump1(offsets * dt / ell) / ell * dt
        w[np.abs(offsets * dt) >= ell] = 0.0
        self.offsets = offsets[w > 0]
        self.weights = w[w > 0]

    def row(self, i: int):
        """(indices, normalized weights) contributing to output node i."""
        n = self.times.size
        j = i + self.offsets
        ok = (j >= 0) & (j < n)
        jj, ww = j[ok], self.weights[ok]
        return jj, ww / ww.sum()

    def reach(self, i: int) -> tuple:
        """(first, last) input node of row i."""
        jj = self.row(i)[0]
        return jj[0], jj[-1]

    def apply_fields(self, slices: list, i: int) -> SpectralField:
        jj, ww = self.row(i)
        return combine([slices[j] for j in jj], ww)


def check_padding(times: np.ndarray, horizon: float, ell: float):
    pad_lo = -float(times[0])
    pad_hi = float(times[-1]) - horizon
    if pad_lo < ell - 1e-12 or pad_hi < ell - 1e-12:
        raise PaddingError(
            f"time padding ({pad_lo:.4g}, {pad_hi:.4g}) cannot host a width-{ell} convolution")


# -- exact-support smooth switch -------------------------------------------

def _expm1_inv(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, exactly 0 for x <= 0."""
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smoothstep(x) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, strictly monotone."""
    x = np.asarray(x, dtype=float)
    a = _expm1_inv(x)
    b = _expm1_inv(1.0 - x)
    return np.where(x >= 1.0, 1.0, np.where(x <= 0.0, 0.0, a / (a + b + 1e-300)))


def smoothstep_prime(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    da = a / xm ** 2
    db = -b / (1.0 - xm) ** 2
    out[mid] = (da * b - a * db) / (a + b) ** 2
    return out
