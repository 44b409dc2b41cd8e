"""Friedrichs mollification machinery: spatial multiplier, discrete
temporal kernel, and exact-support smooth switches.

Spatial mollification acts as the Fourier multiplier of the periodized
2D bump; temporal mollification is a row-normalized discrete convolution
with the sampled 1D bump and is applied to value and derivative channels
alike, so the jet calculus commutes with it exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import j0

from .errors import PaddingError
from .spectral_field import SpectralField, _wavenumbers, combine


def bump1(s: np.ndarray) -> np.ndarray:
    """Standard even bump on (-1, 1), unit mass."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out / 0.4439938161680794  # integral of exp(-1/(1-s^2)) over (-1,1)


@lru_cache(maxsize=1)
def _radial_transform_table():
    """Gauss-Legendre (order 128) nodes, weights, profile and mass of the
    radial bump on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(128)
    rho = 0.5 * (x + 1.0)          # map to (0, 1)
    wts = 0.5 * w
    prof = np.exp(-1.0 / (1.0 - rho ** 2))
    mass = 2.0 * np.pi * np.sum(wts * prof * rho)
    return rho, wts, prof, mass


def bump2_hat(u: np.ndarray) -> np.ndarray:
    """2D Fourier transform of the unit-mass radial bump at radius u."""
    rho, wts, prof, mass = _radial_transform_table()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    vals = 2.0 * np.pi * np.sum(
        wts[None, :] * prof[None, :] * rho[None, :] * j0(u[:, None] * rho[None, :]),
        axis=1) / mass
    return vals


@lru_cache(maxsize=32)
def _spatial_multiplier(m: int, ell: float) -> np.ndarray:
    ks = _wavenumbers(m).astype(float)
    rad = np.hypot(ks[:, None], ks[None, :])
    uniq, inv = np.unique(rad, return_inverse=True)
    return bump2_hat(ell * uniq)[inv].reshape(m, m)


def spatial_mollify(field: SpectralField, ell: float) -> SpectralField:
    mult = _spatial_multiplier(field.storage, float(ell))
    return SpectralField(field.grid, field.rank, field.coeffs * mult, field.reality)


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
