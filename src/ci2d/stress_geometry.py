"""Positive decomposition of symmetric trace-free 2x2 matrices.

Any such matrix is a positive combination of the rank-one trace-free
products k x k over the eight rational directions.  The weights are
square roots of affine expressions in a mollified ramp; the
reconstruction identity only uses the ramp's exact antisymmetry
ramp(s) - ramp(-s) = s, which the implementation enforces structurally
(the even part is interpolated in |s|, the odd part is exactly s/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .building_blocks import Direction, directions
from .fourier_calculus import tracefree_product

# Weights of the reconstruction: 2*(7/50)*2*W11 = 1 and 2*(12/25)*2*W12 = 1.
W11 = 25.0 / 14.0
W12 = 25.0 / 48.0


@dataclass(frozen=True)
class StressMatrix:
    """[[r11, r12], [r12, -r11]]; trace-free and symmetric by storage."""

    r11: float
    r12: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.r11, self.r12], [self.r12, -self.r11]])

    @property
    def sup(self) -> float:
        return max(abs(self.r11), abs(self.r12))


def _bump(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


class RampProfile:
    """Quadrature tables of the mollified ramp and its derivative.

    The ramp is the convolution of max(1, s+1) with an even smooth bump
    supported in (-1, 1).  Outside [-1, 1] the ramp equals its exact
    linear extensions, so only the transition window is tabulated.
    """

    def __init__(self, n_nodes: int = 8193, gl_order: int = 96):
        gl_x, gl_w = np.polynomial.legendre.leggauss(gl_order)
        mass = float(np.dot(gl_w, _bump(gl_x)))
        u = np.linspace(0.0, 1.0, n_nodes)
        # integrals from -1 to u of bump and y*bump, vectorized over u
        # via the map [-1, 1] -> [-1, u]: y = (u-1)/2 + (u+1)/2 * x
        ys = (u[:, None] - 1.0) / 2.0 + (u[:, None] + 1.0) / 2.0 * gl_x[None, :]
        wts = (u[:, None] + 1.0) / 2.0 * gl_w[None, :]
        bump_vals = _bump(ys) / mass
        cdf_u = np.sum(wts * bump_vals, axis=1)
        m1_u = np.sum(wts * ys * bump_vals, axis=1)
        self._c_spline = CubicSpline(u, cdf_u - 0.5)   # odd part of the cdf
        self._m_spline = CubicSpline(u, m1_u)          # even first moment

    def signed(self, s, signs=(1, -1)) -> dict:
        """{sign: (ramp(sign * s), ramp'(sign * s))} over an array s; the
        splines (even in s) run once per entry for all signs."""
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) < 1.0
        ui = np.abs(s[inside])
        c = self._c_spline(ui)
        uc, m = ui * c, self._m_spline(ui)
        out = {}
        for sign in signs:
            ss = sign * s
            val = np.where(ss >= 1.0, ss + 1.0, np.ones_like(ss))
            val[inside] = 1.0 + 0.5 * ss[inside] + uc - m
            der = np.where(ss >= 1.0, 1.0, 0.0)
            der[inside] = 0.5 + np.sign(ss[inside]) * c
            out[sign] = (val, der)
        return out

    def value(self, s) -> np.ndarray:
        """ramp(s); satisfies ramp(s) - ramp(-s) = s exactly."""
        out = self.signed(s, (1,))[1][0]
        return out if out.ndim else float(out)

    def derivative(self, s) -> np.ndarray:
        """ramp'(s), i.e. the bump's cumulative distribution."""
        out = self.signed(s, (1,))[1][1]
        return out if out.ndim else float(out)

    def value_at_zero(self) -> float:
        return float(self.value(np.array([0.0]))[0])


@lru_cache(maxsize=1)
def default_ramp() -> RampProfile:
    return RampProfile()


def gamma(k: Direction, stress: StressMatrix, ramp: RampProfile | None = None) -> float:
    """Strictly positive weight of direction k for the given stress."""
    ramp = ramp or default_ramp()
    s1, s2 = k.gamma_signs
    val = (W11 * ramp.value(np.array([s1 * stress.r11]))
           + W12 * ramp.value(np.array([s2 * stress.r12])))[0]
    return float(np.sqrt(val))


def gamma_squared_grid(k: Direction, r11: np.ndarray, r12: np.ndarray,
                       ramp: RampProfile | None = None) -> np.ndarray:
    """Vectorized squared weight over arrays of stress entries."""
    ramp = ramp or default_ramp()
    s1, s2 = k.gamma_signs
    return W11 * ramp.value(s1 * r11) + W12 * ramp.value(s2 * r12)


def gamma_squared_grid_dt(k: Direction, r11, r12, dr11, dr12,
                          ramp: RampProfile | None = None) -> np.ndarray:
    """Chain-rule time derivative of the squared weight."""
    ramp = ramp or default_ramp()
    s1, s2 = k.gamma_signs
    return (W11 * ramp.derivative(s1 * r11) * s1 * dr11
            + W12 * ramp.derivative(s2 * r12) * s2 * dr12)


def decompose(stress: StressMatrix, ramp: RampProfile | None = None) -> dict:
    """Squared weights per direction with sum_k w_k (k x k) = stress."""
    ramp = ramp or default_ramp()
    return {k: float(gamma_squared_grid(k, np.array([stress.r11]),
                                        np.array([stress.r12]), ramp)[0])
            for k in directions()}


def reconstruct(weights: dict) -> StressMatrix:
    """Evaluate sum_k w_k (k x k) from a direction->weight map."""
    acc = np.zeros((2, 2))
    for k, w in weights.items():
        acc += w * tracefree_product(k.k, k.k)
    return StressMatrix(acc[0, 0], acc[0, 1])
