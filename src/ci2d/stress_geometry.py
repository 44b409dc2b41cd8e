"""Positive decomposition of symmetric trace-free 2x2 matrices.

Any such matrix is a positive combination of the rank-one trace-free
products k x k over the eight rational directions.  The weights are
square roots of affine expressions in a mollified ramp; the
reconstruction identity only uses the ramp's exact antisymmetry
ramp(s) - ramp(-s) = s, which the implementation enforces structurally
(the even part is interpolated in |s|, the odd part is exactly s/2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .building_blocks import directions, positive_directions
from .fourier_calculus import tracefree_product
from .mollifier import bump1

# Weights of the reconstruction: 2*(7/50)*2*W11 = 1 and 2*(12/25)*2*W12 = 1.
W11 = 25.0 / 14.0
W12 = 25.0 / 48.0


class RampProfile:
    """Quadrature tables of the mollified ramp and its derivative.

    The ramp is the convolution of max(1, s+1) with the unit-mass bump
    `bump1` on (-1, 1).  Outside [-1, 1] the ramp equals its exact linear
    extensions, so only the transition window is tabulated: on 8,193
    uniform nodes of [0, 1], the odd part of the bump's CDF and its even
    first moment, each integral by 96-point Gauss-Legendre.  Between
    nodes both are cubic Hermite interpolants with exact slopes, bump1(u)
    and u * bump1(u).
    """

    NODES = 8192        # intervals of [0, 1]

    def __init__(self):
        gl_x, gl_w = np.polynomial.legendre.leggauss(96)
        u = np.linspace(0.0, 1.0, self.NODES + 1)
        # integrals from -1 to u of bump and y*bump, vectorized over u
        # via the map [-1, 1] -> [-1, u]: y = (u-1)/2 + (u+1)/2 * x
        ys = (u[:, None] - 1.0) / 2.0 + (u[:, None] + 1.0) / 2.0 * gl_x[None, :]
        wts = (u[:, None] + 1.0) / 2.0 * gl_w[None, :]
        bump_vals = bump1(ys)
        cdf_u = np.sum(wts * bump_vals, axis=1)
        m1_u = np.sum(wts * ys * bump_vals, axis=1)
        bump_u = bump1(u)
        # rows: odd part of the cdf, even first moment; slopes times the spacing
        self._values = np.stack([cdf_u - 0.5, m1_u])
        self._slopes = np.stack([bump_u, u * bump_u]) / self.NODES

    def _tables(self, u: np.ndarray) -> np.ndarray:
        """(odd cdf part, first moment) at u in [0, 1], shape (2,) + u.shape."""
        x = u * self.NODES
        j = np.minimum(x.astype(np.intp), self.NODES - 1)
        t = x - j
        s = 1.0 - t
        y, d = self._values, self._slopes
        return ((1.0 + 2.0 * t) * s * s * y[:, j] + t * s * s * d[:, j]
                + t * t * (3.0 - 2.0 * t) * y[:, j + 1] - t * t * s * d[:, j + 1])

    def signed(self, s, signs=(1, -1)) -> dict:
        """{sign: (ramp(sign * s), ramp'(sign * s))} over an array s; the
        tables (even in s) are read once per entry for all signs."""
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) < 1.0
        ui = np.abs(s[inside])
        c, m = self._tables(ui)
        uc = ui * c
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


def decompose(r11, r12, dr11=None, dr12=None) -> dict:
    """Squared weights {k: g^2} over arrays of stress entries, with
    sum_k g^2 (k x k) = [[r11, r12], [r12, -r11]] entrywise; given the
    entries' time derivatives, {k: (g^2, d/dt g^2)} by the chain rule.
    The ramp's tables are read once per entry for both argument signs, and
    each antipode shares its positive direction's arrays."""
    ramp = default_ramp()
    v11, v12 = ramp.signed(r11), ramp.signed(r12)
    out = {}
    for k in positive_directions():
        s1, s2 = k.gamma_signs
        (a11, d11), (a12, d12) = v11[s1], v12[s2]
        g2 = W11 * a11 + W12 * a12
        out[k] = g2 if dr11 is None else (g2, W11 * d11 * s1 * dr11 + W12 * d12 * s2 * dr12)
    return {k: out[k if k.positive else k.antipode] for k in directions()}


# One-line views of `decompose`, kept under the names that the benchmark
# tracer (bench/tracer.py) times as `stress_geometry.gamma`; they go when
# the tracer times `decompose` itself.
def gamma(k, r11, r12): return float(np.sqrt(decompose(r11, r12)[k]))
def gamma_squared_grid(k, r11, r12): return decompose(r11, r12)[k]
def gamma_squared_grid_dt(k, r11, r12, dr11, dr12): return decompose(r11, r12, dr11, dr12)[k][1]


def reconstruct(weights) -> tuple:
    """Entries (r11, r12) of sum_k w_k (k x k) from (direction, weight)
    pairs, read one at a time (`decompose(...).items()`, say)."""
    r11 = r12 = 0.0
    for k, w in weights:
        kk = tracefree_product(k.k, k.k)
        r11 = r11 + w * kk[0, 0]
        r12 = r12 + w * kk[0, 1]
    return r11, r12
