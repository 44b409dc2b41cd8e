"""Directions, wave parameters, the 2D Dirichlet kernel and its
intermittent rescaling.

The eight rational unit directions split into antipodal pairs; each
direction k carries the single mode exp(i lambda k.x) at the integer
lattice vector `lattice_vector(5k, lambda/5)`, whose divergence-free flow
b_k = i k-perp exp(i lambda k.x) has the stream potential
exp(i lambda k.x)/lambda.  The step (`ci_step._perturbation_slice`)
builds every wave product as the real antipodal pair of such a mode
(`spectral_field.multiply_mode`).  Intermittency enters through a
rescaled Dirichlet kernel evaluated in the (k, k-perp) frame and
drifting in time along k.

The kernels are assembled directly in coefficient space from integer
lattice data, so the frequency-support statements and the transport
identity hold to round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AliasingRisk, DivisibilityError
from .spectral_field import Grid2, SpectralField

_FIVE_K_POS = ((3, 4), (3, -4), (4, 3), (4, -3))


@dataclass(frozen=True)
class Direction:
    """A rational unit vector k with 5k integer, |k| = 1 exactly."""

    five_k: tuple
    positive: bool          # member of the positive half Lambda+
    gamma_signs: tuple      # argument signs (s11, s12) of the weight formula

    @property
    def k(self) -> np.ndarray:
        return np.array(self.five_k, dtype=float) / 5.0

    @property
    def five_k_perp(self) -> tuple:
        return (-self.five_k[1], self.five_k[0])

    @property
    def k_perp(self) -> np.ndarray:
        return np.array(self.five_k_perp, dtype=float) / 5.0

    @property
    def antipode(self) -> "Direction":
        return Direction((-self.five_k[0], -self.five_k[1]),
                         not self.positive, self.gamma_signs)

    def __repr__(self):
        return f"Direction({self.five_k[0]}/5, {self.five_k[1]}/5)"


_GAMMA_SIGNS = {
    (3, 4): (-1, 1),
    (3, -4): (-1, -1),
    (4, 3): (1, 1),
    (4, -3): (1, -1),
}


def directions() -> list:
    """The eight directions, positive half first, antipodes mirrored."""
    pos = [Direction(fk, True, _GAMMA_SIGNS[fk]) for fk in _FIVE_K_POS]
    return pos + [d.antipode for d in pos]


def positive_directions() -> list:
    return [d for d in directions() if d.positive]


@dataclass(frozen=True)
class WaveParams:
    """The tuple (lambda, sigma, r, mu); sigma is stored via 1/sigma.

    Divisibility is enforced (lambda in 5N, sigma_inv | lambda,
    lambda*sigma in 5N so that lambda*sigma*k is an integer vector for
    every direction).  Scale-separation is advisory at desk scale: the
    orderings 1 <= r <= mu <= sigma_inv <= lambda produce warnings, not
    errors, when violated or tight.
    """

    lam: int
    sigma_inv: int
    r: int
    mu: int

    def __post_init__(self):
        for name in ("lam", "sigma_inv", "r", "mu"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise DivisibilityError(f"{name} must be a positive integer, got {v!r}")
        if self.lam % 5 != 0:
            raise DivisibilityError(f"lambda = {self.lam} is not a multiple of 5")
        if self.lam % self.sigma_inv != 0:
            raise DivisibilityError(
                f"sigma_inv = {self.sigma_inv} does not divide lambda = {self.lam}")
        if (self.lam // self.sigma_inv) % 5 != 0:
            raise DivisibilityError(
                f"lambda*sigma = {self.lam}/{self.sigma_inv} is not a multiple of 5")

    @property
    def sigma(self) -> Fraction:
        return Fraction(1, self.sigma_inv)

    @property
    def lam_sigma(self) -> int:
        return self.lam // self.sigma_inv

    def separation_warnings(self) -> list:
        chain = [("1", 1), ("r", self.r), ("mu", self.mu),
                 ("sigma_inv", self.sigma_inv), ("lambda", self.lam)]
        notes = []
        for (la, va), (lb, vb) in zip(chain, chain[1:]):
            if vb < va:
                notes.append(f"ordering violated: {lb} = {vb} < {la} = {va}")
            elif vb < 2 * va:
                notes.append(f"weak separation: {lb}/{la} = {vb}/{va} < 2")
        return notes


# -- single modes -------------------------------------------------------------

def lattice_vector(k_five: tuple, scale_over_5: int) -> tuple:
    """The integer wave vector (lambda/5) 5k of the mode exp(i lambda k.x)."""
    return (scale_over_5 * k_five[0], scale_over_5 * k_five[1])


# -- Dirichlet kernel -------------------------------------------------------

def dirichlet_kernel(r: int, grid: Grid2) -> SpectralField:
    """Square Dirichlet kernel: all (2r+1)^2 modes weighted 1/(2r+1)."""
    if r < 1:
        raise DivisibilityError(f"kernel order must be a positive integer, got {r}")
    if grid.n <= 2 * r:
        raise AliasingRisk(f"grid n={grid.n} cannot hold the order-{r} kernel")
    amp = 1.0 / (2 * r + 1)
    modes = {(a, b): amp for a in range(-r, r + 1) for b in range(-r, r + 1)}
    return SpectralField.from_modes(grid, "scalar", modes)


# -- intermittent kernel ----------------------------------------------------

def _eta_modes(k: Direction, wp: WaveParams, t: float):
    """Modes and (value, d/dt) coefficients of the directed kernel."""
    ls5 = wp.lam_sigma // 5
    fk, fkp = k.five_k, k.five_k_perp
    r = wp.r
    amp = 1.0 / (2 * r + 1)
    rate = float(wp.lam_sigma * wp.mu)
    modes, coeffs, dcoeffs = [], [], []
    for a in range(-r, r + 1):
        phase = amp * np.exp(1j * rate * a * t)
        for b in range(-r, r + 1):
            xi = (ls5 * (a * fk[0] + b * fkp[0]), ls5 * (a * fk[1] + b * fkp[1]))
            modes.append(xi)
            coeffs.append(phase)
            dcoeffs.append(1j * rate * a * phase)
    return modes, coeffs, dcoeffs


def eta_band(wp: WaveParams) -> int:
    """Exact max |xi|_inf over every direction's kernel modes, at a corner a = -b = +-r."""
    return 7 * wp.r * (wp.lam_sigma // 5)


def eta(k: Direction, wp: WaveParams, t: float, grid: Grid2):
    """Directed-rescaled kernel at time t, with its analytic d/dt channel.

    For a negative direction the kernel of the antipode is returned, which
    is what pairs the transport identity with the minus sign.
    """
    if not k.positive:
        return eta(k.antipode, wp, t, grid)
    if eta_band(wp) > grid.max_mode:
        raise AliasingRisk(
            f"grid n={grid.n} cannot resolve the kernel band {eta_band(wp)}")
    modes, coeffs, dcoeffs = _eta_modes(k, wp, t)
    f = SpectralField.from_modes(grid, "scalar", dict(zip(modes, coeffs)))
    df = SpectralField.from_modes(grid, "scalar", dict(zip(modes, dcoeffs)))
    return f, df


def flow_shell(wp: WaveParams):
    """Exact Euclidean |xi| range of the Fourier support of the flow
    eta_k b_k (and of its antipodal pair)."""
    lo, hi = np.inf, 0.0
    s = 1.0 / wp.sigma_inv
    for a in range(-wp.r, wp.r + 1):
        for b in range(-wp.r, wp.r + 1):
            rad = wp.lam * np.hypot(1.0 + s * a, s * b)
            lo, hi = min(lo, rad), max(hi, rad)
    return lo, hi
