"""Stationary flows, the 2D Dirichlet kernel, and intermittent waves.

The eight rational unit directions split into antipodal pairs; each
direction k carries a single-mode divergence-free flow b_k = i k-perp
exp(i lambda k.x) with stream potential psi_k = exp(i lambda k.x)/lambda.
Intermittency enters through a rescaled Dirichlet kernel evaluated in the
(k, k-perp) frame and drifting in time along k.

All wave constructions are assembled directly in coefficient space from
integer lattice data, so the frequency-support statements and the
transport identity hold to round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AliasingRisk, DivisibilityError, NonIntegerFrequency
from .spectral_field import Grid2, SpectralField, multiply_mode

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


# -- single-mode flows ------------------------------------------------------

def _check_integer_wave(k: Direction, lam: int):
    if (lam * k.five_k[0]) % 5 != 0 or (lam * k.five_k[1]) % 5 != 0:
        raise NonIntegerFrequency(f"lambda*k not on the integer lattice for lambda={lam}, k={k}")


def lattice_vector(k_five: tuple, scale_over_5: int) -> tuple:
    return (scale_over_5 * k_five[0], scale_over_5 * k_five[1])


def wave_psi(k: Direction, lam: int, grid: Grid2) -> SpectralField:
    """Stream potential: exp(i lambda k.x) / lambda (a single mode)."""
    _check_integer_wave(k, lam)
    xi = lattice_vector(k.five_k, lam // 5)
    return SpectralField.from_modes(grid, "scalar", {xi: 1.0 / lam}, reality=False)


def wave_b(k: Direction, lam: int, grid: Grid2) -> SpectralField:
    """Stationary flow: i k-perp exp(i lambda k.x); equals perp_grad(psi)."""
    _check_integer_wave(k, lam)
    xi = lattice_vector(k.five_k, lam // 5)
    amp = 1j * k.k_perp
    return SpectralField.from_modes(grid, "vector", {xi: amp}, reality=False)


# -- Dirichlet kernel -------------------------------------------------------

def dirichlet_kernel(r: int, grid: Grid2) -> SpectralField:
    """Square Dirichlet kernel: all (2r+1)^2 modes weighted 1/(2r+1)."""
    if r < 1:
        raise DivisibilityError(f"kernel order must be a positive integer, got {r}")
    if grid.n <= 2 * r:
        raise AliasingRisk(f"grid n={grid.n} cannot hold the order-{r} kernel")
    amp = 1.0 / (2 * r + 1)
    modes = {(a, b): amp for a in range(-r, r + 1) for b in range(-r, r + 1)}
    return SpectralField.from_modes(grid, "scalar", modes, reality=True)


# -- intermittent kernel and flow ------------------------------------------

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
    """Exact max |xi|_inf over the kernel modes of every direction."""
    return max(int(np.max(np.abs(_eta_modes(k, wp, 0.0)[0])))
               for k in positive_directions())


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
    f = SpectralField.from_modes(grid, "scalar", dict(zip(modes, coeffs)), reality=True)
    df = SpectralField.from_modes(grid, "scalar", dict(zip(modes, dcoeffs)), reality=True)
    return f, df


def intermittent_flow(k: Direction, wp: WaveParams, t: float, grid: Grid2):
    """w_k = eta_k b_k with its analytic d/dt channel (b is steady)."""
    f, df = eta(k, wp, t, grid)
    xi = lattice_vector(k.five_k, wp.lam // 5)
    amp = 1j * k.k_perp
    w = multiply_mode(f, xi, amp)
    dw = multiply_mode(df, xi, amp)
    return w, dw


def flow_shell(wp: WaveParams):
    """Exact Euclidean |xi| range of the flow's Fourier support."""
    lo, hi = np.inf, 0.0
    s = 1.0 / wp.sigma_inv
    for a in range(-wp.r, wp.r + 1):
        for b in range(-wp.r, wp.r + 1):
            rad = wp.lam * np.hypot(1.0 + s * a, s * b)
            lo, hi = min(lo, rad), max(hi, rad)
    return lo, hi


def pair_shell(k: Direction, kp: Direction, wp: WaveParams):
    """Exact |xi| range of the Fourier support of w_k x w_kp (k+kp != 0)."""
    l5 = wp.lam // 5
    ls5 = wp.lam_sigma // 5
    base = (l5 * (k.five_k[0] + kp.five_k[0]), l5 * (k.five_k[1] + kp.five_k[1]))
    fa, fap = k.five_k, k.five_k_perp
    fb, fbp = kp.five_k, kp.five_k_perp
    r = wp.r
    lo2, hi2 = None, 0
    rng = range(-r, r + 1)
    for a in rng:
        for b in rng:
            for ap in rng:
                for bp in rng:
                    x1 = base[0] + ls5 * (a * fa[0] + b * fap[0] + ap * fb[0] + bp * fbp[0])
                    x2 = base[1] + ls5 * (a * fa[1] + b * fap[1] + ap * fb[1] + bp * fbp[1])
                    q = x1 * x1 + x2 * x2
                    lo2 = q if lo2 is None else min(lo2, q)
                    hi2 = max(hi2, q)
    return float(np.sqrt(lo2)), float(np.sqrt(hi2))
