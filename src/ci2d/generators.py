"""Initial-data generators: smooth divergence-free mean-zero tracks."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .spectral_field import (Grid2, SpectralField, TimeTrack, perp_grad,
                             random_field)


def time_grid(T: float, t_pad: float, n_t: int) -> np.ndarray:
    """Uniform nodes spanning [0, T] plus at least t_pad on each side."""
    if n_t < 2 or T <= 0 or t_pad < 0:
        raise ConfigError("need n_t >= 2, T > 0, t_pad >= 0")
    dt = T / (n_t - 1)
    n_pad = int(np.ceil(t_pad / dt - 1e-9))
    return dt * np.arange(-n_pad, n_t + n_pad)


def bump_profile(t: np.ndarray, center: float, halfwidth: float):
    """Smooth compactly supported profile and its analytic time derivative.

    chi(s) = exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside, normalized to
    peak value 1; s = (t - center)/halfwidth.
    """
    s = (np.asarray(t, dtype=float) - center) / halfwidth
    chi = np.zeros_like(s)
    d1 = np.zeros_like(s)
    inside = np.abs(s) < 1.0 - 1e-12
    si = s[inside]
    q = 1.0 - si ** 2
    val = np.exp(1.0 - 1.0 / q)
    g = -2.0 * si / q ** 2                      # d/ds log(chi)
    chi[inside] = val
    d1[inside] = val * g / halfwidth
    return chi, d1


def _bump_track(times: np.ndarray, base: SpectralField, support: tuple | None,
                T: float) -> TimeTrack:
    """u = chi(t) base with its analytic d/dt channel; chi is the bump on
    support, by default (T/4, 3T/4)."""
    if support is None:
        support = (T / 4.0, 3.0 * T / 4.0)
    lo, hi = support
    chi, dchi = bump_profile(times, 0.5 * (lo + hi), 0.5 * (hi - lo))
    slices = [float(c) * base for c in chi]
    dslices = [float(dc) * base for dc in dchi]
    return TimeTrack(times, slices, dslices)


def shear_track(grid: Grid2, times: np.ndarray, m: int = 1,
                support: tuple | None = None, T: float = 1.0) -> TimeTrack:
    """u = chi(t) (sin(m x2), 0): one Fourier mode under a temporal bump."""
    base = SpectralField.from_modes(
        grid, "vector",
        {(0, m): np.array([-0.5j, 0.0]), (0, -m): np.array([0.5j, 0.0])})
    return _bump_track(times, base, support, T)


def stream_track(grid: Grid2, times: np.ndarray, seed: int = 7, band: int = 4,
                 decay: float = 2.0, support: tuple | None = None,
                 T: float = 1.0, amplitude: float = 1.0) -> TimeTrack:
    """u = chi(t) perp_grad(psi) for a seeded random band-limited psi.

    `amplitude` is the sup of the samples on the given grid, so one seed
    gives fields that differ by about 4.6e-4 relative between n = 256 and
    n = 512; a grid-refinement study should build its input once and
    re-wrap it on the other grids.
    """
    psi = random_field(grid, "scalar", band, seed, decay=decay)
    base = perp_grad(psi)
    scale = amplitude / max(1e-300, np.max(np.abs(base.values())))
    return _bump_track(times, scale * base, support, T)


def zero_track(grid: Grid2, times: np.ndarray) -> TimeTrack:
    z = SpectralField.zeros(grid, "vector")
    return TimeTrack(times, [z for _ in times], [z for _ in times])


def build_initial(name: str, grid: Grid2, times: np.ndarray, T: float,
                  params: dict) -> TimeTrack:
    if name == "zero":
        return zero_track(grid, times)
    if name == "shear":
        return shear_track(grid, times, m=int(params.get("m", 1)),
                           support=params.get("support"), T=T)
    if name == "stream":
        return stream_track(grid, times, seed=int(params.get("seed", 7)),
                            band=int(params.get("band", 4)),
                            decay=float(params.get("decay", 2.0)),
                            support=params.get("support"), T=T,
                            amplitude=float(params.get("amplitude", 1.0)))
    raise ConfigError(f"unknown initial-data generator {name!r}")
