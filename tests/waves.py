"""Test-side builders of single-mode products from numpy samples.

ci2d makes every wave product of the step as the real antipodal pair of a
coefficient shift (`spectral_field.multiply_mode`, called by
`ci_step._perturbation_slice`).  The builders here form the same objects
independently: in physical space, from numpy samples of exp(i xi . x) on a
grid that resolves the product, or by mirroring a stored half spectrum
into its full FFT-layout plane.  `sign=-1` flips the sign of the mode, the
deliberately wrong shift of a negative control.
"""

import numpy as np

from ci2d import analyze, eta, make_grid
from ci2d.building_blocks import lattice_vector
from ci2d.spectral_field import SpectralField, _resize


def full_plane(coeffs):
    """The full m-by-m FFT-layout plane of stacked half spectra:
    c(xi1, -xi2) = conj c(-xi1, xi2), the Nyquist column left zero."""
    m = coeffs.shape[-2]
    h = m // 2
    out = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
    out[..., :h] = coeffs[..., :h]
    out[..., m - h + 1:] = np.conj(coeffs[..., -np.arange(m) % m, h - 1:0:-1])
    return out


def plane_wave(n, xi, sign=1):
    """Samples of exp(i sign xi . x) on the n-grid; each phase is reduced to
    a whole multiple of 2 pi / n before the exponential."""
    j = np.arange(n)
    return (np.exp(2j * np.pi * (sign * xi[0] * j % n) / n)[:, None]
            * np.exp(2j * np.pi * (sign * xi[1] * j % n) / n)[None, :])


def flow(k, wp, t, n, sign=1):
    """Complex samples (2, n, n) of the intermittent flow
    W_k = eta_k i k-perp exp(i lambda k.x) at time t and of its d/dt (the
    kernel drifts, the single mode is steady)."""
    f, df = eta(k, wp, t, make_grid(n))
    b = 1j * k.k_perp[:, None, None] * plane_wave(n, lattice_vector(k.five_k, wp.lam // 5), sign)
    return f.values()[0] * b, df.values()[0] * b


def mode_pair(f, xi, amp, sign=1):
    """amp exp(i xi . x) f + c.c. for a real field f on the n-grid: formed
    from samples on the 2n-grid, where the product is exact, and cut to the
    n-grid's band, so what a shift pushes past that band is dropped.  amp
    is a scalar or one amplitude per component of the product."""
    n = f.grid.n
    wave = np.reshape(amp, (-1, 1, 1)) * plane_wave(2 * n, xi, sign)
    samples = 2.0 * wave.real * f.values(2 * n)
    rank = f.rank if samples.shape[0] == f.ncomp else "vector"
    fine = analyze(make_grid(2 * n), samples, rank)
    return SpectralField(f.grid, rank, _resize(fine.coeffs, n))


def conj_mirror(full):
    """conj c(-xi) of stacked full planes: index i of an axis maps to
    (m - i) % m, by flips and a roll."""
    out = np.roll(np.flip(full, axis=(-2, -1)), 1, axis=(-2, -1))
    return np.conjugate(out, out=out)


def on_grid(full, n):
    """Stacked full planes of storage m <= n placed on the n-by-n FFT
    layout."""
    m = full.shape[-1]
    ks = np.fft.fftfreq(m, 1.0 / m).astype(int) % n
    out = np.zeros(full.shape[:-2] + (n, n), dtype=complex)
    out[..., ks[:, None], ks[None, :]] = full
    return out


def pair_shell(k, kp, wp):
    """Exact |xi| range of the Fourier support of w_k x w_kp (k + kp != 0),
    from an enumeration of both kernels' lattice offsets about the summed
    mode lam (k + kp)."""
    offs = np.arange(-wp.r, wp.r + 1)
    a, b, ap, bp = np.meshgrid(offs, offs, offs, offs, indexing="ij")
    l5, ls5 = wp.lam // 5, wp.lam_sigma // 5
    x1, x2 = (l5 * (k.five_k[i] + kp.five_k[i])
              + ls5 * (a * k.five_k[i] + b * k.five_k_perp[i]
                       + ap * kp.five_k[i] + bp * kp.five_k_perp[i]) for i in (0, 1))
    q = x1 * x1 + x2 * x2
    return float(np.sqrt(q.min())), float(np.sqrt(q.max()))
