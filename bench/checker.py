"""Independent output checks for ci2d states.

This module uses numpy only and never imports ci2d: every property is
recomputed from physical samples, either read from CI2D dumps by their
documented layout or handed over in memory as arrays.  Conventions it
relies on (all documented in the project README):

* torus [0, 2pi)^2, rectangle-rule quadrature, unnormalized integrals;
* fields carry no Nyquist content (|xi_i| < n/2);
* a state stores v, its time derivative dv, the trace-free pressure p
  and the symmetric trace-free stress R as (t11, t12);
* the forced momentum balance is
  dv + div(v x v)° + grad p + nu (-Lap)^theta v - div R = 0.

A check returns a list of failure strings; an empty list means it passed.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"CI2DFLD1"
SUPPORT_RTOL = 1e-13  # sup-norm share below which a slice counts as zero


# -- reading -----------------------------------------------------------------

def read_dump(path: str):
    """(header dict, float64 samples shaped (ncomp, n, n)) of one CI2D dump."""
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ValueError(f"{path}: bad magic")
        (length,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(length).decode("utf-8"))
        raw = fh.read()
    n = int(header["n"])
    ncomp = 1 if header["rank"] == "scalar" else 2
    if not header["reality"]:
        raise ValueError(f"{path}: state fields must be real")
    data = np.frombuffer(raw, dtype="<f8")
    if data.size != ncomp * n * n:
        raise ValueError(f"{path}: payload holds {data.size} samples, "
                         f"expected {ncomp * n * n}")
    return header, data.reshape(ncomp, n, n)


class DumpState:
    """A state directory read slice by slice from its dumps."""

    def __init__(self, dirpath: str):
        with open(os.path.join(dirpath, "manifest.json")) as fh:
            self.manifest = json.load(fh)
        self.dir = dirpath
        names = sorted(f for f in os.listdir(dirpath) if f.startswith("v_"))
        self.times = np.array([read_dump(os.path.join(dirpath, f))[0]["time"]
                               for f in names])
        self.n = int(self.manifest["n"])
        self.theta = float(self.manifest["theta"])
        self.nu = float(self.manifest["nu"])
        self.T = float(self.manifest["T"])
        self.has_dv = all(os.path.exists(self._path("dv", i))
                          for i in range(self.times.size))

    def _path(self, prefix: str, i: int) -> str:
        return os.path.join(self.dir, f"{prefix}_{i:04d}.ci2d")

    def node(self, i: int) -> dict:
        out = {}
        for key in ("v", "dv", "p", "R"):
            header, vals = read_dump(self._path(key, i))
            if header["time"] != self.times[i] or header["n"] != self.n:
                raise ValueError(f"{key}_{i:04d}: header disagrees with v_{i:04d}")
            out[key] = vals[0] if key == "p" else vals
        return out


class MemoryState:
    """A state handed over as a per-node callable returning sample arrays."""

    def __init__(self, times, n: int, theta: float, nu: float, T: float, node_fn):
        self.times = np.asarray(times, dtype=float)
        self.n, self.theta, self.nu, self.T = int(n), float(theta), float(nu), float(T)
        self.has_dv = True
        self._node_fn = node_fn
        self._cache = {}

    def node(self, i: int) -> dict:
        if i not in self._cache:
            self._cache[i] = self._node_fn(i)
        return dict(self._cache[i])  # a copy, so that a check may edit it


# -- spectral calculus ---------------------------------------------------------

class Spectral:
    """FFT derivatives on the n-by-n grid, Nyquist bins dropped."""

    def __init__(self, n: int):
        self.n = n
        k = np.fft.fftfreq(n, 1.0 / n)
        k[n // 2] = 0.0
        self.k1 = k[:, None]
        self.k2 = k[None, :]
        self.k2abs = self.k1 ** 2 + self.k2 ** 2

    def hat(self, f: np.ndarray) -> np.ndarray:
        c = np.fft.fft2(f, axes=(-2, -1)) / (self.n * self.n)
        c[..., self.n // 2, :] = 0.0
        c[..., :, self.n // 2] = 0.0
        return c

    def l2(self, c: np.ndarray) -> float:
        """Unnormalized L2 norm by Parseval: (2pi)^2 sum |c|^2."""
        return float(2.0 * np.pi * np.sqrt(np.sum(np.abs(c) ** 2)))

    def div_vec(self, c: np.ndarray) -> np.ndarray:
        return 1j * (self.k1 * c[0] + self.k2 * c[1])

    def div_sym(self, c: np.ndarray) -> np.ndarray:
        t11, t12 = c
        return 1j * np.stack([self.k1 * t11 + self.k2 * t12,
                              self.k1 * t12 - self.k2 * t11])

    def grad(self, c: np.ndarray) -> np.ndarray:
        return 1j * np.stack([self.k1 * c, self.k2 * c])


def balance_terms(sp: Spectral, node: dict, theta: float, nu: float) -> list:
    """Coefficients of the five terms of the forced momentum balance."""
    v = node["v"]
    tf = np.stack([0.5 * (v[0] * v[0] - v[1] * v[1]), v[0] * v[1]])
    frac = sp.k2abs ** theta if theta > 0.0 else np.ones_like(sp.k2abs)
    return [sp.hat(node["dv"]),
            sp.div_sym(sp.hat(tf)),
            sp.grad(sp.hat(node["p"])),
            nu * frac * sp.hat(v),
            -sp.div_sym(sp.hat(node["R"]))]


def residual_rel(sp: Spectral, node: dict, theta: float, nu: float) -> float:
    """||residual||_L2 / (1 + sum of the terms' L2 norms) at one node."""
    terms = balance_terms(sp, node, theta, nu)
    res = sum(terms[1:], terms[0])
    return sp.l2(res) / (1.0 + sum(sp.l2(t) for t in terms))


# -- checks --------------------------------------------------------------------

def check_balance(state, residual_tol: float, div_tol: float = 1e-10,
                  mean_tol: float = 1e-12) -> dict:
    """Momentum balance, solenoidality and zero mean at every node.

    Returns {"failures", "max_residual_rel", "sup", "l1"} where sup/l1
    are the per-node sup and L1 sizes of R.
    """
    if not state.has_dv:
        raise ValueError("state has no dv channel")
    sp = Spectral(state.n)
    cell = (2.0 * np.pi / state.n) ** 2
    failures, worst = [], 0.0
    sup, l1 = [], []
    for i in range(state.times.size):
        node = state.node(i)
        rel = residual_rel(sp, node, state.theta, state.nu)
        worst = max(worst, rel)
        if not rel <= residual_tol:
            failures.append(f"node {i}: residual {rel:.3e} > {residual_tol:g}")
        vh = sp.hat(node["v"])
        grad_size = sp.l2(np.stack([sp.grad(c) for c in vh]))
        div_size = sp.l2(sp.div_vec(vh))
        if div_size > div_tol * grad_size:
            failures.append(f"node {i}: divergence {div_size:.3e} vs gradient {grad_size:.3e}")
        mean = np.abs(node["v"].mean(axis=(-2, -1))).max()
        if mean > mean_tol * max(np.abs(node["v"]).max(), 1e-300):
            failures.append(f"node {i}: mean {mean:.3e}")
        mag = np.sqrt(2.0 * node["R"][0] ** 2 + 2.0 * node["R"][1] ** 2)
        sup.append(float(mag.max()))
        l1.append(float(mag.sum() * cell))
    return {"failures": failures, "max_residual_rel": worst,
            "sup": np.array(sup), "l1": np.array(l1)}


def support_mask(sup: np.ndarray) -> np.ndarray:
    top = sup.max()
    return sup > SUPPORT_RTOL * top if top > 0 else np.zeros(sup.size, bool)


def check_stress_support(times, sup_old, sup_new, ell: float) -> list:
    """R_{q+1} vanishes at nodes farther than 2 ell from the support of R_q."""
    old = support_mask(sup_old)
    new = support_mask(sup_new)
    if not old.any():
        return [] if not new.any() else ["R_q is zero but R_{q+1} is not"]
    dist = np.min(np.abs(times[:, None] - times[old][None, :]), axis=1)
    far = dist > 2.0 * ell * (1.0 + 1e-12)
    bad = np.flatnonzero(far & new)
    return [f"R_q+1 nonzero at node {i}, {dist[i]:.4f} from supp R_q" for i in bad]


def check_report_l1(report_value: float, l1: np.ndarray, rtol: float = 1e-12) -> list:
    """diagnose.json's R_LinfL1 against the checker's own quadrature."""
    mine = float(l1.max())
    if abs(report_value - mine) > rtol * max(abs(mine), 1e-300):
        return [f"R_LinfL1 {report_value!r} vs recomputed {mine!r}"]
    return []


def bump(times, T: float):
    """The generators' temporal profile on (T/4, 3T/4): value and d/dt."""
    s = (np.asarray(times, dtype=float) - 0.5 * T) / (0.25 * T)
    chi = np.zeros_like(s)
    dchi = np.zeros_like(s)
    inside = np.abs(s) < 1.0 - 1e-12
    q = 1.0 - s[inside] ** 2
    chi[inside] = np.exp(1.0 - 1.0 / q)
    dchi[inside] = chi[inside] * (-2.0 * s[inside] / q ** 2) / (0.25 * T)
    return chi, dchi


def check_initial_structure(state, shear_mode: int | None = None,
                            sup_amplitude: float | None = None,
                            rtol: float = 1e-12) -> list:
    """v(t_i) = chi(t_i)/chi(t_j) v(t_j) and dv(t_i) = chi'(t_i)/chi(t_j) v(t_j).

    With `shear_mode` m the peak slice must equal chi (sin(m x2), 0);
    with `sup_amplitude` its grid sup must equal chi times that amplitude.
    """
    chi, dchi = bump(state.times, state.T)
    j = int(np.argmax(chi))
    ref = state.node(j)["v"]
    scale = np.abs(ref).max()
    failures = []
    if shear_mode is not None:
        x = 2.0 * np.pi * np.arange(state.n) / state.n
        exact = np.zeros_like(ref)
        exact[0] = chi[j] * np.sin(shear_mode * x)[None, :]
        if np.abs(ref - exact).max() > rtol * chi[j]:
            failures.append("peak slice is not chi (sin(m x2), 0)")
    if sup_amplitude is not None and abs(scale - chi[j] * sup_amplitude) > rtol * scale:
        failures.append(f"peak slice sup {scale!r} vs chi * amplitude {chi[j] * sup_amplitude!r}")
    dscale = scale * np.abs(dchi).max() / chi[j]  # sup of dv over the track
    for i in range(state.times.size):
        node = state.node(i)
        if np.abs(node["v"] - chi[i] / chi[j] * ref).max() > rtol * scale:
            failures.append(f"node {i}: v is not chi-scaled")
        if np.abs(node["dv"] - dchi[i] / chi[j] * ref).max() > rtol * dscale:
            failures.append(f"node {i}: dv is not chi'-scaled")
    return failures


def check_time_nodes(times, T: float, t_pad: float) -> list:
    """Uniform nodes covering [0, T] plus at least t_pad on each side."""
    dt = np.diff(times)
    failures = []
    if np.abs(dt - dt[0]).max() > 1e-12:
        failures.append("time nodes are not uniform")
    if times[0] > -t_pad + 1e-12 or times[-1] < T + t_pad - 1e-12:
        failures.append(f"time nodes [{times[0]}, {times[-1]}] miss the padding {t_pad}")
    return failures


def negative_control(state, residual_tol: float) -> list:
    """Add a divergence-free field to v where v peaks: the balance must fail."""
    peak = int(np.argmax([np.abs(state.node(i)["v"]).max()
                          for i in range(state.times.size)]))
    sp = Spectral(state.n)
    node = state.node(peak)
    x = 2.0 * np.pi * np.arange(sp.n) / sp.n
    wave = np.cos(2.0 * x[:, None] + x[None, :])
    w = np.stack([-wave, 2.0 * wave])  # rotated gradient of sin(2 x1 + x2)
    size = 1.0 + sum(sp.l2(t) for t in balance_terms(sp, node, state.theta, state.nu))
    node["v"] = node["v"] + size / sp.l2(sp.hat(w)) * w
    if residual_rel(sp, node, state.theta, state.nu) <= residual_tol:
        return [f"negative control: node {peak} with an added divergence-free field passed"]
    return []
