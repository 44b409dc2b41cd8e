"""On-disk formats: the CI2D field dump and state directories.

Field dump layout (format tag "CI2D v1"):

    8 bytes   magic "CI2DFLD1"
    4 bytes   little-endian uint32 header length L
    L bytes   UTF-8 JSON: {"n", "rank", "reality", "time", "units"}
    payload   float64 little-endian physical samples, row-major,
              components concatenated (scalar: 1; vector: x then y;
              symtensor: t11 then t12); complex data is interleaved
              re/im per sample when reality is false.

A state directory holds a manifest.json with the keys
{T, t_pad, n, n_t, theta, nu, q, mode, params} plus one dump per field
slice: v_XXXX, p_XXXX, R_XXXX and the derivative channels dv_XXXX /
dR_XXXX when available: a channel is dumped at every node or at none.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .ci_step import NSRState
from .errors import ConfigError
from .spectral_field import _RANK_NCOMP, SpectralField, TimeTrack, analyze, make_grid

MAGIC = b"CI2DFLD1"


def write_field(path: str, field: SpectralField, time: float = 0.0) -> None:
    header = {
        "n": field.grid.n,
        "rank": field.rank,
        "reality": bool(field.reality),
        "time": float(time),
        "units": "1",
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    vals = field.values()
    if field.reality:
        payload = np.ascontiguousarray(vals, dtype="<f8").tobytes()
    else:
        inter = np.empty(vals.shape + (2,), dtype="<f8")
        inter[..., 0] = vals.real
        inter[..., 1] = vals.imag
        payload = inter.tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def read_field(path: str):
    """Returns (SpectralField, header dict); a malformed dump raises ConfigError."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a CI2D field dump")
        try:
            (length,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(length).decode("utf-8"))
            n, rank, reality = int(header["n"]), header["rank"], bool(header["reality"])
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: header does not decode ({exc})") from None
        raw = fh.read()
    if rank not in _RANK_NCOMP:
        raise ConfigError(f"{path}: unknown rank {rank!r}")
    grid = make_grid(n)
    shape = (_RANK_NCOMP[rank], n, n) + (() if reality else (2,))
    need = 8 * int(np.prod(shape))
    if len(raw) != need:
        raise ConfigError(f"{path}: payload has {len(raw)} bytes, its header needs {need}")
    vals = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not reality:
        vals = vals[..., 0] + 1j * vals[..., 1]
    return analyze(grid, vals, rank), header


def _slice_name(prefix: str, i: int) -> str:
    return f"{prefix}_{i:04d}.ci2d"


def write_manifest(dirpath: str, state: NSRState, t_pad: float, mode: str,
                   params: dict) -> None:
    """The state directory with its manifest.json, before any dump."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = {
        "T": state.T,
        "t_pad": float(t_pad),
        "n": state.grid.n,
        "n_t": int(round(state.T / state.v.dt)) + 1,
        "theta": state.theta,
        "nu": state.nu,
        "q": state.q,
        "mode": mode,
        "params": params,
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)


def write_node(dirpath: str, i: int, t: float, v: SpectralField, dv, p: SpectralField,
               R: SpectralField, dR=None) -> None:
    """The dumps of node i at time t; a channel given as None has none."""
    for prefix, f in (("v", v), ("p", p), ("R", R), ("dv", dv), ("dR", dR)):
        if f is not None:
            write_field(os.path.join(dirpath, _slice_name(prefix, i)), f, t)


def write_state(dirpath: str, state: NSRState, t_pad: float, mode: str,
                params: dict) -> None:
    write_manifest(dirpath, state, t_pad, mode, params)
    v, p, R = state.v, state.p, state.R
    for i, t in enumerate(state.times):
        write_node(dirpath, i, t, v.slices[i], v.dslices and v.dslices[i], p.slices[i],
                   R.slices[i], R.dslices and R.dslices[i])


_MANIFEST_TYPES = {"T": float, "t_pad": float, "n": int, "n_t": int, "theta": float,
                   "nu": float, "q": int}


def read_state(dirpath: str) -> tuple:
    """Returns (NSRState, manifest); a missing or malformed manifest, a
    missing dump (a derivative channel may lack every dump, not some), or a
    dump whose grid or rank does not fit the manifest raises ConfigError."""
    path = os.path.join(dirpath, "manifest.json")
    if not os.path.isfile(path):
        raise ConfigError(f"{dirpath}: no manifest.json, not a state directory")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{path}: manifest does not parse ({exc})") from None
    fields = manifest if isinstance(manifest, dict) else {}
    for key, kind in _MANIFEST_TYPES.items():
        if type(fields.get(key)) not in (kind, int):   # a float key may hold an int
            raise ConfigError(f"{path}: manifest has no {kind.__name__} {key!r}")
    from .generators import time_grid
    times = time_grid(manifest["T"], manifest["t_pad"], manifest["n_t"])
    def load(prefix, rank, required=True):
        """The track's slices; None for a channel with no dump at any node."""
        paths = [os.path.join(dirpath, _slice_name(prefix, i)) for i in range(times.size)]
        missing = [path for path in paths if not os.path.exists(path)]
        if missing and len(missing) == len(paths) and not required:
            return None
        if missing:
            raise ConfigError(f"state directory missing {missing[0]}")
        slices = []
        for path in paths:
            f = read_field(path)[0]
            if (f.grid.n, f.rank) != (manifest["n"], rank):
                raise ConfigError(f"{path}: a {f.rank} on n = {f.grid.n}, where the manifest "
                                  f"needs a {rank} on n = {manifest['n']}")
            slices.append(f)
        return slices
    v = load("v", "vector")
    p = load("p", "scalar")
    R = load("R", "symtensor")
    dv = load("dv", "vector", required=False)
    dR = load("dR", "symtensor", required=False)
    state = NSRState(
        v=TimeTrack(times, v, dv),
        p=TimeTrack(times, p),
        R=TimeTrack(times, R, dR),
        theta=float(manifest["theta"]),
        nu=float(manifest["nu"]),
        q=int(manifest["q"]),
        T=float(manifest["T"]),
    )
    return state, manifest
