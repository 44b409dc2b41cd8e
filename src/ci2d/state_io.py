"""On-disk formats: the CI2D field dump and state directories.

Field dump layout (format tag "CI2D v1"):

    8 bytes   magic "CI2DFLD1"
    4 bytes   little-endian uint32 header length L
    L bytes   UTF-8 JSON: {"n", "rank", "reality", "time", "units"}
    payload   float64 little-endian physical samples, row-major,
              components concatenated (scalar: 1; vector: x then y;
              symtensor: t11 then t12).

Every field is real, so "reality" is always true; a dump whose header
says false is refused.

A state directory holds a manifest.json with the keys
{T, t_pad, n, n_t, theta, nu, q, mode, params} plus one dump per field
slice: v_XXXX, p_XXXX, R_XXXX and the derivative channels dv_XXXX /
dR_XXXX when available: a channel is dumped at every node or at none.

`read_state` checks the manifest and every dump's header up front and
reads no samples: each track of the state it returns reads a dump when a
slice is asked for (`SliceReader`), anew at each access.  The step's
sweeps and the state report ask for each slice once per sweep, so a
state on disk is never held whole in memory.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .ci_step import NSRState
from .config import finite_json
from .errors import ConfigError
from .spectral_field import (_RANK_NCOMP, SliceReader, SpectralField, TimeTrack, analyze,
                             make_grid)

MAGIC = b"CI2DFLD1"


def write_field(path: str, field: SpectralField, time: float = 0.0) -> None:
    header = {
        "n": field.grid.n,
        "rank": field.rank,
        "reality": True,
        "time": float(time),
        "units": "1",
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = np.ascontiguousarray(field.values(), dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def _check_header(fh, path: str) -> tuple:
    """(header, sample shape) of an open dump, read up to its payload; a
    bad magic, a header that does not decode or holds a number that is not
    finite, an unknown rank, a field that is not real or a payload whose
    byte count differs from the header's raises ConfigError."""
    if fh.read(8) != MAGIC:
        raise ConfigError(f"{path}: not a CI2D field dump")
    try:
        (length,) = struct.unpack("<I", fh.read(4))
        header = finite_json(fh.read(length).decode("utf-8"), path)
        n, rank, reality = int(header["n"]), header["rank"], header["reality"]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: header does not decode ({exc})") from None
    if rank not in _RANK_NCOMP:
        raise ConfigError(f"{path}: unknown rank {rank!r}")
    if reality is not True:
        raise ConfigError(f"{path}: not a real field (reality {reality!r})")
    shape = (_RANK_NCOMP[rank], n, n)
    have, need = os.fstat(fh.fileno()).st_size - fh.tell(), 8 * int(np.prod(shape))
    if have != need:
        raise ConfigError(f"{path}: payload has {have} bytes, its header needs {need}")
    return header, shape


def read_field(path: str):
    """Returns (SpectralField, header dict); a malformed dump, or one with a
    sample that is not finite, raises ConfigError."""
    with open(path, "rb") as fh:
        header, shape = _check_header(fh, path)
        vals = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    if not np.isfinite(vals).all():
        raise ConfigError(f"{path}: a sample is not finite")
    return analyze(make_grid(shape[1]), vals, header["rank"]), header


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
    """Returns (NSRState, manifest), whose tracks read each dump's samples
    only when a slice is asked for (`SliceReader`).  Up front, a missing or
    malformed manifest or one with a number that is not finite, a missing
    dump (a derivative channel may lack every dump, not some), a malformed
    dump header, or a dump whose grid or rank does not fit the manifest
    raises ConfigError; a sample that is not finite raises it when its dump
    is read."""
    path = os.path.join(dirpath, "manifest.json")
    if not os.path.isfile(path):
        raise ConfigError(f"{dirpath}: no manifest.json, not a state directory")
    try:
        with open(path) as fh:
            manifest = finite_json(fh.read(), path)
    except ValueError as exc:
        raise ConfigError(f"{path}: manifest does not parse ({exc})") from None
    fields = manifest if isinstance(manifest, dict) else {}
    for key, kind in _MANIFEST_TYPES.items():
        if type(fields.get(key)) not in (kind, int):   # a float key may hold an int
            raise ConfigError(f"{path}: manifest has no {kind.__name__} {key!r}")
    from .generators import time_grid
    times = time_grid(manifest["T"], manifest["t_pad"], manifest["n_t"])
    n = manifest["n"]

    def reader(prefix, rank, required=True):
        """The track's slices; None for a channel with no dump at any node."""
        paths = [os.path.join(dirpath, _slice_name(prefix, i)) for i in range(times.size)]
        missing = [path for path in paths if not os.path.exists(path)]
        if missing and len(missing) == len(paths) and not required:
            return None
        if missing:
            raise ConfigError(f"state directory missing {missing[0]}")
        for path in paths:
            with open(path, "rb") as fh:
                header, shape = _check_header(fh, path)
            if (shape[1], header["rank"]) != (n, rank):
                raise ConfigError(f"{path}: a {header['rank']} on n = {shape[1]}, where "
                                  f"the manifest needs a {rank} on n = {n}")
        return SliceReader(make_grid(n), rank, len(paths), lambda i: read_field(paths[i])[0])

    v, p, R = reader("v", "vector"), reader("p", "scalar"), reader("R", "symtensor")
    dv, dR = reader("dv", "vector", False), reader("dR", "symtensor", False)
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
