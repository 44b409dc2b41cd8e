"""Diagnostics emission: step CSV, per-slice norm reports, spectra."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .ci_step import (NSRState, StepDiagnostics, _residual_report, _slice_residual,
                      _state_nodes)
from .errors import NonFiniteValue
from .spectral_field import SpectralField, cn_norm, l1_norm, lp_norm

CSV_COLUMNS = ("quantity", "paper_ref", "value", "predicted_scaling", "margin")


def write_step_csv(path: str, diags: StepDiagnostics) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in diags.rows:
            writer.writerow([
                row["quantity"], row["ref"],
                repr(float(row["value"])),
                "" if row["predicted_scaling"] is None else repr(float(row["predicted_scaling"])),
                "" if row["margin"] is None else repr(float(row["margin"])),
            ])


def energy_spectrum(field: SpectralField) -> tuple:
    """Isotropic shell spectrum: E_j = (2pi)^2/2 sum_{|xi| in [j-1/2, j+1/2)} |c|^2."""
    rad, mag2 = field.mode_magnitudes()
    shells = np.rint(rad).astype(int)
    energy = np.bincount(shells.ravel(), weights=mag2.ravel())
    return np.arange(energy.size), 0.5 * (2 * np.pi) ** 2 * energy


def write_spectrum_csv(path: str, shells: np.ndarray, energy: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shell", "energy"])
        for s, e in zip(shells, energy):
            writer.writerow([int(s), repr(float(e))])


def state_report(state: NSRState) -> dict:
    """Per-slice norms of v and the stress, plus residual sizes, made node
    by node from one read of each slice (`_state_nodes`), and under
    "spectrum" the shell spectrum (shells, energy) of v at the middle
    time node."""
    rows, per_node, mid = [], [], len(state.times) // 2
    for i, (t, (v, dv, p, R)) in enumerate(zip(state.times, _state_nodes(state))):
        rows.append({
            "t": float(t),
            "v_L1": l1_norm(v), "v_L2": lp_norm(v, 2), "v_Linf": lp_norm(v, np.inf),
            "v_C1": cn_norm(v, 1),
            "R_L1": l1_norm(R), "R_L2": lp_norm(R, 2), "R_Linf": lp_norm(R, np.inf),
            "R_C1": cn_norm(R, 1),
        })
        per_node.append(_slice_residual(v, dv, p, R, state.theta, state.nu))
        if i == mid:
            spectrum = energy_spectrum(v)
    res = _residual_report(*zip(*per_node), state.times, state.T)
    return {
        "slices": rows,
        "R_LinfL1": max(r["R_L1"] for r in rows),
        "residual": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                     for k, v in res.items()},
        "spectrum": spectrum,
    }


def json_report(report: dict) -> str:
    """A report's JSON text; a NaN or infinite value in it raises
    NonFiniteValue, so no report is written that JSON cannot hold."""
    try:
        return json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue(f"a report value is not finite ({exc})") from None


def write_state_report(dirpath: str, state: NSRState) -> dict:
    """diagnose.json and spectrum.csv of the state, in the directory made
    once the report is complete, so a report that fails leaves no
    directory; returns the report without its spectrum."""
    rep = state_report(state)
    spectrum = rep.pop("spectrum")
    text = json_report(rep)
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "diagnose.json"), "w") as fh:
        fh.write(text)
    write_spectrum_csv(os.path.join(dirpath, "spectrum.csv"), *spectrum)
    return rep
