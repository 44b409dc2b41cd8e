"""Diagnostics emission: step CSV, per-slice norm reports, spectra."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .ci_step import NSRState, StepDiagnostics, nsr_residual
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


def write_spectrum_csv(path: str, state: NSRState) -> None:
    """Shell spectrum of v at the middle time node."""
    shells, energy = energy_spectrum(state.v.slices[len(state.v.slices) // 2])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shell", "energy"])
        for s, e in zip(shells, energy):
            writer.writerow([int(s), repr(float(e))])


def state_report(state: NSRState) -> dict:
    """Per-slice norms of v and the stress, plus residual sizes."""
    rows = []
    for i, t in enumerate(state.times):
        v, R = state.v.slices[i], state.R.slices[i]
        rows.append({
            "t": float(t),
            "v_L1": l1_norm(v), "v_L2": lp_norm(v, 2), "v_Linf": lp_norm(v, np.inf),
            "v_C1": cn_norm(v, 1),
            "R_L1": l1_norm(R), "R_L2": lp_norm(R, 2), "R_Linf": lp_norm(R, np.inf),
            "R_C1": cn_norm(R, 1),
        })
    res = nsr_residual(state)
    return {
        "slices": rows,
        "R_LinfL1": max(r["R_L1"] for r in rows),
        "residual": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                     for k, v in res.items()},
    }


def write_state_report(dirpath: str, state: NSRState) -> dict:
    rep = state_report(state)
    with open(os.path.join(dirpath, "diagnose.json"), "w") as fh:
        json.dump(rep, fh, indent=1, sort_keys=True)
    write_spectrum_csv(os.path.join(dirpath, "spectrum.csv"), state)
    return rep
