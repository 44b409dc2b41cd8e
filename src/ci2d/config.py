"""Run configuration: a single JSON document with explicit defaults."""

from __future__ import annotations

import copy
import json
from fractions import Fraction

from .errors import ConfigError
from .param_schedule import PaperSchedule, ToyParams, toy_params

DEFAULT_CONFIG = {
    "mode": "toy",
    "theta": 0.4,
    "nu": 1.0,
    "grid": {"n": 256},
    "time": {"n_t": 17, "T": 1.0, "t_pad": 0.1},
    "toy": {"lambda": 50, "sigma_inv": 10, "r": 2, "mu": 5,
            "ell": 0.05, "A": 5.0, "eps": 0.04},
    "paper": {"A": 390625, "B": 2561, "alpha": "1/8",
              "beta": "1/1000000000", "q": 0},
    "initial": {"generator": "shear", "m": 1, "seed": 7},
    "out": "ci2d_out",
    "tolerances": {"residual": 1e-4, "init_residual": 1e-6},
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path) as fh:
        user = json.load(fh)
    cfg = _merge(DEFAULT_CONFIG, user)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if cfg["mode"] not in ("toy", "paper"):
        raise ConfigError(f"mode must be toy or paper, got {cfg['mode']!r}")
    if not (0.0 <= float(cfg["theta"]) < 1.0):
        raise ConfigError("theta must lie in [0, 1)")
    if float(cfg["nu"]) <= 0:
        raise ConfigError("nu must be positive")
    t = cfg["time"]
    if t["n_t"] < 2 or t["T"] <= 0 or t["t_pad"] < 0:
        raise ConfigError("time section needs n_t >= 2, T > 0, t_pad >= 0")


def toy_from_config(cfg: dict) -> ToyParams:
    toy = cfg["toy"]
    return toy_params(int(toy["lambda"]), int(toy["sigma_inv"]), int(toy["r"]),
                      int(toy["mu"]), float(toy["ell"]), float(cfg["theta"]),
                      float(cfg["nu"]), a_const=float(toy.get("A", 1.0)),
                      eps_next=float(toy.get("eps", 1.0)))


def schedule_from_config(cfg: dict) -> PaperSchedule:
    pc = cfg["paper"]
    return PaperSchedule(
        theta=Fraction(str(cfg["theta"])) if not isinstance(cfg["theta"], str)
        else Fraction(cfg["theta"]),
        alpha=Fraction(str(pc["alpha"])),
        B=int(pc["B"]),
        beta=Fraction(str(pc["beta"])),
        A=int(pc["A"]),
        q=int(pc.get("q", 0)),
    )
