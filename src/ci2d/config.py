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
    """The defaults merged with the JSON object at path; a file that does
    not load or a value of the wrong type raises ConfigError."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: config does not load ({exc})") from None
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: config must be a JSON object, not {type(user).__name__}")
    cfg = _merge(DEFAULT_CONFIG, user)
    validate_config(cfg)
    return cfg


def _check_kinds(cfg: dict, default: dict, where: str = "") -> None:
    """Every section of the defaults must stay an object and every number
    keep its kind (a number may hold an integer)."""
    for key, ref in default.items():
        val, name = cfg.get(key), where + key
        if isinstance(ref, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section {name} must be an object, got {val!r}")
            _check_kinds(val, ref, name + ".")
        elif type(ref) in (int, float) and type(val) not in (type(ref), int):
            raise ConfigError(f"config value {name} must be "
                              f"{'an integer' if type(ref) is int else 'a number'}, got {val!r}")


# The generator keys that `generators.build_initial` reads, each with a value
# of its kind (integer or number).  Their defaults live with the generators,
# so only a key that is present is checked.
_INITIAL_KINDS = {"seed": 0, "m": 0, "band": 0, "decay": 0.0, "amplitude": 0.0}


def validate_config(cfg: dict) -> None:
    _check_kinds(cfg, DEFAULT_CONFIG)
    init = cfg["initial"]
    _check_kinds(init, {k: v for k, v in _INITIAL_KINDS.items() if k in init}, "initial.")
    support = init.get("support")
    if support is not None and not (
            isinstance(support, list) and len(support) == 2
            and all(type(x) in (int, float) for x in support) and support[0] < support[1]):
        raise ConfigError(f"config value initial.support must be null or [lo, hi] "
                          f"with lo < hi, got {support!r}")
    if cfg["mode"] not in ("toy", "paper"):
        raise ConfigError(f"mode must be toy or paper, got {cfg['mode']!r}")
    if not (0.0 <= cfg["theta"] < 1.0):
        raise ConfigError("theta must lie in [0, 1)")
    if cfg["nu"] <= 0:
        raise ConfigError("nu must be positive")
    t = cfg["time"]
    if t["n_t"] < 2 or t["T"] <= 0 or t["t_pad"] < 0:
        raise ConfigError("time section needs n_t >= 2, T > 0, t_pad >= 0")
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise ConfigError(f"config value out must be a nonempty string, got {cfg['out']!r}")


def toy_from_config(cfg: dict) -> ToyParams:
    toy = cfg["toy"]
    return toy_params(int(toy["lambda"]), int(toy["sigma_inv"]), int(toy["r"]),
                      int(toy["mu"]), float(toy["ell"]), float(cfg["theta"]),
                      float(cfg["nu"]), a_const=float(toy["A"]), eps_next=float(toy["eps"]))


def _fraction(pc: dict, key: str) -> Fraction:
    """paper.<key> as an exact fraction: a string such as "1/8" or a number."""
    try:
        return Fraction(str(pc[key]))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"config value paper.{key} must be a fraction, "
                          f"got {pc[key]!r}") from None


def schedule_from_config(cfg: dict) -> PaperSchedule:
    pc = cfg["paper"]
    return PaperSchedule(
        theta=Fraction(str(cfg["theta"])),
        alpha=_fraction(pc, "alpha"),
        B=int(pc["B"]),
        beta=_fraction(pc, "beta"),
        A=int(pc["A"]),
        q=int(pc.get("q", 0)),
    )
