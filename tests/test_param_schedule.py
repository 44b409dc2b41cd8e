from fractions import Fraction as F

import pytest

from ci2d import (PaperSchedule, PowerOfA, theta_star, toy_params,
                  validate_schedule)
from ci2d.config import schedule_from_config
from ci2d.errors import ConfigError

WITNESS = dict(theta=F(0), alpha=F(1, 8), B=2561, beta=F(1, 10 ** 9), A=5 ** 8, q=0)


def test_theta_star_values():
    # float values and continuity are the `schedule.theta_star` property
    assert theta_star(F(3, 4)) == F(1, 2)
    with pytest.raises(ConfigError):
        theta_star(1.0)
    with pytest.raises(ConfigError):
        theta_star(-0.1)


def test_witness_schedule_passes_exactly():
    rep = validate_schedule(PaperSchedule(**WITNESS))
    assert not rep.failed
    labels = [row[0] for row in rep.rows]
    for expected in ("7.16+", "++.1", "++.2", "++.3", "++.4", "++.5",
                     "ell_lambda8", "holder_p", "ordering"):
        assert expected in labels
    # independent exact recomputation of the binding margins
    assert F(1, 8) <= (1 - F(0)) / 8
    assert 2561 * F(1, 8) > 320
    assert F(1, 10 ** 9) < F(1, 100 * 2561 ** 2)
    assert 2 * F(1, 10 ** 9) * 2561 ** 2 <= F(1, 50)


def test_exponent_arithmetic_never_materializes():
    s = PaperSchedule(**WITNESS)
    lam1 = s.lam(1)
    assert lam1.exponent == F(2561)
    assert s.lam(2) ** 1 == s.lam(2)
    assert s.eps(1) < s.eps(0)          # amplitudes decrease
    assert s.ell < s.eps(1)             # exponent -20 * 1 vs tiny negative
    with pytest.raises(ConfigError):
        PowerOfA(5, F(3)) < PowerOfA(7, F(3))


def test_schedule_config_roundtrip():
    # the config's paper section, as JSON holds it, gives the exact witness
    cfg = {"theta": 0, "paper": {"A": 5 ** 8, "B": 2561, "alpha": "1/8",
                                 "beta": "1/1000000000", "q": 0}}
    assert schedule_from_config(cfg) == PaperSchedule(**WITNESS)
    for theta in (0.4, "0.4", "2/5"):
        assert schedule_from_config(dict(cfg, theta=theta)).theta == F(2, 5)


def test_wave_exponent_ordering():
    s = PaperSchedule(**WITNESS)
    one = PowerOfA(s.A, F(0))
    assert one < s.r < s.mu
    assert s.mu.exponent < -s.sigma.exponent < s.lam(1).exponent


def test_toy_params_examples():
    # divisibility errors and ordering warnings are the
    # `schedule.toy_divisibility` property
    assert toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0).wp.lam_sigma == 5
    with pytest.raises(ConfigError):
        toy_params(50, 10, 2, 5, 1.5, 0.4, 1.0)
