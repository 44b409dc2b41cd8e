from fractions import Fraction as F

import pytest

from ci2d import PaperSchedule, theta_star, toy_params, validate_schedule
from ci2d.config import schedule_from_config
from ci2d.errors import ConfigError
from ci2d.param_schedule import _root_in_5n, iroot

WITNESS = dict(theta=F(0), alpha=F(1, 8), B=2561, beta=F(1, 10 ** 9), A=5 ** 8)


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


def test_schedule_config_roundtrip():
    # the config's paper section, as JSON holds it, gives the exact witness
    cfg = {"theta": 0, "paper": {"A": 5 ** 8, "B": 2561, "alpha": "1/8",
                                 "beta": "1/1000000000"}}
    assert schedule_from_config(cfg) == PaperSchedule(**WITNESS)
    for theta in (0.4, "0.4", "2/5"):
        assert schedule_from_config(dict(cfg, theta=theta)).theta == F(2, 5)


def test_iroot_is_the_floor_root():
    for x in range(200):
        for n in range(1, 9):
            r = iroot(x, n)
            assert r ** n <= x < (r + 1) ** n, (x, n)
    assert iroot(5 ** 40, 5) == 5 ** 8 and iroot(5 ** 40 - 1, 5) == 5 ** 8 - 1
    # a degree past the bit length has the root 1, with no power formed
    assert iroot(5 ** 8, 10 ** 6) == 1


def test_power_of_a_in_5n_matches_the_formed_power():
    # oracle: A^alpha formed as the den-th root of A^num, on small pairs
    for A in (5, 10, 25, 125, 5 ** 8, 5 ** 8 + 5, 6 ** 8, 10 ** 8, 15 ** 4):
        for alpha in (F(1, 8), F(3, 8), F(1, 4), F(2, 3), F(1, 2), F(1)):
            x = A ** alpha.numerator
            rt = iroot(x, alpha.denominator)
            formed = rt ** alpha.denominator == x and rt % 5 == 0
            assert _root_in_5n(A, alpha) == formed, (A, alpha)


def test_toy_params_examples():
    # divisibility errors and ordering warnings are the
    # `schedule.toy_divisibility` property
    assert toy_params(50, 10, 2, 5, 0.05, 0.4, 1.0).wp.lam_sigma == 5
    with pytest.raises(ConfigError):
        toy_params(50, 10, 2, 5, 1.5, 0.4, 1.0)
