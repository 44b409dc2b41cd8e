from fractions import Fraction as F

import pytest

from ci2d import (ConstraintViolation, PaperSchedule, PowerOfA, theta_star,
                  toy_params, validate_schedule)
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


@pytest.mark.parametrize("mutation,label", [
    (dict(WITNESS, B=100), "++.1"),
    (dict(WITNESS, beta=F(1, 100)), "++.2"),
    (dict(WITNESS, A=5 ** 8 + 5), "++.3"),
    (dict(WITNESS, A=6 ** 8), "++.3"),
    (dict(WITNESS, theta=F(9, 10), alpha=F(1, 4)), "7.16+"),
    (dict(WITNESS, beta=F(7, 2561)), "ell_lambda8"),
])
def test_single_constraint_mutations_labeled(mutation, label):
    with pytest.raises(ConstraintViolation) as err:
        validate_schedule(PaperSchedule(**mutation))
    assert label in err.value.labels


def test_holder_exponent_identities():
    s = PaperSchedule(**WITNESS)
    p = s.p_holder
    assert 1 < p < 2
    assert (1 - 6 * s.alpha) * (2 - F(2) / p) == s.alpha
    # frequency-side identity as exact exponents of the common base
    assert s.r.exponent * (2 - F(2) / p) == s.alpha * s.lam(1).exponent


def test_exponent_arithmetic_never_materializes():
    s = PaperSchedule(**WITNESS)
    lam1 = s.lam(1)
    assert lam1.exponent == F(2561)
    assert s.lam(2) ** 1 == s.lam(2)
    assert s.eps(1) < s.eps(0)          # amplitudes decrease
    assert s.ell < s.eps(1)             # exponent -20 * 1 vs tiny negative
    with pytest.raises(ConfigError):
        lam1.as_int()
    assert PowerOfA(5, F(3)).as_int() == 125
    with pytest.raises(ConfigError):
        PowerOfA(5, F(3)) < PowerOfA(7, F(3))


def test_schedule_config_roundtrip():
    s = PaperSchedule(**WITNESS)
    cfg = s.as_config()
    back = PaperSchedule(theta=F(0), alpha=F(cfg["alpha"]), B=cfg["B"],
                         beta=F(cfg["beta"]), A=cfg["A"], q=cfg["q"])
    assert back == s


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
