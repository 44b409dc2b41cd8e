"""Exact arithmetic for the iteration's parameter system.

The principal frequency grows as a double exponential lambda_q = A^(B^q),
so every derived quantity is kept as a rational exponent over the common
base A and never materialized.  All schedule inequalities are monotone in
these exponents, which makes the constraint gate exact.

Desk-scale runs use ToyParams instead: small integers obeying the
divisibility rules, with the asymptotic separations downgraded to
warnings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .building_blocks import WaveParams
from .errors import ConfigError, ConstraintViolation


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def theta_star(theta) -> float:
    """Dissipation-strength surrogate: 2 theta - 1 above 1/2, else 0."""
    th = _as_fraction(theta)
    if not (0 <= th < 1):
        raise ConfigError(f"theta must lie in [0, 1), got {theta}")
    ts = 2 * th - 1 if th > Fraction(1, 2) else Fraction(0)
    return ts if isinstance(theta, (Fraction, str)) else float(ts)


def iroot(x: int, n: int) -> int:
    """Floor integer n-th root by Newton iteration."""
    if x < 0 or n < 1:
        raise ConfigError("iroot needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    guess = 1 << (-(-x.bit_length() // n))
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            return guess
        guess = nxt


@dataclass(frozen=True)
class PowerOfA:
    """The exact value A**exponent for a rational exponent."""

    base: int
    exponent: Fraction

    def _cmp_check(self, other: "PowerOfA"):
        if self.base != other.base:
            raise ConfigError("comparing powers of different bases")

    def __le__(self, other):
        self._cmp_check(other)
        return self.exponent <= other.exponent

    def __lt__(self, other):
        self._cmp_check(other)
        return self.exponent < other.exponent

    def __mul__(self, other: "PowerOfA") -> "PowerOfA":
        self._cmp_check(other)
        return PowerOfA(self.base, self.exponent + other.exponent)

    def __pow__(self, e) -> "PowerOfA":
        return PowerOfA(self.base, self.exponent * _as_fraction(e))

    def as_int(self) -> int:
        """Materialize when the exponent is a modest nonnegative integer."""
        e = self.exponent
        if e.denominator != 1 or e < 0 or e > 64:
            raise ConfigError(f"refusing to materialize {self}")
        return self.base ** int(e)

    def __repr__(self):
        return f"{self.base}^({self.exponent})"


@dataclass
class ScheduleReport:
    rows: list = field(default_factory=list)  # (label, description, ok, margin)

    def add(self, label: str, description: str, ok: bool, margin: str):
        self.rows.append((label, description, bool(ok), margin))

    @property
    def failed(self) -> list:
        return [r[0] for r in self.rows if not r[2]]


@dataclass(frozen=True)
class PaperSchedule:
    """Exact parameter tuple (theta, alpha, B, beta, A, q)."""

    theta: Fraction
    alpha: Fraction
    B: int
    beta: Fraction
    A: int
    q: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", _as_fraction(self.theta))
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        if not (0 <= self.theta < 1):
            raise ConfigError("theta must lie in [0, 1)")
        if self.q < 0 or self.B < 1 or self.A < 2:
            raise ConfigError("need q >= 0, B >= 1, A >= 2")

    @property
    def theta_star(self) -> Fraction:
        return theta_star(self.theta)

    def _pow(self, e) -> PowerOfA:
        return PowerOfA(self.A, _as_fraction(e))

    def lam(self, q: int | None = None) -> PowerOfA:
        q = self.q if q is None else q
        return self._pow(Fraction(self.B) ** q)

    def eps(self, q: int | None = None) -> PowerOfA:
        q = self.q if q is None else q
        return self._pow(-2 * self.beta * Fraction(self.B) ** q)

    @property
    def ell(self) -> PowerOfA:
        return self.lam() ** (-20)

    @property
    def r(self) -> PowerOfA:
        return self.lam(self.q + 1) ** (1 - 6 * self.alpha)

    @property
    def mu(self) -> PowerOfA:
        return self.lam(self.q + 1) ** (1 - 4 * self.alpha)

    @property
    def sigma(self) -> PowerOfA:
        return self.lam(self.q + 1) ** (-(1 - 2 * self.alpha))

    @property
    def p_holder(self) -> Fraction:
        return (2 - 12 * self.alpha) / (2 - 13 * self.alpha)

    def as_config(self) -> dict:
        """Round-trippable JSON form (the CLI config's exact-mode section)."""
        return {"A": self.A, "B": self.B, "alpha": str(self.alpha),
                "beta": str(self.beta), "q": self.q}


def _root_in_5n(A: int, alpha: Fraction) -> bool:
    """Exact check that A**alpha is an integer multiple of 5."""
    x = A ** alpha.numerator
    rt = iroot(x, alpha.denominator)
    return rt ** alpha.denominator == x and rt % 5 == 0


def validate_schedule(s: PaperSchedule) -> ScheduleReport:
    """Evaluate every schedule constraint exactly; raise on any failure.

    The raised ConstraintViolation carries the labels of all failed rows
    and the full report, so single-constraint mutations are attributable.
    """
    rep = ScheduleReport()
    a, B, beta, A = s.alpha, s.B, s.beta, s.A
    ts = s.theta_star

    bound = (1 - ts) / 8
    rep.add("7.16+", "alpha <= (1 - theta*)/8",
            0 < a <= bound, f"alpha={a}, bound={bound}")
    rep.add("++.1", "B > 320/alpha",
            a > 0 and Fraction(B) * a > 320, f"B*alpha={Fraction(B) * a}, need > 320")
    rep.add("++.2", "0 < beta < 1/(100 B^2)",
            0 < beta < Fraction(1, 100 * B * B),
            f"beta={beta}, bound={Fraction(1, 100 * B * B)}")
    ok3 = A % 5 == 0 and a > 0 and _root_in_5n(A, a)
    rep.add("++.3", "A in 5N and A^alpha in 5N", ok3, f"A={A}, alpha={a}")
    # lambda_q = A^(B^q) inherits both divisibilities from A and A^alpha
    rep.add("++.4", "lambda_q in 5N and lambda_q^alpha in 5N (inherited)",
            ok3, "follows from the base case for every q")
    growth = 2 * beta * Fraction(B) ** 2
    rep.add("++.5", "eps_{q+2}^-1 = lambda_q^(2 beta B^2) <= lambda_q^(1/50), increasing",
            growth <= Fraction(1, 50) and B > 1,
            f"2*beta*B^2={growth}, need <= 1/50")
    rep.add("ell_lambda8", "ell * lambda_q^8 <= eps_{q+1}",
            -12 <= -2 * beta * B, f"exponents: -12 vs -2*beta*B={-2 * beta * B}")
    if 0 < a < Fraction(2, 13):
        p = s.p_holder
        ok_p = 1 < p < 2 and (1 - 6 * a) * (2 - 2 / p) == a
        rep.add("holder_p", "p = (2-12a)/(2-13a) in (1,2) with r^(2-2/p) = lambda^a",
                ok_p, f"p={p}")
    else:
        rep.add("holder_p", "p = (2-12a)/(2-13a) in (1,2)", False, f"alpha={a} out of range")
    ordering_ok = 0 < a and (1 - 6 * a) > 0
    rep.add("ordering", "exponents 0 < 1-6a < 1-4a < 1-2a < 1",
            ordering_ok, f"r-exponent={1 - 6 * a}")
    if rep.failed:
        raise ConstraintViolation(rep.failed, rep)
    return rep


@dataclass(frozen=True)
class ToyParams:
    """Desk-scale wave parameters plus the step's scalar knobs."""

    wp: WaveParams
    ell: float
    theta: float
    nu: float
    a_const: float = 1.0   # amplitude constant of the coefficient formula
    eps_next: float = 1.0  # target stress size entering the coefficients

    def __post_init__(self):
        if not (0 < self.ell < 1):
            raise ConfigError(f"ell must lie in (0, 1), got {self.ell}")
        if not (0 <= self.theta <= 1):
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if self.nu <= 0 or self.a_const <= 0 or self.eps_next <= 0:
            raise ConfigError("nu, a_const and eps_next must be positive")


def toy_params(lam: int, sigma_inv: int, r: int, mu: int, ell: float,
               theta: float, nu: float, a_const: float = 1.0,
               eps_next: float = 1.0) -> ToyParams:
    """Validate desk-scale parameters; divisibility errors are fatal,
    scale-separation issues only warn."""
    wp = WaveParams(lam, sigma_inv, r, mu)
    tp = ToyParams(wp, float(ell), float(theta), float(nu),
                   float(a_const), float(eps_next))
    for note in wp.separation_warnings():
        warnings.warn(note, stacklevel=2)
    return tp
