"""Classical special functions: Gamma, Beta, Pochhammer, 2F1, 1F1, Luke's bound.

The hypergeometric series are summed by term recurrence (ratio form).  For
negative argument the Gauss series goes through the Pfaff transformation
z -> z/(z-1) and the Kummer series through 1F1(b;c;z) = e^z 1F1(c-b;c;-z),
so every summed term is positive and no cancellation occurs; their factors
(1-z)^(-a) and e^z are applied, charged and range-checked by
results._scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import DEFAULT_POLICY, QuadPolicy
from .results import _EPS, EvalResult, _scaled

__all__ = [
    "HyperTriple",
    "log_gamma",
    "beta",
    "gauss_2f1",
    "gauss_2f1_raw",
    "kummer_1f1",
    "luke_bound_rhs",
]


@dataclass(frozen=True)
class HyperTriple:
    """Hypergeometric parameter triple (a, b, c) with c > b > 0.

    The first parameter doubles as the series exponent lambda in the
    Mathieu-type kernels and is unrestricted.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.inf > self.c > self.b > 0.0):
            raise DomainError(f"require finite a, c > b > 0, got a={self.a}, b={self.b}, c={self.c}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0."""
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _positive_series(ratio, rel_tol: float, max_terms: int,
                     rho_floor: float = 0.0) -> EvalResult:
    # sum 1 + t_1 + t_2 + ... where t_{n+1} = t_n * ratio(n); the projected
    # geometric tail |t_n| * rho/(1-rho) must stay below rel_tol * |sum|
    # three times in a row.  rho_floor is the known asymptotic term ratio
    # (the series argument), which the running ratio may approach from below.
    term = 1.0
    total = 1.0
    hits = 0
    n = 0
    while n < max_terms:
        term *= ratio(n)
        total += term
        n += 1
        rho = max(abs(ratio(n)), rho_floor)
        if rho < 1.0 and abs(term) * rho / (1.0 - rho) <= rel_tol * abs(total):
            hits += 1
            if hits >= 3:
                break
        else:
            hits = 0
    rho = max(abs(ratio(n)), rho_floor)
    tail = abs(term) * rho / (1.0 - rho) if rho < 1.0 else math.inf
    return EvalResult(total, tail, n + 1, hits >= 3 and math.isfinite(tail))


def gauss_2f1_raw(a: float, b: float, c: float, z: float,
                  policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Gauss hypergeometric series 2F1(a, b; c; z) for raw parameters.

    Accepts -1 <= z < 1 and any c that is not a nonpositive integer; callers
    that also need the Euler-integral structure should go through gauss_2f1
    and HyperTriple.  For z < 0 the Pfaff transformation maps onto the
    argument z/(z-1) in [0, 1/2], where all terms are positive for the
    parameter ranges used here.
    """
    if not (-1.0 <= z < 1.0):
        raise DomainError(f"gauss_2f1 requires -1 <= z < 1, got z={z}")
    if c <= 0.0 and c == int(c):
        raise DomainError(f"gauss_2f1 undefined at nonpositive integer c={c}")
    if z < 0.0:
        zp, bb = z / (z - 1.0), c - b
    else:
        zp, bb = z, b
    res = _positive_series(lambda k: (a + k) * (bb + k) / ((c + k) * (k + 1.0)) * zp,
                           policy.rel_tol, policy.max_evals, rho_floor=max(zp, 0.0))
    if z >= 0.0:
        return res
    return _scaled(res, *_pfaff_factor(a, z), policy, f"gauss_2f1 {{}} at z={z!r}")


def _pfaff_factor(a: float, z: float) -> tuple[float, float]:
    # log (1-z)^(-a) at z < 0 and its error: log1p and the product round it by 1.5
    # ulps of itself; the ulp of w = z/(z-1) moves log F by a w/(1-w) = a |z| ulps
    log_scale = -a * math.log1p(-z)
    return log_scale, (1.5 * abs(log_scale) + abs(a * z)) * _EPS


def gauss_2f1(triple: HyperTriple, z: float, policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """2F1(a, b; c; z) on the standing domain c > b > 0, -1 <= z < 1."""
    return gauss_2f1_raw(triple.a, triple.b, triple.c, z, policy)


def kummer_1f1(b: float, c: float, z: float, policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Confluent hypergeometric series 1F1(b; c; z) for c > b > 0, real z."""
    if not (c > b > 0.0 and math.isfinite(z)):
        raise DomainError(f"kummer_1f1 requires c > b > 0, finite z, got b={b}, c={c}, z={z}")
    if z < 0.0:
        w, bb = -z, c - b
    else:
        w, bb = z, b
    res = _positive_series(lambda k: (bb + k) / ((c + k) * (k + 1.0)) * w,
                           policy.rel_tol, policy.max_evals)
    if z >= 0.0:
        return res
    return _scaled(res, z, 0.0, policy, f"kummer_1f1 {{}} at z={z!r}")


def luke_bound_rhs(a: float, b: float, c: float, z: float) -> float:
    """Luke's rational upper bound for 2F1(a, b; c; -z).

    Valid for b in (0, 1], c >= a > 0 and z > 0; parameters outside that
    window raise, since the inequality is not guaranteed there.
    """
    if not (0.0 < b <= 1.0):
        raise DomainError(f"luke_bound_rhs requires b in (0, 1], got b={b}")
    if not (c >= a > 0.0):
        raise DomainError(f"luke_bound_rhs requires c >= a > 0, got a={a}, c={c}")
    if not (z > 0.0):
        raise DomainError(f"luke_bound_rhs requires z > 0, got z={z}")
    lead = 2.0 * a * b * (c + 1.0) / (c * (a + 1.0) * (b + 1.0))
    bracket = 1.0 - 2.0 * (c + 1.0) / (2.0 * (c + 1.0) + (a + 1.0) * (b + 1.0) * z)
    return 1.0 - lead * bracket
