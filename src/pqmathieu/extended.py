"""(p,q)-extended Beta, Gauss, and Kummer hypergeometric functions.

The extension weights the Euler integrals with exp(-p/t - q/(1-t)), p, q >= 0.
Two independent evaluation paths exist for the extended Gauss function: the
single Euler-type integral (primary, one quadrature call) and the series whose
coefficients are extended Beta values; the series path is the verification
oracle.  At z < 0 both series are summed in reflected form (t -> 1-t in the
Euler integral), over B(c-b+n, b; q, p) with positive terms: the Gauss
series in Pfaff form at ratio z/(z-1) < 1/2, the Kummer series at ratio -z;
results._scaled applies their factor (1-z)^(-a) or e^z.  The damped weight
t^(b-1) (1-t)^(c-b-1) e^(-p/t - q/(1-t)) of these integrals is
_beta_log_weight; the direct Mathieu route sums its head kernels
F_{p,q}(a, b; c; -x_n) against it as one integrand.  Every series
coefficient column B(x0+j, y; p, q), j = 0, 1, ..., comes from
_shared_column and grows in blocks of 32 entries, each from one shared
tanh-sinh node set (extended_beta_table), as its series advances.  Inside
one _command_scope (the CLI opens one per command) every Gauss or Kummer
series and every Mathieu kernel expansion with the same column key
(x0, y, (p, q), policy) reads one shared column, and the bound reuses its
four coefficient lists (_scoped holds the last of each kind).
The Mathieu expansions read B(c-b+m, b; q, p), which depends on neither r
nor the sequence; a Gauss or Kummer scan over z reads one column for all
its rows on one side of z = 0.  Outside a scope each call builds its own,
so a library call stays a pure function of its arguments.

All integrands are evaluated in log space from the exact endpoint distances
supplied by the quadrature engine, so (t**(x-1)) and ((1-t)**(y-1)) factors
keep full precision at both endpoints; the error floor charges the rounding
of the final exp.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

from .classical import HyperTriple, _pfaff_factor, beta, gauss_2f1
from .errors import DomainError
from .quadrature import DEFAULT_POLICY, QuadPolicy, integrate_finite_xc, integrate_log_moments
from .results import _EPS, EvalResult, _scaled

__all__ = [
    "PQParams",
    "extended_beta",
    "extended_beta_table",
    "extended_gauss_integral",
    "extended_gauss_series",
    "extended_kummer",
    "gauss_bound_rhs",
]


@dataclass(frozen=True)
class PQParams:
    """The extension pair (p, q) with p, q >= 0."""

    p: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        if not (self.p >= 0.0 and self.q >= 0.0 and math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError(f"extension parameters must satisfy p, q >= 0, got ({self.p}, {self.q})")

    @property
    def min_exponent(self) -> float:
        """X = (sqrt(p) + sqrt(q))**2 = min of p/t + q/(1-t) over (0,1)."""
        return (math.sqrt(self.p) + math.sqrt(self.q)) ** 2

    @property
    def envelope(self) -> float:
        """sup of the damping factor over (0,1): exp(-X)."""
        return math.exp(-self.min_exponent)

    def enveloped(self, res: EvalResult, policy: QuadPolicy, what: str) -> EvalResult:
        """res times exp(-X) through _scaled; two roots, a sum and a square
        round X by at most 2.5 ulps of itself."""
        x = self.min_exponent
        return _scaled(res, -x, 2.5 * x * _EPS, policy, what)

    def swapped(self) -> "PQParams":
        return PQParams(self.q, self.p)


def _beta_log_weight(x: float, y: float, pq: PQParams, a: float = 0.0, z: float = 0.0):
    # log of t^(x-1) (1-t)^(y-1) (1-zt)^(-a) e^(-p/t - q/(1-t))
    p, q = pq.p, pq.q

    def lg(t: float, dlo: float, dhi: float) -> float:
        lf = 0.0
        if a != 0.0:
            lf -= a * math.log1p(-z * t)
        if x != 1.0:
            lf += (x - 1.0) * math.log(dlo)
        if y != 1.0:
            lf += (y - 1.0) * math.log(dhi)
        if p != 0.0:
            lf -= p / dlo
        if q != 0.0:
            lf -= q / dhi
        return lf

    return lg


def extended_beta(x: float, y: float, pq: PQParams,
                  policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Extended Beta B(x, y; p, q) = int_0^1 t^(x-1) (1-t)^(y-1) e^(-p/t - q/(1-t)) dt.

    Reduces to the classical B(x, y) at p = q = 0 (where x, y > 0 is
    required).  With damping present the respective argument may be any real.
    """
    _check_beta_args(x, y, pq)
    return integrate_finite_xc(_beta_log_weight(x, y, pq), 0.0, 1.0, policy)


def _check_beta_args(x: float, y: float, pq: PQParams) -> None:
    if pq.p == 0.0 and x <= 0.0:
        raise DomainError(f"extended_beta requires x > 0 when p = 0, got x={x}")
    if pq.q == 0.0 and y <= 0.0:
        raise DomainError(f"extended_beta requires y > 0 when q = 0, got y={y}")


def extended_beta_table(x0: float, y: float, pq: PQParams, n: int,
                        policy: QuadPolicy = DEFAULT_POLICY) -> list[EvalResult]:
    """B(x0 + j, y; p, q) for j = 0 .. n-1 from one shared tanh-sinh node set.

    Each node evaluates the damped weight t^(x0-1) (1-t)^(y-1) e^(-p/t-q/(1-t))
    once and t^j comes from repeated multiplication.  Every entry carries its
    own value, error estimate and converged flag; its n_work is the node
    evaluations of the whole table, which may spend n * policy.max_evals of
    them (see quadrature.integrate_log_moments).
    """
    _check_beta_args(x0, y, pq)
    return integrate_log_moments(_beta_log_weight(x0, y, pq), 0.0, 1.0, n, policy)


# entries per node set when a coefficient table grows with its series
_BLOCK = 32


class _BetaColumn:
    """B(x0 + j, y; p, q) for j = 0, 1, ..., grown on demand in blocks of
    _BLOCK entries, each block from one extended_beta_table node set.

    Block k always starts at x0 + _BLOCK k, so an entry's value does not depend on
    who grew the column or how far.  block_work[k] counts the node
    evaluations of block k, and work(n) those of the blocks covering entries
    0 .. n-1.
    """

    def __init__(self, x0: float, y: float, pq: PQParams, policy: QuadPolicy):
        self.x0, self.y, self.pq, self.policy = x0, y, pq, policy
        self.values: list[float] = []
        self.errs: list[float] = []
        self.converged: list[bool] = []
        self.block_work: list[int] = []

    def grow(self, n: int) -> None:
        while len(self.values) < n:
            block = extended_beta_table(self.x0 + len(self.values), self.y, self.pq,
                                        _BLOCK, self.policy)
            self.block_work.append(block[0].n_work)
            for res in block:
                self.values.append(res.value)
                self.errs.append(res.err_est)
                self.converged.append(res.converged)

    def work(self, n: int) -> int:
        return sum(self.block_work[:-(-n // _BLOCK)])


# the memo of the current _command_scope: None outside any scope, else a dict
# holding, per kind, the key last asked for and what was built for it
_SCOPE: ContextVar[dict | None] = ContextVar("pqmathieu_command_scope", default=None)


@contextlib.contextmanager
def _command_scope():
    """Within the block, _scoped hands every caller asking for the same kind
    and key one object.  One entry per kind: a new key replaces the kind's
    entry, which bounds the memory a sweep holds.  The scope belongs to the
    current context, so code running in another thread does not see it."""
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _scoped(kind: str, key: tuple, build: Callable[[], object]):
    """The scope's object of this kind for key, or build() outside any scope."""
    memo = _SCOPE.get()
    if memo is None:
        return build()
    if kind not in memo or memo[kind][0] != key:
        memo[kind] = key, build()
    return memo[kind][1]


def _shared_column(x0: float, y: float, pq: PQParams, policy: QuadPolicy) -> _BetaColumn:
    """The scope's column B(x0 + j, y; p, q) under policy, or a fresh one
    outside any scope.  The one place a _BetaColumn is built: the Gauss and
    Kummer series and the Mathieu kernel expansions all read theirs here."""
    return _scoped("beta", (x0, y, pq, policy), lambda: _BetaColumn(x0, y, pq, policy))


def extended_gauss_integral(triple: HyperTriple, z: float, pq: PQParams,
                            policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Extended Gauss function by its Euler-type integral, valid for real z < 1.

    F_{p,q}(a,b;c;z) = (1/B(b,c-b)) int_0^1 t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a)
    e^(-p/t - q/(1-t)) dt; strictly positive for a > 0.
    """
    if not z < 1.0:
        raise DomainError(f"extended_gauss_integral requires z < 1, got z={z}")
    a, b, c = triple.a, triple.b, triple.c
    res = integrate_finite_xc(_beta_log_weight(b, c - b, pq, a, z), 0.0, 1.0, policy)
    norm = beta(b, c - b)
    return EvalResult(res.value / norm, res.err_est / norm, res.n_work, res.converged)


def _beta_series(coefs: _BetaColumn, norm: float, ratio: Callable[[int], float],
                 majorant: Callable[[int, float], float | None], n_cap: int) -> EvalResult:
    """sum_n pre_n B_n / norm over the column's coefficients B_n, with pre_0 = 1
    and pre_(n+1) = pre_n * ratio(n), summed to at most n_cap terms.

    majorant(n, term) bounds the terms after term n, or is None while no
    bound is known.  The sum stops after two settled terms in a row and is
    converged when the sum is finite, the tail plus the accumulated
    coefficient errors and rounding (ratio(n) may round 4 times) meet
    rel_tol * |sum| and every coefficient used converged.  An overflowed sum
    makes that tolerance inf, which every error meets, so it stops,
    unconverged.
    """
    rel_tol = coefs.policy.rel_tol
    total = 0.0
    err_acc = 0.0
    pre = 1.0
    tail = math.inf
    hits = 0
    for n in range(n_cap):
        coefs.grow(n + 1)
        term = pre * coefs.values[n] / norm
        total += term
        # pre_n carries 4 roundings per ratio, the term two more, the sum one
        err_acc += abs(pre) / norm * coefs.errs[n] \
            + 0.5 * _EPS * ((4.0 * n + 2.0) * abs(term) + abs(total))
        bound = majorant(n, term)
        if bound is not None:
            tail = bound
            tol = rel_tol * max(abs(total), 1e-300)
            # err_acc only grows, so once it alone exceeds tol the series
            # cannot converge; it then stops as soon as the tail is small
            if tail + err_acc <= tol or tail <= tol < err_acc:
                hits += 1
                if hits >= 2:
                    converged = math.isfinite(total) and tail + err_acc <= tol \
                        and all(coefs.converged[:n + 1])
                    return EvalResult(total, tail + err_acc, coefs.work(n + 1), converged)
            else:
                hits = 0
        pre *= ratio(n)
    return EvalResult(total, tail + err_acc, coefs.work(n_cap), False)


def extended_gauss_series(triple: HyperTriple, z: float, pq: PQParams,
                          policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Extended Gauss function by its defining series (the verification path).

    For z >= 0 the coefficients are B(b+n, c-b; p, q) at ratio z.  For z < 0
    the series is summed in Pfaff form, F_{p,q}(a, b; c; z) =
    (1-z)^(-a) F_{q,p}(a, c-b; c; z/(z-1)) (substitute t -> 1-t in the Euler
    integral): its coefficients are B(c-b+n, b; q, p) at ratio
    w = z/(z-1) < 1/2, its terms are positive for a > 0 instead of
    alternating, and the factor's rounding is charged.  The coefficients
    come from _shared_column, grown in blocks of 32 entries; the
    truncation tail is majorized by the envelope factor times the classical
    2F1 tail at the ratio, which bounds the extended coefficients term by
    term.  Converged means the tail plus the accumulated coefficient errors
    and rounding meet the tolerance and every coefficient used converged.
    The series stops, unconverged, at a term cap derived from the ratio and
    rel_tol: enough terms for ratio^n to fall below max(rel_tol/100, 1e-15),
    and 40 to 1000 of them.
    """
    if not abs(z) < 1.0:
        raise DomainError(f"extended_gauss_series requires |z| < 1, got z={z}")
    a, b, c = triple.a, triple.b, triple.c
    if z >= 0.0:
        x, x0, y, pq_eff = z, b, c - b, pq
    else:
        x, x0, y, pq_eff = z / (z - 1.0), c - b, b, pq.swapped()
    norm = beta(b, c - b)
    n_cap = 4
    if x > 0.0:
        n_cap = int(math.log(max(policy.rel_tol * 1e-2, 1e-15)) / math.log(x)) + 24
    n_cap = min(max(n_cap, 40), 1000)
    major = pq.envelope  # envelope * (a)_n (x0)_n / ((c)_n n!) x^n

    def majorant(n: int, term: float) -> float | None:
        # classical majorant of the terms after n
        nonlocal major
        ratio_next = x * (a + n) * (x0 + n) / ((c + n) * (n + 1.0))
        major *= ratio_next
        rho = max(x, ratio_next)
        return major / (1.0 - rho) if rho < 1.0 else None

    res = _beta_series(_shared_column(x0, y, pq_eff, policy), norm,
                       lambda n: (a + n) * x / (n + 1.0), majorant, n_cap)
    if z >= 0.0:
        return res
    return _scaled(res, *_pfaff_factor(a, z), policy, f"extended_gauss_series {{}} at z={z!r}")


def extended_kummer(b: float, c: float, z: float, pq: PQParams,
                    policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Extended Kummer function Phi_{p,q}(b; c; z), entire in real z.

    For z < 0 the series is summed through the extended Kummer transformation
    Phi_{p,q}(b;c;z) = e^z Phi_{q,p}(c-b;c;-z) (substitute t -> 1-t in the
    Euler integral), which makes every term positive; the raw alternating
    series loses all precision already for moderately negative z.  The
    rounding of the factor e^z is charged (see results._scaled).
    """
    if not (c > b > 0.0 and math.isfinite(z)):
        raise DomainError(f"extended_kummer requires c > b > 0, finite z, got b={b}, c={c}, z={z}")
    if z >= 0.0:
        w, x0, y, pq_eff = z, b, c - b, pq
    else:
        w, x0, y, pq_eff = -z, c - b, b, pq.swapped()
    norm = beta(b, c - b)

    def majorant(n: int, term: float) -> float | None:
        rho = w / (n + 2.0)  # coefficient ratios are < 1, so this majorizes
        return abs(term) * rho / (1.0 - rho) if rho < 1.0 else None

    n_cap = int(w + 10.0 * math.sqrt(w + 1.0)) + 60
    res = _beta_series(_shared_column(x0, y, pq_eff, policy), norm,
                       lambda n: w / (n + 1.0), majorant, n_cap)
    if z >= 0.0:
        return res
    return _scaled(res, z, 0.0, policy, f"extended_kummer {{}} at z={z!r}")


def gauss_bound_rhs(triple: HyperTriple, z: float, pq: PQParams,
                    policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Envelope upper bound for |F_{p,q}(a,b;c;z)|: envelope * 2F1(a,b;c;|z|).

    Carries the 2F1's error and the envelope's rounding (PQParams.enveloped).
    """
    return pq.enveloped(gauss_2f1(triple, abs(z), policy), policy, "gauss_bound_rhs {}")
