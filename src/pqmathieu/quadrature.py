"""Double-exponential (tanh-sinh) quadrature of log-space integrands.

The finite-interval engine maps (lo, hi) through x = mid + half*tanh((pi/2)*sinh t)
and refines the trapezoidal step h by halving, reusing all previously computed
nodes.  Node positions are generated together with their exact distances to both
endpoints, and every integrand is given as lg(x, x - lo, hi - x), the log of a
nonnegative f computed from those distances.  The distances are never 0, so
integrable endpoint singularities (t**(x-1) with x < 1, log t, ...) and flat
exponential decay (exp(-p/t)) keep full precision however close a node comes
to an endpoint of magnitude ~1.

Semi-infinite integrals are folded onto (0, 1) by x = lo + u/(1-u) and reuse the
finite engine; the Jacobian enters as -2 log(1-u), and its singularity at
u = 1 is absorbed by the same endpoint clustering.

One node sweep (_fan) and one accumulator (_Rows) serve every entry point.
_Rows sums one row kind, a table of moments exp(lg) * (x - lo)**j on one
fan, evaluating the weight exp(lg) once per node (integrate_log_moments,
whose one-entry table is integrate_finite_xc and, after the fold,
integrate_to_infinity); the stop rules are _verdict's.  A family of
integrands that differ by a factor, such as the head kernels of the direct
Mathieu route, is summed inside one integrand instead.

All entry points are pure functions of their arguments; there is no global
mutable state, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import Callable

from .errors import DomainError, IntegrandError
from .results import _EPS, _LOG_MAX, EvalResult

__all__ = [
    "QuadPolicy",
    "DEFAULT_POLICY",
    "integrate_finite_xc",
    "integrate_log_moments",
    "integrate_to_infinity",
]

_HALF_PI = math.pi / 2.0
# beyond this the node offset from the endpoint underflows for unit-scale spans
_T_MAX = 6.56
# consecutive negligible contributions before a side of the node fan is closed
_CONSEC = 3
# a contribution at most this share of its sweep's running l1 norm is negligible
_NEGLIGIBLE = 0.5 * _EPS


@dataclass(frozen=True)
class QuadPolicy:
    """Tolerance and budget settings for the quadrature engine.

    rel_tol / abs_tol drive the convergence test err <= max(abs_tol,
    rel_tol*|value|); max_refinements caps the number of step halvings and
    max_evals the total number of integrand evaluations.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_refinements: int = 12
    max_evals: int = 200_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise DomainError("rel_tol must be positive and finite")
        if not (self.abs_tol >= 0.0):
            raise DomainError("abs_tol must be >= 0")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be >= 1")
        if self.max_evals < 16:
            raise DomainError("max_evals must be >= 16")


DEFAULT_POLICY = QuadPolicy()


class _BudgetExceeded(Exception):
    pass


def _verdict(level: int, err: float, floor: float, defect: float, defect_prev: float,
             tol: float) -> tuple[float, bool, bool]:
    """Stop rules for one finished refinement level: (estimate, stop, converged)."""
    est = max(err, floor, defect)
    if est <= tol:
        return est, True, True
    # refinement has hit the representational floor and the endpoint defect
    # has stopped improving; further halving cannot reduce the estimate
    stalled = level >= 2 and err <= max(floor, defect) \
        and (defect == 0.0 or defect > 0.45 * defect_prev)
    return est, stalled, False


def _fan(acc, lo: float, hi: float, max_refinements: int, max_evals: int) -> int:
    """Sweep the tanh-sinh node fan over (lo, hi), halving the step each level.

    Returns the number of node evaluations.  The accumulator ``acc`` owns the
    sums: ``acc.node(x, dlo, dhi, w, delta, side)`` evaluates one node (side
    0 runs toward hi, 1 toward lo, 2 is the centre) and returns True when its
    contribution is negligible; ``acc.forced(side)`` hears that the float grid
    closed a side, whose offset from the endpoint (or weight w) underflowed,
    so that no node has a distance of 0 and the mass left in that sliver goes
    to the error estimate; ``acc.settle(level, h)`` folds in a finished level
    and returns True to stop.  Running out of budget keeps the last settled
    level.
    """
    width = hi - lo
    half = 0.5 * width
    n_evals = 0
    try:
        for level in range(max_refinements + 1):
            # trapezoid nodes at t = k*h; on refinement levels only the odd
            # multiples are new
            h = 0.5 ** level
            k = 1 if level else 0
            step = 2 if level else 1
            open_ = [True, True]
            misses = [0, 0]
            while open_[0] or open_[1]:
                t = k * h
                if t > _T_MAX:
                    break
                # sinh is odd and cosh even, so both sides share one geometry
                u = _HALF_PI * math.sinh(t)
                s = math.exp(-u)
                s2 = s * s
                delta = width * s2 / (1.0 + s2)  # distance to the nearest endpoint
                sech = 2.0 * s / (1.0 + s2)
                w = half * _HALF_PI * math.cosh(t) * sech * sech
                for side in ((2,) if k == 0 else (0, 1)):
                    if side < 2 and not open_[side]:
                        continue
                    if side == 1:
                        x = lo + delta
                        dlo, dhi = delta, width - delta
                    else:
                        x = hi - delta
                        dlo, dhi = width - delta, delta
                    if delta == 0.0 or w == 0.0:
                        if side < 2:
                            # closure forced by the float grid, not by smallness
                            open_[side] = False
                            acc.forced(side)
                        continue
                    if n_evals >= max_evals:
                        raise _BudgetExceeded
                    n_evals += 1
                    if acc.node(x, dlo, dhi, w, delta, side) and side < 2:
                        misses[side] += 1
                        if misses[side] >= _CONSEC:
                            open_[side] = False
                    elif side < 2:
                        misses[side] = 0
                k += step
            if acc.settle(level, h):
                break
    except _BudgetExceeded:
        pass
    return n_evals


class _Rows:
    """Trapezoid sums of the rows exp(lg(x, dlo, dhi)) * (x - lo)**j, j = 0 .. n-1,
    over one fan.

    Each node evaluates the damped weight c0 = w exp(lg) once, then the
    powers by repeated multiplication of the exact offset dlo.  The newest
    node of a side has the extreme offset of all nodes summed so far, so the
    ratio of an entry to its running sum is monotone in j: the first and
    last entries decide whether a node is negligible for every entry.  Every
    entry stays open until all have converged or stalled, and all report
    that level.

    Every contribution is nonnegative, so a sum is its own l1 norm.  The
    error floor charges 4 ulps of summation plus the rounding of exp(log f),
    |log f| + 2 ulps of each contribution, and j more for the power products.
    """

    def __init__(self, lg: Callable[[float, float, float], float], n: int, policy: QuadPolicy):
        self.lg, self.policy = lg, policy
        self.n = n
        # rounding charge besides |log f|: the exp and the weight product, and
        # the j products of a power
        self.ulps = [j + 2.0 for j in range(n)]
        self.rows: list[list[float]] = []   # per node: its contributions
        self.logs: list[float] = []         # per node: |log f|
        self.run0 = self.run1 = 0.0         # running sums of the weight and the last power
        # per side, the newest row and delta / w: a forced closure strands at
        # most ~16x row * delta / w of mass (singularities up to ~15/16)
        self.last: list = [None, None, None]
        self.stranded: list = []
        self.values = [0.0] * n
        self.rounding = [0.0] * n
        self.defect_prev = [math.inf] * n
        self.est = [math.inf] * n
        self.converged = [False] * n

    def node(self, x: float, dlo: float, dhi: float, w: float, delta: float, side: int) -> bool:
        try:
            lg = self.lg(x, dlo, dhi)
            c0 = w * math.exp(lg)
        except OverflowError:
            raise IntegrandError(f"integrand overflowed at x={x!r}") from None
        if not c0:
            self.last[side] = None
            return True
        self.run0 += c0
        row = list(accumulate(repeat(dlo, self.n - 1), mul, initial=c0))
        if not math.isfinite(row[-1]):
            raise IntegrandError(f"non-finite integrand contribution at x={x!r}")
        self.logs.append(abs(lg))
        self.run1 += row[-1]
        self.rows.append(row)
        self.last[side] = (row, delta / w)
        return c0 <= _NEGLIGIBLE * self.run0 and row[-1] <= _NEGLIGIBLE * self.run1

    def forced(self, side: int) -> None:
        if self.last[side] is not None:
            self.stranded.append(self.last[side])

    def settle(self, level: int, h: float) -> bool:
        n, logs = self.n, self.logs
        cols = list(zip(*self.rows)) or [()] * n
        if self.stranded:
            defects = [16.0 * max(vs) for vs in zip(*(
                [v * scale for v in row] for row, scale in self.stranded))]
        else:
            defects = [0.0] * n
        self.rows, self.logs, self.stranded = [], [], []
        self.run0 = self.run1 = 0.0
        self.last = [None, None, None]
        keep = 0.5 if level else 0.0
        rel_tol, abs_tol = self.policy.rel_tol, self.policy.abs_tol
        values, rounding, defect_prev = self.values, self.rounding, self.defect_prev
        est, converged, ulps = self.est, self.converged, self.ulps
        done = True
        for j, col in enumerate(cols):
            part = math.fsum(col)
            old = values[j]
            new = values[j] = keep * old + h * part
            rounding[j] = keep * rounding[j] + h * (sum(map(mul, col, logs)) + ulps[j] * part)
            stop = False
            if level:
                err = abs(new - old)
                # a fan that has not yet sampled a narrow peak of the weight
                # jumps or halves its sum from level to level, and two coarse
                # levels may agree by chance; until two successive differences
                # lie within half the value they bound nothing, so abs_tol may
                # not stop the entry
                resolved = 2.0 * max(err, est[j]) <= new
                tol = max(abs_tol, rel_tol * new) if resolved else rel_tol * new
                est[j], stop, converged[j] = _verdict(
                    level, err, _EPS * (4.0 * new + rounding[j]), defects[j],
                    defect_prev[j], tol)
            defect_prev[j] = defects[j]
            done = done and stop
        return done

    def results(self, n_evals: int) -> list[EvalResult]:
        return [EvalResult(v, e, n_evals, c)
                for v, e, c in zip(self.values, self.est, self.converged)]


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if not lo < hi:
        raise DomainError(f"integration interval requires lo < hi, got [{lo}, {hi}]")


def integrate_finite_xc(lg: Callable[[float, float, float], float], lo: float, hi: float,
                        policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Integral of exp(lg(x, x - lo, hi - x)) over (lo, hi), lg the log of a nonnegative f.

    Both endpoint distances are computed to full precision from the node
    transform and are never 0.  Write singular endpoint factors from them:
    (1-t)**(y-1) from hi - t keeps the precision that t itself loses to the
    coarse float grid near an endpoint of magnitude ~1.  lg = -inf is f = 0.

    This is the one-entry table integrate_log_moments(lg, lo, hi, 1,
    policy)[0].  Its error estimate is the difference of the last two
    refinement levels (a deliberate overestimate near convergence), at least
    the floor eps * sum w*f*(|lg| + 6): 4 ulps of summation and the rounding
    of exp(lg).
    """
    return integrate_log_moments(lg, lo, hi, 1, policy)[0]


def integrate_log_moments(lg: Callable[[float, float, float], float], lo: float, hi: float,
                          n: int, policy: QuadPolicy = DEFAULT_POLICY) -> list[EvalResult]:
    """Integrals of (x - lo)**j * exp(lg(x, x - lo, hi - x)) over (lo, hi), j = 0 .. n-1.

    One node fan serves all n entries: lg is evaluated once per node, in log
    space from the exact endpoint distances as in integrate_finite_xc, and
    the powers come from repeated multiplication of the exact offset x - lo.
    Each entry has its own value, error estimate and converged flag; every
    entry's n_work is the node count of the shared fan.  A side of the fan
    closes only once every entry is negligible there, and the fan may spend
    n * policy.max_evals node evaluations, the budget of n separate
    quadratures.

    The error floor charges the rounding of exp(lg), about |lg| ulps per
    node, and of the j power products: eps * sum w*f*(|lg| + j + 2) on top
    of the 4-ulp summation floor.
    """
    _check_interval(lo, hi)
    if n < 1:
        raise DomainError(f"integrate_log_moments needs n >= 1, got {n}")
    acc = _Rows(lg, n, policy)
    n_evals = _fan(acc, lo, hi, policy.max_refinements, n * policy.max_evals)
    return acc.results(n_evals)


def integrate_to_infinity(lg: Callable[[float], float], lo: float,
                          policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Integral of exp(lg(x)) over (lo, inf), lg the log of a nonnegative, decaying f.

    The substitution x = lo + u/(1-u) folds it onto (0, 1), where
    integrate_finite_xc sums lg(x) - 2 log(1-u).  A tail that fails to decay
    drives that sum past the float range; such a node counts as 0 and the
    result is reported converged=False rather than raising.
    """
    if not math.isfinite(lo):
        raise DomainError("lower integration limit must be finite")
    blowup = False

    def g(u: float, dlo: float, dhi: float) -> float:
        nonlocal blowup
        x = lo + dlo / dhi
        lf = lg(x)
        if not lf < math.inf:
            raise IntegrandError(f"non-finite log integrand {lf!r} at x={x!r}")
        lf -= 2.0 * math.log(dhi)
        if lf > _LOG_MAX:
            blowup = True
            return -math.inf
        return lf

    res = integrate_finite_xc(g, 0.0, 1.0, policy)
    if blowup:
        return EvalResult(res.value, math.inf, res.n_work, False)
    return res
