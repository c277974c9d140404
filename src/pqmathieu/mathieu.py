"""Mathieu-type series with extended-Gauss kernels and their integral forms.

The series is sum_{n>=1} F_{p,q}(lam, b; c; -r^2/a_n) / (a_n^lam (a_n+r^2)^eta)
over a monotone divergent sequence a_n, plus the alternating variant.  Three
evaluation routes are provided and cross-checked:

* direct summation up to a fixed tail start, completed by one analytic tail;
  the head's Euler integrands differ only by the factor (1 + r^2 t/a_n)^-lam,
  so the head is one integral of their weighted sum (_extended_head),
* the closed integral representation with the counting weight, or its
  parity for the alternating series (integrated term by term and
  Abel-summed, so the weight's jumps never meet a quadrature node),
* printed upper bounds built from Luke's rational bound and the envelope
  factor.

Everywhere a kernel value is not computed exactly, the kernel is expanded
through the Pfaff-type transformation

    F_{p,q}(s, b; c; -r^2/x) x^(-s) (x+r^2)^(-t)
        = sum_m kappa_m r^(2m) (x+r^2)^(-(s+t+m)),
    kappa_m = (s)_m/m! * B(c-b+m, b; q, p) / B(b, c-b),

whose ratio r^2/(x+r^2) stays at or below 1/2 on the whole integration range
when r^2 <= a_1 (MathieuParams requires it), so the expansion converges
uniformly.  The representation lam I(lam+1, eta) + eta I(lam, eta+1) is one
integral, of -f' for f the s = lam, t = eta kernel power above: with
lam (lam+1)_m = (lam)_m (lam+m) its order m is kappa_m (lam+eta+m)
(x+r^2)^-(lam+eta+m+1), which integrates over [a_N, a_(N+1)] to
kappa_m r^(2m) (v_N - v_(N+1)), v_n = (a_n+r^2)^-(lam+eta+m), with no
quadrature.  Weighted by N, these Abel-sum to the power sum sum_{n>=1} v_n;
weighted by the parity of N, to sum_{n>=1} (-1)^(n+1) v_n.  A single
I(alpha, beta) has the same form at coefficients kappa_m/sigma_m,
sigma_m = alpha+beta-1+m, and so do the bounds' counting-weight power
integrals (constant kernel, kappa_m = (s)_m/m!).  Every one of them reads
one column of such power sums (_PowerColumn), one entry per order; the
bound's four integrals share one and are summed together, one pass over
the orders reading each entry and r^(2m) once (_power_tail), their four
coefficient lists shared across a command's rows.  The column and the
direct route sum their terms below one tail start directly and complete
them with one tail there.  Every power tail, plain or alternating, is a
Hurwitz zeta sum and comes from one primitive (_hurwitz_zeta:
Euler-Maclaurin with a provable remainder), its exponent carried as an
exact pair such as lam+eta+m, so that t - 1 keeps its digits as the tails
approach divergence.
All remainders, including the omitted expansion orders and the rounding,
are tracked and reported in err_est.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .classical import HyperTriple, gauss_2f1_raw
from .classical import beta as beta_fn
from .errors import DivergenceError, DomainError
from .extended import PQParams, _beta_log_weight, _scoped, _shared_column
from .extended import extended_beta  # noqa: F401  (traced by bench/worker.py)
from .extended import extended_gauss_integral  # noqa: F401  (traced by bench/worker.py)
from .quadrature import DEFAULT_POLICY, QuadPolicy, integrate_finite_xc
from .quadrature import integrate_to_infinity  # noqa: F401  (traced by bench/worker.py)
from .results import _EPS, EvalResult, _scaled

__all__ = [
    "SequenceSpec",
    "MathieuParams",
    "counting_value",
    "alternating_counting_value",
    "mathieu_direct",
    "mathieu_alternating_direct",
    "cahen_integral",
    "mathieu_via_integral",
    "mathieu_alt_via_integral",
    "u_integral",
    "closed_tail_2f1",
    "bound_mathieu_rhs",
    "bound_mathieu_alt_rhs",
]


@dataclass(frozen=True)
class SequenceSpec:
    """Monotone divergent sequence a_n = scale * n**exponent with its
    continuous extension a(x) = scale * x**exponent."""

    scale: float = 1.0
    exponent: float = 1.0

    @classmethod
    def power(cls, scale: float = 1.0, exponent: float = 1.0) -> "SequenceSpec":
        if not (0.0 < scale < math.inf and 0.0 < exponent < math.inf):
            raise DomainError("power sequence requires finite scale > 0 and exponent > 0")
        return cls(scale=scale, exponent=exponent)

    def value(self, x: float) -> float:
        try:
            return self.scale * x ** self.exponent
        except OverflowError:
            return math.inf  # far probe points; callers take negative powers

    def inverse(self, y: float) -> float:
        return (y / self.scale) ** (1.0 / self.exponent)

    @property
    def a1(self) -> float:
        return self.value(1.0)

    @property
    def label(self) -> str:
        s, k = self.scale, self.exponent
        if s == 1.0:
            return "n" if k == 1.0 else f"n^{k:g}"
        return f"{s:g}*n" if k == 1.0 else f"{s:g}*n^{k:g}"


@dataclass(frozen=True)
class MathieuParams:
    """Parameters (lam, eta, r, b, c, p, q, sequence) of one series instance.

    r is accepted up to r**2 <= a_1 (the boundary makes the first kernel
    argument -1, which the Euler-integral route and the Pfaff-transformed
    series both handle); the upper-bound evaluators additionally require the
    open window r**2 < a_1.
    """

    lam: float
    eta: float
    r: float
    b: float
    c: float
    pq: PQParams
    seq: SequenceSpec

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.lam, self.eta, self.r)):
            raise DomainError("require finite lam, eta, r > 0")
        if not (math.inf > self.c > self.b > 0.0):
            raise DomainError(f"require finite c > b > 0, got b={self.b}, c={self.c}")
        if self.r * self.r > self.seq.a1:
            raise DomainError(f"require r^2 <= a_1, got r^2={self.r * self.r}, a_1={self.seq.a1}")

    @property
    def triple(self) -> HyperTriple:
        return HyperTriple(self.lam, self.b, self.c)


# ---------------------------------------------------------------------------
# counting functions


def counting_value(seq: SequenceSpec, x: float) -> int:
    """Number of indices n >= 1 with a_n <= x (0 when x < a_1).

    The float inverse only seeds the search; the result is corrected against
    the forward map, so it agrees exactly with brute-force counting.
    """
    if x < seq.a1:
        return 0
    n = max(1, int(math.floor(seq.inverse(x))))
    while seq.value(n + 1) <= x:
        n += 1
    while n >= 1 and seq.value(n) > x:
        n -= 1
    return n


def alternating_counting_value(seq: SequenceSpec, x: float) -> int:
    """Parity indicator of the counting function: 1 if odd, else 0.

    Computed from integer parity, never from a floating sine.
    """
    return counting_value(seq, x) & 1


# ---------------------------------------------------------------------------
# transformed kernel expansion


class _KernelCoeffs:
    """Lazily grown coefficients of the transformed kernel expansion.

    kappa_m = (alpha)_m/m! * B(c-b+m, b; q, p) / B(b, c-b) for the extended
    kernel; the classical kernel uses the exact ratio (c-b)_m/(c)_m, which
    is 1 for the constant kernel 2F1(alpha, 0; c; z) = 1.  Given an
    exponent pair sigma (_plus), the coefficients are kappa_m/(sigma+m),
    the low part dropped from the divisor charged to their errors.

    The extended Beta column is _shared_column's: inside a
    _command_scope, expansions with the same (c-b, b, (q, p), policy)
    read one column, whoever grew it.  work counts the node evaluations of
    the Beta blocks covering the entries this expansion used, so it does
    not depend on which route asked first.
    """

    def __init__(self, alpha: float, b: float, c: float, pq: PQParams,
                 policy: QuadPolicy, kind: str, sigma: tuple[float, float] | None = None):
        self.alpha, self.b, self.c = alpha, b, c
        self.kind = kind
        self.sigma = sigma
        self.values: list[float] = []
        self.err_values: list[float] = []
        self.work = 0
        self._pf = 1.0      # (alpha)_m / m!
        self._ratio = 1.0   # (c-b)_m / (c)_m, classical only
        if kind == "extended":
            self._norm = beta_fn(b, c - b)
            self._betas = _shared_column(c - b, b, pq.swapped(), policy)

    def grow(self, m_count: int) -> None:
        if len(self.values) >= m_count:
            return
        if self.kind == "extended":
            self._betas.grow(m_count)
            self.work = self._betas.work(m_count)
        while len(self.values) < m_count:
            m = len(self.values)
            if self.kind == "classical":
                value, err = self._pf * self._ratio, 0.0
                self._ratio *= (self.c - self.b + m) / (self.c + m)
            else:
                value = self._pf * self._betas.values[m] / self._norm
                err = self._pf * self._betas.errs[m] / self._norm
            if self.sigma is not None:
                sig, lo = _plus(self.sigma, float(m))
                value, err = value / sig, err / sig + (_EPS + abs(lo / sig)) * abs(value / sig)
            self.values.append(value)
            self.err_values.append(err)
            self._pf *= (self.alpha + m) / (m + 1.0)


# ---------------------------------------------------------------------------
# power tails

# B_2j/(2j)! for j = 1..13 (DLMF 24.2.1)
_BERNOULLI = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6), 1))


def _plus(x: tuple[float, float], y: float) -> tuple[float, float]:
    # (hi, lo) + y as an unevaluated pair, exact up to the rounding of the
    # low parts (TwoSum, Knuth TAOCP 4.2.2): the tail exponents lam+eta+m and
    # alpha+beta+m-1 travel this way, so t - 1 keeps its digits as t -> 1+
    s = x[0] + y
    v = s - x[0]
    return s, x[1] + ((x[0] - (s - v)) + (y - v))


def _decay_integral(e: float, big_l: float) -> float:
    # the integral of exp(-e y) over (0, L): -expm1(-e L)/e, or L at e = 0;
    # x0^(1-t) times it at e = t-1 is the integral of x^-t over (x0, x0 e^L),
    # with its digits kept where the difference of the two powers cancels
    if e == 0.0:
        return big_l
    return -math.expm1(-e * big_l) / e


def _hurwitz_zeta(t: tuple[float, float], a: float) -> tuple[float, float, int]:
    """zeta(t, a) - a^(1-t)/(t-1): the Hurwitz zeta sum_{n>=0} (n+a)^-t less
    its integral from a (the limit of their difference when t <= 1), at
    t = hi+lo > 0 and a >= 1, with an error bound and the terms summed.

    Euler-Maclaurin at x = a+N: N direct terms less the integral over (a, x),
    then x^-t/2 + sum_j B_2j/(2j)! (t)_(2j-1) x^(1-t-2j).  x^-t is completely
    monotone, so the remainder is at most the first omitted term (DLMF
    2.10.iii); N puts x past (t+26)/(pi/2), where each term is below 1/16 of
    the one before it and the 13 of the table reach eps (Johansson,
    arXiv:1309.2877).  Without its pole the value has no 1/(t-1) for a
    difference to cancel.  The bound charges the rounding, the lo dropped
    from the powers, and a relative error of up to 2 eps in a (which moves
    the value by about 2t eps); values below 1e-300 are not covered.
    """
    hi, lo = t
    e = (hi - 1.0) + lo
    n_direct = max(0, math.ceil((hi + 26.0) / (0.5 * math.pi) - a))
    x = a + n_direct
    direct = math.fsum((a + n) ** -hi for n in range(n_direct))
    span = a ** -e * _decay_integral(e, math.log1p(n_direct / a))  # over (a, x)
    p = x ** -hi
    parts = [direct, -span, 0.5 * p]
    term = hi * p / x
    rnd = 0.0
    for j, b in enumerate(_BERNOULLI):
        omitted = abs(b * term)
        if omitted <= 0.25 * _EPS * p or j == len(_BERNOULLI) - 1:
            break
        parts.append(b * term)
        rnd += (4.0 * j + 8.0) * omitted
        term *= (hi + 2 * j + 1) * (hi + 2 * j + 2) / (x * x)
    mass = direct + span + 0.5 * p
    rel = (2.5 * hi + 6.0) * _EPS + abs(lo) * math.log(x)
    return math.fsum(parts), omitted + rel * mass + _EPS * rnd, n_direct + len(parts) - 2


class _PowerSums:
    """Order tails sum_{n>=a} (+-1)^(n+1) (s n^k + r^2)^-(s0+m), plain or
    alternating, with error bounds and the majorants _power_tail takes; s0
    is an exponent pair (_plus), work counts the terms the zetas summed.

    k = 1: s^-sigma zeta(sigma, a + r^2/s), sigma = s0+m.  Otherwise the
    binomial series sum_j (-1)^j (sigma)_j/j! (r^2/s)^j s^-sigma Z(k(sigma+j)),
    Z(t) = sum_{n>=a} (+-1)^(n+1) n^-t, in w = r^2/a_a <= 1/8, cut by _orders
    at eps/4 of the order's weight w^m; Z depends on l = m+j only, so each
    exponent costs one zeta.  Alternating Z: +-2^-t [zeta(t, b/2) - zeta(t, (b+1)/2)].
    """

    def __init__(self, seq: SequenceSpec, r2: float, s0: tuple[float, float], a: int,
                 alternating: bool):
        self.seq = seq
        self.s0 = s0
        self.a = a
        self.alternating = alternating
        self.u_a = seq.value(float(a)) + r2
        # the zeta argument b and the binomial ratios c = r^2/s, w = r^2/a_a;
        # at k = 1 c moves into b and no binomial series is needed
        self.b = float(a)
        self.c = r2 / seq.scale
        self.w = r2 / seq.value(float(a))
        if seq.exponent == 1.0:
            self.b += self.c
            self.c = 0.0
        self.work = 0
        self._z: dict[int, tuple[float, float]] = {}
        self._z_sum(0)  # the smallest exponent: raises if the sum diverges

    def _z_sum(self, l: int) -> tuple[float, float]:
        # Z at t = k (s0+l), memoised; the one divergence rule asks t > 1 of
        # the plain sum and t > 0 of the alternating one, exactly
        hi, lo = _plus(self.s0, float(l))
        k = self.seq.exponent
        if k != 1.0:
            # lo takes up the exact rounding error of k hi, from the integer
            # ratios of the three doubles
            kn, kd = k.as_integer_ratio()
            hn, hd = hi.as_integer_ratio()
            pn, pd = (k * hi).as_integer_ratio()
            lo = (kn * hn * pd - pn * kd * hd) / (kd * hd * pd) + k * lo
            hi = k * hi
        floor = 0.0 if self.alternating else 1.0
        if not (hi - floor) + lo > 0.0:
            raise DivergenceError(
                f"power tail diverges: exponent {hi:.17g} {lo:+.3g} <= {floor:g}")
        e = (hi - 1.0) + lo
        # zeta less its pole, then the pole: the integral of x^-t over (y, inf),
        # or over (y, y + 1/2) for the alternating difference, whose sign is
        # that of its first term
        y = self.b
        big_l = math.inf
        h = 1.0
        if self.alternating:
            y = 0.5 * self.b
            big_l = math.log1p(0.5 / y)
            h = 2.0 ** -hi if self.a % 2 else -2.0 ** -hi
        z, z_err, n = _hurwitz_zeta((hi, lo), y)
        if self.alternating:
            z2, z2_err, n2 = _hurwitz_zeta((hi, lo), y + 0.5)
            z -= z2
            z_err += z2_err
            n += n2
        lead = y ** -e * _decay_integral(e, big_l)
        z = h * (z + lead)
        lead_err = (hi * (abs(math.log(y)) + 2.5) + 8.0) * _EPS * lead
        self._z[l] = z, abs(h) * (z_err + lead_err) + (2.0 * _EPS + abs(lo)) * abs(z)
        self.work += n
        return self._z[l]

    def __call__(self, m: int) -> tuple[float, float, float]:
        sig, lo = _plus(self.s0, float(m))
        a = self.a
        n_j = 1
        omit = 0.0
        if self.c:
            n_j, omit = _orders(sig, self.w, 0.25 * _EPS / max(self.w ** m, 1e-200))
        # s^-sigma drops lo; each step of the coefficient rounds about 3 times
        coef = self.seq.scale ** -sig
        rnd = abs(lo * math.log(self.seq.scale))
        terms = []
        err = 0.0
        for j in range(n_j):
            z, z_err = self._z.get(m + j) or self._z_sum(m + j)
            terms.append(coef * z)
            err += abs(coef) * z_err + ((3.0 * j + 4.0) * _EPS + rnd) * abs(terms[-1])
            coef *= -self.c * (sig + j) / (j + 1.0)
        total = math.fsum(terms)
        # the omitted binomial terms are below the first of them over 1-q at
        # every n; summed over n >= a, they stay below a^-t, as the tail
        # itself does when they alternate and decrease, or else a^-t (1 + a/(t-1))
        t = self.seq.exponent * (sig + n_j)
        omitted = omit * abs(coef) * a ** -t
        major = self.u_a ** -sig
        if not self.alternating:
            omitted *= 1.0 + a / (t - 1.0)
            major = abs(total)
        return total, err + omitted + 0.5 * _EPS * abs(total), major


def _series_tail_start(seq: SequenceSpec, r2: float) -> int:
    # the one tail start of the direct route and of the power-sum column:
    # r^2/(a+r^2) <= 1/9 puts the tail bound at rounding level there, so a
    # later start could not mend a miss
    a = 33
    if r2 > 0.0:
        a = max(a, int(math.ceil(seq.inverse(8.0 * r2))) + 1)
    return a


def _orders(alpha: float, w: float, target: float) -> tuple[int, float]:
    # expansion orders m kept at ratio w (w^m/(1-w) <= target, 3..140) and
    # the factor 1/(1-q) by which |kappa_m| w^m bounds all omitted orders:
    # |kappa_{j+1}/kappa_j| w <= (|alpha|+j)/(j+1) w (the Beta or (c-b)_j
    # ratio is <= 1), which for every j >= m stays below
    # q = w max(1, (|alpha|+m)/(m+1)); m grows while q > 1/2
    if w <= 0.0:
        return 2, 1.0
    m = min(max(int(math.ceil(math.log(target * (1.0 - w)) / math.log(w))) + 1, 3), 140)
    q = w * max(1.0, (abs(alpha) + m) / (m + 1.0))
    while q > 0.5 and m < 140:
        m += 1
        q = w * max(1.0, (abs(alpha) + m) / (m + 1.0))
    return m, (1.0 / (1.0 - q) if q < 1.0 else math.inf)


def _power_tail(sets: list[tuple[_KernelCoeffs, int]], r2: float, w: float,
                order_tail: Callable[[int, int], tuple[float, float, float]]
                ) -> list[tuple[float, float, int]]:
    # for each set (kappa, offset): sum_m kappa_m r^(2m) T_m over the orders
    # m <= m_top kept at ratio w (at least r^2/(a_n+r^2) on every power that
    # T_m sums), its error bound and m_top; order_tail(m, offset) gives T_m,
    # its error bound and an M_m such that the omitted orders j >= m_top add
    # at most |kappa_m_top| r^(2 m_top) M_m_top / (1-q), q as in _orders.
    # One pass over the orders reads r^(2m) and each offset's T_m once; the
    # sets then sum their terms from those lists
    tops = [_orders(coeffs.alpha, w, 1e-16) for coeffs, _ in sets]
    last: dict[int, int] = {}  # the last order read at each offset
    for (coeffs, offset), (m_top, _) in zip(sets, tops):
        coeffs.grow(m_top + 1)
        last[offset] = max(last.get(offset, 0), m_top)
    r2ms = [r2 ** m for m in range(max(last.values()) + 1)]
    tails = {offset: [order_tail(m, offset) for m in range(n + 1)] for offset, n in last.items()}
    out = []
    for (coeffs, offset), (m_top, omit) in zip(sets, tops):
        terms = []
        err = 0.0
        for m, kappa, kappa_err, r2m, (t_m, b_m, major) in zip(
                range(m_top + 1), coeffs.values, coeffs.err_values, r2ms, tails[offset]):
            weight = kappa * r2m
            err += kappa_err * r2m * abs(t_m) + abs(weight) * b_m
            if m < m_top:
                terms.append(weight * t_m)
            else:
                err += omit * abs(weight) * major
        # the orders' sum rounds once, at half an ulp of the total
        tail = math.fsum(terms)
        out.append((tail, err + 0.5 * _EPS * abs(tail), m_top))
    return out


def _inner_policy(policy: QuadPolicy) -> QuadPolicy:
    # inner quadratures run ~50x tighter so their accumulated error
    # estimates stay clear of the caller's certification target
    return QuadPolicy(rel_tol=max(policy.rel_tol * 0.02, 5e-16),
                      abs_tol=policy.abs_tol,
                      max_refinements=policy.max_refinements,
                      max_evals=policy.max_evals)


# ---------------------------------------------------------------------------
# direct summation


def _extended_head(params: MathieuParams, ans: list[float], sws: list[float], kappa0: float,
                   policy: QuadPolicy) -> tuple[float, float]:
    """sum_n s_n w_n F_{p,q}(lam, b; c; -r^2/a_n) over the head and its error
    bound, as one Euler integral (the paper's Fubini step): (1/B(b, c-b))
    int_0^1 w(t) K(t) dt, w the damped Beta weight and K(t) =
    sum_n s_n w_n (1 + x_n t)^-lam, x_n = r^2/a_n.  Each term of K is
    +-(a_n + r^2 t)^-lam (a_n + r^2)^-eta, which decreases in n, so K > 0
    for the alternating series too (Leibniz) and log w + log K is one integrand.

    K's rounding is charged apart.  Its fsum adds to the exact sum of its
    rounded terms w_n f_n(t), f_n(t) = exp(-lam log1p(x_n t)) <= 1: log1p
    and x_n t round the argument, at most lam log 2, by about 1.4 lam ulps,
    the exp and the products add 4, and w_n carries rho_n = |lam log a_n| +
    |eta log(a_n + r^2)| + 3 of its own.  So K is off by at most
    eps sum_n |w_n| (1.4 lam + 4 + rho_n) f_n(t) at every node, which
    against w/B integrates to at most eps sum_n |w_n| (1.4 lam + 4 + rho_n)
    kappa0, kappa0 >= (1/B) int w = B(c-b, b; q, p)/B(b, c-b).  A node
    whose rounded K is not positive counts as 0, within that charge.
    """
    lam, eta, r2 = params.lam, params.eta, params.r ** 2
    terms = [(sw, r2 / an) for sw, an in zip(sws, ans)]
    lg_w = _beta_log_weight(params.b, params.c - params.b, params.pq)
    log, log1p, exp, fsum = math.log, math.log1p, math.exp, math.fsum

    def lg(t: float, dlo: float, dhi: float) -> float:
        k = fsum([sw * exp(-lam * log1p(x * t)) for sw, x in terms])
        return lg_w(t, dlo, dhi) + log(k) if k > 0.0 else -math.inf

    res = integrate_finite_xc(lg, 0.0, 1.0, policy)
    norm = beta_fn(params.b, params.c - params.b)
    charge = math.fsum(abs(sw) * (1.4 * lam + 7.0 + abs(lam * math.log(an))
                                  + abs(eta * math.log(an + r2))) for sw, an in zip(sws, ans))
    return res.value / norm, res.err_est / norm + _EPS * kappa0 * charge


def _mathieu_engine(params: MathieuParams, policy: QuadPolicy, alternating: bool,
                    kind: str) -> EvalResult:
    seq = params.seq
    lam, eta, r2 = params.lam, params.eta, params.r ** 2
    inner = _inner_policy(policy)
    a_start = _series_tail_start(seq, r2)
    # a divergent tail raises here, before any head quadrature
    sums = _PowerSums(seq, r2, _plus((lam, 0.0), eta), a_start, alternating)
    ans = [seq.value(n) for n in range(1, a_start)]
    # the head's signed weights s_n w_n, w_n = a_n^-lam (a_n + r^2)^-eta
    sws = [(-1.0 if alternating and n % 2 == 0 else 1.0)
           * math.exp(-lam * math.log(an)) * (an + r2) ** (-eta) for n, an in enumerate(ans, 1)]
    coeffs = _KernelCoeffs(lam, params.b, params.c, params.pq, inner, kind)
    if kind == "classical":
        kernels = [gauss_2f1_raw(lam, params.b, params.c, -r2 / an, inner) for an in ans]
        head = math.fsum(sw * f.value for sw, f in zip(sws, kernels))
        err = sum(abs(sw) * f.err_est for sw, f in zip(sws, kernels))
    else:
        coeffs.grow(1)  # kappa_0, the first entry of the tail's column
        head, err = _extended_head(params, ans, sws, coeffs.values[0] + coeffs.err_values[0],
                                   inner)
    (tail, tail_err, _), = _power_tail([(coeffs, 0)], r2, r2 / (seq.value(a_start) + r2),
                                       lambda m, _: sums(m))
    value = head + tail
    err += tail_err
    tol = max(policy.abs_tol, policy.rel_tol * abs(value))
    return EvalResult(value, err, a_start - 1, err <= tol)


def mathieu_direct(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY,
                   kernel: str = "extended") -> EvalResult:
    """Sum the Mathieu-type series directly.

    The terms before a fixed tail start A (r^2/(a_A+r^2) <= 1/9, A >= 33)
    go through the kernel's Euler integral, all A-1 of them as one
    quadrature of their weighted sum (_extended_head: the kernels' Euler
    integrands exchanged with the sum, one quadrature's budget); the rest
    is completed analytically with the transformed kernel expansion, every
    term positive.  kernel="classical" replaces the extended kernel by the
    classical Gauss series (the p = q = 0 counterpart).
    """
    return _mathieu_engine(params, policy, alternating=False, kind=kernel)


def mathieu_alternating_direct(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY,
                               kernel: str = "extended") -> EvalResult:
    """Alternating variant of mathieu_direct.

    Each order of the analytic tail is an alternating Hurwitz-zeta sum,
    2^-t [zeta(t, A/2) - zeta(t, (A+1)/2)], its poles cancelled in closed
    form and its bound the two zeta bounds (_hurwitz_zeta).
    """
    return _mathieu_engine(params, policy, alternating=True, kind=kernel)


# ---------------------------------------------------------------------------
# integral representation with the counting weight


class _PowerColumn:
    """C_j = f u_f^-(s0+j) + sum_{n>f} u_n^-(s0+j), u_n = a_n + r^2: the
    counting-weight panels N >= f of expansion order j, Abel-summed
    (sum_{N>=f} N (v_N - v_(N+1)) = (f-1) v_f + sum_{N>=f} v_N).  Under the
    parity weight (alternating, f odd) the panels N >= f are odd N only,
    and they sum to C_j = sum_{n>=f} (-1)^(n+1) u_n^-(s0+j) instead.  Terms
    n < A are summed directly, with their signs, charging (2 sigma + 3) ulps
    of their absolute sum and the low part of sigma = s0+j; _PowerSums at A
    gives the rest.  C_(j+1) <= C_j/u_f, and under the parity weight
    |C_j| <= u_f^-(s0+j), so orders read it at ratio w = r^2/u_f, at most
    1/2 when a_f >= r^2.  Each order's product rounds 2 ulps of its size and
    each coefficient 3m.  The column is that of a_n 2^-e and r^2 2^-e,
    scaled exactly so that u_f lies in [1, 2) and no power u_n^-(s0+j)
    overflows; an integral of the scaled problem is 2^(e s1) times that of
    the unscaled one, s1 = s0 + the offset it reads from."""

    def __init__(self, seq: SequenceSpec, r2: float, s0: tuple[float, float], first: int,
                 alternating: bool = False):
        self.e = math.frexp(seq.value(first) + r2)[1] - 1
        seq, r2 = SequenceSpec(math.ldexp(seq.scale, -self.e), seq.exponent), math.ldexp(r2, -self.e)
        self.sums = _PowerSums(seq, r2, s0, _series_tail_start(seq, r2), alternating)  # may raise
        self.s0, self.r2 = s0, r2
        heads = range(first, self.sums.a)
        self.us = [seq.value(n) + r2 for n in heads]
        # the weight of each direct term: the parity signs, or f on v_f and 1 after it
        self.signs = ([1.0 if n % 2 else -1.0 for n in heads] if alternating
                      else [float(first)] + [1.0] * (len(self.us) - 1))
        self.w, self.log_u = r2 / self.us[0], math.log(self.us[-1])  # 1 <= u_f <= u_n
        self.entries: list[tuple[float, float, int]] = []  # value, err, zeta terms so far

    def _entry(self, j: int) -> tuple[float, float, int]:
        # C_j, its error bound, and the zeta terms of entries 0..j
        sums, a = self.sums, self.sums.a
        while len(self.entries) <= j:
            sig, lo = _plus(self.s0, float(len(self.entries)))
            terms = [c * u ** -sig for c, u in zip(self.signs, self.us)]
            direct = math.fsum(terms)
            size = math.fsum(map(abs, terms)) if sums.alternating else direct
            # the tail from A is at most u_A^-sig when it alternates, else at
            # most a_A^-sig (1 + A/(k sig - 1)); once that falls under eps/4 of
            # the direct sum, it stands in for the zetas
            k_sig = sums.seq.exponent * sig
            tail, err = 0.0, (sums.u_a ** -sig if sums.alternating else
                              sums.seq.value(float(a)) ** -sig * (1.0 + a / (k_sig - 1.0))
                              if k_sig >= 2.0 else math.inf)
            if err > 0.25 * _EPS * abs(direct):
                tail, err, _ = sums(len(self.entries))
            err += ((2.0 * sig + 3.0) * _EPS + abs(lo) * self.log_u) * size
            self.entries.append((direct + tail, err + 0.5 * _EPS * abs(direct + tail), sums.work))
        return self.entries[j]

    def integral(self, sets: list[tuple[_KernelCoeffs, int]], policy: QuadPolicy,
                 head: EvalResult = EvalResult(0.0, 0.0, 0, True)) -> list[EvalResult]:
        # per set (coeffs, offset), head + the integral over (a_f, inf) of -f'
        # against the weight, f the expansion sum_m c_m r^(2m) (x+r^2)^-(s1+m),
        # s1 = s0+offset, c_m from coeffs: sum_m c_m r^(2m) C_(m+offset); work:
        # the entries' zetas and the coefficients' nodes
        def order_tail(m: int, offset: int) -> tuple[float, float, float]:
            c, c_err, _ = self._entry(m + offset)
            major = self.us[0] ** -(self.s0[0] + (m + offset)) if self.sums.alternating else c
            return c, c_err + (3.0 * m + 2.0) * _EPS * abs(c), major

        results = []
        for (coeffs, offset), (tail, err, m_top) in zip(
                sets, _power_tail(sets, self.r2, self.w, order_tail)):
            s1 = _plus(self.s0, float(offset))
            # 2^(-e s1) rounds once, drops the low part of s1, and its product once
            scale = math.ldexp(1.0, -self.e) ** s1[0]
            err += (2.0 * _EPS + abs(s1[1] * self.e)) * abs(tail) if self.e else 0.0
            value, err = head.value + scale * tail, scale * err + head.err_est
            work = self.entries[offset + m_top][2] - (self.entries[offset - 1][2] if offset else 0)
            tol = max(policy.abs_tol, policy.rel_tol * abs(value))
            results.append(EvalResult(value, err, head.n_work + work + coeffs.work,
                                      err <= tol and head.converged))
        return results


def _u_coeffs(alpha: float, s1: tuple[float, float]) -> _KernelCoeffs:
    # a u-integral's coefficients (alpha)_m/m!/sigma_m, sigma_m = s1+m: the
    # constant kernel 2F1(alpha, 0; 1; z) = 1
    return _KernelCoeffs(alpha, 0.0, 1.0, PQParams(), DEFAULT_POLICY, "classical", s1)


def cahen_integral(alpha: float, beta_: float, params: MathieuParams, alternating: bool,
                   policy: QuadPolicy = DEFAULT_POLICY, kernel: str = "extended") -> EvalResult:
    """Weighted tail integral of the kernel against the counting function.

    Computes the integral over (a_1, inf) of
    F_{p,q}(alpha, b; c; -r^2/x) w(x) / (x^alpha (x+r^2)^beta_) dx with w the
    counting function (non-alternating) or its parity indicator
    (alternating).  The kernel expansion integrates term by term in closed
    form (no quadrature), at coefficients kappa_m/sigma_m,
    sigma_m = alpha+beta-1+m, and the weighted orders Abel-sum to one power
    sum each (_PowerColumn); the error bound adds a stated rounding bound,
    the omitted expansion orders and the coefficient errors.  The first slot
    moves the kernel parameter and the x power together.
    """
    s0 = _plus(_plus((alpha, 0.0), beta_), -1.0)  # alpha+beta-1, exactly
    column = _PowerColumn(params.seq, params.r * params.r, s0, 1, alternating)
    coeffs = _KernelCoeffs(alpha, params.b, params.c, params.pq, _inner_policy(policy),
                           kernel, s0)
    return column.integral([(coeffs, 0)], policy)[0]


def _representation(params: MathieuParams, policy: QuadPolicy,
                    alternating: bool) -> EvalResult:
    # lam I(lam+1, eta) + eta I(lam, eta+1) as one integral of -f', f the
    # summand itself: the expansion at kappa_m(lam), read from the column at
    # the exponent pair lam+eta of the direct route
    column = _PowerColumn(params.seq, params.r * params.r, _plus((params.lam, 0.0), params.eta),
                          1, alternating)
    coeffs = _KernelCoeffs(params.lam, params.b, params.c, params.pq, _inner_policy(policy),
                           "extended")
    return column.integral([(coeffs, 0)], policy)[0]


def mathieu_via_integral(params: MathieuParams,
                         policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Series value through its closed integral representation:
    lam * I(lam+1, eta) + eta * I(lam, eta+1) with the counting weight,
    evaluated as the one integral of -f' against it (module docstring)."""
    return _representation(params, policy, alternating=False)


def mathieu_alt_via_integral(params: MathieuParams,
                             policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Alternating series through its integral representation (parity weight)."""
    return _representation(params, policy, alternating=True)


def u_integral(seq: SequenceSpec, lam: float, eta: float, r: float,
               policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Counting-weight power integral over (a_1, inf):
    integral of [a^-1(x)] / (x^lam (x+r^2)^eta) dx.

    x^-lam = (x+r^2)^-lam (1-w)^-lam, w = r^2/(x+r^2), expands in the
    binomial coefficients kappa_m = (lam)_m/m! (negative for m >= 1 when
    lam < 0).  Weighted by N and Abel-summed, the panels from the first
    a_N >= r^2 on are one column of power sums (_PowerColumn) for all orders.

    r^2 > a_1 is accepted: the panels left of r^2 have ratio w above 1/2,
    where the expansion converges too slowly, so they are integrated by
    quadrature of x^-lam (x+r^2)^-eta itself, in log form.
    """
    if not (r > 0.0):
        raise DomainError("u_integral requires r > 0")
    r2, inner = r * r, _inner_policy(policy)
    log_power = lambda x, dl, dh: -lam * math.log(x) - eta * math.log(x + r2)
    near = [integrate_finite_xc(log_power, seq.value(n), seq.value(n + 1), inner)  # a_n < r^2
            for n in range(1, counting_value(seq, math.nextafter(r2, 0.0)) + 1)]
    head = EvalResult(math.fsum(n * q.value for n, q in enumerate(near, 1)),
                      math.fsum(n * q.err_est for n, q in enumerate(near, 1)),
                      sum(q.n_work for q in near), all(q.converged for q in near))
    s0 = _plus(_plus((lam, 0.0), eta), -1.0)
    column = _PowerColumn(seq, r2, s0, len(near) + 1)
    return column.integral([(_u_coeffs(lam, s0), 0)], policy, head)[0]


def closed_tail_2f1(a1: float, lam: float, eta: float, r: float,
                    policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the integral over (a1, inf) of x^-lam (x+r^2)^-eta dx.

    Equals 2F1(eta, lam+eta-1; lam+eta; -r^2/a1) / ((lam+eta-1) a1^(lam+eta-1))
    for lam+eta > 1 and r^2 < a1 (GR 3.194.1 after x -> 1/t).  Carries the
    2F1's error and the rounding of the factor (_over_power).
    """
    # lam+eta as an exact pair: 1 + 2^-53 converges although it rounds to 1
    hi, lo = _plus((lam, 0.0), eta)
    sden = (hi - 1.0) + lo
    if not sden > 0.0:
        raise DivergenceError(f"tail integral diverges: lam+eta = {hi:.17g} {lo:+.3g} <= 1")
    if not (a1 > 0.0 and r > 0.0):
        raise DomainError("closed_tail_2f1 requires a1 > 0 and r > 0")
    if not r * r < a1:
        raise DomainError(f"closed_tail_2f1 requires r^2 < a1, got r^2={r * r}, a1={a1}")
    hyp = gauss_2f1_raw(eta, sden, sden + 1.0, -r * r / a1, policy)
    return _over_power(hyp, sden, math.log(a1), policy, f"closed_tail_2f1 {{}} at a1={a1!r}")


def _over_power(res: EvalResult, e: float, log_a1: float, policy: QuadPolicy,
                what: str) -> EvalResult:
    """res a_1^-e / e through _scaled.  e (1.5 ulps as s - 1 from a rounded
    s), log a_1, the product, log e and the sum (half an ulp each) put
    log_scale within 3 |e log a_1| + |log e| + 1.5 ulps."""
    log_scale = -e * log_a1 - math.log(e)
    return _scaled(res, log_scale, (3.0 * abs(e * log_a1) + abs(math.log(e)) + 1.5) * _EPS,
                   policy, what)


# ---------------------------------------------------------------------------
# printed upper bounds


def _check_bound_window(params: MathieuParams) -> None:
    if not (0.0 < params.lam <= 1.0):
        raise DomainError(f"bound requires lam in (0, 1], got {params.lam}")
    if not (params.r ** 2 < params.seq.a1):
        raise DomainError("bound requires r^2 < a_1 strictly")
    if not (params.b <= 1.0):
        raise DomainError(f"bound requires b <= 1 (Luke window), got b={params.b}")
    if not (params.c >= params.lam + 1.0):
        raise DomainError(f"bound requires c >= lam+1 (Luke window), got c={params.c}")


def _luke_bound(params: MathieuParams, parts: list[EvalResult], policy: QuadPolicy) -> EvalResult:
    # env [lam (A_L1 g_1 + B_L1 g_2) + eta (A_L0 g_3 + B_L0 g_4)] over the four
    # children g_i, with Luke's pair at L1 = lam+1 and L0 = lam: A_L = 1 - l_L,
    # B_L = 2(c+1) l_L / ((L+1)(b+1) r^2 + 2(c+1) a_1),
    # l_L = 2Lb(c+1) / (c(L+1)(b+1)).  Each term of the bracket charges its
    # child's error and 24 ulps (|A_L| <= 1 + l_L); PQParams.enveloped
    # applies env = exp(-X) and charges its rounding
    lam, b, c = params.lam, params.b, params.c
    r2, a1 = params.r * params.r, params.seq.a1
    value = err = 0.0
    for mult, big_l, (g_a, g_b) in ((lam, lam + 1.0, parts[:2]), (params.eta, lam, parts[2:])):
        ell = 2.0 * big_l * b * (c + 1.0) / (c * (big_l + 1.0) * (b + 1.0))
        coef_b = 2.0 * (c + 1.0) * ell / ((big_l + 1.0) * (b + 1.0) * r2 + 2.0 * (c + 1.0) * a1)
        value += mult * ((1.0 - ell) * g_a.value + coef_b * g_b.value)
        err += mult * (abs(1.0 - ell) * g_a.err_est + coef_b * g_b.err_est
                       + 24.0 * _EPS * ((1.0 + ell) * abs(g_a.value) + coef_b * abs(g_b.value)))
    bracket = EvalResult(value, err, sum(g.n_work for g in parts), all(g.converged for g in parts))
    return params.pq.enveloped(bracket, policy, "bound {}")


def bound_mathieu_rhs(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Printed four-term upper bound for the series: envelope factor, Luke's
    coefficients, and four counting-weight power integrals, summed in one
    pass over one power-sum column (its _PowerSums raises DivergenceError
    on the divergent ones, lam+eta <= 1 + 1/k)."""
    _check_bound_window(params)
    # the u_integrals at (lam+1, eta), (lam, eta), (lam, eta+1), (lam-1, eta+1):
    # one column at s0 = lam+eta-1 exactly, read at offsets 1, 0, 1, 0 (from
    # N = 1); their coefficient lists depend on lam and s0 only
    lam, s0 = params.lam, _plus(_plus((params.lam, 0.0), params.eta), -1.0)
    column = _PowerColumn(params.seq, params.r * params.r, s0, 1)
    sets = _scoped("bound", (lam, s0), lambda: [
        (_u_coeffs(alpha, _plus(s0, offset)), offset)
        for alpha, offset in ((lam + 1.0, 1), (lam, 0), (lam, 1), (lam - 1.0, 0))])
    return _luke_bound(params, column.integral(sets, policy), policy)


def bound_mathieu_alt_rhs(params: MathieuParams,
                          policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Printed four-term upper bound for the alternating series (closed 2F1 form).

    Enforced for lam+eta > 2, where the closed forms invoked by its
    derivation are valid.  Its children are four 2F1 values times
    a_1^-e / e, e = lam+eta or lam+eta-1 (_over_power).
    """
    _check_bound_window(params)
    eta, s, log_a1 = params.eta, params.lam + params.eta, math.log(params.seq.a1)
    if not (s > 2.0):
        raise DomainError(f"alternating bound requires lam+eta > 2, got {s:g}")
    z = -params.r * params.r / params.seq.a1
    parts = [_over_power(gauss_2f1_raw(a, e, cc, z, policy), e, log_a1, policy, "bound {}")
             for a, cc in ((eta, eta + 1.0), (eta + 1.0, eta + 2.0)) for e in (s, s - 1.0)]
    return _luke_bound(params, parts, policy)
