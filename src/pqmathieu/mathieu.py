"""Mathieu-type series with extended-Gauss kernels and their integral forms.

The series is sum_{n>=1} F_{p,q}(lam, b; c; -r^2/a_n) / (a_n^lam (a_n+r^2)^eta)
over a monotone divergent sequence a_n, plus the alternating variant.  Three
evaluation routes are provided and cross-checked:

* direct summation with an analytic tail completion,
* the closed integral representation with the counting-function weight
  (evaluated as exact interval sums, so the weight jumps always land on
  panel boundaries),
* printed upper bounds built from Luke's rational bound and the envelope
  factor.

Everywhere a kernel value is not computed exactly, the kernel is expanded
through the Pfaff-type transformation

    F_{p,q}(s, b; c; -r^2/x) x^(-s) (x+r^2)^(-t)
        = sum_m kappa_m r^(2m) (x+r^2)^(-(s+t+m)),
    kappa_m = (s)_m/m! * B(c-b+m, b; q, p) / B(b, c-b),

whose ratio r^2/(x+r^2) stays at or below 1/2 on the whole integration range
when r^2 <= a_1 (MathieuParams requires it), so the expansion converges
uniformly.  Its powers integrate in closed form, so every panel of the
integral representation is an exact sum over orders, with no quadrature; the
power tails beyond the panels close by Euler-Maclaurin corrections, whose
integral term is closed form too (a 2F1 series in the ratio, all terms
positive), or by an Euler transformation for alternating sums.  The
counting-weight power integrals of the bounds are the constant kernel
1 = 2F1(s, 0; c; z), kappa_m = (s)_m/m!, on the same path; u_integral also
accepts r^2 > a_1 and integrates the few panels left of r^2 by quadrature.
All remainders, including the omitted expansion orders and the rounding of
the tail exponents, are tracked and reported in tail_bound / err_est.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .classical import HyperTriple, gauss_2f1_raw
from .classical import beta as beta_fn
from .errors import DivergenceError, DomainError
from .extended import PQParams, _BetaColumn, extended_gauss_integral
from .extended import extended_beta  # noqa: F401  (traced by bench/worker.py)
from .quadrature import DEFAULT_POLICY, QuadPolicy, integrate_finite_xc
from .quadrature import integrate_to_infinity  # noqa: F401  (traced by bench/worker.py)
from .results import EvalResult

__all__ = [
    "SequenceSpec",
    "MathieuParams",
    "SeriesResult",
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

_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class SequenceSpec:
    """Monotone divergent sequence a_n = scale * n**exponent with its
    continuous extension a(x) = scale * x**exponent."""

    scale: float = 1.0
    exponent: float = 1.0

    @classmethod
    def power(cls, scale: float = 1.0, exponent: float = 1.0) -> "SequenceSpec":
        if not (scale > 0.0 and exponent > 0.0):
            raise DomainError("power sequence requires scale > 0 and exponent > 0")
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
class SeriesResult:
    value: float
    tail_bound: float
    n_terms: int
    method: str  # direct | integral_representation | bound_rhs
    converged: bool


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
        if not (self.lam > 0.0 and self.eta > 0.0 and self.r > 0.0):
            raise DomainError("require lam, eta, r > 0")
        if not (self.c > self.b > 0.0):
            raise DomainError(f"require c > b > 0, got b={self.b}, c={self.c}")
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
    is 1 for the constant kernel 2F1(alpha, 0; c; z) = 1.  The Beta column
    may be shared with another expansion at the same (b, c, p, q) and
    policy; work counts the blocks this expansion computed.
    """

    def __init__(self, alpha: float, b: float, c: float, pq: PQParams,
                 policy: QuadPolicy, kind: str, betas: _BetaColumn | None = None):
        self.alpha, self.b, self.c = alpha, b, c
        self.kind = kind
        self.values: list[float] = []
        self.err_values: list[float] = []
        self.work = 0
        self._pf = 1.0      # (alpha)_m / m!
        self._ratio = 1.0   # (c-b)_m / (c)_m, classical only
        if kind == "extended":
            self._norm = beta_fn(b, c - b)
            if betas is None:
                betas = _BetaColumn(c - b, b, pq.swapped(), policy)
            self._betas = betas

    def grow(self, m_count: int) -> None:
        if len(self.values) >= m_count:
            return
        if self.kind == "extended":
            before = self._betas.n_work
            self._betas.grow(m_count)
            self.work += self._betas.n_work - before
        while len(self.values) < m_count:
            m = len(self.values)
            if self.kind == "classical":
                self.values.append(self._pf * self._ratio)
                self.err_values.append(0.0)
                self._ratio *= (self.c - self.b + m) / (self.c + m)
            else:
                self.values.append(self._pf * self._betas.values[m] / self._norm)
                self.err_values.append(self._pf * self._betas.errs[m] / self._norm)
            self._pf *= (self.alpha + m) / (m + 1.0)


# ---------------------------------------------------------------------------
# tail helpers


def _fd1(f: Callable[[float], float], y: float, h: float = 0.5) -> float:
    return (f(y - 2 * h) - 8.0 * f(y - h) + 8.0 * f(y + h) - f(y + 2 * h)) / (12.0 * h)


def _fd3(f: Callable[[float], float], y: float, h: float = 0.5) -> float:
    return (-f(y - 2 * h) + 2.0 * f(y - h) - 2.0 * f(y + h) + f(y + 2 * h)) / (2.0 * h ** 3)


def _fd5(f: Callable[[float], float], y: float, h: float = 0.5) -> float:
    return (-f(y - 3 * h) + 4.0 * f(y - 2 * h) - 5.0 * f(y - h)
            + 5.0 * f(y + h) - 4.0 * f(y + 2 * h) + f(y + 3 * h)) / (2.0 * h ** 5)


def _sigma_err(sigma: float) -> float:
    # the tail exponents are the rounded sums lam+eta+m (two roundings, each
    # at most eps/2 of a partial sum <= sigma) or alpha+beta+m-1 (three, of
    # partial sums <= sigma+1), so they lie within 1.5 eps (sigma+1) of the
    # exact exponent
    return 1.5 * _EPS * (abs(sigma) + 1.0)


def _power_integral(seq: SequenceSpec, r2: float, a: int,
                    sigma: float) -> tuple[float, float]:
    """Closed form of the integral over (a, inf) of (s y^k + r^2)^-sigma dy,
    k sigma > 1, with its error bound.

    y = a t^(-1/k) gives an Euler integral (DLMF 15.6.1) and Pfaff (15.8.1)
    turns it into a u^-sigma/(k sigma-1) 2F1(sigma, 1; sigma+1-1/k; w) with
    u = a_a + r^2 and w = r^2/u: every term t_j is positive, t_0 = 1,
    t_{j+1} = t_j w (sigma+j)/(sigma+1-1/k+j), and the terms from t_J on
    add at most t_J/(1-q), q = w max(1, (sigma+J)/(sigma+1-1/k+J)).  The
    bound also charges the rounding of u, w and each ratio, and of sigma
    (_sigma_err) through u^-sigma (|log u|), the ratios and k sigma - 1,
    whose relative error is amplified by 1/(k sigma - 1) near the cliff.
    """
    k = seq.exponent
    d = k * sigma - 1.0
    if not d > 0.0:  # alpha+beta just above 1 + 1/k can round to k sigma = 1
        raise DivergenceError(f"power tail diverges: k*sigma = {k * sigma:g} <= 1")
    dsig = _sigma_err(sigma)
    u = seq.value(float(a)) + r2
    w = r2 / u
    c = sigma + 1.0 - 1.0 / k
    terms = []
    t, q, j = 1.0, 0.0, 0
    while j < 200:
        terms.append(t)
        ratio = (sigma + j) / (c + j)
        t *= w * ratio
        j += 1
        q = w * max(1.0, (sigma + j) / (c + j))
        if t <= 0.25 * _EPS * (1.0 - q):  # t_0 = 1 <= the sum
            break
    total = math.fsum(terms)
    trunc = t / (1.0 - q) if q < 1.0 else math.inf
    # term j carries j ratio steps, each ~12 eps (w, sigma+j, c+j, products)
    # plus the shift of (sigma+j)/(c+j) under a sigma moved by dsig
    step = 12.0 * _EPS + dsig * (1.0 + 1.0 / sigma)
    rnd = math.fsum(j * step * t_j for j, t_j in enumerate(terms)) + _EPS * total
    scale = a * u ** (-sigma) / d
    # relative error of the scale: u (4.5 eps, raised to sigma), the power
    # at a rounded exponent, k sigma - 1, and the products
    scale_rel = (4.5 * sigma + 4.0) * _EPS + abs(math.log(u)) * dsig \
        + (k * dsig + 0.5 * _EPS * k * sigma) / d
    return scale * total, scale * (trunc + rnd + scale_rel * (total + trunc + rnd))


def _em_integer_tail(seq: SequenceSpec, r2: float, sigma: float,
                     a: int) -> tuple[float, float, int]:
    # sum_{n=a}^inf f(n), f(y) = (a(y) + r^2)^-sigma:
    # integral + f(a)/2 - f'(a)/12 + f'''(a)/720 - f^(5)(a)/30240,
    # remainder of order f^(7); the integral is closed form (_power_integral),
    # the derivatives are finite differences (15 evaluations of f)
    f = lambda y: (seq.value(y) + r2) ** (-sigma)
    integral, i_err = _power_integral(seq, r2, a, sigma)
    fa = f(float(a))
    # step sizes balance FD truncation (h^4 f^(5), h^2 f^(5), h^2 f^(7))
    # against roundoff in the divided differences
    d1 = _fd1(f, float(a), h=0.1)
    d3 = _fd3(f, float(a), h=0.05)
    d5 = _fd5(f, float(a), h=0.5)
    value = integral + 0.5 * fa - d1 / 12.0 + d3 / 720.0 - d5 / 30240.0
    decay = abs(d1) * a / abs(fa) if fa != 0.0 else 1.0
    rem = 3.0 * abs(d5) * ((decay + 6.0) / a) ** 2 / 1209600.0
    fd_trunc = 1.5e-6 * abs(d5)  # h^4/360 and h^2/2880 stencil truncation
    # the correction terms at a rounded sigma: |log u| per unit of sigma
    sig_shift = abs(math.log(seq.value(float(a)) + r2)) * _sigma_err(sigma)
    bound = i_err + rem + fd_trunc + (2e-16 + sig_shift) * abs(fa)
    return value, bound, 15


def _euler_transform_tail(f: Callable[[float], float], a: int,
                          n_diffs: int = 18) -> tuple[float, float]:
    # sum_{n=a}^inf (-1)^(n-a) f(n) by the Euler transformation on forward
    # differences; for smooth power-law decay the transformed terms fall off
    # like (decay_rate / (2a))^j
    vals = [f(float(a + j)) for j in range(n_diffs + 1)]
    scale = abs(vals[0])
    terms = []
    for j in range(n_diffs + 1):
        terms.append((-1) ** j * vals[0] / 2.0 ** (j + 1))
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    total = math.fsum(terms)
    bound = 2.0 * abs(terms[-1]) + 16.0 * 2.2e-16 * scale
    return total, bound


def _series_tail_start(seq: SequenceSpec, r2: float) -> int:
    # start the analytic tail where the expansion ratio r^2/(a+r^2) <= 1/9
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


def _power_tail(coeffs: _KernelCoeffs, r2: float, w: float,
                order_tail: Callable[[int], tuple[float, float, float]]) -> tuple[float, float]:
    # sum_m kappa_m r^(2m) T_m over the orders kept at ratio w (<= the ratio
    # on every panel of the tail); order_tail(m) gives T_m, its error bound
    # and an M_m such that the omitted orders j >= m_top add at most
    # |kappa_m_top| r^(2 m_top) M_m_top / (1-q), q as in _orders
    m_top, omit = _orders(coeffs.alpha, w, 1e-16)
    coeffs.grow(m_top + 1)
    tail = 0.0
    err = 0.0
    for m in range(m_top + 1):
        t_m, b_m, major = order_tail(m)
        r2m = r2 ** m
        weight = coeffs.values[m] * r2m
        err += coeffs.err_values[m] * r2m * abs(t_m) + abs(weight) * b_m
        if m < m_top:
            tail += weight * t_m
        else:
            err += omit * abs(weight) * major
    return tail, err


def _panel(coeffs: _KernelCoeffs, s0: float, r2: float, lo: float,
           hi: float) -> tuple[float, float]:
    """Integral over [lo, hi] of sum_m kappa_m r^(2m) (x+r^2)^-(s0+m), with
    its error bound.

    Every order integrates exactly: with u = lo+r^2, w = r^2/u and
    L = -log1p((hi-lo)/u), order m gives u^(1-s0) kappa_m w^m g_m with
    g_m = -expm1((s0+m-1) L)/(s0+m-1), which keeps its digits on thin panels
    where the difference of powers u^(1-s) - (u+hi-lo)^(1-s) cancels.  g_m
    falls with m, so the omitted orders add |kappa_m| w^m g_m / (1-q) at the
    first one (_orders); the coefficient errors are integrated the same way.
    Rounding: eps (4m+16) |term| covers w^m, kappa_m (3m) and g_m, and
    eps |log u| (1+|s0|) |term| the power u^(1-s0) at a rounded exponent.
    """
    u = lo + r2
    w = r2 / u
    big_l = -math.log1p((hi - lo) / u)
    m_n, omit = _orders(coeffs.alpha, w, 1e-15)
    coeffs.grow(m_n + 1)
    log_term = abs(math.log(u)) * (1.0 + abs(s0))
    terms = []
    rnd = 0.0
    coef_err = 0.0
    wpow = 1.0
    for m in range(m_n):
        t = s0 + m - 1.0
        wg = wpow * (-math.expm1(t * big_l) / t if t != 0.0 else -big_l)
        term = coeffs.values[m] * wg
        terms.append(term)
        rnd += (4.0 * m + 16.0 + log_term) * abs(term)
        coef_err += coeffs.err_values[m] * wg
        wpow *= w
    t = s0 + m_n - 1.0
    trunc = omit * abs(coeffs.values[m_n]) * wpow * -math.expm1(t * big_l) / t
    scale = u ** (1.0 - s0)
    return scale * math.fsum(terms), scale * (_EPS * rnd + coef_err + trunc)


def _inner_policy(policy: QuadPolicy) -> QuadPolicy:
    # inner quadratures run ~50x tighter so their accumulated error
    # estimates stay clear of the caller's certification target
    return QuadPolicy(rel_tol=max(policy.rel_tol * 0.02, 5e-16),
                      abs_tol=policy.abs_tol,
                      max_refinements=policy.max_refinements,
                      max_evals=policy.max_evals)


# ---------------------------------------------------------------------------
# direct summation


def _check_series_convergence(params: MathieuParams) -> None:
    seq = params.seq
    if seq.exponent * (params.lam + params.eta) <= 1.0:
        raise DivergenceError(
            f"series diverges: exponent*(lam+eta) = "
            f"{seq.exponent * (params.lam + params.eta):g} <= 1")


def _mathieu_engine(params: MathieuParams, policy: QuadPolicy, alternating: bool,
                    kind: str) -> SeriesResult:
    _check_series_convergence(params)
    seq = params.seq
    lam, eta, r2 = params.lam, params.eta, params.r ** 2
    inner = _inner_policy(policy)

    head_terms: list[float] = []
    head_err = 0.0

    def extend_head(upto: int) -> None:
        nonlocal head_err
        for n in range(len(head_terms) + 1, upto):
            an = seq.value(n)
            fres = (gauss_2f1_raw(lam, params.b, params.c, -r2 / an, inner) if kind == "classical"
                    else extended_gauss_integral(params.triple, -r2 / an, params.pq, inner))
            w = math.exp(-lam * math.log(an)) * (an + r2) ** (-eta)
            sign = 1.0 if (not alternating or n % 2 == 1) else -1.0
            head_terms.append(sign * fres.value * w)
            head_err += fres.err_est * w

    coeffs = _KernelCoeffs(lam, params.b, params.c, params.pq, inner, kind)
    a_start = _series_tail_start(seq, r2)

    def order_tail(m: int) -> tuple[float, float, float]:
        psi = lambda y, s=lam + eta + m: (seq.value(y) + r2) ** (-s)
        if alternating:
            # kappa_j > 0 (alpha = lam > 0), so the omitted orders sum a
            # positive decreasing sequence and stay below its first term
            t_m, b_m = _euler_transform_tail(psi, a_start)
            sign = 1.0 if a_start % 2 == 1 else -1.0
            return sign * t_m, b_m, psi(float(a_start))
        t_m, b_m, _ = _em_integer_tail(seq, r2, lam + eta + m, a_start)
        return t_m, b_m, abs(t_m)

    attempts = 0
    while True:
        extend_head(a_start)
        tail, tail_err = _power_tail(coeffs, r2, r2 / (seq.value(a_start) + r2), order_tail)
        tail_err += head_err
        value = math.fsum(head_terms) + tail
        tol = max(policy.abs_tol, policy.rel_tol * abs(value))
        if tail_err <= tol or attempts >= 3:
            return SeriesResult(value, tail_err, len(head_terms), "direct",
                                tail_err <= tol)
        a_start *= 2
        attempts += 1


def mathieu_direct(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY,
                   kernel: str = "extended") -> SeriesResult:
    """Sum the Mathieu-type series directly.

    Terms up to an adaptive cutoff are evaluated through the kernel's Euler
    integral; the remainder is completed analytically with the transformed
    kernel expansion, every term positive.  kernel="classical" replaces the
    extended kernel by the classical Gauss series (the p = q = 0
    counterpart).
    """
    return _mathieu_engine(params, policy, alternating=False, kind=kernel)


def mathieu_alternating_direct(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY,
                               kernel: str = "extended") -> SeriesResult:
    """Alternating variant of mathieu_direct.

    The analytic tail uses the Euler transformation of the power terms; its
    error is bounded by the last transformed difference, in the spirit of
    the pairwise bracketing of the partial sums.
    """
    return _mathieu_engine(params, policy, alternating=True, kind=kernel)


# ---------------------------------------------------------------------------
# integral representation with the counting weight


def _check_weighted_convergence(alpha: float, beta_: float, seq: SequenceSpec,
                                alternating: bool) -> None:
    # the parity weight keeps about half of every panel, so the alternating
    # integral converges only where the plain power integral does
    k = seq.exponent
    if alternating:
        if alpha + beta_ <= 1.0 or k * (alpha + beta_) <= 1.0:
            raise DivergenceError(
                f"alternating weighted integral diverges: alpha+beta = "
                f"{alpha + beta_:g}, k*(alpha+beta) = {k * (alpha + beta_):g}; "
                f"both must exceed 1")
    elif alpha + beta_ <= 1.0 + 1.0 / k:
        raise DivergenceError(
            f"weighted integral diverges: alpha+beta = {alpha + beta_:g} "
            f"<= 1 + 1/k = {1.0 + 1.0 / k:g}")


def _cahen_engine(alpha: float, beta_: float, seq: SequenceSpec, r: float,
                  b: float, c: float, pq: PQParams, alternating: bool,
                  policy: QuadPolicy, kind: str,
                  betas: _BetaColumn | None = None, first: int = 1,
                  head: EvalResult = EvalResult(0.0, 0.0, 0, True)) -> EvalResult:
    # panels n < first are already summed, weighted, in head
    _check_weighted_convergence(alpha, beta_, seq, alternating)
    r2 = r * r
    s0 = alpha + beta_
    inner = _inner_policy(policy)
    coeffs = _KernelCoeffs(alpha, b, c, pq, inner, kind, betas)
    n_work = head.n_work
    err = head.err_est
    a_start = _series_tail_start(seq, r2)

    def order_tail(m: int) -> tuple[float, float, float]:
        # panel N of order m integrates to I_N = v(N) - v(N+1) >= 0
        nonlocal n_work
        v_m = lambda y, s=s0 + m: (seq.value(y) + r2) ** (1.0 - s) / (s - 1.0)
        if alternating:
            # sum_{N>=A} parity(N) I_N = v(A)/2 - (-1)^A ET(I)/2, with ET the
            # Euler transformation; sum_{N>=A} I_N = v(A) majorises it
            i_m = lambda y, v=v_m: v(y) - v(y + 1.0)
            et, et_bound = _euler_transform_tail(i_m, a_start)
            sign_a = 1.0 if a_start % 2 == 0 else -1.0
            v_a = v_m(float(a_start))
            return 0.5 * v_a - 0.5 * sign_a * et, 0.5 * et_bound, abs(v_a)
        # Abel summation: sum_{N>=A} N (v_N - v_{N+1}) = A v_A + sum_{N>=A+1} v_N,
        # v = (a + r^2)^-sigma / sigma with sigma = s0+m-1
        sigma = s0 + m - 1.0
        em, em_bound, em_work = _em_integer_tail(seq, r2, sigma, a_start + 1)
        n_work += em_work
        u_a = seq.value(float(a_start)) + r2
        s_val = (a_start * u_a ** (-sigma) + em) / sigma
        # 1/sigma and u_a^-sigma at a rounded sigma
        sig_shift = (1.0 / sigma + abs(math.log(u_a))) * _sigma_err(sigma)
        return s_val, em_bound / sigma + sig_shift * abs(s_val), abs(s_val)

    attempts = 0
    computed_until = first
    head_parts = [head.value]
    while True:
        for n in range(computed_until, a_start):
            if alternating and n % 2 == 0:
                continue  # parity weight vanishes on even panels: skip exactly
            w_n = 1.0 if alternating else float(n)
            val, p_err = _panel(coeffs, s0, r2, seq.value(n), seq.value(n + 1))
            head_parts.append(w_n * val)
            err += w_n * p_err
        computed_until = a_start

        # analytic tail over panels N >= a_start
        tail, tail_err = _power_tail(coeffs, r2, r2 / (seq.value(a_start) + r2), order_tail)
        value = math.fsum(head_parts) + tail
        total_err = err + tail_err
        tol = max(policy.abs_tol, policy.rel_tol * abs(value))
        if total_err <= tol or attempts >= 3:
            return EvalResult(value, total_err, n_work + coeffs.work,
                              total_err <= tol and head.converged)
        a_start *= 2
        attempts += 1


def cahen_integral(alpha: float, beta_: float, params: MathieuParams, alternating: bool,
                   policy: QuadPolicy = DEFAULT_POLICY, kernel: str = "extended", *,
                   betas: _BetaColumn | None = None) -> EvalResult:
    """Weighted tail integral of the kernel against the counting function.

    Computes the integral over (a_1, inf) of
    F_{p,q}(alpha, b; c; -r^2/x) w(x) / (x^alpha (x+r^2)^beta_) dx with w the
    counting function (non-alternating) or its parity indicator
    (alternating).  Evaluated as a sum of per-interval integrals whose
    boundaries are exactly the sequence points, plus an analytic tail.  Each
    interval integrates the kernel expansion term by term in closed form (no
    quadrature); its error bound adds a stated rounding bound, the omitted
    expansion orders and the coefficient errors.  The first slot moves the
    kernel parameter and the x power together.  betas
    lets two integrals at the same params and policy share the extended-Beta
    column B(c-b+m, b; q, p) of their kernel expansions.
    """
    return _cahen_engine(alpha, beta_, params.seq, params.r, params.b, params.c,
                         params.pq, alternating, policy, kernel, betas)


def _representation(params: MathieuParams, policy: QuadPolicy, kernel: str,
                    alternating: bool) -> SeriesResult:
    # lam * I(lam+1, eta) + eta * I(lam, eta+1); the two kernel expansions
    # (alpha = lam+1 and alpha = lam) share one Beta column
    betas = None
    if kernel == "extended":
        betas = _BetaColumn(params.c - params.b, params.b, params.pq.swapped(),
                            _inner_policy(policy))
    i1 = cahen_integral(params.lam + 1.0, params.eta, params, alternating, policy, kernel,
                        betas=betas)
    i2 = cahen_integral(params.lam, params.eta + 1.0, params, alternating, policy, kernel,
                        betas=betas)
    value = params.lam * i1.value + params.eta * i2.value
    bound = params.lam * i1.err_est + params.eta * i2.err_est
    return SeriesResult(value, bound, i1.n_work + i2.n_work, "integral_representation",
                        i1.converged and i2.converged)


def mathieu_via_integral(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY,
                         kernel: str = "extended") -> SeriesResult:
    """Series value through its closed integral representation:
    lam * I(lam+1, eta) + eta * I(lam, eta+1) with the counting weight."""
    return _representation(params, policy, kernel, alternating=False)


def mathieu_alt_via_integral(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY,
                             kernel: str = "extended") -> SeriesResult:
    """Alternating series through its integral representation (parity weight)."""
    return _representation(params, policy, kernel, alternating=True)


def u_integral(seq: SequenceSpec, lam: float, eta: float, r: float,
               policy: QuadPolicy = DEFAULT_POLICY) -> EvalResult:
    """Counting-weight power integral over (a_1, inf):
    integral of [a^-1(x)] / (x^lam (x+r^2)^eta) dx.

    The constant kernel 1 is 2F1(lam, 0; c; z), so this is the classical
    counting-weight integral at b = 0: its panels and tail run through the
    same expansion, with the binomial coefficients kappa_m = (lam)_m/m! of
    x^-lam = (x+r^2)^-lam (1-w)^-lam (negative for m >= 1 when lam < 0).

    r^2 > a_1 is accepted: the panels left of r^2 have ratio w above 1/2,
    where the expansion converges too slowly, so they are integrated by
    quadrature of x^-lam (x+r^2)^-eta itself.
    """
    if not (r > 0.0):
        raise DomainError("u_integral requires r > 0")
    _check_weighted_convergence(lam, eta, seq, False)
    r2, inner = r * r, _inner_policy(policy)
    power = lambda x, dl, dh: math.exp(-lam * math.log(x)) * (x + r2) ** (-eta)
    near = [integrate_finite_xc(power, seq.value(n), seq.value(n + 1), inner)  # a_n < r^2
            for n in range(1, counting_value(seq, math.nextafter(r2, 0.0)) + 1)]
    head = EvalResult(math.fsum(n * q.value for n, q in enumerate(near, 1)),
                      math.fsum(n * q.abs_err_est for n, q in enumerate(near, 1)),
                      sum(q.n_evals for q in near), all(q.converged for q in near))
    return _cahen_engine(lam, eta, seq, r, 0.0, 1.0, PQParams(), False, policy, "classical",
                         first=len(near) + 1, head=head)


def closed_tail_2f1(a1: float, lam: float, eta: float, r: float,
                    policy: QuadPolicy = DEFAULT_POLICY) -> float:
    """Closed form of the integral over (a1, inf) of x^-lam (x+r^2)^-eta dx.

    Equals 2F1(eta, lam+eta-1; lam+eta; -r^2/a1) / ((lam+eta-1) a1^(lam+eta-1))
    for lam+eta > 1 and r^2 < a1 (GR 3.194.1 after x -> 1/t).
    """
    if lam + eta <= 1.0:
        raise DivergenceError(f"tail integral diverges: lam+eta = {lam + eta:g} <= 1")
    if not (a1 > 0.0 and r > 0.0):
        raise DomainError("closed_tail_2f1 requires a1 > 0 and r > 0")
    if not r * r < a1:
        raise DomainError(f"closed_tail_2f1 requires r^2 < a1, got r^2={r * r}, a1={a1}")
    sden = lam + eta - 1.0
    hyp = gauss_2f1_raw(eta, sden, sden + 1.0, -r * r / a1, policy)
    return hyp.value * math.exp(-sden * math.log(a1)) / sden


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


def bound_mathieu_rhs(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY) -> float:
    """Printed four-term upper bound for the series: envelope factor, Luke's
    coefficients, and four counting-weight power integrals."""
    _check_bound_window(params)
    lam, eta, b, c, r = params.lam, params.eta, params.b, params.c, params.r
    seq = params.seq
    a1, r2 = seq.a1, r * r
    if lam + eta <= 1.0 + 1.0 / seq.exponent:
        raise DivergenceError("bound diverges: lam+eta <= 1 + 1/k")
    env = params.pq.envelope
    u_l1e = u_integral(seq, lam + 1.0, eta, r, policy).value
    u_le = u_integral(seq, lam, eta, r, policy).value
    u_le1 = u_integral(seq, lam, eta + 1.0, r, policy).value
    u_lm1e1 = u_integral(seq, lam - 1.0, eta + 1.0, r, policy).value
    part1 = (1.0 - 2.0 * (lam + 1.0) * b * (c + 1.0) / (c * (lam + 2.0) * (b + 1.0))) * u_l1e
    part2 = 4.0 * (lam + 1.0) * b * (c + 1.0) ** 2 * u_le / (
        c * (lam + 2.0) * (b + 1.0) * ((lam + 2.0) * (b + 1.0) * r2 + 2.0 * (c + 1.0) * a1))
    part3 = (1.0 - 2.0 * lam * b * (c + 1.0) / (c * (lam + 1.0) * (b + 1.0))) * u_le1
    part4 = 4.0 * lam * b * (c + 1.0) ** 2 * u_lm1e1 / (
        c * (lam + 1.0) * (b + 1.0) * ((lam + 1.0) * (b + 1.0) * r2 + 2.0 * (c + 1.0) * a1))
    return lam * env * (part1 + part2) + eta * env * (part3 + part4)


def bound_mathieu_alt_rhs(params: MathieuParams, policy: QuadPolicy = DEFAULT_POLICY) -> float:
    """Printed four-term upper bound for the alternating series (closed 2F1 form).

    Assembled exactly as printed; enforced for lam+eta > 2, where the closed
    forms invoked by its derivation are valid.
    """
    _check_bound_window(params)
    lam, eta, b, c, r = params.lam, params.eta, params.b, params.c, params.r
    a1 = params.seq.a1
    r2 = r * r
    if not (lam + eta > 2.0):
        raise DomainError(f"alternating bound requires lam+eta > 2, got {lam + eta:g}")
    env = params.pq.envelope
    z = -r2 / a1
    f1 = gauss_2f1_raw(eta, lam + eta, eta + 1.0, z, policy).value
    f2 = gauss_2f1_raw(eta, lam + eta - 1.0, eta + 1.0, z, policy).value
    f3 = gauss_2f1_raw(eta + 1.0, lam + eta, eta + 2.0, z, policy).value
    f4 = gauss_2f1_raw(eta + 1.0, lam + eta - 1.0, eta + 2.0, z, policy).value
    a_pow = math.exp(-(lam + eta) * math.log(a1))        # a1^-(lam+eta)
    a_pow1 = math.exp((1.0 - lam - eta) * math.log(a1))  # a1^(1-lam-eta)
    den_l = (lam + 2.0) * (b + 1.0) * r2 + 2.0 * (c + 1.0) * a1
    den_e = (lam + 1.0) * (b + 1.0) * r2 + 2.0 * (c + 1.0) * a1
    t1 = (1.0 - 2.0 * (lam + 1.0) * b * (c + 1.0) / (c * (lam + 2.0) * (b + 1.0))) \
        * f1 * a_pow / (lam + eta)
    t2 = 4.0 * (lam + 1.0) * b * (c + 1.0) ** 2 / (c * (lam + 2.0) * (b + 1.0)) \
        * a_pow1 * f2 / ((lam + eta - 1.0) * den_l)
    t3 = (1.0 - 2.0 * lam * b * (c + 1.0) / (c * (lam + 1.0) * (b + 1.0))) \
        * f3 * a_pow / (lam + eta)
    t4 = 4.0 * lam * b * (c + 1.0) ** 2 / (c * (lam + 1.0) * (b + 1.0)) \
        * a_pow1 * f4 / ((lam + eta - 1.0) * den_e)
    return lam * env * (t1 + t2) + eta * env * (t3 + t4)
