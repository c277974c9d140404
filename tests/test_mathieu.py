import math
import random
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pqmathieu.mathieu as mathieu
from pqmathieu.classical import gauss_2f1_raw
from pqmathieu.errors import DivergenceError, DomainError
from pqmathieu.extended import PQParams, extended_gauss_integral
from pqmathieu.mathieu import (MathieuParams, SequenceSpec, _hurwitz_zeta, _orders, _plus,
                               alternating_counting_value, bound_mathieu_alt_rhs,
                               bound_mathieu_rhs, cahen_integral, closed_tail_2f1,
                               counting_value, mathieu_alt_via_integral,
                               mathieu_alternating_direct, mathieu_direct,
                               mathieu_via_integral, u_integral)
from pqmathieu.quadrature import DEFAULT_POLICY, QuadPolicy, integrate_to_infinity

SEQ_N = SequenceSpec.power()
SEQ_N2 = SequenceSpec.power(1.0, 2.0)
SEQ_2N = SequenceSpec.power(2.0, 1.0)
PQ0 = PQParams()

# brute-force partial sums of ln(1+1/n)/(n+1) with analytic tail completion
# (tests/make_oracles.py)
O_MATHIEU_LOG = 0.7885305659115089
O_MATHIEU_ALT = 0.25648383847465783
# interval sums telescope to 1 - euler_gamma and 2*euler_gamma - 1
# (tests/make_oracles.py; 1e5-interval midpoint rule agrees to its h^2 error)
O_CAHEN_COUNT = 0.42278433509846713
O_U_INTEGRAL = 0.15443132980306573


def test_sequence_spec():
    assert SEQ_N.a1 == 1.0
    assert SEQ_2N.value(3.0) == 6.0
    assert SEQ_N2.inverse(9.0) == pytest.approx(3.0, rel=1e-15)
    assert SEQ_N.label == "n" and SEQ_N2.label == "n^2" and SEQ_2N.label == "2*n"
    with pytest.raises(DomainError):
        SequenceSpec.power(0.0, 1.0)
    with pytest.raises(DomainError):
        SequenceSpec.power(1.0, math.inf)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 1e6), st.sampled_from([SEQ_N, SEQ_N2, SEQ_2N]))
def test_sequence_inverse_consistency(x, seq):
    assert seq.inverse(seq.value(x)) == pytest.approx(x, rel=1e-12)


def test_counting_examples():
    assert counting_value(SEQ_N, 2.5) == 2
    assert counting_value(SEQ_N2, 10.0) == 3
    assert counting_value(SEQ_2N, 7.0) == 3
    assert counting_value(SEQ_N, 0.2) == 0


def test_counting_brute_force_exact():
    rng = random.Random(4)
    for seq in (SEQ_N, SEQ_N2, SEQ_2N):
        a_vals = np.array([seq.value(n) for n in range(1, 501)])
        xs = np.array([rng.uniform(0.0, seq.value(450.0)) for _ in range(300)])
        brute = (a_vals[None, :] <= xs[:, None]).sum(axis=1)
        got = np.array([counting_value(seq, float(x)) for x in xs])
        assert (brute == got).all()


def test_counting_at_exact_lattice_points():
    # x equal to a sequence value (inclusive count), including inexact floats
    for seq in (SEQ_N, SEQ_N2, SEQ_2N, SequenceSpec.power(0.1, 1.0)):
        for n in (1, 2, 3, 7, 40):
            assert counting_value(seq, seq.value(n)) == n


def test_alternating_counting():
    assert alternating_counting_value(SEQ_N, 2.5) == 0
    assert alternating_counting_value(SEQ_N, 1.5) == 1
    assert alternating_counting_value(SEQ_N2, 10.0) == 1
    # with a_n = n the parity weight is the exact 1,0,1,0,... unit indicator
    for n in range(1, 12):
        assert alternating_counting_value(SEQ_N, n + 0.5) == (n & 1)


def test_params_validation():
    with pytest.raises(DomainError):
        MathieuParams(0.0, 1.0, 0.5, 1.0, 2.0, PQ0, SEQ_N)
    with pytest.raises(DomainError):
        MathieuParams(1.0, 1.0, 1.2, 1.0, 2.0, PQ0, SEQ_N)  # r^2 > a_1
    with pytest.raises(DomainError):
        MathieuParams(1.0, 1.0, 0.5, 2.0, 1.0, PQ0, SEQ_N)  # c <= b
    with pytest.raises(DomainError):
        MathieuParams(1.0, 1.0, 0.5, 1.0, math.inf, PQ0, SEQ_N)


def test_mathieu_direct_oracle():
    params = MathieuParams(1.0, 1.0, 1.0, 1.0, 2.0, PQ0, SEQ_N)
    res = mathieu_direct(params)
    assert res.converged
    assert res.value == pytest.approx(O_MATHIEU_LOG, rel=1e-12)
    classical = mathieu_direct(params, kernel="classical")
    assert classical.value == pytest.approx(O_MATHIEU_LOG, rel=1e-12)


def test_mathieu_alternating_oracle():
    params = MathieuParams(1.0, 1.0, 1.0, 1.0, 2.0, PQ0, SEQ_N)
    res = mathieu_alternating_direct(params)
    assert res.converged
    assert res.value == pytest.approx(O_MATHIEU_ALT, rel=1e-12)
    classical = mathieu_alternating_direct(params, kernel="classical")
    assert classical.value == pytest.approx(O_MATHIEU_ALT, rel=1e-12)


def test_mathieu_positivity():
    params = MathieuParams(0.7, 1.3, 0.6, 0.8, 1.9, PQParams(0.4, 0.9), SEQ_N)
    r2 = params.r ** 2
    terms = [extended_gauss_integral(params.triple, -r2 / n, params.pq).value
             / (n ** params.lam * (n + r2) ** params.eta) for n in range(1, 20)]
    assert all(t > 0.0 for t in terms)
    assert mathieu_direct(params).value > 0.0


def test_alternating_bracketing():
    # terms decrease, so partial sums over complete sign pairs increase and
    # stay below the first term
    params = MathieuParams(1.0, 1.5, 0.8, 1.0, 2.0, PQParams(0.3, 0.3), SEQ_N)
    r2 = params.r ** 2
    terms = [extended_gauss_integral(params.triple, -r2 / n, params.pq).value
             / (n ** params.lam * (n + r2) ** params.eta) for n in range(1, 41)]
    assert all(terms[i] > terms[i + 1] for i in range(len(terms) - 1))
    pair_sums = []
    acc = 0.0
    for i in range(0, 40, 2):
        acc += terms[i] - terms[i + 1]
        pair_sums.append(acc)
    assert all(pair_sums[i] < pair_sums[i + 1] for i in range(len(pair_sums) - 1))
    assert all(s <= terms[0] for s in pair_sums)
    alt = mathieu_alternating_direct(params)
    assert pair_sums[-1] < alt.value < terms[0]


def test_starved_direct_route_runs_once():
    # a starved budget leaves the head terms unconverged; the route sums the
    # 32 head terms below its one tail start and reports the miss, and its
    # err_est still covers the value at the default budget
    params = MathieuParams(1.3914331046410342, 1.2856495286586438, 0.725137339803494,
                           0.6188488361830147, 1.3125508899046214,
                           PQParams(0.46297174580536277, 0.7231748544083486), SEQ_N)
    res = mathieu_alternating_direct(params, QuadPolicy(max_evals=104))
    assert res.n_work == 32
    assert not res.converged
    full = mathieu_alternating_direct(params)
    assert full.converged
    assert full.value == pytest.approx(0.012962312123558618, rel=1e-12)
    assert abs(res.value - full.value) <= res.err_est


def test_identity_derived_point():
    params = MathieuParams(0.5, 2.0, 0.7, 0.5, 1.5, PQParams(0.5, 0.5), SEQ_N)
    d = mathieu_direct(params)
    v = mathieu_via_integral(params)
    assert abs(d.value - v.value) <= 1e-6 * abs(d.value)
    da = mathieu_alternating_direct(params)
    va = mathieu_alt_via_integral(params)
    assert abs(da.value - va.value) <= 1e-6 * abs(da.value)


def test_identity_addend_order_invariance():
    # lam I(lam+1, eta) + eta I(lam, eta+1) from the two public integrals is
    # the representation that the integral routes evaluate as one integral;
    # the public calls integrate at the rounded lam+1 and eta+1, which moves
    # the sum little here; near the divergence edge the two differ by more
    params = MathieuParams(1.2, 1.2, 0.7, 1.0, 2.0, PQParams(0.2, 0.2), SEQ_N)
    lam, eta = params.lam, params.eta
    for alternating, route in ((False, mathieu_via_integral), (True, mathieu_alt_via_integral)):
        i1 = cahen_integral(lam + 1.0, eta, params, alternating)
        i2 = cahen_integral(lam, eta + 1.0, params, alternating)
        first = lam * i1.value + eta * i2.value
        swapped = eta * i2.value + lam * i1.value
        assert first == swapped  # float addition is commutative
        merged = route(params)
        assert abs(first - merged.value) <= lam * i1.err_est + eta * i2.err_est + merged.err_est


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((1.0, 1.5, 2.0)), st.floats(0.3, 2.0), st.floats(1.2, 3.5),
       st.floats(0.3, 1.5), st.floats(0.3, 1.5), st.floats(0.1, 1.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.booleans())
@example(1.0, 1.5, 2.7, 1.0, 1.0, 1.0, 0.5, 0.5, False)  # r^2 = a_1: the column at w = 1/2
@example(1.0, 1.5, 2.7, 1.0, 1.0, 1.0, 0.5, 0.5, True)
@example(2.0, 1.2, 3.4, 0.6, 1.4, 1.0, 1.8, 0.2, True)
@example(1.5, 0.4, 1.3, 1.2, 0.5, 1.0, 0.0, 2.0, False)
def test_integral_routes_agree_with_direct(k, lam, s, b, cb, r2, p, q, alternating):
    # points drawn as the benchmark's regular Mathieu evaluations: k(lam+eta) = s,
    # c = b + cb, a_n = n^k; each integral route (one power-sum column, signed
    # under the parity weight) must agree with its direct route (Euler-integral
    # head, Hurwitz tail) within their summed error
    eta = s / k - lam
    assume(eta > 0.05)
    params = MathieuParams(lam, eta, math.sqrt(r2), b, b + cb, PQParams(p, q),
                           SequenceSpec.power(1.0, k))
    routes = ((mathieu_alternating_direct, mathieu_alt_via_integral) if alternating
              else (mathieu_direct, mathieu_via_integral))
    direct, integral = (route(params) for route in routes)
    assert abs(direct.value - integral.value) <= direct.err_est + integral.err_est


_DAMPING = st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(30.0, 250.0))
_LOG_UNIFORM = st.floats(math.log(0.05), math.log(4.0)).map(math.exp)


@settings(max_examples=100, deadline=None)
@given(_DAMPING, _DAMPING, _LOG_UNIFORM, _LOG_UNIFORM, st.sampled_from((0.7, 1.0, 1.5, 2.0)),
       st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.floats(0.01, 1.0), st.booleans())
@example(0.0, 150.0, 0.15, 0.1, 1.0, 1.0, 1.0, 0.64, True)  # 2.9e-80 err_est on the fan's head
def test_direct_route_converges_where_the_integral_route_does(p, q, lam, eta, k, b, cb, r2,
                                                              alternating):
    # at large damping the alternating head cancels 15-30x; summed as one
    # integrand (K > 0 by Leibniz) it keeps the integral route's accuracy
    params = MathieuParams(lam, eta, math.sqrt(r2), b, b + cb, PQParams(p, q),
                           SequenceSpec.power(1.0, k))
    routes = ((mathieu_alternating_direct, mathieu_alt_via_integral) if alternating
              else (mathieu_direct, mathieu_via_integral))
    try:
        direct, integral = (route(params) for route in routes)
    except DivergenceError:
        assume(False)
    assert direct.converged or not integral.converged
    assert abs(direct.value - integral.value) <= direct.err_est + integral.err_est \
        + 4.0 * math.ulp(integral.value)


def test_cahen_count_oracle():
    params = MathieuParams(1.0, 1.0, 1.0, 1.0, 2.0, PQ0, SEQ_N)
    res = cahen_integral(2.0, 1.0, params, False)
    assert res.value == pytest.approx(O_CAHEN_COUNT, rel=1e-12)
    classical = cahen_integral(2.0, 1.0, params, False, kernel="classical")
    assert classical.value == pytest.approx(res.value, rel=1e-9)


def _reference(lam, eta, r2, b, c, k, alternating=True):
    # sum_{n>=1} (+-1)^(n-1) 2F1(lam, b; c; -r^2/a_n) / (a_n^lam (a_n+r^2)^eta),
    # a_n = n^k, at 40 digits: terms n < 12 directly; beyond, the Pfaff
    # expansion sum_m (lam)_m/m! (c-b)_m/(c)_m r^(2m) (a_n+r^2)^-(lam+eta+m)
    # and the binomial series of (n^k+r^2)^-s in r^2/n^k turn every order
    # into Hurwitz sums over n >= 12, t = k(lam+eta+l): zeta(t, 12) for the
    # plain series, -2^-t [zeta(t, 6) - zeta(t, 6.5)] for the alternating
    # one, whose limit at the poles t = 1 is -[psi(6.5) - psi(6)]/2
    with mp.workdps(40):
        lam, eta, r2, b, c, k = (mp.mpf(v) for v in (lam, eta, r2, b, c, k))
        sign = -1 if alternating else 1
        head = mp.fsum(sign ** (n - 1) * mp.hyp2f1(lam, b, c, -r2 / n ** k)
                       / (n ** (k * lam) * (n ** k + r2) ** eta) for n in range(1, 12))
        zetas = {}

        def z(l):
            if l not in zetas:
                t = k * (lam + eta + l)
                if not alternating:
                    zetas[l] = mp.zeta(t, 12)
                elif t == 1:
                    zetas[l] = -(mp.digamma(mp.mpf(6.5)) - mp.digamma(6)) / 2
                else:
                    zetas[l] = -2 ** -t * (mp.zeta(t, 6) - mp.zeta(t, mp.mpf(6.5)))
            return zetas[l]

        tail, kappa, m, small = mp.mpf(0), mp.mpf(1), 0, mp.mpf(10) ** -45
        while True:
            inner, coef, j = mp.mpf(0), mp.mpf(1), 0
            while True:
                term = coef * z(m + j)
                inner += term
                if j > 3 and abs(term) < small:
                    break
                coef *= -(lam + eta + m + j) / (j + 1) * r2
                j += 1
            term = kappa * r2 ** m * inner
            tail += term
            if m > 3 and abs(term) < small:
                return head + tail
            kappa *= (lam + m) / (m + 1) * (c - b + m) / (c + m)
            m += 1


@pytest.mark.parametrize("lam,eta,r,b,c,alternating", [
    (0.06451460593787688, 0.2086363501003662, 0.9021278379779555, 1.4731825271965153,
     2.8697917992175253, True),
    (0.203024167363952, 0.07986710652914893, 0.5482286014309734, 1.1744090267939236,
     3.037315823452093, True),
    (1.6289026547601888, 0.07009895403978106, 0.8822963748968236, 1.9136875132539917,
     2.5081990974857176, False)])
def test_extended_head_bound_covers_the_rounding_of_its_kernel_sum(lam, eta, r, b, c,
                                                                   alternating):
    # the head as one integrand, sum_n s_n w_n 2F1(lam, b; c; -r^2/a_n) at
    # p = q = 0, against 40 digits: the quadrature's floor does not see the
    # rounding of K = sum_n s_n w_n (1 + x_n t)^-lam, and at these points the
    # head misses the reference by 1.02-1.42x its err_est without K's charge
    params = MathieuParams(lam, eta, r, b, c, PQ0, SEQ_N)
    head = mathieu._extended_head
    calls = []

    def recording(params, ans, sws, kappa0, policy):
        calls.append((ans, head(params, ans, sws, kappa0, policy)))
        return calls[-1][1]

    with mock.patch.object(mathieu, "_extended_head", recording):
        (mathieu_alternating_direct if alternating else mathieu_direct)(params)
    (ans, (value, err)), = calls
    with mp.workdps(40):
        r2 = mp.mpf(params.r ** 2)
        ref = mp.fsum((-1 if alternating and n % 2 == 0 else 1) * mp.mpf(an) ** -lam
                      * (an + r2) ** -eta * mp.hyp2f1(lam, b, c, -r2 / an)
                      for n, an in enumerate(ans, 1))
    assert abs(value - ref) <= err


@pytest.mark.parametrize("lam,eta,k", [(0.7, 0.9, 1.0), (0.7, 0.9, 2.0), (0.3, 0.3, 1.0),
                                       (0.3, 0.3, 0.5), (0.05, 0.1, 1.0), (0.5, 0.5, 1.0),
                                       (0.25, 0.25, 2.0)])
def test_alternating_tails_within_error(lam, eta, k):
    # each alternating tail is a difference of two Hurwitz zetas, poles
    # cancelled in closed form; the stated bound of both routes must cover
    # the reference.  The alternating series converges for every lam+eta > 0,
    # so both routes must also accept k(lam+eta) <= 1; at k(lam+eta) = 1 the
    # first tail exponent is exactly 1, where _decay_integral takes its limit
    params = MathieuParams(lam, eta, 0.8, 0.6, 1.7, PQ0, SequenceSpec.power(1.0, k))
    ref = _reference(lam, eta, 0.8 * 0.8, 0.6, 1.7, k)
    for route in (mathieu_alt_via_integral, mathieu_alternating_direct):
        res = route(params)
        assert res.converged
        assert abs(res.value - ref) <= res.err_est


@pytest.mark.parametrize("lam,eta,k", [(0.8, 0.203, 1.0), (0.4, 0.1015, 2.0), (0.7, 0.9, 1.0)])
def test_plain_series_at_the_divergence_edge(lam, eta, k):
    # k(lam+eta) = 1.003 (the third point is a control): the tails decay
    # like n^-0.003.  Both routes must cover the reference, and the integral
    # route, one integral at the direct route's exact exponent pair lam+eta,
    # must state no more than twice the direct route's error
    params = MathieuParams(lam, eta, 0.75, 0.8, 2.2, PQ0, SequenceSpec.power(1.0, k))
    ref = _reference(lam, eta, 0.75 * 0.75, 0.8, 2.2, k, alternating=False)
    direct, integral = mathieu_direct(params), mathieu_via_integral(params)
    for res in (direct, integral):
        assert res.converged
        assert abs(res.value - ref) <= res.err_est
    assert integral.err_est <= 2.0 * direct.err_est


def test_plain_series_one_ulp_above_the_divergence_edge():
    # lam + eta = 1 + 2^-53 exactly, although it rounds to 1: the tail
    # exponent pair keeps the 2^-53, so both routes accept the point and
    # return about zeta(1 + 2^-53) = 2^53; at lam + eta = 1 both raise
    params = MathieuParams(0.5, 0.5000000000000001, 0.5, 1.0, 2.0, PQ0, SEQ_N)
    assert params.lam + params.eta == 1.0
    ref = _reference(params.lam, params.eta, 0.25, 1.0, 2.0, 1.0, alternating=False)
    for route in (mathieu_direct, mathieu_via_integral):
        res = route(params)
        assert res.converged
        assert abs(res.value - ref) <= res.err_est
        with pytest.raises(DivergenceError):
            route(MathieuParams(0.5, 0.5, 0.5, 1.0, 2.0, PQ0, SEQ_N))


def test_underflowing_r2_leaves_zeta_values():
    # r^2 = 1e-340 underflows to 0, so the expansion keeps order 0 alone
    # (_orders at w = 0) and the kernel is 1: the series are zeta(2) and
    # its alternating counterpart, pi^2/6 and pi^2/12
    params = MathieuParams(1.0, 1.0, 1e-170, 1.0, 2.0, PQ0, SEQ_N)
    assert params.r * params.r == 0.0
    for route, want in ((mathieu_direct, mp.pi ** 2 / 6), (mathieu_via_integral, mp.pi ** 2 / 6),
                        (mathieu_alternating_direct, mp.pi ** 2 / 12),
                        (mathieu_alt_via_integral, mp.pi ** 2 / 12)):
        res = route(params)
        assert res.converged
        assert abs(res.value - want) <= res.err_est


def test_cahen_alternating_skips_even_panels():
    # the parity weight vanishes identically on [a_n, a_{n+1}) for even n,
    # so those panels contribute exactly nothing
    for n in (2, 4, 6, 20):
        xs = (n + 0.1, n + 0.5, n + 0.9)
        assert all(alternating_counting_value(SEQ_N, x) == 0 for x in xs)
    params = MathieuParams(1.0, 1.5, 0.7, 1.0, 2.0, PQ0, SEQ_N)
    res = cahen_integral(2.0, 1.5, params, True)
    assert res.converged
    assert res.value > 0.0


def test_cahen_divergence_guards():
    params = MathieuParams(0.4, 0.5, 0.7, 1.0, 2.0, PQ0, SEQ_N)
    with pytest.raises(DivergenceError):
        cahen_integral(0.9, 0.9, params, False)  # alpha+beta <= 2 for a_n = n
    with pytest.raises(DivergenceError):
        cahen_integral(0.4, 0.5, params, True)   # alpha+beta <= 1
    with pytest.raises(DivergenceError):
        mathieu_direct(MathieuParams(0.4, 0.5, 0.7, 1.0, 2.0, PQ0, SEQ_N))
    with pytest.raises(DivergenceError):
        u_integral(SEQ_N, 1.0, 0.9, 1.0)


@pytest.mark.parametrize("alpha", [0.45, 0.5])
def test_cahen_alternating_needs_alpha_beta_above_one(alpha):
    # with a_n = n^2, k*(alpha+beta) > 1 holds at alpha+beta = 0.9 and 1, but
    # the odd panels of x^-(alpha+beta) still sum to infinity there
    params = MathieuParams(0.5, 0.5, 0.5, 1.0, 2.0, PQ0, SEQ_N2)
    with pytest.raises(DivergenceError):
        cahen_integral(alpha, alpha, params, True)


def test_u_integral_oracle():
    res = u_integral(SEQ_N, 2.0, 2.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(O_U_INTEGRAL, rel=1e-12)


def _u_reference(alpha, beta, r2, k=1.0):
    # a_n = n^k: the integral is sum_{N>=1} int_{a_N}^inf, and the expansion
    # x^-alpha = sum_m (alpha)_m/m! r^(2m) (x+r^2)^-(alpha+m) turns each order
    # into P(s+m-1)/(s+m-1), P(t) = sum_{N>=1} (N^k + r^2)^-t: the Hurwitz
    # zeta(t, 1+r^2) at k = 1; at k = 2 (r^2 <= 1) nine terms, then the
    # binomial series in r^2/N^2 over zeta(2(t+j), 10)
    with mp.workdps(40):
        s, rr, small = mp.mpf(alpha) + mp.mpf(beta), mp.mpf(r2), mp.mpf(10) ** -25

        def power_sum(t):
            if k == 1.0:
                return mp.zeta(t, 1 + rr)
            total, coef, j = mp.fsum((n * n + rr) ** -t for n in range(1, 10)), mp.mpf(1), 0
            while True:
                term = coef * mp.zeta(2 * (t + j), 10)
                total += term
                if j > 3 and abs(term) < small * abs(total):
                    return total
                coef *= -(t + j) / (j + 1) * rr
                j += 1

        total, pf, m = mp.mpf(0), mp.mpf(1), 0
        while pf != 0:
            term = pf * rr ** m * power_sum(s + m - 1) / (s + m - 1)
            total += term
            if m > 3 and abs(term) < small * abs(total):
                break
            pf *= (mp.mpf(alpha) + m) / (m + 1)
            m += 1
        return float(total)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 1.0), st.sampled_from((-1.0, 0.0, 1.0)),
       st.floats(2.0, 5.0, exclude_min=True), st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
@example(0.30337202975855787, 0.0, 2.0078125, 1.0)  # needs the rounding of alpha+beta
def test_u_integral_error_covers_hurwitz_reference(lam, shift, s0, r2):
    # alpha = lam-1 makes every kappa_m with m >= 1 negative; r^2 = a_1 puts
    # the first panel at expansion ratio 1/2
    alpha = lam + shift
    beta = s0 - alpha
    assume(alpha + beta > 2.0)
    r = math.sqrt(r2)
    res = u_integral(SEQ_N, alpha, beta, r)
    if res.converged:
        assert abs(res.value - _u_reference(alpha, beta, r * r)) <= res.err_est


@pytest.mark.parametrize("alpha,beta", [(-0.3, 2.305), (1.0, 1.0001), (0.5, 1.5005),
                                        (-0.3, 2.3002)])
def test_u_integral_at_the_convergence_cliff(alpha, beta):
    # alpha+beta just above 1 + 1/k = 2: the tails decay like y^-(alpha+beta-2),
    # which a quadrature sweep cannot close (it stopped 2.9% low at 2.005), and
    # 1/(alpha+beta-2) amplifies a rounded exponent 1e4-fold at 2.0001
    res = u_integral(SEQ_N, alpha, beta, 0.6)
    assert res.converged
    assert abs(res.value - _u_reference(alpha, beta, 0.6 * 0.6)) <= res.err_est
    assert res.n_work < 1000


@pytest.mark.parametrize("alpha,beta", [(0.6, 1.2), (1.0, 0.5001)])
def test_u_integral_k2_against_hurwitz_reference(alpha, beta):
    # a_n = n^2: every tail order is a binomial series over zeta(2(t+j), A)
    # whose exponent pairs k (hi, lo) must stay exact; at (1, 0.5001)
    # k(alpha+beta-1) - 1 = 2e-4
    res = u_integral(SEQ_N2, alpha, beta, 0.6)
    assert res.converged
    assert abs(res.value - _u_reference(alpha, beta, 0.6 * 0.6, k=2.0)) <= res.err_est


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("below-one", "near-one", "moderate", "large")), st.floats(0.0, 1.0),
       st.floats(0.1, 0.9), st.floats(1.0, 60.0), st.booleans())
@example("near-one", 0.0, 0.3, 33.36, False)
@example("large", 0.0, 0.5, 16.5, True)
def test_hurwitz_zeta_against_mpmath(band, u, x, a, alternating):
    # the primitive gives zeta(t, a) less its pole a^(1-t)/(t-1); the
    # exponent arrives as the pair (hi, lo) = x + y from _plus, with
    # t in [0.2, 0.99] (alternating tails of the parity weight),
    # t - 1 = 10^(-4u) (down to 1e-4), t in [2, 30], or t in [141, 220],
    # where the direct-sum shift is what reaches eps.  The alternating form
    # is the difference at a and a + 1/2.  The reference keeps 40 digits
    # after mpmath's own reduction of a into (0, 1] (which cancels about
    # t log10(a) of them) and after the pole (about 4 more)
    y = {"below-one": 0.2 + 0.79 * u, "near-one": 1.0 + 10.0 ** (-4.0 * u),
         "moderate": 2.0 + 28.0 * u, "large": 141.0 + 79.0 * u}[band] - x
    hi, lo = _plus((x, 0.0), y)
    assume(hi * math.log10(a + 1.0) < 280.0)  # inside the double range
    value, err, _ = _hurwitz_zeta((hi, lo), a)
    if alternating:
        rest, err2, _ = _hurwitz_zeta((hi, lo), a + 0.5)
        value, err = value - rest, err + err2
    with mp.workdps(50 + int(hi * math.log10(a + 1.0))):
        t = mp.mpf(x) + mp.mpf(y)
        ref = mp.zeta(t, a) - mp.mpf(a) ** (1 - t) / (t - 1)
        if alternating:
            b = mp.mpf(a) + mp.mpf(0.5)
            ref -= mp.zeta(t, b) - b ** (1 - t) / (t - 1)
        assert abs(value - ref) <= err


def test_power_tail_needs_exact_k_sigma_above_one():
    # alpha = 2, beta = fl(1/3): alpha+beta rounds to 2.3333333333333335 and
    # passes the weighted-integral guard at k = 0.75 (1 + 1/k rounds to
    # 2.333333333333333), but its exact value lies 1.9e-17 below 7/3, so the
    # tail sum_n n^-k(alpha+beta-1) diverges
    seq = SequenceSpec.power(1.0, 0.75)
    with pytest.raises(DivergenceError):
        u_integral(seq, 2.0, 1.0 / 3.0, 0.5)


@pytest.mark.parametrize("alpha,beta,r2", [(2.0, 2.0, 9.0), (-0.5, 3.5, 30.0), (3.0, 0.5, 2.5)])
def test_u_integral_r2_above_a1(alpha, beta, r2):
    # panels left of r^2 fall back to quadrature; the result still converges
    # and its error estimate covers the Hurwitz-zeta reference
    res = u_integral(SEQ_N, alpha, beta, math.sqrt(r2))
    assert res.converged
    assert abs(res.value - _u_reference(alpha, beta, r2)) <= res.err_est


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1e8])
def test_u_integral_at_extreme_sequence_scales(scale):
    # a_n = s n at r^2 = a_1: alpha = 2 keeps 140 orders, whose powers
    # (a_n+r^2)^-(s0+m) and r^(2m) leave the double range unless the column
    # is scaled; the integral is s^-(alpha+beta-1) times that of a_n = n
    r = math.sqrt(scale)
    res = u_integral(SequenceSpec.power(scale, 1.0), 2.0, 1.5, r)
    assert res.converged
    with mp.workdps(40):
        ref = mp.mpf(scale) ** -2.5 * _u_reference(2.0, 1.5, mp.mpf(r * r) / scale)
    assert abs(res.value - ref) <= res.err_est


@pytest.mark.parametrize("alpha", [-0.9, 0.5, 3.0, 12.0])
@pytest.mark.parametrize("w", [0.5, 0.3, 1.0 / 9.0])
def test_omitted_orders_bound(alpha, w):
    # binomial coefficients (alpha)_j/j! carry the largest Beta ratio, 1; at
    # alpha = 3, w = 1/2 a factor 2 on the first omitted order falls 4% short
    m, omit = _orders(alpha, w, 1e-15)
    kappa = [1.0]
    for j in range(m + 3000):
        kappa.append(kappa[-1] * (alpha + j) / (j + 1.0))
    omitted = math.fsum(abs(kappa[j]) * w ** j for j in range(m, len(kappa)))
    assert omitted <= omit * abs(kappa[m]) * w ** m


def _abel_reference(alpha, beta, r2, k):
    # u_integral = sum_n G(a_n), a_n = n^k, G(a) the integral of
    # x^-alpha (x+r^2)^-beta over (a, inf) in closed_tail_2f1's form
    # 2F1(beta, s-1; s; -r^2/a) / ((s-1) a^(s-1)), s = alpha+beta: summed
    # directly to N = 3000, then Euler-Maclaurin at N at 25 digits; the
    # integral runs in y = log(x/N), where tanh-sinh meets an exponential
    # decay (over x itself it is 5e-15 off at k = 2)
    with mp.workdps(25):
        s, rr = mp.mpf(alpha) + mp.mpf(beta), mp.mpf(r2)

        def g(x):
            a = x ** k
            return mp.hyp2f1(beta, s - 1, s, -rr / a) / ((s - 1) * a ** (s - 1))

        n_top = 3000
        head = mp.fsum(g(mp.mpf(n)) for n in range(1, n_top))
        em = (mp.quad(lambda y: g(n_top * mp.exp(y)) * n_top * mp.exp(y), [0, mp.inf])
              + g(mp.mpf(n_top)) / 2
              - mp.diff(g, n_top, 1) / 12 + mp.diff(g, n_top, 3) / 720)
        return head + em


@pytest.mark.parametrize("alpha,beta,r,k", [(2.0, 1.5, 0.6, 1.0), (0.5, 2.8, 0.9, 1.0),
                                            (-0.3, 3.5, 0.6, 1.0), (-0.25, 2.0, 0.8, 2.0)])
def test_u_integral_against_abel_summation(alpha, beta, r, k):
    # an oracle independent of the expansion, the panels and the zetas; the
    # k = 2 point is the (lam-1, eta+1) child of a bound at lam = 0.75, eta = 1
    res = u_integral(SequenceSpec.power(1.0, k), alpha, beta, r)
    assert res.converged
    assert abs(res.value - _abel_reference(alpha, beta, r * r, k)) <= res.err_est


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4096), st.integers(1, 6144), st.floats(0.01, 0.999),
       st.sampled_from((1.0, 2.0)))
@example(3072, 1, 0.95, 1.0)  # lam+eta = 2 + 2^-12, at the convergence cliff
def test_bound_children_read_one_column(i, j, r, k):
    # lam in (0, 1] and lam+eta-(1+1/k) in (0, 1.5] on a 2^-12 grid, so that
    # lam+1, lam-1 and eta+1 are exact and each standalone u_integral runs at
    # the exponent the bound's shared column reads; r^2 < a_1
    lam = i / 4096.0
    eta = 1.0 + 1.0 / k + j / 4096.0 - lam
    params = MathieuParams(lam, eta, r, 1.0, 2.0, PQ0, SequenceSpec.power(1.0, k))
    kids = []
    assemble = mathieu._luke_bound

    def capture(p, parts, policy):  # the children the bound assembles
        kids.extend(parts)
        return assemble(p, parts, policy)

    with mock.patch.object(mathieu, "_luke_bound", capture):
        bound = bound_mathieu_rhs(params)
    for kid, (alpha, beta) in zip(kids, ((lam + 1.0, eta), (lam, eta), (lam, eta + 1.0),
                                         (lam - 1.0, eta + 1.0))):
        alone = u_integral(params.seq, alpha, beta, r)
        assert abs(kid.value - alone.value) <= kid.err_est + alone.err_est
    assert len(kids) == 4 and bound.n_work == sum(kid.n_work for kid in kids)


def test_u_integral_monotone_in_r():
    vals = [u_integral(SEQ_N, 2.0, 2.0, r).value for r in (0.5, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_u_integral_floor_bound():
    # [a^-1(x)] <= a^-1(x) = x for a_n = n
    got = u_integral(SEQ_N, 2.0, 2.0, 1.0).value
    assert got <= closed_tail_2f1(1.0 + 1e-12, 1.0, 2.0, 1.0 - 1e-9).value + 1e-9


def test_closed_tail_values():
    # eta = 0 degenerate case collapses to the pure power tail
    assert closed_tail_2f1(1.0, 2.0, 0.0, 0.5).value == pytest.approx(1.0, rel=1e-12)
    assert closed_tail_2f1(2.0, 1.0, 1.0, 1.0).value == pytest.approx(math.log(1.5), rel=1e-12)
    assert closed_tail_2f1(1.0, 0.5, 1.0, 0.5).value == pytest.approx(1.8545904360032244,
                                                                      rel=1e-12)


def test_closed_tail_vs_quadrature():
    for (a1, lam, eta, r) in ((2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 1.0, 0.5), (1.7, 1.3, 0.9, 0.8)):
        closed = closed_tail_2f1(a1, lam, eta, r).value
        direct = integrate_to_infinity(
            lambda x: -lam * math.log(x) - eta * math.log(x + r * r), a1).value
        assert abs(closed - direct) <= 1e-10 * abs(direct)


def test_closed_tail_domain():
    with pytest.raises(DivergenceError):
        closed_tail_2f1(1.0, 0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        closed_tail_2f1(1.0, 1.0, 1.0, 1.0)  # r^2 = a1 not allowed here
    # a1^-(lam+eta-1) leaves the double range at either end
    with pytest.raises(DomainError, match=r"closed_tail_2f1 underflows at a1=1e\+200: log value"):
        closed_tail_2f1(1e200, 1.5, 1.5, 1.0)
    with pytest.raises(DomainError, match=r"closed_tail_2f1 overflows at a1=1e-250: log value"):
        closed_tail_2f1(1e-250, 2.0, 2.0, 5e-126)


def test_closed_tail_one_ulp_above_the_divergence_edge():
    # lam + eta = 1 + 2^-53 exactly, although it rounds to 1: the exponent
    # pair keeps the 2^-53, and the integral is about 1/2^-53 = 2^53
    assert 0.5 + 0.5000000000000001 == 1.0
    got = closed_tail_2f1(1.0, 0.5, 0.5000000000000001, 0.5).value
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(2.0 ** 53, rel=1e-12)


def test_bound_assembly_matches_formula():
    # reassemble the printed four-term bound from its pieces
    lam, eta, b, c, r = 1.0, 3.0, 1.0, 2.0, 0.5
    pq = PQParams(0.5, 0.5)
    params = MathieuParams(lam, eta, r, b, c, pq, SEQ_N)
    got = bound_mathieu_rhs(params).value
    env = pq.envelope
    a1, r2 = 1.0, r * r
    u1 = u_integral(SEQ_N, lam + 1.0, eta, r).value
    u2 = u_integral(SEQ_N, lam, eta, r).value
    u3 = u_integral(SEQ_N, lam, eta + 1.0, r).value
    u4 = u_integral(SEQ_N, lam - 1.0, eta + 1.0, r).value
    # coefficient sanity: 2*lam*b*(c+1)/(c*(lam+1)*(b+1)) = 6/8 at lam=b=1, c=2
    assert 2 * lam * b * (c + 1) / (c * (lam + 1) * (b + 1)) == pytest.approx(0.75)
    want = lam * env * ((1 - 2 * (lam + 1) * b * (c + 1) / (c * (lam + 2) * (b + 1))) * u1
                        + 4 * (lam + 1) * b * (c + 1) ** 2 * u2
                        / (c * (lam + 2) * (b + 1) * ((lam + 2) * (b + 1) * r2 + 2 * (c + 1) * a1))) \
        + eta * env * ((1 - 2 * lam * b * (c + 1) / (c * (lam + 1) * (b + 1))) * u3
                       + 4 * lam * b * (c + 1) ** 2 * u4
                       / (c * (lam + 1) * (b + 1) * ((lam + 1) * (b + 1) * r2 + 2 * (c + 1) * a1)))
    assert got == pytest.approx(want, rel=1e-12)


def test_alt_bound_assembly_matches_formula():
    lam, eta, b, c, r = 1.0, 2.5, 1.0, 2.0, 0.5
    pq = PQParams(0.25, 0.25)
    params = MathieuParams(lam, eta, r, b, c, pq, SEQ_N)
    got = bound_mathieu_alt_rhs(params).value
    env = pq.envelope
    a1, r2 = 1.0, r * r
    z = -r2 / a1
    f1 = gauss_2f1_raw(eta, lam + eta, eta + 1.0, z).value
    f2 = gauss_2f1_raw(eta, lam + eta - 1.0, eta + 1.0, z).value
    f3 = gauss_2f1_raw(eta + 1.0, lam + eta, eta + 2.0, z).value
    f4 = gauss_2f1_raw(eta + 1.0, lam + eta - 1.0, eta + 2.0, z).value
    want = lam * env * ((1 - 2 * (lam + 1) * b * (c + 1) / (c * (lam + 2) * (b + 1)))
                        * f1 / ((lam + eta) * a1 ** (lam + eta))
                        + 4 * (lam + 1) * b * (c + 1) ** 2 / (c * (lam + 2) * (b + 1))
                        * a1 ** (1 - lam - eta) * f2
                        / ((lam + eta - 1) * ((lam + 2) * (b + 1) * r2 + 2 * (c + 1) * a1))) \
        + eta * env * ((1 - 2 * lam * b * (c + 1) / (c * (lam + 1) * (b + 1)))
                       * f3 / ((lam + eta) * a1 ** (lam + eta))
                       + 4 * lam * b * (c + 1) ** 2 / (c * (lam + 1) * (b + 1))
                       * a1 ** (1 - lam - eta) * f4
                       / ((lam + eta - 1) * ((lam + 1) * (b + 1) * r2 + 2 * (c + 1) * a1)))
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_record_sums_its_children():
    # the plain bound is assembled from four u-integrals: its work is theirs,
    # and its error, their errors and the assembly's rounding, is nonzero
    params = MathieuParams(1.0, 3.0, 0.5, 1.0, 2.0, PQParams(0.5, 0.5), SEQ_N)
    res = bound_mathieu_rhs(params)
    kids = [u_integral(SEQ_N, al, be, 0.5) for al, be in ((2.0, 3.0), (1.0, 3.0), (1.0, 4.0),
                                                            (0.0, 4.0))]
    assert res.n_work == sum(k.n_work for k in kids) > 0
    assert res.converged
    assert 0.0 < res.err_est <= DEFAULT_POLICY.rel_tol * res.value


def test_starved_alt_bound_is_unconverged():
    # 16 terms leave each 2F1 series (ratio 0.2) a tail near 1e-11
    params = MathieuParams(1.0, 2.5, 0.5, 1.0, 2.0, PQParams(0.25, 0.25), SEQ_N)
    res = bound_mathieu_alt_rhs(params, QuadPolicy(max_evals=16))
    assert not res.converged
    assert res.err_est > DEFAULT_POLICY.rel_tol * res.value
    full = bound_mathieu_alt_rhs(params)
    assert full.converged
    assert abs(res.value - full.value) <= res.err_est + full.err_est


def test_bound_inequality_instances():
    params = MathieuParams(1.0, 3.0, 0.5, 1.0, 2.0, PQParams(0.5, 0.5), SEQ_N)
    assert mathieu_direct(params).value <= bound_mathieu_rhs(params).value + 1e-9
    params = MathieuParams(1.0, 2.5, 0.5, 1.0, 2.0, PQParams(0.25, 0.25), SEQ_N)
    assert mathieu_alternating_direct(params).value <= bound_mathieu_alt_rhs(params).value + 1e-9


def test_bound_envelope_collapse_at_zero_damping():
    # with p = q = 0 the envelope factor is 1 and the bound is purely rational
    params0 = MathieuParams(1.0, 3.0, 0.5, 1.0, 2.0, PQ0, SEQ_N)
    params1 = MathieuParams(1.0, 3.0, 0.5, 1.0, 2.0, PQParams(0.5, 0.5), SEQ_N)
    b0 = bound_mathieu_rhs(params0).value
    b1 = bound_mathieu_rhs(params1).value
    assert b1 == pytest.approx(math.exp(-4.0 * 0.5) * b0, rel=1e-11)


def test_alt_bound_envelope_collapse():
    params0 = MathieuParams(1.0, 2.5, 0.5, 1.0, 2.0, PQ0, SEQ_N)
    params1 = MathieuParams(1.0, 2.5, 0.5, 1.0, 2.0, PQParams(0.25, 0.25), SEQ_N)
    assert bound_mathieu_alt_rhs(params1).value == pytest.approx(
        math.exp(-1.0) * bound_mathieu_alt_rhs(params0).value, rel=1e-12)


def test_bound_window_checks():
    with pytest.raises(DomainError):
        bound_mathieu_rhs(MathieuParams(1.5, 3.0, 0.5, 1.0, 3.0, PQ0, SEQ_N))  # lam > 1
    with pytest.raises(DomainError):
        bound_mathieu_rhs(MathieuParams(1.0, 3.0, 1.0, 1.0, 2.0, PQ0, SEQ_N))  # r^2 = a1
    with pytest.raises(DomainError):
        bound_mathieu_rhs(MathieuParams(1.0, 3.0, 0.5, 1.0, 1.9, PQ0,
                                        SequenceSpec.power(1.0, 1.0)))  # c < lam+1
    with pytest.raises(DomainError):
        bound_mathieu_alt_rhs(MathieuParams(1.0, 0.9, 0.5, 1.0, 2.0, PQ0, SEQ_N))  # lam+eta <= 2
    with pytest.raises(DivergenceError):
        bound_mathieu_rhs(MathieuParams(1.0, 0.9, 0.5, 1.0, 2.0, PQ0, SEQ_N))  # u diverges
    # children that underflow to 0 (a_1 = 1e300), or that overflow (a_1 = 1e-300)
    with pytest.raises(DomainError, match="bound underflows: log value -inf"):
        bound_mathieu_rhs(MathieuParams(1.0, 3.0, 0.5, 1.0, 2.0, PQParams(0.5, 0.5),
                                        SequenceSpec.power(1e300, 1.0)))
    with pytest.raises(DomainError, match="bound overflows: log value"):
        bound_mathieu_alt_rhs(MathieuParams(1.0, 3.0, 1e-160, 1.0, 2.0, PQParams(0.5, 0.5),
                                            SequenceSpec.power(1e-300, 1.0)))


def test_alt_bound_argument_arithmetic():
    # with r^2 = a1/2 every hypergeometric argument in the bound is -0.5
    params = MathieuParams(1.0, 2.5, math.sqrt(2.0), 1.0, 2.0, PQ0, SequenceSpec.power(4.0, 1.0))
    assert params.r ** 2 / params.seq.a1 == pytest.approx(0.5, rel=1e-15)
    assert bound_mathieu_alt_rhs(params).value > 0.0
