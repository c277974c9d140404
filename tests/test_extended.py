import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqmathieu.classical import HyperTriple, beta, gauss_2f1, kummer_1f1
from pqmathieu.errors import DomainError
from pqmathieu.extended import (PQParams, extended_beta, extended_beta_table,
                                extended_gauss_integral, extended_gauss_series, extended_kummer,
                                gauss_bound_rhs)
from pqmathieu.verification import laplace_identity_pair
from pqmathieu.quadrature import DEFAULT_POLICY, QuadPolicy

# midpoint-rule oracle, 10^7 panels (tests/make_oracles.py), mpmath-confirmed
O_BETA_HALF = 0.06654306042249714
# 120-term mpmath series oracle for Phi_{0.1,0.1}(1;2;-1) (tests/make_oracles.py)
O_EXT_KUMMER = 0.3083466827082625
# B(1,1;139,29): trapezoid rule and Gauss-Legendre at 40-60 digits
# (tests/make_oracles.py)
O_BETA_LARGE_PQ = 3.722978487050339126e-130
# B(182,1;132,150): trapezoid rule and Gauss-Legendre at 40-60 digits
# (tests/make_oracles.py)
O_BETA_NARROW_PEAK = 3.644191114407688595e-298


def test_pq_validation():
    with pytest.raises(DomainError):
        PQParams(-0.1, 0.0)
    with pytest.raises(DomainError):
        PQParams(0.0, math.inf)


def test_envelope_values():
    assert PQParams().envelope == 1.0
    # symmetric case collapses to exp(-4p)
    assert PQParams(1.0, 1.0).envelope == pytest.approx(math.exp(-4.0), rel=1e-15)
    assert PQParams(0.3, 0.3).envelope == pytest.approx(math.exp(-1.2), rel=1e-15)
    assert PQParams(1.0, 4.0).envelope == pytest.approx(math.exp(-9.0), rel=1e-15)


def test_extended_beta_reductions():
    pq0 = PQParams()
    assert extended_beta(1.0, 1.0, pq0).value == pytest.approx(1.0, rel=1e-13)
    assert extended_beta(2.0, 3.0, pq0).value == pytest.approx(1.0 / 12.0, rel=1e-12)
    for x in (0.25, 0.8, 1.7, 3.2, 5.0):
        for y in (0.4, 1.0, 4.4):
            got = extended_beta(x, y, pq0).value
            assert abs(got - beta(x, y)) <= 1e-11 * beta(x, y), (x, y)


def test_extended_beta_oracle():
    res = extended_beta(1.0, 1.0, PQParams(0.5, 0.5))
    assert res.converged
    assert res.value == pytest.approx(O_BETA_HALF, rel=5e-14)


def test_large_pq_error_estimate_covers_oracle():
    # exp(lf) at |lf| ~ 300 carries ~300 ulps of rounding per node
    pq = PQParams(139.0, 29.0)
    for res in (extended_beta(1.0, 1.0, pq),
                extended_beta_table(1.0, 1.0, pq, 32)[0],
                extended_gauss_integral(HyperTriple(2.0, 1.0, 2.0), 0.0, pq)):
        assert res.converged
        assert res.err_est >= abs(res.value - O_BETA_LARGE_PQ)


def test_narrow_peak_below_abs_tol_is_resolved():
    # the weight peaks at t ~ 0.565 with width ~ 0.013 and the integral lies
    # below 1e-288, where abs_tol = 1e-300 outweighs rel_tol * value; the
    # coarse levels only see the flank at t = 1/2 and halve their sum
    res = extended_beta(182.0, 1.0, PQParams(132.0, 150.0))
    assert res.converged
    assert abs(res.value - O_BETA_NARROW_PEAK) <= res.err_est
    assert res.err_est <= DEFAULT_POLICY.abs_tol


_TABLE_ARGS = (st.floats(0.1, 3.0, exclude_min=True), st.floats(0.1, 3.0, exclude_min=True),
               st.floats(0.0, 150.0), st.floats(0.0, 150.0), st.integers(1, 200))


@settings(max_examples=20, deadline=None)
@given(*_TABLE_ARGS)
@example(1.0, 1.0, 132.0, 150.0, 182)  # the last entry's scalar used to stop before the peak
def test_beta_table_matches_scalar(x0, y, p, q, n):
    pq = PQParams(p, q)
    table = extended_beta_table(x0, y, pq, n)
    assert len(table) == n
    for j, entry in enumerate(table):
        ref = extended_beta(x0 + j, y, pq)
        assert entry.value > 0.0
        assert abs(entry.value - ref.value) <= entry.err_est + ref.err_est \
            + 4.0 * math.ulp(ref.value), j


@settings(max_examples=20, deadline=None)
@given(*_TABLE_ARGS)
def test_starved_beta_table_reports_instead_of_raising(x0, y, p, q, n):
    policy = QuadPolicy(max_evals=40)
    table = extended_beta_table(x0, y, PQParams(p, q), n, policy)
    assert table[0].n_work <= 40 * n
    for entry in table:
        assert entry.n_work == table[0].n_work
        if entry.converged:
            assert entry.err_est <= policy.rel_tol * entry.value


def test_starved_table_budget_scales_with_entries():
    # 40 nodes cannot settle one entry, but 32 entries may spend 32 * 40
    policy = QuadPolicy(max_evals=40)
    res = extended_beta_table(1.0, 1.0, PQParams(0.5, 0.5), 1, policy)[0]
    assert res.n_work == 40 and not res.converged
    table = extended_beta_table(1.0, 1.0, PQParams(0.5, 0.5), 32, policy)
    assert all(entry.converged for entry in table)
    assert 40 < table[0].n_work <= 32 * 40


def test_extended_beta_domain():
    with pytest.raises(DomainError):
        extended_beta(-0.5, 1.0, PQParams())
    with pytest.raises(DomainError):
        extended_beta(1.0, 0.0, PQParams(1.0, 0.0))


def test_extended_beta_outside_classical_domain_flag():
    # with damping present a nonpositive argument still converges
    res = extended_beta(-0.5, 1.0, PQParams(1.0, 1.0))
    assert res.converged


def test_extended_beta_envelope_bound():
    for x in (0.3, 1.0, 2.7, 5.0):
        for y in (0.5, 2.1):
            for p in (0.0, 0.4, 3.0):
                for q in (0.0, 1.5):
                    pq = PQParams(p, q)
                    assert extended_beta(x, y, pq).value <= pq.envelope * beta(x, y) + 1e-12


def test_extended_beta_monotone_damping():
    for p_lo, p_hi in ((0.0, 0.2), (0.2, 1.0), (1.0, 2.5)):
        lo = extended_beta(1.3, 2.1, PQParams(p_hi, 0.7)).value
        hi = extended_beta(1.3, 2.1, PQParams(p_lo, 0.7)).value
        assert lo <= hi + 1e-15
        lo = extended_beta(1.3, 2.1, PQParams(0.7, p_hi)).value
        hi = extended_beta(1.3, 2.1, PQParams(0.7, p_lo)).value
        assert lo <= hi + 1e-15


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 4.0), st.floats(0.3, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_extended_beta_symmetry(x, y, p, q):
    # substitution t -> 1-t swaps both pairs
    v1 = extended_beta(x, y, PQParams(p, q)).value
    v2 = extended_beta(y, x, PQParams(q, p)).value
    assert abs(v1 - v2) <= 1e-12 * max(abs(v1), abs(v2))


def test_extended_gauss_reduction():
    trip = HyperTriple(1.0, 1.0, 2.0)
    got = extended_gauss_integral(trip, -0.5, PQParams()).value
    assert got == pytest.approx(math.log(1.5) / 0.5, rel=1e-12)
    assert got == pytest.approx(gauss_2f1(trip, -0.5).value, rel=1e-10)


def test_extended_gauss_at_zero():
    # only the n = 0 series term survives
    got = extended_gauss_integral(HyperTriple(2.7, 1.0, 2.0), 0.0, PQParams(0.5, 0.5)).value
    assert got == pytest.approx(O_BETA_HALF / beta(1.0, 2.0 - 1.0), rel=1e-12)


def test_extended_gauss_domain():
    with pytest.raises(DomainError):
        extended_gauss_integral(HyperTriple(1.0, 1.0, 2.0), 1.0, PQParams())
    with pytest.raises(DomainError):
        extended_gauss_series(HyperTriple(1.0, 1.0, 2.0), -1.0, PQParams())


def test_extended_gauss_positive():
    rng = random.Random(2)
    for _ in range(15):
        trip = HyperTriple(rng.uniform(0.1, 3.0), rng.uniform(0.2, 1.5), rng.uniform(1.6, 3.0))
        z = rng.uniform(-6.0, 0.99)
        pq = PQParams(rng.uniform(0, 2), rng.uniform(0, 2))
        assert extended_gauss_integral(trip, z, pq).value > 0.0


def test_two_path_agreement_derived_point():
    trip = HyperTriple(1.0, 1.0, 2.0)
    pq = PQParams(0.25, 0.25)
    integral = extended_gauss_integral(trip, -0.5, pq)
    series = extended_gauss_series(trip, -0.5, pq)
    assert series.converged
    assert abs(series.value - integral.value) <= 1e-8 * abs(integral.value)


def test_series_at_zero_argument():
    # only the n = 0 term survives: B(b, c-b; p, q) / B(b, c-b)
    got = extended_gauss_series(HyperTriple(3.3, 1.0, 2.0), 0.0, PQParams(0.5, 0.5)).value
    assert got == pytest.approx(O_BETA_HALF / beta(1.0, 1.0), rel=1e-11)


def test_series_classical_reduction():
    trip = HyperTriple(1.4, 0.9, 2.2)
    for z in (-0.6, 0.4):
        got = extended_gauss_series(trip, z, PQParams()).value
        assert got == pytest.approx(gauss_2f1(trip, z).value, rel=1e-10)


def test_thread_safety_determinism():
    # pure functions: concurrent evaluation must reproduce serial results bitwise
    from concurrent.futures import ThreadPoolExecutor
    args = [(1.0 + 0.1 * i, 2.0, PQParams(0.3, 0.7)) for i in range(16)]
    serial = [extended_beta(x, y, pq).value for (x, y, pq) in args]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: extended_beta(*a).value, args))
    assert serial == parallel


def test_series_default_cap_reports_unconverged():
    # near z = 1 the tail majorant decays too slowly for the term cap
    # derived from z and rel_tol, so the series stops short of the tolerance
    trip = HyperTriple(1.0, 1.0, 2.0)
    res = extended_gauss_series(trip, 0.999, PQParams(0.1, 0.1))
    assert not res.converged


def test_series_near_minus_one_converges_in_pfaff_form():
    # at z = -0.999 the Pfaff-form ratio z/(z-1) is just below 1/2
    trip, pq = HyperTriple(1.0, 1.0, 2.0), PQParams(0.1, 0.1)
    series = extended_gauss_series(trip, -0.999, pq)
    integral = extended_gauss_integral(trip, -0.999, pq)
    assert series.converged and integral.converged
    assert abs(series.value - integral.value) <= series.err_est + integral.err_est


_PFAFF_ARGS = (st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
               st.floats(0.1, 3.0, exclude_min=True, exclude_max=True),
               st.floats(0.2, 2.0, exclude_min=True, exclude_max=True),
               st.floats(0.2, 2.0, exclude_min=True, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(*_PFAFF_ARGS, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_pfaff_series_matches_integral(z, a, b, cb, p, q):
    trip, pq = HyperTriple(a, b, b + cb), PQParams(p, q)
    series = extended_gauss_series(trip, z, pq)
    integral = extended_gauss_integral(trip, z, pq)
    if series.converged and integral.converged:
        assert abs(series.value - integral.value) <= series.err_est + integral.err_est


@settings(max_examples=60, deadline=None)
@given(*_PFAFF_ARGS)
def test_pfaff_series_error_covers_mpmath(z, a, b, cb):
    series = extended_gauss_series(HyperTriple(a, b, b + cb), z, PQParams())
    assert series.converged
    with mp.workdps(40):
        assert abs(mp.mpf(series.value) - mp.hyp2f1(a, b, b + cb, z)) <= series.err_est


def test_kummer_reflection_error_covers_mpmath():
    # below z ~ -100 the reflection factor e^z used to go through
    # exp(z + log value), whose ~|z| ulps of rounding nothing charged
    rng = random.Random(28)
    with mp.workdps(40):
        for _ in range(200):
            b, cb, z = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.0), rng.uniform(-500.0, -20.0)
            res = extended_kummer(b, b + cb, z, PQParams())
            assert res.converged, (b, cb, z)
            assert abs(mp.mpf(res.value) - mp.hyp1f1(b, b + cb, z)) <= res.err_est, (b, cb, z)


def test_series_convergence_is_honest():
    trip, pq = HyperTriple(1.0, 1.0, 2.0), PQParams(0.5, 0.5)
    # converged means the tail plus the coefficient errors meet the tolerance
    for policy in (QuadPolicy(max_evals=40), DEFAULT_POLICY):
        for res in (extended_gauss_series(trip, -0.5, pq, policy=policy),
                    extended_kummer(1.0, 2.0, -8.0, pq, policy)):
            assert not res.converged or res.err_est <= policy.rel_tol * abs(res.value)
    # two refinement levels settle no coefficient, so neither series converges
    policy = QuadPolicy(max_refinements=1)
    assert not extended_gauss_series(trip, -0.5, pq, policy=policy).converged
    assert not extended_kummer(1.0, 2.0, -8.0, pq, policy).converged


def test_extended_kummer_at_zero():
    got = extended_kummer(1.0, 2.0, 0.0, PQParams(0.5, 0.5)).value
    assert got == pytest.approx(O_BETA_HALF / beta(1.0, 1.0), rel=1e-12)


def test_extended_kummer_classical_reduction():
    got = extended_kummer(1.0, 2.0, 1.0, PQParams()).value
    assert got == pytest.approx(math.e - 1.0, rel=1e-12)
    for z in (-30.0, -4.0, 2.5):
        got = extended_kummer(0.7, 1.9, z, PQParams()).value
        want = kummer_1f1(0.7, 1.9, z).value
        assert abs(got - want) <= 1e-9 * abs(want), z


def test_extended_kummer_oracle():
    res = extended_kummer(1.0, 2.0, -1.0, PQParams(0.1, 0.1))
    assert res.converged
    assert res.value == pytest.approx(O_EXT_KUMMER, rel=2e-12)


def test_extended_kummer_domain():
    with pytest.raises(DomainError):
        extended_kummer(2.0, 1.0, 0.5, PQParams())
    for z in (-math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match="extended_kummer requires c > b > 0, finite z"):
            extended_kummer(1.0, 2.0, z, PQParams(0.5, 0.5))


def test_extended_kummer_reflected_underflow_is_domain_error():
    # at z = -200, p = q = 700 the reflected series carries the envelope
    # e^-2800 and underflows to 0, whose log the reflection cannot take
    with pytest.raises(DomainError, match=r"underflows at z=-200\.0"):
        extended_kummer(1.0, 2.0, -200.0, PQParams(700.0, 700.0))


def test_reflected_series_of_zero_is_domain_error():
    # the envelope e^-2800 zeroes every reflected term; at z = -50 the
    # Kummer factor e^z no longer hides that behind a value of 0
    pq = PQParams(700.0, 700.0)
    with pytest.raises(DomainError, match=r"extended_gauss_series underflows at z=-0\.5"):
        extended_gauss_series(HyperTriple(1.0, 1.0, 2.0), -0.5, pq)
    with pytest.raises(DomainError, match=r"extended_kummer underflows at z=-50\.0"):
        extended_kummer(1.0, 2.0, -50.0, pq)


def test_gauss_and_kummer_series_read_one_shared_column(monkeypatch):
    # at z < 0 both series sum over B(c-b+n, b; q, p): inside one command
    # scope they read one column, and each record is the one a call outside
    # any scope returns
    import pqmathieu.extended as extended
    a, b, c, pq = 1.5, 0.8, 2.0, PQParams(0.3, 0.7)
    trip = HyperTriple(a, b, c)
    alone = [extended_kummer(b, c, -20.0, pq), extended_gauss_series(trip, -0.6, pq)]
    built = []
    column = extended._BetaColumn

    def counting(*args):
        built.append(args)
        return column(*args)

    monkeypatch.setattr(extended, "_BetaColumn", counting)
    with extended._command_scope():
        shared = [extended_kummer(b, c, -20.0, pq), extended_gauss_series(trip, -0.6, pq)]
    assert built == [(c - b, b, pq.swapped(), DEFAULT_POLICY)]
    assert shared == alone


def test_gauss_bound_rhs():
    trip = HyperTriple(1.0, 1.0, 2.0)
    assert gauss_bound_rhs(trip, -0.5, PQParams()).value == pytest.approx(
        gauss_2f1(trip, 0.5).value, rel=1e-13)
    want = math.exp(-4.0) * 2.0 * math.log(2.0)
    assert gauss_bound_rhs(trip, -0.5, PQParams(1.0, 1.0)).value == pytest.approx(want, rel=1e-12)
    # e^-800 times 2 log 2 underflows: a bound of 0 would bound nothing
    with pytest.raises(DomainError, match=r"gauss_bound_rhs underflows: log value -799\.7"):
        gauss_bound_rhs(trip, -0.5, PQParams(200.0, 200.0))


def test_gauss_envelope_inequality():
    rng = random.Random(9)
    for _ in range(20):
        b = rng.uniform(0.3, 1.5)
        trip = HyperTriple(rng.uniform(0.2, 2.5), b, b + rng.uniform(0.3, 1.5))
        z = rng.uniform(-0.9, 0.9)
        pq = PQParams(rng.uniform(0, 1.5), rng.uniform(0, 1.5))
        lhs = abs(extended_gauss_integral(trip, z, pq).value)
        assert lhs <= gauss_bound_rhs(trip, z, pq).value + 1e-10


def test_laplace_kernel_identity_spot():
    lhs, rhs = laplace_identity_pair(1.5, 0.8, 2.0, PQParams(0.4, 0.9), 2.0, 0.9,
                                     DEFAULT_POLICY)
    assert abs(lhs - rhs) <= 1e-7 * abs(lhs)
    lhs, rhs = laplace_identity_pair(0.7, 1.2, 2.5, PQParams(), 1.0, 0.45, DEFAULT_POLICY)
    assert abs(lhs - rhs) <= 1e-7 * abs(lhs)
