import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqmathieu.errors import DomainError, IntegrandError
from pqmathieu.quadrature import (DEFAULT_POLICY, QuadPolicy, integrate_finite_xc,
                                  integrate_log_moments, integrate_to_infinity)
from pqmathieu.verification import golden_integrals

# midpoint-rule oracle, 10^7 panels (tests/make_oracles.py), mpmath-confirmed
O_EXP_WELL = 0.0070298584066096565

# every integrand is given as log f of a nonnegative f
FLAT = lambda x, dlo, dhi: 0.0
INV_SQRT = lambda x, dlo, dhi: -0.5 * math.log(dlo)


def _log(v):
    return math.log(v) if v > 0.0 else -math.inf


def test_policy_validation():
    for bad in (dict(rel_tol=0.0), dict(rel_tol=-1e-3), dict(abs_tol=-1.0),
                dict(max_refinements=0), dict(max_evals=8)):
        with pytest.raises(DomainError):
            QuadPolicy(**bad)


def test_interval_validation():
    with pytest.raises(DomainError):
        integrate_finite_xc(FLAT, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite_xc(FLAT, 2.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite_xc(FLAT, 0.0, math.inf)
    with pytest.raises(DomainError):
        integrate_to_infinity(lambda x: 0.0, math.nan)


def test_constant_integrand():
    res = integrate_finite_xc(FLAT, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_endpoint_singular_power():
    res = integrate_finite_xc(INV_SQRT, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-13)


def test_flat_double_well_oracle():
    res = integrate_finite_xc(lambda x, dlo, dhi: -1.0 / dlo - 1.0 / dhi, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(O_EXP_WELL, rel=5e-14)


def test_endpoints_never_sampled():
    # the abscissa may round onto an endpoint; its distances to both never do
    seen = []

    def lg(x, dlo, dhi):
        seen.append((dlo, dhi))
        return -0.25 * (math.log(dlo) + math.log(dhi))

    integrate_finite_xc(lg, 0.0, 1.0)
    assert seen and all(dlo > 0.0 and dhi > 0.0 for dlo, dhi in seen)


def test_general_interval():
    res = integrate_finite_xc(lambda x, dlo, dhi: x, -1.0, 3.0)
    assert res.converged
    assert res.value == pytest.approx(math.exp(3.0) - math.exp(-1.0), rel=1e-13)


def test_semi_infinite_inverse_square():
    res = integrate_to_infinity(lambda x: -2.0 * math.log(x), 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_semi_infinite_exponential():
    res = integrate_to_infinity(lambda x: -x, 0.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_partial_fraction_oracle():
    # closed form ln 2 - 1/2 from the partial-fraction split of 1/(x (x+1)^2)
    res = integrate_to_infinity(lambda x: -math.log(x) - 2.0 * math.log1p(x), 1.0)
    assert res.converged
    assert res.value == pytest.approx(math.log(2.0) - 0.5, rel=1e-13)


def test_distance_aware_right_singularity():
    res = integrate_finite_xc(lambda x, dlo, dhi: -math.log(dhi) / 3.0, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.5, rel=1e-13)


def _integral(f, lo, hi, policy=DEFAULT_POLICY):
    return integrate_finite_xc(lambda x, dlo, dhi: _log(f(x)), lo, hi, policy)


def test_linearity():
    # f and g are nonnegative on (0, 2), and so is every combination drawn
    rng = random.Random(5)
    f = lambda t: math.sin(2.0 * t) + 0.3 * t * t
    g = lambda t: math.exp(-t) + t
    pol = DEFAULT_POLICY
    for _ in range(5):
        al, be = rng.uniform(0, 3), rng.uniform(0, 3)
        combo = _integral(lambda t: al * f(t) + be * g(t), 0.0, 2.0, pol).value
        split = al * _integral(f, 0.0, 2.0, pol).value + be * _integral(g, 0.0, 2.0, pol).value
        assert abs(combo - split) <= 10.0 * pol.rel_tol * max(abs(combo), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_linearity_property(al, be):
    f = lambda t: 1.0 / (1.0 + t * t)
    g = lambda t: math.cos(t)
    combo = _integral(lambda t: al * f(t) + be * g(t), 0.0, 1.0).value
    split = al * _integral(f, 0.0, 1.0).value + be * _integral(g, 0.0, 1.0).value
    assert abs(combo - split) <= 10.0 * DEFAULT_POLICY.rel_tol * max(abs(combo), 1.0)


def test_interval_additivity():
    f = lambda t: math.exp(-t) * math.sin(t) + t ** 0.5
    whole = _integral(f, 0.0, 3.0)
    left = _integral(f, 0.0, 1.1)
    right = _integral(f, 1.1, 3.0)
    combined_err = whole.err_est + left.err_est + right.err_est
    assert abs(whole.value - left.value - right.value) <= combined_err + 1e-14 * abs(whole.value)


def test_moment_table_closed_forms():
    # the integral of (x - 1)^j over (1, 3) is 2^(j+1)/(j+1); with lg = 0 the
    # documented floor is 4 ulps of summation plus j + 2 of rounding, less the
    # rounding of the floor's own sums
    for n in (1, 2, 33, 64):
        for j, res in enumerate(integrate_log_moments(FLAT, 1.0, 3.0, n)):
            exact = 2.0 ** (j + 1) / (j + 1)
            assert res.converged, (n, j)
            assert abs(res.value - exact) <= res.err_est + 0.5 * math.ulp(exact), (n, j)
            assert res.err_est >= (1.0 - 1e-12) * (j + 6) * math.ulp(1.0) * res.value, (n, j)
    with pytest.raises(DomainError):
        integrate_log_moments(FLAT, 1.0, 3.0, 0)


def test_error_honesty_golden_suite():
    for name, res, truth in golden_integrals():
        assert abs(res.value - truth) <= res.err_est, name
        assert abs(res.value - truth) <= 1e-10 * max(abs(truth), 1.0), name


def test_nonfinite_integrand_names_abscissa():
    with pytest.raises(IntegrandError, match="x="):
        integrate_finite_xc(lambda x, dlo, dhi: math.nan, 0.0, 1.0)
    with pytest.raises(IntegrandError):
        integrate_to_infinity(lambda x: math.inf if x > 2.0 else -math.log1p(x * x), 0.0)


def test_budget_exhaustion():
    res = integrate_finite_xc(INV_SQRT, 0.0, 1.0, QuadPolicy(rel_tol=1e-14, max_evals=20))
    assert not res.converged
    assert res.n_work <= 20


def test_non_decaying_tail_flagged():
    res = integrate_to_infinity(lambda x: 0.0, 1.0)
    assert not res.converged
    res = integrate_to_infinity(lambda x: -math.log1p(math.log1p(x)), 1.0)
    assert not res.converged


def test_converged_implies_estimate_within_tolerance():
    pol = QuadPolicy(rel_tol=1e-10)
    for res in (integrate_finite_xc(INV_SQRT, 0.0, 1.0, pol),
                integrate_to_infinity(lambda x: -x, 0.0, pol)):
        assert res.converged
        assert res.err_est <= max(pol.abs_tol, pol.rel_tol * abs(res.value))
