import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from pqmathieu.classical import (HyperTriple, beta, gauss_2f1, gauss_2f1_raw, kummer_1f1,
                                 log_gamma, luke_bound_rhs)
from pqmathieu.errors import DomainError
from pqmathieu.quadrature import integrate_finite_xc

mp.mp.dps = 30

# exact-rational series oracle, 200 terms (tests/make_oracles.py)
O_KUMMER_HALF = 0.5981440066613041


def test_log_gamma_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_accuracy_grid():
    rng = random.Random(3)
    xs = [1e-3, 0.02, 0.5, 1.0, 2.0, 10.5, 50.0, 170.0]
    xs += [10 ** rng.uniform(-3.0, math.log10(170.0)) for _ in range(60)]
    for x in xs:
        ref = float(mp.loggamma(x))
        assert abs(log_gamma(x) - ref) <= 1e-13 * max(abs(ref), 1e-3), x


def test_log_gamma_domain():
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            log_gamma(x)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    with pytest.raises(DomainError):
        beta(-1.0, 2.0)


def test_beta_gamma_identity():
    rng = random.Random(11)
    for _ in range(40):
        x, y = rng.uniform(0.05, 8.0), rng.uniform(0.05, 8.0)
        lhs = beta(x, y) * math.exp(log_gamma(x + y))
        rhs = math.exp(log_gamma(x)) * math.exp(log_gamma(y))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_hyper_triple_invariant():
    HyperTriple(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        HyperTriple(1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        HyperTriple(1.0, 0.0, 2.0)
    with pytest.raises(DomainError, match="require finite a, c > b > 0"):
        HyperTriple(1.0, 1.0, math.inf)


def test_gauss_2f1_at_zero():
    assert gauss_2f1(HyperTriple(2.3, 0.7, 1.9), 0.0).value == 1.0


def test_gauss_2f1_log_identity():
    res = gauss_2f1(HyperTriple(1.0, 1.0, 2.0), -1.0)
    assert res.converged
    assert res.value == pytest.approx(math.log(2.0), rel=1e-12)


def test_gauss_2f1_arctan_identity():
    res = gauss_2f1(HyperTriple(0.5, 1.0, 1.5), -1.0)
    assert res.value == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_gauss_2f1_domain():
    trip = HyperTriple(1.0, 1.0, 2.0)
    for z in (1.0, 1.5, -1.0001):
        with pytest.raises(DomainError):
            gauss_2f1(trip, z)
    # (1-z)^800 times the cancelled reflected sum leaves the double range:
    # a named error, not a converged -inf
    with pytest.raises(DomainError, match=r"gauss_2f1 overflows at z=-0\.9: log value 777\.4"):
        gauss_2f1_raw(-800.0, 1.0, 2.0, -0.9)


def test_gauss_2f1_against_mpmath():
    rng = random.Random(7)
    for _ in range(60):
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(0.05, 2.0)
        c = b + rng.uniform(0.05, 2.5)
        z = rng.uniform(-1.0, 0.98)
        got = gauss_2f1_raw(a, b, c, z).value
        ref = float(mp.hyp2f1(a, b, c, z))
        assert abs(got - ref) <= 5e-12 * abs(ref), (a, b, c, z)


def test_gauss_2f1_symmetry():
    rng = random.Random(13)
    for _ in range(40):
        b = rng.uniform(0.1, 2.0)
        a = rng.uniform(0.1, 2.0)
        c = max(a, b) + rng.uniform(0.1, 2.0)
        z = rng.uniform(-1.0, 0.95)
        v1 = gauss_2f1_raw(a, b, c, z).value
        v2 = gauss_2f1_raw(b, a, c, z).value
        assert abs(v1 - v2) <= 1e-12 * abs(v1)


def test_gauss_2f1_euler_integral_consistency():
    # series path vs the Euler integral computed with endpoint distances
    rng = random.Random(17)
    for _ in range(20):
        a = rng.uniform(0.2, 2.5)
        b = rng.uniform(0.3, 1.8)
        c = b + rng.uniform(0.3, 1.8)
        z = rng.uniform(-0.9, 0.9)
        series = gauss_2f1_raw(a, b, c, z).value

        def lg(t, dlo, dhi):
            return (b - 1.0) * math.log(dlo) + (c - b - 1.0) * math.log(dhi) \
                - a * math.log1p(-z * t)

        integral = integrate_finite_xc(lg, 0.0, 1.0).value / beta(b, c - b)
        assert abs(series - integral) <= 1e-10 * abs(series), (a, b, c, z)


def test_kummer_values():
    assert kummer_1f1(0.8, 1.7, 0.0).value == 1.0
    res = kummer_1f1(1.0, 2.0, 1.0)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-13)


def test_kummer_negative_argument_oracle():
    res = kummer_1f1(0.5, 1.5, -2.0)
    assert res.converged
    assert res.value == pytest.approx(O_KUMMER_HALF, rel=1e-13)
    # the frozen value is itself reproducible from exact rationals
    s = Fraction(0)
    for n in range(80):
        s += Fraction(-2) ** n / (Fraction(2 * n + 1) * math.factorial(n))
    assert float(s) == O_KUMMER_HALF


def test_kummer_against_mpmath():
    rng = random.Random(23)
    for _ in range(40):
        b = rng.uniform(0.1, 2.0)
        c = b + rng.uniform(0.1, 2.5)
        z = rng.uniform(-60.0, 25.0)
        got = kummer_1f1(b, c, z).value
        ref = float(mp.hyp1f1(b, c, z))
        assert abs(got - ref) <= 1e-12 * abs(ref), (b, c, z)


def test_kummer_domain():
    with pytest.raises(DomainError):
        kummer_1f1(2.0, 1.0, 0.5)
    for z in (-math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match="kummer_1f1 requires c > b > 0, finite z"):
            kummer_1f1(1.0, 2.0, z)


def test_luke_bound_values():
    # z -> 0 collapses the bracket
    assert luke_bound_rhs(1.3, 0.7, 2.0, 1e-14) == pytest.approx(1.0, abs=1e-13)
    assert luke_bound_rhs(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    # direct substitution: 1 - (6/8)(1 - 6/10) = 0.7
    assert luke_bound_rhs(1.0, 1.0, 2.0, 1.0) == pytest.approx(0.7, rel=1e-14)


def test_luke_bound_window():
    for bad in ((1.0, 1.2, 2.0, 1.0),   # b > 1
                (2.0, 0.5, 1.5, 1.0),   # c < a
                (1.0, 0.5, 2.0, -1.0),  # z <= 0
                (0.0, 0.5, 2.0, 1.0)):  # a <= 0
        with pytest.raises(DomainError):
            luke_bound_rhs(*bad)


def test_luke_bound_majorizes_2f1():
    for a in (0.3, 1.0, 2.0, 3.5):
        for b in (0.2, 0.6, 1.0):
            for c in (a, a + 0.7, a + 2.0):
                if not c > b:
                    continue
                for z in (0.05, 0.3, 0.6, 0.95):
                    lhs = gauss_2f1_raw(a, b, c, -z).value
                    assert lhs < luke_bound_rhs(a, b, c, z) + 1e-12, (a, b, c, z)
