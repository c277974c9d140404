"""Machine-checkable identity and inequality suites.

Every suite returns a list of CheckRecord rows, one per check, carrying both
sides of the identity or inequality and a margin with the convention that
margin >= 0 means pass.  The CLI verify command and the acceptance tests are
both thin wrappers around these functions; all grids are fixed or seeded, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .classical import HyperTriple, beta, gauss_2f1, gauss_2f1_raw, kummer_1f1, log_gamma, luke_bound_rhs
from .extended import (PQParams, _command_scope, extended_beta, extended_gauss_integral,
                       extended_gauss_series, extended_kummer, gauss_bound_rhs)
from .mathieu import (MathieuParams, SequenceSpec, bound_mathieu_alt_rhs, bound_mathieu_rhs,
                      closed_tail_2f1, counting_value, mathieu_alt_via_integral,
                      mathieu_alternating_direct, mathieu_direct, mathieu_via_integral)
from .quadrature import DEFAULT_POLICY, QuadPolicy, integrate_finite_xc, integrate_to_infinity
from .results import EvalResult

__all__ = [
    "CheckRecord",
    "golden_integrals",
    "check_reductions",
    "check_two_path",
    "check_identities",
    "check_laplace",
    "check_bounds",
    "check_quadrature_golden",
    "check_counting",
    "check_closed_tail",
    "SUITES",
]

# frozen oracle for the flat double-well integrand (tests/make_oracles.py)
_EXP_WELL = 0.0070298584066096565
# seed of every random grid, and the grid sizes
_SEED = 20260808
_TWO_PATH_POINTS = 50
_LAPLACE_POINTS = 10
_CLOSED_TAIL_POINTS = 10
_COUNTING_PER_FAMILY = 1000


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    params: str
    lhs: float
    rhs: float
    margin: float  # >= 0 means pass
    passed: bool


def _eq_record(suite: str, check: str, params: str, lhs: float, rhs: float,
               tol: float) -> CheckRecord:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel = abs(lhs - rhs) / scale
    return CheckRecord(suite, check, params, lhs, rhs, tol - rel, rel <= tol)


def _le_record(suite: str, check: str, params: str, lhs: float, rhs: float,
               slack: float) -> CheckRecord:
    margin = rhs + slack - lhs
    return CheckRecord(suite, check, params, lhs, rhs, margin, margin >= 0.0)


# ---------------------------------------------------------------------------
# reductions at p = q = 0


def check_reductions(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    pq0 = PQParams()

    grid = [0.25, 0.5, 1.0, 1.5, 2.5, 3.5, 4.2, 5.0]
    for x in grid:
        for y in grid:
            got = extended_beta(x, y, pq0, policy).value
            out.append(_eq_record("reductions", "extended_beta->beta", f"x={x};y={y}",
                                  got, beta(x, y), 1e-11))

    gauss_grid = [(0.7, 0.5, 1.4), (1.0, 1.0, 2.0), (2.3, 0.8, 2.2), (0.5, 1.5, 3.0)]
    for (a, b, c) in gauss_grid:
        for z in (-0.9, -0.4, 0.25, 0.8):
            trip = HyperTriple(a, b, c)
            got = extended_gauss_integral(trip, z, pq0, policy).value
            want = gauss_2f1(trip, z, policy).value
            out.append(_eq_record("reductions", "extended_gauss->gauss_2f1",
                                  f"a={a};b={b};c={c};z={z}", got, want, 1e-10))

    kummer_grid = [(0.5, 1.5), (1.0, 2.0), (1.3, 2.1)]
    for (b, c) in kummer_grid:
        for z in (-8.0, -1.0, 0.5, 4.0):
            got = extended_kummer(b, c, z, pq0, policy).value
            want = kummer_1f1(b, c, z, policy).value
            out.append(_eq_record("reductions", "extended_kummer->kummer_1f1",
                                  f"b={b};c={c};z={z}", got, want, 1e-9))

    seq_n = SequenceSpec.power()
    seq_n2 = SequenceSpec.power(1.0, 2.0)
    mathieu_grid = [
        (1.0, 1.0, 1.0, 1.0, 2.0, seq_n),
        (0.5, 2.0, 0.7, 0.5, 1.5, seq_n),
        (2.0, 0.7, 0.6, 1.0, 2.0, seq_n),
        (1.0, 1.0, 0.9, 0.8, 1.8, seq_n2),
        (0.7, 0.6, 0.5, 1.0, 2.0, seq_n2),
        (1.5, 1.2, 0.8, 0.6, 2.4, seq_n),
        (0.8, 1.4, 0.95, 1.2, 2.2, seq_n2),
    ]
    for (lam, eta, r, b, c, seq) in mathieu_grid:
        params = MathieuParams(lam, eta, r, b, c, pq0, seq)
        tag = f"lam={lam};eta={eta};r={r};b={b};c={c};seq={seq.label}"
        got = mathieu_direct(params, policy).value
        want = mathieu_direct(params, policy, kernel="classical").value
        out.append(_eq_record("reductions", "mathieu->classical_kernel", tag, got, want, 1e-9))
        got_a = mathieu_alternating_direct(params, policy).value
        want_a = mathieu_alternating_direct(params, policy, kernel="classical").value
        out.append(_eq_record("reductions", "mathieu_alt->classical_kernel", tag, got_a, want_a, 1e-9))
    return out


# ---------------------------------------------------------------------------
# series path vs integral path for the extended Gauss function


def check_two_path(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    rng = random.Random(_SEED)
    out: list[CheckRecord] = []
    for _ in range(_TWO_PATH_POINTS):
        a = rng.uniform(0.3, 2.5)
        b = rng.uniform(0.3, 1.8)
        c = b + rng.uniform(0.3, 1.8)
        z = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.9)
        pq = PQParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        trip = HyperTriple(a, b, c)
        integral = extended_gauss_integral(trip, z, pq, policy).value
        series = extended_gauss_series(trip, z, pq, policy=policy).value
        out.append(_eq_record("two-path", "series_vs_integral",
                              f"a={a:.4f};b={b:.4f};c={c:.4f};z={z:.4f};p={pq.p:.4f};q={pq.q:.4f}",
                              series, integral, 1e-8))
    return out


# ---------------------------------------------------------------------------
# integral representation identities


def identity_grid() -> list[MathieuParams]:
    seq_n = SequenceSpec.power()
    seq_n2 = SequenceSpec.power(1.0, 2.0)
    points = []
    for seq, pairs in ((seq_n, [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]),
                       (seq_n2, [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0)])):
        for (lam, eta) in pairs:
            for pqv in (0.0, 0.5):
                points.append(MathieuParams(lam, eta, math.sqrt(0.5 * seq.a1), 1.0, 2.0,
                                            PQParams(pqv, pqv), seq))
    return points


def check_identities(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    for params in identity_grid():
        tag = (f"lam={params.lam};eta={params.eta};p={params.pq.p};q={params.pq.q};"
               f"r={params.r:.6f};seq={params.seq.label}")
        direct = mathieu_direct(params, policy).value
        via = mathieu_via_integral(params, policy).value
        out.append(_eq_record("identities", "series_vs_integral_repr", tag, direct, via, 1e-6))
        direct_a = mathieu_alternating_direct(params, policy).value
        via_a = mathieu_alt_via_integral(params, policy).value
        out.append(_eq_record("identities", "alt_series_vs_integral_repr", tag, direct_a, via_a, 1e-6))
    return out


# ---------------------------------------------------------------------------
# Laplace transform kernel identity


def laplace_identity_pair(lam: float, b: float, c: float, pq: PQParams, z: float,
                          r2: float, policy: QuadPolicy) -> tuple[float, float]:
    """Both sides of F_{p,q}(lam,b;c;-r^2/z) =
    z^lam/Gamma(lam) * integral of e^(-z t) t^(lam-1) Phi_{p,q}(b;c;-r^2 t).

    Every node reads Phi from extended_kummer.  One _command_scope spans the
    integral, so all nodes sum their reflected series over one column
    B(c-b+n, b; q, p), whether or not the caller runs inside a command."""
    lhs = extended_gauss_integral(HyperTriple(lam, b, c), -r2 / z, pq, policy).value

    def lf(t: float) -> float:
        if z * t > 745.0:
            return -math.inf
        phi = extended_kummer(b, c, -r2 * t, pq, policy).value
        return -z * t + math.log(phi) + (lam - 1.0) * math.log(t)

    with _command_scope():
        integral = integrate_to_infinity(lf, 0.0, policy).value
    rhs = math.exp(lam * math.log(z) - log_gamma(lam)) * integral
    return lhs, rhs


def check_laplace(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    rng = random.Random(_SEED)
    out: list[CheckRecord] = []
    for _ in range(_LAPLACE_POINTS):
        lam = rng.uniform(0.4, 2.2)
        b = rng.uniform(0.4, 1.6)
        c = b + rng.uniform(0.4, 1.4)
        pq = PQParams(rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2))
        z = rng.uniform(0.9, 2.4)
        r2 = z * rng.uniform(0.06, 0.45)
        lhs, rhs = laplace_identity_pair(lam, b, c, pq, z, r2, policy)
        out.append(_eq_record("laplace", "kernel_transform",
                              f"lam={lam:.4f};b={b:.4f};c={c:.4f};p={pq.p:.4f};q={pq.q:.4f};"
                              f"z={z:.4f};r2={r2:.4f}",
                              lhs, rhs, 1e-7))
    return out


# ---------------------------------------------------------------------------
# bounding inequalities


def check_bounds(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    out: list[CheckRecord] = []

    # extended Beta vs envelope * classical Beta
    for x in (0.3, 1.0, 2.7, 5.0):
        for y in (0.4, 1.0, 3.1):
            for p in (0.0, 0.4, 3.0):
                for q in (0.0, 1.5):
                    pq = PQParams(p, q)
                    lhs = extended_beta(x, y, pq, policy).value
                    rhs = pq.envelope * beta(x, y)
                    out.append(_le_record("bounds", "beta_envelope",
                                          f"x={x};y={y};p={p};q={q}", lhs, rhs, 1e-12))

    # |F_{p,q}| vs envelope * 2F1(|z|)
    for (a, b, c) in ((0.7, 0.5, 1.4), (1.0, 1.0, 2.0), (1.8, 0.9, 2.1)):
        for z in (-0.9, -0.4, 0.3, 0.8):
            for (p, q) in ((0.0, 0.0), (0.3, 0.7), (1.0, 1.0)):
                pq = PQParams(p, q)
                trip = HyperTriple(a, b, c)
                lhs = abs(extended_gauss_integral(trip, z, pq, policy).value)
                rhs = gauss_bound_rhs(trip, z, pq, policy).value
                out.append(_le_record("bounds", "gauss_envelope",
                                      f"a={a};b={b};c={c};z={z};p={p};q={q}", lhs, rhs, 1e-10))

    # Luke's rational bound for 2F1(a,b;c;-z)
    for a in (0.3, 1.0, 2.0, 3.5):
        for b in (0.2, 0.6, 1.0):
            for dc in (0.0, 0.7, 2.0):
                c = a + dc
                if not c > b:
                    continue
                for z in (0.05, 0.3, 0.6, 0.95):
                    lhs = gauss_2f1_raw(a, b, c, -z, policy).value
                    rhs = luke_bound_rhs(a, b, c, z)
                    out.append(_le_record("bounds", "luke_rational",
                                          f"a={a};b={b};c={c};z={z}", lhs, rhs, 1e-12))

    # four-term upper bound for the series
    seq_n = SequenceSpec.power()
    seq_n2 = SequenceSpec.power(1.0, 2.0)
    g6_grid = [
        (1.0, 3.0, 1.0, 2.0, 0.5, 0.5, 0.5, seq_n),
        (0.6, 2.2, 0.5, 2.0, 0.0, 0.0, 0.4, seq_n),
        (0.3, 2.5, 0.8, 2.5, 0.3, 0.7, 0.6, seq_n),
        (1.0, 2.1, 1.0, 2.0, 1.0, 1.0, 0.7, seq_n),
        (0.8, 1.4, 0.7, 2.0, 0.5, 0.5, 0.5, seq_n2),
        (0.5, 1.2, 1.0, 2.2, 0.0, 0.0, 0.8, seq_n2),
        (1.0, 0.9, 0.6, 2.4, 0.2, 0.8, 0.45, seq_n2),
    ]
    for (lam, eta, b, c, p, q, rfrac, seq) in g6_grid:
        params = MathieuParams(lam, eta, math.sqrt(rfrac * seq.a1), b, c, PQParams(p, q), seq)
        lhs = mathieu_direct(params, policy).value
        rhs = bound_mathieu_rhs(params, policy).value
        out.append(_le_record("bounds", "mathieu_upper_bound",
                              f"lam={lam};eta={eta};b={b};c={c};p={p};q={q};"
                              f"r2/a1={rfrac};seq={seq.label}", lhs, rhs, 1e-9))

    # four-term upper bound for the alternating series (lam+eta > 2)
    g7_grid = [
        (1.0, 2.5, 1.0, 2.0, 0.25, 0.25, 0.5, seq_n),
        (0.5, 2.6, 0.5, 2.0, 0.0, 0.0, 0.4, seq_n),
        (0.3, 2.2, 0.8, 2.0, 0.4, 0.6, 0.6, seq_n),
        (0.75, 3.0, 1.0, 2.5, 1.0, 1.0, 0.7, seq_n),
        (1.0, 2.4, 0.6, 2.0, 0.5, 0.5, 0.5, seq_n2),
        (0.6, 2.8, 1.0, 2.0, 0.0, 0.0, 0.8, seq_n2),
    ]
    for (lam, eta, b, c, p, q, rfrac, seq) in g7_grid:
        params = MathieuParams(lam, eta, math.sqrt(rfrac * seq.a1), b, c, PQParams(p, q), seq)
        lhs = mathieu_alternating_direct(params, policy).value
        rhs = bound_mathieu_alt_rhs(params, policy).value
        out.append(_le_record("bounds", "mathieu_alt_upper_bound",
                              f"lam={lam};eta={eta};b={b};c={c};p={p};q={q};"
                              f"r2/a1={rfrac};seq={seq.label}", lhs, rhs, 1e-9))
    return out


# ---------------------------------------------------------------------------
# quadrature golden suite


def golden_integrals(policy: QuadPolicy = DEFAULT_POLICY) -> list[tuple[str, EvalResult, float]]:
    """Ten closed-form integrals exercising smooth, endpoint-singular, and
    semi-infinite behavior, each given as log f of a positive f; the
    endpoint-singular factors are written from the node's endpoint distances
    dl and dh."""
    return [
        ("unit_constant",
         integrate_finite_xc(lambda x, dl, dh: 0.0, 0.0, 1.0, policy), 1.0),
        ("inv_sqrt_at_zero",
         integrate_finite_xc(lambda x, dl, dh: -0.5 * math.log(dl), 0.0, 1.0, policy), 2.0),
        ("log_at_zero",  # -log t, from whichever distance is the more precise
         integrate_finite_xc(lambda x, dl, dh: math.log(-math.log(dl) if dl < 0.5
                                                        else -math.log1p(-dh)), 0.0, 1.0, policy),
         1.0),
        ("beta_half_half",
         integrate_finite_xc(lambda x, dl, dh: -0.5 * (math.log(dl) + math.log(dh)),
                             0.0, 1.0, policy),
         math.pi),
        ("cbrt_at_one",
         integrate_finite_xc(lambda x, dl, dh: -math.log(dh) / 3.0, 0.0, 1.0, policy), 1.5),
        ("flat_double_well",
         integrate_finite_xc(lambda x, dl, dh: -1.0 / dl - 1.0 / dh, 0.0, 1.0, policy),
         _EXP_WELL),
        ("inverse_square_tail",
         integrate_to_infinity(lambda x: -2.0 * math.log(x), 1.0, policy), 1.0),
        ("exponential_tail",
         integrate_to_infinity(lambda x: -x, 0.0, policy), 1.0),
        ("partial_fraction_tail",
         integrate_to_infinity(lambda x: -math.log(x) - 2.0 * math.log1p(x), 1.0, policy),
         math.log(2.0) - 0.5),
        ("gamma_half_tail",
         integrate_to_infinity(lambda x: -x - 0.5 * math.log(x), 0.0, policy),
         math.sqrt(math.pi)),
    ]


def check_quadrature_golden(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    for name, res, truth in golden_integrals(policy):
        err = abs(res.value - truth)
        rel = err / max(abs(truth), 1e-300)
        out.append(CheckRecord("quadrature-golden", f"{name}:relative_error", "",
                               res.value, truth, 1e-10 - rel, rel <= 1e-10))
        out.append(CheckRecord("quadrature-golden", f"{name}:error_honesty", "",
                               err, res.err_est, res.err_est - err, err <= res.err_est))
    return out


# ---------------------------------------------------------------------------
# counting function exactness


def check_counting() -> list[CheckRecord]:
    rng = random.Random(_SEED)
    out: list[CheckRecord] = []
    families = [SequenceSpec.power(), SequenceSpec.power(1.0, 2.0), SequenceSpec.power(2.0, 1.0)]
    for seq in families:
        mismatches = 0
        hi = seq.value(800.0)
        for _ in range(_COUNTING_PER_FAMILY):
            x = rng.uniform(0.0, hi)
            got = counting_value(seq, x)
            brute = 0
            n = 1
            while seq.value(n) <= x:
                brute += 1
                n += 1
            if got != brute:
                mismatches += 1
        out.append(CheckRecord("counting", f"exact_vs_brute_force[{seq.label}]",
                               f"n={_COUNTING_PER_FAMILY}", float(mismatches), 0.0,
                               -float(mismatches), mismatches == 0))
    return out


# ---------------------------------------------------------------------------
# closed-form tail vs direct quadrature


def check_closed_tail(policy: QuadPolicy = DEFAULT_POLICY) -> list[CheckRecord]:
    rng = random.Random(_SEED)
    out: list[CheckRecord] = []
    for _ in range(_CLOSED_TAIL_POINTS):
        lam = rng.uniform(0.3, 2.0)
        eta = rng.uniform(0.2, 2.0)
        if lam + eta <= 1.05:
            lam += 1.0
        a1 = rng.uniform(0.5, 3.0)
        r = math.sqrt(rng.uniform(0.1, 0.9) * a1)
        closed = closed_tail_2f1(a1, lam, eta, r, policy).value
        direct = integrate_to_infinity(
            lambda x: -lam * math.log(x) - eta * math.log(x + r * r), a1, policy).value
        out.append(_eq_record("closed-tail", "hypergeometric_vs_quadrature",
                              f"a1={a1:.4f};lam={lam:.4f};eta={eta:.4f};r={r:.4f}",
                              closed, direct, 1e-10))
    return out


# ---------------------------------------------------------------------------
# suite registry for the CLI


SUITES: dict[str, list[Callable[..., list[CheckRecord]]]] = {
    "reductions": [check_reductions],
    "identities": [check_identities, check_laplace, check_two_path, lambda policy: check_counting()],
    "bounds": [check_bounds],
    "quadrature-golden": [check_quadrature_golden, check_closed_tail],
}
