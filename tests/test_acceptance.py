"""Acceptance suite: every release criterion with its pinned tolerance.

Each test runs one criterion end to end at the stated tolerance and runtime
budget and prints a one-line PASS/FAIL verdict (visible with pytest -s).
"""

import time

from pqmathieu import verification as V

BUDGETS = {
    "reductions": 30.0,
    "two_path": 60.0,
    "identities": 300.0,
    "laplace": 60.0,
    "bounds": 300.0,
    "quadrature_golden": 10.0,
    "counting": 5.0,
    "closed_tail": 10.0,
}


def _run(name, records, t0, budget):
    elapsed = time.perf_counter() - t0
    fails = [r for r in records if not r.passed]
    verdict = "PASS" if not fails and elapsed < budget else "FAIL"
    print(f"{verdict} {name}: {len(records) - len(fails)}/{len(records)} checks "
          f"in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not fails, (f"{len(fails)} failed checks, first: "
                       f"{fails[0].check} at {fails[0].params}: "
                       f"lhs={fails[0].lhs!r} rhs={fails[0].rhs!r} margin={fails[0].margin!r}")
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_reductions():
    # all extended objects reduce to their classical counterparts at p = q = 0,
    # relative tolerance 1e-9 (tighter where the suite pins tighter)
    t0 = time.perf_counter()
    records = V.check_reductions()
    assert len(records) >= 50
    _run("criterion 1 (reductions)", records, t0, BUDGETS["reductions"])


def test_criterion_2_two_path_oracle():
    # series path vs integral path of the extended Gauss function, 1e-8
    t0 = time.perf_counter()
    records = V.check_two_path()
    assert len(records) == 50
    _run("criterion 2 (two-path oracle)", records, t0, BUDGETS["two_path"])


def test_criterion_3_integral_representation():
    # direct summation vs counting-weight integral representation, 1e-6,
    # 12 grid points x 2 variants
    t0 = time.perf_counter()
    records = V.check_identities()
    assert len(records) == 24
    _run("criterion 3 (integral representation)", records, t0, BUDGETS["identities"])


def test_criterion_4_laplace_kernel():
    # Laplace-transform kernel identity at 1e-7 on 10 random points
    t0 = time.perf_counter()
    records = V.check_laplace()
    assert len(records) == 10
    _run("criterion 4 (Laplace kernel)", records, t0, BUDGETS["laplace"])


def test_criterion_5_inequality_suite():
    # Beta envelope bound, Gauss envelope bound, Luke's bound (+1e-12 slack),
    # and both printed series bounds (+1e-9 slack): zero violations expected
    t0 = time.perf_counter()
    records = V.check_bounds()
    _run("criterion 5 (inequality suite)", records, t0, BUDGETS["bounds"])


def test_criterion_6_quadrature_golden():
    # ten closed-form integrals: relative error <= 1e-10 and
    # |value - truth| <= 5 * err_est
    t0 = time.perf_counter()
    records = V.check_quadrature_golden()
    assert len(records) == 20
    _run("criterion 6 (quadrature golden)", records, t0, BUDGETS["quadrature_golden"])


def test_criterion_7_counting_exactness():
    # integer equality against brute-force counting, 10^3 abscissae per family
    t0 = time.perf_counter()
    records = V.check_counting()
    _run("criterion 7 (counting exactness)", records, t0, BUDGETS["counting"])


def test_criterion_8_closed_tail():
    # hypergeometric closed form of the power tail vs direct quadrature, 1e-10
    t0 = time.perf_counter()
    records = V.check_closed_tail()
    assert len(records) == 10
    _run("criterion 8 (closed tail)", records, t0, BUDGETS["closed_tail"])
