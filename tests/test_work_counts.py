"""Pinned work of the seven fixed-point probes of the benchmark
(bench/probes.py): p = q = 0.5, lam = eta = 1 (eta = 3 for the bound),
b = 1, c = 2, r = sqrt(0.5), a_n = n.

The counts are node evaluations of the quadrature engine, summed over every
quadrature and coefficient table a probe runs.  They are deterministic, so a
change that moves one says why in CHANGES.md and updates it here.
"""

import math

import pytest

import pqmathieu.quadrature as quadrature
from pqmathieu.classical import HyperTriple
from pqmathieu.extended import (PQParams, extended_beta, extended_gauss_integral,
                                extended_gauss_series, extended_kummer)
from pqmathieu.mathieu import (MathieuParams, SequenceSpec, bound_mathieu_rhs,
                               mathieu_direct, mathieu_via_integral)

PQ = PQParams(0.5, 0.5)
R = math.sqrt(0.5)
SEQ = SequenceSpec.power()
SERIES = MathieuParams(1.0, 1.0, R, 1.0, 2.0, PQ, SEQ)
BOUND = MathieuParams(1.0, 3.0, R, 1.0, 2.0, PQ, SEQ)
KERNEL = (HyperTriple(1.0, 1.0, 2.0), -R * R / SEQ.a1, PQ)

PROBES = {
    "extended_beta": (lambda: extended_beta(1.0, 1.0, PQ), 107),
    "extended_gauss_integral": (lambda: extended_gauss_integral(*KERNEL), 107),
    "extended_gauss_series": (lambda: extended_gauss_series(*KERNEL), 185),
    "extended_kummer": (lambda: extended_kummer(1.0, 2.0, -8.0, PQ), 323),
    "mathieu_direct": (lambda: mathieu_direct(SERIES), 292),
    "mathieu_via_integral": (lambda: mathieu_via_integral(SERIES), 323),
    "bound_mathieu_rhs": (lambda: bound_mathieu_rhs(BOUND), 0),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_node_evaluations(name, monkeypatch):
    counts = []
    fan = quadrature._fan

    def counting_fan(*args, **kwargs):
        n = fan(*args, **kwargs)
        counts.append(n)
        return n

    monkeypatch.setattr(quadrature, "_fan", counting_fan)
    probe, pinned = PROBES[name]
    probe()
    assert sum(counts) == pinned
