"""Fixed-point layer probes: one call of each layer entry point at
p = q = 0.5, lam = eta = 1 (eta = 3 for the bound), b = 1, c = 2,
r = sqrt(0.5), a_n = n.

Each probe looks its function up on the module at call time, so the traced
call in worker.py goes through the tracer's wrappers.
"""

from __future__ import annotations

import math

import pqmathieu.extended as ext
import pqmathieu.mathieu as mth
from pqmathieu.classical import HyperTriple

PQ = ext.PQParams(0.5, 0.5)
R = math.sqrt(0.5)
SEQ = mth.SequenceSpec.power()
SERIES = mth.MathieuParams(1.0, 1.0, R, 1.0, 2.0, PQ, SEQ)
BOUND = mth.MathieuParams(1.0, 3.0, R, 1.0, 2.0, PQ, SEQ)
KERNEL = (HyperTriple(1.0, 1.0, 2.0), -R * R / SEQ.a1, PQ)

PROBES = {
    "extended_beta": lambda: ext.extended_beta(1.0, 1.0, PQ),
    "extended_gauss_integral": lambda: ext.extended_gauss_integral(*KERNEL),
    "extended_gauss_series": lambda: ext.extended_gauss_series(*KERNEL),
    "extended_kummer": lambda: ext.extended_kummer(1.0, 2.0, -8.0, PQ),
    "mathieu_direct": lambda: mth.mathieu_direct(SERIES),
    "mathieu_via_integral": lambda: mth.mathieu_via_integral(SERIES),
    "bound_mathieu_rhs": lambda: mth.bound_mathieu_rhs(BOUND),
}
