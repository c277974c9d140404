"""(p,q)-extended Beta, Gauss, and Kummer hypergeometric functions, the
Mathieu-type series built from them, their closed integral representations,
and machine-checked upper bounds.

The quadrature engine, classical special functions, extended functions, and
series evaluators are pure functions of their arguments and safe to call
concurrently.
"""

from .classical import (HyperTriple, beta, gauss_2f1, gauss_2f1_raw, kummer_1f1,
                        log_gamma, luke_bound_rhs)
from .errors import DivergenceError, DomainError, IntegrandError
from .extended import (PQParams, extended_beta, extended_beta_table, extended_gauss_integral,
                       extended_gauss_series, extended_kummer, gauss_bound_rhs)
from .mathieu import (MathieuParams, SequenceSpec, alternating_counting_value,
                      bound_mathieu_alt_rhs, bound_mathieu_rhs, cahen_integral,
                      closed_tail_2f1, counting_value, mathieu_alt_via_integral,
                      mathieu_alternating_direct, mathieu_direct, mathieu_via_integral,
                      u_integral)
from .quadrature import (DEFAULT_POLICY, QuadPolicy, integrate_finite_xc, integrate_log_moments,
                         integrate_to_infinity)
from .results import EvalResult

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_POLICY",
    "DivergenceError",
    "DomainError",
    "EvalResult",
    "HyperTriple",
    "IntegrandError",
    "MathieuParams",
    "PQParams",
    "QuadPolicy",
    "SequenceSpec",
    "alternating_counting_value",
    "beta",
    "bound_mathieu_alt_rhs",
    "bound_mathieu_rhs",
    "cahen_integral",
    "closed_tail_2f1",
    "counting_value",
    "extended_beta",
    "extended_beta_table",
    "extended_gauss_integral",
    "extended_gauss_series",
    "extended_kummer",
    "gauss_2f1",
    "gauss_2f1_raw",
    "gauss_bound_rhs",
    "integrate_finite_xc",
    "integrate_log_moments",
    "integrate_to_infinity",
    "kummer_1f1",
    "log_gamma",
    "luke_bound_rhs",
    "mathieu_alt_via_integral",
    "mathieu_alternating_direct",
    "mathieu_direct",
    "mathieu_via_integral",
    "u_integral",
]
