"""The one result record of every evaluator, from a single quadrature up to
a CLI row, and _scaled, the one step that multiplies a record by a
closed-form factor e^L (a reflection factor, an envelope, a power)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    from .quadrature import QuadPolicy

_EPS = math.ulp(1.0)
# largest log whose exp is finite
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EvalResult:
    """Value with an attached error estimate and work counter.

    n_work counts integrand evaluations for a quadrature (every entry of a
    shared-node table reports the node count of the whole fan) and, above
    it, the evaluations or series terms that drive the computation.
    """

    value: float
    err_est: float
    n_work: int
    converged: bool


def _scaled(res: EvalResult, log_scale: float, log_err: float, policy: QuadPolicy,
            what: str) -> EvalResult:
    """res times the closed-form factor e^log_scale, its rounding charged.

    log_err bounds the absolute error of log_scale.  While |log_scale| < 700
    the factor multiplies the value, which adds two ulps; beyond, the value
    is exp(log_scale + log|value|), which adds the ulps of the log and of
    the exponent.  A subnormal result carries its spacing.  The record
    converges iff res did and its error meets max(abs_tol, rel_tol |value|)
    under policy.  A non-finite value stays, unconverged; a product that
    leaves the double range at either end, or a value of 0 (log value
    -inf), raises DomainError naming its log value, never a converged 0 or
    inf.  what names the result, with {} for underflows or overflows.
    """
    v = res.value
    if not math.isfinite(v):
        return EvalResult(v, math.inf, res.n_work, False)
    log_value = log_scale + math.log(abs(v)) if v else -math.inf
    if abs(log_scale) < 700.0:
        value = math.exp(log_scale) * v
        rel = log_err + 2.0 * _EPS
    else:
        value = math.copysign(math.exp(log_value) if log_value < _LOG_MAX else math.inf, v)
        rel = log_err + (abs(log_value - log_scale) + abs(log_value) + 1.0) * _EPS
    if value == 0.0 or math.isinf(value):
        word = "underflows" if log_value < 0.0 else "overflows"
        raise DomainError(f"{what.format(word)}: log value {log_value:.1f}")
    err = max(abs(value) * (res.err_est / abs(v) + rel), math.ulp(value))
    tol = max(policy.abs_tol, policy.rel_tol * abs(value))
    return EvalResult(value, err, res.n_work, res.converged and err <= tol)
