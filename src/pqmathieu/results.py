"""The one result record of every evaluator, from a single quadrature up to
a CLI row."""

from __future__ import annotations

from dataclasses import dataclass


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
