"""Output checker and failure accounting.

A request fails when any of these holds:

* ``exit``: it exits non-zero, or raises;
* ``false-convergence``: a record prints ``converged=true`` while its own
  ``err_est`` exceeds the requested tolerance max(abs_tol, rel_tol*|value|);
* ``routes-disagree``: the two records of one point (direct/integral,
  series/integral) differ by more than the sum of their ``err_est`` plus a
  few ulps, and by more than the requested tolerance;
* ``err-understated``: they differ by more than the sum of their ``err_est``
  plus a few ulps, but by no more than the requested tolerance: both values
  are good to the tolerance asked for, but the stated errors are too small;
* ``bound-below-direct``: a bound row lies below its paired direct value
  less that value's ``err_est`` (the bound claims no error of its own);
* ``hidden-nonconvergence`` (traced run only, since it needs the spans): the
  request exits 0 with every record converged, although a mathieu-layer call
  it made (u_integral, cahen_integral, ...) returned converged=False.

Two more reasons cover output that cannot be checked: ``unparseable`` (not
one JSON record per line) and ``non-finite`` (a NaN or infinite value).

Every reason counts the request as failed.  The reasons in INCORRECT also
make the run incorrect: a value contradicts another route by more than the
errors the program stated, or the output cannot be checked.  The others are
refusals and false or hidden convergence claims.
"""

from __future__ import annotations

import json
import math

ULPS = 4
INCORRECT = ("routes-disagree", "bound-below-direct", "non-finite", "unparseable")


def _flag(argv: list[str], name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def parse_records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _point_key(rec: dict) -> tuple:
    return tuple((k, v) for k, v in rec.items()
                 if k not in ("method", "value", "err_est", "n_work", "converged", "target"))


def _disagreement(a: dict, b: dict, rel_tol: float, abs_tol: float) -> str | None:
    va, vb = a["value"], b["value"]
    big = max(abs(va), abs(vb))
    if abs(va - vb) <= a["err_est"] + b["err_est"] + ULPS * math.ulp(big):
        return None
    return "routes-disagree" if abs(va - vb) > max(abs_tol, rel_tol * big) else "err-understated"


def check_request(argv: list[str], result: dict) -> list[str]:
    """Failure reasons of one request (empty when it passed)."""
    reasons = []
    if result.get("raised") or result["code"] != 0:
        reasons.append("exit")
    rel_tol = _flag(argv, "--rel-tol", 1e-12)
    abs_tol = _flag(argv, "--abs-tol", 1e-300)
    try:
        records = parse_records(result["stdout"])
    except json.JSONDecodeError:
        return reasons + ["unparseable"]
    for rec in records:
        if not math.isfinite(rec["value"]):
            reasons.append("non-finite")
        elif rec["converged"] and rec["err_est"] > max(abs_tol, rel_tol * abs(rec["value"])):
            reasons.append("false-convergence")
    by_point: dict[tuple, list[dict]] = {}
    for rec in records:
        by_point.setdefault(_point_key(rec), []).append(rec)
    for recs in by_point.values():
        why = _disagreement(*recs, rel_tol, abs_tol) if len(recs) == 2 else None
        if why:
            reasons.append(why)
    return sorted(set(reasons))


def check_pair(direct_stdout: str, bound_stdout: str) -> list[str]:
    """bound-below-direct over the rows of a (mathieu, bound) scan pair."""
    try:
        direct = {rec["r"]: rec for rec in parse_records(direct_stdout)
                  if rec["method"] == "direct"}
        bounds = parse_records(bound_stdout)
    except json.JSONDecodeError:
        return ["unparseable"]
    for rec in bounds:
        d = direct.get(rec["r"])
        if d is not None and rec["value"] < d["value"] - d["err_est"]:
            return ["bound-below-direct"]
    return []


def check_all(requests: list[dict], results: list[dict],
              unconverged_reqs: list[int] = ()) -> list[list[str]]:
    """Failure reasons for every request; a pair failure is charged to the bound scan.

    ``unconverged_reqs`` lists the requests in which the trace saw a
    mathieu-layer call that did not converge."""
    reasons = [check_request(req["argv"], res) for req, res in zip(requests, results)]
    for i in unconverged_reqs:
        if not reasons[i]:
            reasons[i] = ["hidden-nonconvergence"]
    first_of_pair: dict[int, int] = {}
    for i, req in enumerate(requests):
        pair = req.get("pair")
        if pair is None:
            continue
        if pair not in first_of_pair:
            first_of_pair[pair] = i
            continue
        extra = check_pair(results[first_of_pair[pair]]["stdout"], results[i]["stdout"])
        reasons[i] = sorted(set(reasons[i] + extra))
    return reasons
