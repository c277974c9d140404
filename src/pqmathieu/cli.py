"""Command-line front end: evaluate library objects, run verification suites,
and sweep parameters, with plain / CSV / JSON line output.

Exit codes: 0 success, 1 domain error (a message on stderr names the violated
precondition), 2 non-convergence or failed checks.  Identical command lines
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .classical import HyperTriple
from .errors import DomainError
from .extended import (PQParams, extended_beta, extended_gauss_integral,
                       extended_gauss_series, extended_kummer)
from .mathieu import (MathieuParams, SequenceSpec, bound_mathieu_alt_rhs, bound_mathieu_rhs,
                      mathieu_alt_via_integral, mathieu_alternating_direct, mathieu_direct,
                      mathieu_via_integral, u_integral)
from .quadrature import QuadPolicy
from .verification import SUITES

TARGETS = ["beta", "gauss", "kummer", "mathieu", "mathieu-alt", "u-integral", "bound", "bound-alt"]

TARGET_PARAMS = {
    "beta": ["x", "y", "p", "q"],
    "gauss": ["a", "b", "c", "z", "p", "q"],
    "kummer": ["b", "c", "z", "p", "q"],
    "mathieu": ["lam", "eta", "r", "b", "c", "p", "q", "seq"],
    "mathieu-alt": ["lam", "eta", "r", "b", "c", "p", "q", "seq"],
    "u-integral": ["lam", "eta", "r", "seq"],
    "bound": ["lam", "eta", "r", "b", "c", "p", "q", "seq"],
    "bound-alt": ["lam", "eta", "r", "b", "c", "p", "q", "seq"],
}

# flag spelling for parameters whose python name differs
FLAG_OF = {"lam": "--lambda"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqmathieu",
        description="evaluate (p,q)-extended special functions and Mathieu-type "
                    "series, verify their identities and bounds, sweep parameters")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rel-tol", type=float, default=1e-12)
        p.add_argument("--abs-tol", type=float, default=1e-300)
        p.add_argument("--max-evals", type=int, default=200_000)
        p.add_argument("--output", choices=["plain", "csv", "json"], default="plain")

    def add_params(p: argparse.ArgumentParser) -> None:
        for name in ("x", "y", "a", "b", "c", "z", "eta", "r", "p", "q", "k", "scale"):
            p.add_argument(f"--{name}", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--seq", choices=["n", "n^k", "c*n^k"], default=None)
        p.add_argument("--method", choices=["direct", "integral", "both"], default=None)

    pe = sub.add_parser("eval", help="evaluate one target and print one record per method")
    pe.add_argument("--target", choices=TARGETS, required=True)
    add_params(pe)
    add_common(pe)

    pv = sub.add_parser("verify", help="run a verification suite; exit 0 iff all checks pass")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    add_common(pv)

    ps = sub.add_parser("scan", help="sweep one or two parameters over a grid")
    ps.add_argument("--target", choices=TARGETS, required=True)
    ps.add_argument("--sweep", nargs=4, action="append", metavar=("NAME", "LO", "HI", "STEPS"),
                    required=True, help="parameter name, lower, upper, number of points")
    add_params(ps)
    add_common(ps)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import, and reused: parsing
    # leaves the parser unchanged
    return build_parser()


def _policy(ns: argparse.Namespace) -> QuadPolicy:
    return QuadPolicy(rel_tol=ns.rel_tol, abs_tol=ns.abs_tol, max_evals=ns.max_evals)


def _sequence(ns_vals: dict) -> SequenceSpec:
    kind = ns_vals.get("seq")
    if kind is None:
        raise DomainError("missing required parameter --seq")
    if kind == "n":
        return SequenceSpec.power()
    if kind == "n^k":
        if ns_vals.get("k") is None:
            raise DomainError("--seq n^k requires --k")
        return SequenceSpec.power(1.0, ns_vals["k"])
    if ns_vals.get("k") is None or ns_vals.get("scale") is None:
        raise DomainError("--seq c*n^k requires --scale and --k")
    return SequenceSpec.power(ns_vals["scale"], ns_vals["k"])


def _require(ns_vals: dict, target: str) -> None:
    for name in TARGET_PARAMS[target]:
        if ns_vals.get(name) is None:
            flag = FLAG_OF.get(name, f"--{name}")
            raise DomainError(f"target {target} requires {flag}")


def _evaluate(target: str, method: str | None, vals: dict, policy: QuadPolicy) -> list[dict]:
    """One output record per evaluated method; raises DomainError on bad input."""
    _require(vals, target)
    pq = PQParams(vals.get("p") or 0.0, vals.get("q") or 0.0) if "p" in TARGET_PARAMS[target] else None
    records = []

    def rec(method_name: str, value: float, err: float, work: int, conv: bool) -> None:
        records.append({"target": target, "method": method_name, **_param_cols(target, vals),
                        "value": value, "err_est": err, "n_work": work, "converged": conv})

    if target == "beta":
        res = extended_beta(vals["x"], vals["y"], pq, policy)
        rec("integral", res.value, res.err_est, res.n_work, res.converged)
    elif target == "gauss":
        trip = HyperTriple(vals["a"], vals["b"], vals["c"])
        m = method or "integral"
        if m in ("integral", "both"):
            res = extended_gauss_integral(trip, vals["z"], pq, policy)
            rec("integral", res.value, res.err_est, res.n_work, res.converged)
        if m in ("direct", "both"):
            res = extended_gauss_series(trip, vals["z"], pq, policy=policy)
            rec("series", res.value, res.err_est, res.n_work, res.converged)
    elif target == "kummer":
        res = extended_kummer(vals["b"], vals["c"], vals["z"], pq, policy)
        rec("series", res.value, res.err_est, res.n_work, res.converged)
    elif target in ("mathieu", "mathieu-alt"):
        params = MathieuParams(vals["lam"], vals["eta"], vals["r"], vals["b"], vals["c"],
                               pq, _sequence(vals))
        alt = target == "mathieu-alt"
        m = method or "direct"
        if m in ("direct", "both"):
            res = (mathieu_alternating_direct if alt else mathieu_direct)(params, policy)
            rec("direct", res.value, res.err_est, res.n_work, res.converged)
        if m in ("integral", "both"):
            res = (mathieu_alt_via_integral if alt else mathieu_via_integral)(params, policy)
            rec("integral", res.value, res.err_est, res.n_work, res.converged)
    elif target == "u-integral":
        res = u_integral(_sequence(vals), vals["lam"], vals["eta"], vals["r"], policy)
        rec("integral", res.value, res.err_est, res.n_work, res.converged)
    else:  # bound, bound-alt
        params = MathieuParams(vals["lam"], vals["eta"], vals["r"], vals["b"], vals["c"],
                               pq, _sequence(vals))
        fn = bound_mathieu_alt_rhs if target == "bound-alt" else bound_mathieu_rhs
        rec("bound_rhs", fn(params, policy), 0.0, 0, True)
    return records


def _param_cols(target: str, vals: dict) -> dict:
    cols = {}
    for name in TARGET_PARAMS[target]:
        if name == "seq":
            cols["seq"] = _sequence(vals).label
        else:
            cols[name] = vals.get(name)
    return cols


def _emit(records: list[dict], fmt: str) -> None:
    if not records:
        return
    if fmt == "json":
        for r in records:
            sys.stdout.write(json.dumps(r) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(records[0].keys())
        writer.writerow(header)
        for r in records:
            writer.writerow([_cell(r[k]) for k in header])
        sys.stdout.write(buf.getvalue())
    else:
        for r in records:
            sys.stdout.write(" ".join(f"{k}={_cell(v)}" for k, v in r.items()) + "\n")
    sys.stdout.flush()


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _vals_from(ns: argparse.Namespace) -> dict:
    keys = ("x", "y", "a", "b", "c", "z", "lam", "eta", "r", "p", "q", "k", "scale", "seq")
    return {k: getattr(ns, k) for k in keys}


def cmd_eval(ns: argparse.Namespace) -> int:
    records = _evaluate(ns.target, ns.method, _vals_from(ns), _policy(ns))
    _emit(records, ns.output)
    return 0 if all(r["converged"] for r in records) else 2


def cmd_verify(ns: argparse.Namespace) -> int:
    policy = _policy(ns)
    names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
    records = []
    for name in names:
        for fn in SUITES[name]:
            for r in fn(policy):
                records.append({"suite": r.suite, "check": r.check, "params": r.params,
                                "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin,
                                "pass": r.passed})
    _emit(records, ns.output)
    return 0 if all(r["pass"] for r in records) else 2


def cmd_scan(ns: argparse.Namespace) -> int:
    if len(ns.sweep) > 2:
        raise DomainError("scan supports one or two swept parameters")
    policy = _policy(ns)
    base = _vals_from(ns)
    axes = []
    for name, lo, hi, steps in ns.sweep:
        key = "lam" if name == "lambda" else name
        if key not in ("x", "y", "a", "b", "c", "z", "lam", "eta", "r", "p", "q", "k", "scale"):
            raise DomainError(f"cannot sweep parameter {name!r}")
        lo_f, hi_f, n = float(lo), float(hi), int(steps)
        if n < 1:
            raise DomainError("sweep needs at least one step")
        axes.append((key, [lo_f + (hi_f - lo_f) * i / max(n - 1, 1) for i in range(n)]))

    rows = []
    if len(axes) == 1:
        key, pts = axes[0]
        rows = [{**base, key: v} for v in pts]
    else:
        (k1, pts1), (k2, pts2) = axes
        rows = [{**base, k1: v1, k2: v2} for v1 in pts1 for v2 in pts2]

    # the whole sweep must lie inside the target domain before row 1 runs
    for row in rows:
        _prevalidate(ns.target, row)
    records = []
    ok = True
    for row in rows:
        for r in _evaluate(ns.target, ns.method, row, policy):
            records.append(r)
            ok = ok and r["converged"]
    _emit(records, ns.output)
    return 0 if ok else 2


def _prevalidate(target: str, vals: dict) -> None:
    _require(vals, target)
    if "p" in TARGET_PARAMS[target]:
        PQParams(vals.get("p") or 0.0, vals.get("q") or 0.0)
    if "seq" in TARGET_PARAMS[target]:
        seq = _sequence(vals)
        if target in ("mathieu", "mathieu-alt", "bound", "bound-alt"):
            MathieuParams(vals["lam"], vals["eta"], vals["r"], vals["b"], vals["c"],
                          PQParams(vals.get("p") or 0.0, vals.get("q") or 0.0), seq)
    if target in ("gauss", "kummer") and vals.get("b") is not None and vals.get("c") is not None:
        if not vals["c"] > vals["b"] > 0.0:
            raise DomainError(f"require c > b > 0, got b={vals['b']}, c={vals['c']}")


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        if ns.command == "eval":
            return cmd_eval(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        return cmd_scan(ns)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
