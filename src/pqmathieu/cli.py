"""Command-line front end: evaluate library objects, run verification suites,
and sweep parameters, with plain / CSV / JSON line output.

Exit codes: 0 success, 1 domain error or integrand overflow (one line on
stderr names the violated precondition or the overflow), 2 non-convergence
or failed checks, 64 (EX_USAGE) a rejected command line: one argparse
rejects, a --sweep whose LO, HI or STEPS does not parse or whose STEPS is
below 1, a third --sweep, or a scan that sweeps one parameter twice or a
parameter no row of its target reads (k only under --seq n^k or c*n^k,
scale only under c*n^k).  Identical command lines produce byte-identical
output.  Each command runs in one scope (extended._command_scope): its rows
and routes share the extended-Beta column of their Gauss and Kummer series
and of their kernel expansions, and the bound's four coefficient lists, and
the printed values and work counts are those of separate commands.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys

from .classical import HyperTriple
from .errors import DomainError, IntegrandError
from .extended import (PQParams, _command_scope, extended_beta, extended_gauss_integral,
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

# the numeric parameters, in --help order, and the flag spelling of those
# whose python name differs
NUMERIC = ("x", "y", "a", "b", "c", "z", "eta", "r", "p", "q", "k", "scale", "lam")
FLAG_OF = {"lam": "--lambda"}
EX_USAGE = 64  # a malformed command line (sysexits.h), apart from 2: unconverged


class _UsageError(Exception):
    """A command line argparse accepts but a command cannot parse."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every finite negative number repr()
    prints, -1e-3 and -1.1102230246251565e-16 as well as -0.5, as a value and
    not as a flag (argparse knows only -5 and -0.5); subcommands inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        for name in NUMERIC:
            p.add_argument(FLAG_OF.get(name, f"--{name}"), dest=name, type=float, default=None)
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


def _build(target: str, vals: dict) -> tuple:
    """The parameter objects of one row: (pq, seq, obj), obj its HyperTriple
    or MathieuParams, None where the target takes no such parameter.  Their
    constructors raise DomainError on bad input."""
    _require(vals, target)
    names = TARGET_PARAMS[target]
    pq = PQParams(vals.get("p") or 0.0, vals.get("q") or 0.0) if "p" in names else None
    seq = _sequence(vals) if "seq" in names else None
    obj = None
    if target == "gauss":
        obj = HyperTriple(vals["a"], vals["b"], vals["c"])
    elif target in ("mathieu", "mathieu-alt", "bound", "bound-alt"):
        obj = MathieuParams(vals["lam"], vals["eta"], vals["r"], vals["b"], vals["c"], pq, seq)
    return pq, seq, obj


def _run(target: str, method: str | None, vals: dict, built: tuple,
         policy: QuadPolicy) -> list[dict]:
    """One output record per evaluated method of a row built by _build."""
    pq, seq, obj = built
    results = []
    if target == "beta":
        results.append(("integral", extended_beta(vals["x"], vals["y"], pq, policy)))
    elif target == "gauss":
        m = method or "integral"
        if m in ("integral", "both"):
            results.append(("integral", extended_gauss_integral(obj, vals["z"], pq, policy)))
        if m in ("direct", "both"):
            results.append(("series", extended_gauss_series(obj, vals["z"], pq, policy=policy)))
    elif target == "kummer":
        results.append(("series", extended_kummer(vals["b"], vals["c"], vals["z"], pq, policy)))
    elif target in ("mathieu", "mathieu-alt"):
        alt = target == "mathieu-alt"
        m = method or "direct"
        if m in ("direct", "both"):
            fn = mathieu_alternating_direct if alt else mathieu_direct
            results.append(("direct", fn(obj, policy)))
        if m in ("integral", "both"):
            fn = mathieu_alt_via_integral if alt else mathieu_via_integral
            results.append(("integral", fn(obj, policy)))
    elif target == "u-integral":
        results.append(("integral", u_integral(seq, vals["lam"], vals["eta"], vals["r"], policy)))
    else:  # bound, bound-alt
        fn = bound_mathieu_alt_rhs if target == "bound-alt" else bound_mathieu_rhs
        results.append(("bound_rhs", fn(obj, policy)))
    cols = {name: seq.label if name == "seq" else vals.get(name)
            for name in TARGET_PARAMS[target]}
    return [{"target": target, "method": name, **cols, "value": res.value,
             "err_est": res.err_est, "n_work": res.n_work, "converged": res.converged}
            for name, res in results]


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
    return {k: getattr(ns, k) for k in (*NUMERIC, "seq")}


def cmd_eval(ns: argparse.Namespace) -> int:
    policy = _policy(ns)
    vals = _vals_from(ns)
    records = _run(ns.target, ns.method, vals, _build(ns.target, vals), policy)
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
        raise _UsageError(f"scan sweeps one or two parameters, got {len(ns.sweep)} --sweep")
    policy = _policy(ns)
    base = _vals_from(ns)
    names = TARGET_PARAMS[ns.target]
    # a row reads k only under --seq n^k or c*n^k, and scale only under c*n^k
    by_seq = {"n^k": {"k"}, "c*n^k": {"k", "scale"}}.get(ns.seq, set()) if "seq" in names else set()
    readable = set(NUMERIC).intersection(names) | by_seq
    under = f" under --seq {ns.seq}" if "seq" in names and ns.seq else ""
    axes = []
    for name, lo, hi, steps in ns.sweep:
        key = "lam" if name == "lambda" else name
        if key not in readable:
            raise _UsageError(f"--sweep {name}: no {ns.target} row{under} reads parameter {key!r}")
        if key in dict(axes):
            raise _UsageError(f"--sweep {name}: parameter {key!r} is swept twice")
        lo_f, hi_f = _sweep_field(name, "LO", lo, float), _sweep_field(name, "HI", hi, float)
        n = _sweep_field(name, "STEPS", steps, int)
        if n < 1:
            raise _UsageError(f"--sweep {name} STEPS must be at least 1, got {n}")
        axes.append((key, [lo_f + (hi_f - lo_f) * i / max(n - 1, 1) for i in range(n)]))

    rows = []
    if len(axes) == 1:
        key, pts = axes[0]
        rows = [{**base, key: v} for v in pts]
    else:
        (k1, pts1), (k2, pts2) = axes
        rows = [{**base, k1: v1, k2: v2} for v1 in pts1 for v2 in pts2]

    # every row's parameter objects are built, and so checked, before row 1 runs
    built = [_build(ns.target, row) for row in rows]
    records = [r for row, objs in zip(rows, built)
               for r in _run(ns.target, ns.method, row, objs, policy)]
    _emit(records, ns.output)
    return 0 if all(r["converged"] for r in records) else 2


def _sweep_field(name: str, field: str, text: str, kind: type):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise _UsageError(f"--sweep {name} {field} must be {what}, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EX_USAGE if exc.code else 0
    try:
        with _command_scope():
            if ns.command == "eval":
                return cmd_eval(ns)
            if ns.command == "verify":
                return cmd_verify(ns)
            return cmd_scan(ns)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except IntegrandError as exc:
        print(f"integrand error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"pqmathieu {ns.command}: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
