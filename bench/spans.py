"""Span arithmetic for the traced run: self times and per-layer sums."""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """One traced call.  ``parent`` indexes the enclosing span (-1 for a
    request's root), ``req`` is the request index, ``work`` the result's count
    field and ``conv`` its converged flag (None when the result has none);
    ``args`` identifies the arguments of extended_beta calls."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    req: int
    work: int | None = None
    conv: bool | None = None
    args: str | None = None


LAYERS = ("cli", "mathieu", "extended", "classical", "quadrature")

# wrapped name -> layer
LAYER_OF = {
    "main": "cli",
    "mathieu_direct": "mathieu", "mathieu_alternating_direct": "mathieu",
    "mathieu_via_integral": "mathieu", "mathieu_alt_via_integral": "mathieu",
    "cahen_integral": "mathieu", "u_integral": "mathieu",
    "bound_mathieu_rhs": "mathieu", "bound_mathieu_alt_rhs": "mathieu",
    "extended_beta": "extended", "extended_gauss_integral": "extended",
    "extended_gauss_series": "extended", "extended_kummer": "extended",
    "beta": "classical", "beta_fn": "classical",
    "gauss_2f1": "classical", "gauss_2f1_raw": "classical",
    "integrate_finite_xc": "quadrature", "integrate_to_infinity": "quadrature",
}

QUADRATURE = ("integrate_finite_xc", "integrate_to_infinity")
PANEL_PARENTS = ("cahen_integral", "u_integral")
BOUNDS = ("bound_mathieu_rhs", "bound_mathieu_alt_rhs")
DIRECT = ("mathieu_direct", "mathieu_alternating_direct")

# per-layer metrics that are counts; two traced runs of one seed must agree on them
COUNT_METRICS = (
    "quadrature.calls", "quadrature.evals", "quadrature.unconverged",
    "extended.beta.calls", "extended.beta.evals", "extended.beta.distinct_ratio",
    "extended.kernel.calls", "extended.kernel.evals",
    "mathieu.head_terms", "mathieu.panels.calls", "mathieu.panels.evals",
    "mathieu.tails.calls", "mathieu.tails.evals", "mathieu.unconverged",
    "classical.calls", "classical.terms",
)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s.start, s.end
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans: list[Span], reqs: set[int] | None = None) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (see README for each name),
    over the requests in ``reqs`` (default: all)."""
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({name: 0 for name in COUNT_METRICS})
    m.update({"extended.beta.s": 0.0, "extended.kernel.s": 0.0, "mathieu.panels.s": 0.0,
              "mathieu.tails.s": 0.0, "mathieu.bound.s": 0.0, "trace.wall_s": 0.0})
    beta_args = set()
    for s, own in zip(spans, selfs):
        if reqs is not None and s.req not in reqs:
            continue
        name, layer = s.name, s.layer
        dur = s.end - s.start
        work = s.work or 0
        unconverged = s.conv is False
        m[f"{layer}.self_s"] += own
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.parent < 0:
            m["trace.wall_s"] += dur
        if name in QUADRATURE:
            m["quadrature.calls"] += 1
            m["quadrature.evals"] += work
            m["quadrature.unconverged"] += unconverged
            if LAYER_OF.get(parent) == "mathieu":
                kind = "panels" if name == "integrate_finite_xc" else "tails"
                if kind == "tails" or parent in PANEL_PARENTS:
                    m[f"mathieu.{kind}.calls"] += 1
                    m[f"mathieu.{kind}.evals"] += work
                    m[f"mathieu.{kind}.s"] += dur
        elif name == "extended_beta":
            m["extended.beta.calls"] += 1
            m["extended.beta.evals"] += work
            m["extended.beta.s"] += dur
            beta_args.add(s.args)
        elif name == "extended_gauss_integral":
            m["extended.kernel.calls"] += 1
            m["extended.kernel.evals"] += work
            m["extended.kernel.s"] += dur
        elif layer == "classical":
            m["classical.calls"] += 1
            m["classical.terms"] += work
        elif layer == "mathieu":
            m["mathieu.unconverged"] += unconverged
            if name in DIRECT:
                m["mathieu.head_terms"] += work
            if name in BOUNDS:
                m["mathieu.bound.s"] += dur
    calls = m["extended.beta.calls"]
    m["extended.beta.distinct_ratio"] = len(beta_args) / calls if calls else 0.0
    evals = m["quadrature.evals"]
    m["quadrature.ns_per_eval"] = 1e9 * m["quadrature.self_s"] / evals if evals else 0.0
    wall = m["trace.wall_s"]
    own = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.accounted_ratio"] = own / wall if wall else 0.0
    return m


def unconverged_requests(spans: list[Span]) -> list[int]:
    """Requests in which a mathieu-layer call returned converged=False."""
    return sorted({s.req for s in spans if s.layer == "mathieu" and s.conv is False})


def subtree_evals(spans: list[Span], root: int) -> int:
    """Quadrature evaluations made under span ``root`` (itself included);
    spans are in call order, so a subtree follows its root."""
    inside = {root}
    total = 0
    for i in range(root, len(spans)):
        s = spans[i]
        if i != root and s.parent not in inside:
            continue
        inside.add(i)
        if s.name in QUADRATURE:
            total += s.work or 0
    return total
