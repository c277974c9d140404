"""Seeded request generators for the benchmark workloads.

A request is a dict with the CLI argument list (``argv``), a ``kind`` label
(``regular`` or an edge label) and, for ``scan-sweep``, the ``pair`` it
belongs to.  The same (workload, seed, count) always gives the same list.

Regular draws are stratified (Latin hypercube): each parameter range is cut
into as many slices as there are regular requests and every slice is used
once.  Two seeds then give lists with the same spread of costs, so the
seed-to-seed spread of a latency median reflects the program and the host
rather than lucky draws.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("mathieu-eval", "coeff-series", "scan-sweep")

# edge requests of mathieu-eval, cycled in this order (every 10th request)
MATHIEU_EDGES = ("edge:r2=a1", "edge:k(lam+eta)->1", "edge:large-pq", "edge:starved")


class _Strata:
    """Latin-hypercube columns: column(name)[i] is uniform in slice perm[i] of [0, 1)."""

    def __init__(self, rng: random.Random, n: int):
        self.rng, self.n = rng, n
        self.cols: dict[str, list[float]] = {}

    def u(self, name: str, i: int) -> float:
        col = self.cols.get(name)
        if col is None:
            perm = list(range(self.n))
            self.rng.shuffle(perm)
            col = [(s + self.rng.random()) / self.n for s in perm]
            self.cols[name] = col
        return col[i]

    def uniform(self, name: str, i: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u(name, i)

    def choice(self, name: str, i: int, options):
        return options[min(int(self.u(name, i) * len(options)), len(options) - 1)]


def _f(x: float) -> str:
    return repr(float(x))


def _seq_args(k: float) -> list[str]:
    return ["--seq", "n"] if k == 1.0 else ["--seq", "n^k", "--k", _f(k)]


def _series_args(lam, eta, r, b, c, p, q, k) -> list[str]:
    return ["--lambda", _f(lam), "--eta", _f(eta), "--r", _f(r), "--b", _f(b), "--c", _f(c),
            "--p", _f(p), "--q", _f(q), *_seq_args(k), "--output", "json"]


def _bound_cliff(rng: random.Random, k: float) -> list[str]:
    # lam + eta - (1 + 1/k) in (0, 0.01]: the u-integrals of the bound exhaust their
    # budget (~350k evaluations, 3-5 s).  Gaps up to 0.02 are also slow, but from
    # ~0.015 on the cost falls ~5x, which would make each cliff a coin toss.
    lam = rng.uniform(0.3, 1.0)
    eta = 1.0 + 1.0 / k - lam + rng.uniform(0.0, 0.01) + 1e-9
    b = rng.uniform(0.4, 1.0)
    c = lam + 1.0 + rng.uniform(0.0, 1.0)
    r = math.sqrt(rng.uniform(0.1, 0.9))
    return ["eval", "--target", "bound",
            *_series_args(lam, eta, r, b, c, rng.uniform(0, 1.5), rng.uniform(0, 1.5), k)]


def mathieu_eval(seed: int, count: int) -> list[dict]:
    """eval --target mathieu|mathieu-alt --method both at fresh points.

    Every 10th request is an edge case (cycling through MATHIEU_EDGES) and
    one request in 100, in place of an edge case, is an eval --target bound
    at the cost cliff, with k = 1 and k = 2 taking turns (a k = 1 cliff costs
    ~4.3 s, a k = 2 one ~3.4 s, and the cliffs are a third of the list's time).
    """
    rng = random.Random(f"mathieu-eval/{seed}")
    st = _Strata(rng, count)
    out = []
    k_edges = 0
    for i in range(count):
        if i % 100 == 99:
            out.append({"argv": _bound_cliff(rng, (1.0, 2.0)[i // 100 % 2]),
                        "kind": "edge:bound-cliff"})
            continue
        kind = MATHIEU_EDGES[(i // 10) % 4] if i % 10 == 9 else "regular"
        target = st.choice("target", i, ("mathieu", "mathieu-alt"))
        k = st.choice("k", i, (1.0, 1.5, 2.0))
        lam = st.uniform("lam", i, 0.3, 2.0)
        s = st.uniform("s", i, 1.2, 3.5)  # k (lam + eta)
        if kind == "edge:k(lam+eta)->1":
            # Over k(lam+eta) in (1, 1.1] the cost is either ~20k or ~550k evaluations
            # (then exit 2), depending on several parameters, which would make each
            # seed's two such requests a coin toss.  In (1.001, 1.005] the series
            # always takes the expensive branch and the alternating one the cheap one;
            # the two take turns.
            target = ("mathieu", "mathieu-alt")[k_edges % 2]
            k_edges += 1
            s = 1.0 + rng.uniform(1e-3, 5e-3)
            lam = min(lam, 0.8 * s / k)
        eta = s / k - lam
        if eta <= 0.05:
            eta = 0.05 + st.uniform("eta_pad", i, 0.0, 1.0)
        b = st.uniform("b", i, 0.3, 1.5)
        c = b + st.uniform("cb", i, 0.3, 1.5)
        r = math.sqrt(st.uniform("r2", i, 0.1, 1.0))
        p, q = st.uniform("p", i, 0.0, 2.0), st.uniform("q", i, 0.0, 2.0)
        extra = []
        if kind == "edge:r2=a1":
            r = 1.0
        elif kind == "edge:large-pq":
            p, q = rng.uniform(20.0, 150.0), rng.uniform(20.0, 150.0)
        elif kind == "edge:starved":
            extra = ["--max-evals", str(rng.randint(40, 400))]
        out.append({"argv": ["eval", "--target", target, "--method", "both",
                             *_series_args(lam, eta, r, b, c, p, q, k), *extra],
                    "kind": kind})
    return out


def coeff_series(seed: int, count: int) -> list[dict]:
    """Alternating eval --target gauss --method both and eval --target kummer;
    every 10th request runs with a starved --max-evals (gauss and kummer in turn)."""
    rng = random.Random(f"coeff-series/{seed}")
    per_target = (count + 1) // 2
    strata = {"gauss": _Strata(rng, per_target), "kummer": _Strata(rng, per_target)}
    out = []
    for i in range(count):
        target, j = ("gauss", "kummer")[i % 2], i // 2
        st = strata[target]
        b = st.uniform("b", j, 0.3, 1.8)
        c = b + st.uniform("cb", j, 0.3, 1.8)
        p, q = st.uniform("p", j, 0.0, 2.0), st.uniform("q", j, 0.0, 2.0)
        sign = st.choice("sign", j, (-1.0, 1.0))
        if target == "gauss":
            argv = ["eval", "--target", "gauss", "--method", "both",
                    "--a", _f(st.uniform("a", j, 0.3, 2.5)), "--b", _f(b), "--c", _f(c),
                    "--z", _f(sign * st.uniform("z", j, 0.05, 0.9))]
        else:
            argv = ["eval", "--target", "kummer", "--b", _f(b), "--c", _f(c),
                    "--z", _f(sign * st.uniform("z", j, 0.5, 60.0))]
        argv += ["--p", _f(p), "--q", _f(q), "--output", "json"]
        kind = "regular"
        if i % 20 in (9, 18):
            kind = "edge:starved"
            argv += ["--max-evals", str(rng.randint(40, 400))]
        out.append({"argv": argv, "kind": kind})
    return out


def scan_sweep(seed: int, count: int) -> list[dict]:
    """Pairs of 20-row scans over r in (0.1 .. 0.95) sqrt(a_1) sharing (b, c, p, q):
    first --target mathieu --method both, then --target bound."""
    rng = random.Random(f"scan-sweep/{seed}")
    pairs = max(count // 2, 1)
    st = _Strata(rng, pairs)
    out = []
    for j in range(pairs):
        k = st.choice("k", j, (1.0, 2.0))
        lam = st.uniform("lam", j, 0.3, 1.0)
        eta = 1.0 + 1.0 / k + st.uniform("gap", j, 0.05, 1.5) - lam
        b = st.uniform("b", j, 0.4, 1.0)
        c = lam + 1.0 + st.uniform("c", j, 0.0, 1.0)
        p, q = st.uniform("p", j, 0.0, 1.5), st.uniform("q", j, 0.0, 1.5)
        common = ["--lambda", _f(lam), "--eta", _f(eta), "--b", _f(b), "--c", _f(c),
                  "--p", _f(p), "--q", _f(q), *_seq_args(k),
                  "--sweep", "r", "0.1", "0.95", "20", "--output", "json"]
        out.append({"argv": ["scan", "--target", "mathieu", "--method", "both", *common],
                    "kind": "regular", "pair": j})
        out.append({"argv": ["scan", "--target", "bound", *common],
                    "kind": "regular", "pair": j})
    return out


GENERATORS = {"mathieu-eval": mathieu_eval, "coeff-series": coeff_series,
              "scan-sweep": scan_sweep}


def generate(workload: str, seed: int, count: int) -> list[dict]:
    return GENERATORS[workload](seed, count)
