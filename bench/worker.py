"""Benchmark worker: one fresh interpreter that replays a request list in-process.

    python3 bench/worker.py [JOB_FILE [CPU]]

Driven by run.py: the worker imports ``pqmathieu.cli``, prints ``ready`` on
stdout and, given a job file, pins itself to CPU, runs the job and answers
with one JSON object on stdout.  A job is ``{"requests": [argv, ...],
"trace": bool, "ref": bool}`` or ``{"probe": name}``.  A traced job may name
a ``spans_out`` file that receives every span as one JSON array per line, in
call order (see spans.Span for the fields), and may list ``regular`` request
indices to get their per-layer sums as well.  Every request goes through
``pqmathieu.cli.main(argv)`` with stdout and stderr captured; its time covers
that call only.  With ``"ref": true`` the worker times reference chunks
(reference.py) during each request, from a timer signal: a request's ``ref``
lists their times, and its ``t`` leaves out the time they took.

With ``"trace": true`` the worker first wraps the library functions under
the names each consumer module imported them as, so every call into a layer
records a span.  The spans stay in memory until the pass ends; the worker
then returns their per-layer sums (spans.layer_metrics).
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pqmathieu.cli as cli  # noqa: E402  (the import is what set-up time measures)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402
from spans import (LAYER_OF, Span, layer_metrics, subtree_evals,  # noqa: E402
                   unconverged_requests)

# consumer module -> names it imported from a lower layer (or defines and calls itself)
WRAPPED = {
    "pqmathieu.cli": (
        "extended_beta", "extended_gauss_integral", "extended_gauss_series", "extended_kummer",
        "mathieu_direct", "mathieu_alternating_direct", "mathieu_via_integral",
        "mathieu_alt_via_integral", "u_integral", "bound_mathieu_rhs", "bound_mathieu_alt_rhs"),
    "pqmathieu.extended": ("integrate_finite_xc", "beta", "gauss_2f1", "extended_beta"),
    "pqmathieu.mathieu": (
        "integrate_finite_xc", "integrate_to_infinity", "gauss_2f1_raw", "beta_fn",
        "extended_beta", "extended_gauss_integral", "cahen_integral", "u_integral"),
}


class Tracer:
    """Records one Span per wrapped call, in call order, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.req = -1

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)  # reserve the slot so children can name their parent
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            work = getattr(res, "n_evals", None)
            if work is None:
                work = getattr(res, "n_work", getattr(res, "n_terms", None))
            conv = getattr(res, "converged", None)
            key = repr((args, sorted(kwargs.items()))) if name == "extended_beta" else None
            spans[idx] = Span(name, layer, start, end, parent, self.req, work, conv, key)
            return res

        return traced

    def install(self) -> None:
        for modname, names in WRAPPED.items():
            mod = sys.modules[modname]
            for name in names:
                setattr(mod, name, self.wrap(getattr(mod, name), name, LAYER_OF[name]))


def run_requests(requests: list[list[str]], tracer: Tracer | None,
                 ref: bool = False) -> list[dict]:
    main = cli.main if tracer is None else tracer.wrap(cli.main, "main", "cli")
    out = []
    sampler = reference.Sampler() if ref else None
    real_out, real_err = sys.stdout, sys.stderr
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.req = i
        buf_out, buf_err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = buf_out, buf_err
        raised = None
        if sampler is not None:
            sampler.start()
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a request that raises is a failure, not a crash
            code, raised = None, f"{type(exc).__name__}: {exc}"
        if sampler is not None:
            sampler.stop()
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = real_out, real_err
        out.append({"t": t1 - t0, "code": code, "raised": raised,
                    "stdout": buf_out.getvalue(), "stderr": buf_err.getvalue()})
        if sampler is not None:
            out[-1]["t"] -= sampler.spent
            out[-1]["ref"] = sampler.samples
    return out


def run_probe(name: str) -> dict:
    from probes import PROBES
    fn = PROBES[name]
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    root = tracer.wrap(fn, "main", "cli")
    root()
    return {"ms": 1e3 * first, "evals": subtree_evals(tracer.spans, 0)}


def main(argv: list[str]) -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if not argv:
        return
    if len(argv) > 1:
        os.sched_setaffinity(0, {int(argv[1])})
    with open(argv[0]) as fh:
        job = json.load(fh)
    if "probe" in job:
        answer = run_probe(job["probe"])
    else:
        tracer = Tracer() if job.get("trace") else None
        if tracer is not None:
            tracer.install()
        answer = {"results": run_requests(job["requests"], tracer, job.get("ref", False))}
        if tracer is not None:
            answer["layers"] = layer_metrics(tracer.spans)
            answer["unconverged_reqs"] = unconverged_requests(tracer.spans)
            if "regular" in job:
                answer["layers_regular"] = layer_metrics(tracer.spans, set(job["regular"]))
            if job.get("spans_out"):
                with open(job["spans_out"], "w") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
    answer["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(answer) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
