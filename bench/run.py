"""Benchmark driver for pqmathieu: one closed-loop client, one request at a time.

    python3 bench/run.py --workload mathieu-eval --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (it imports ``src/pqmathieu``; no
install is needed).  It generates the workload's request list from the seed,
replays it through ``pqmathieu.cli.main(argv)`` in fresh worker processes
(bench/worker.py, one request at a time), checks every output
(bench/check.py) and prints one line per metric, then, as the last line, one
JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  README.md in this directory lists every metric.  The exit code is 0
when a result was printed, and 1 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
from check import INCORRECT, check_all  # noqa: E402
from spans import COUNT_METRICS, LAYERS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# requests per second of --seconds.  At --seconds 30 that is 300 mathieu-eval
# requests (three bound cliffs), 900 coeff-series requests (the tail stays p95)
# and 24 scan-sweep scans, and a run takes 13-37 s on a 2-core 2.1 GHz host.
SIZING = {"mathieu-eval": 10.0, "coeff-series": 30.0, "scan-sweep": 0.8}
# untraced passes per run, run at once, one per core; a request's time is its best pass
PASSES = 2
# fewest reference samples behind a request's speed factor (one per 10 ms of requests)
MIN_SAMPLES = 5
# fresh interpreters timed per run for setup_s, one after another
SETUP_SPAWNS = 10
WORKER_TIMEOUT_S = 150
PROBES = ("extended_beta", "extended_gauss_integral", "extended_gauss_series",
          "extended_kummer", "mathieu_direct", "mathieu_via_integral", "bound_mathieu_rhs")
OUT = os.path.join(HERE, "out")
CPUS = sorted(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """The benchmark itself could not run (a worker failed or timed out)."""


def request_count(workload: str, seconds: int) -> int:
    n = max(round(seconds * SIZING[workload]), 2)
    return n + n % 2  # scan-sweep requests come in pairs


def _worker(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0 or not out.startswith("ready\n"):
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-400:]}")
    return out


def _reap(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def time_setup() -> float:
    """Seconds from spawning a fresh worker until it has imported pqmathieu.cli."""
    t0 = time.perf_counter()
    proc = _worker()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        _reap([proc])
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed to start (exit {proc.returncode})")
    return setup_s


def run_jobs(jobs: list[dict]) -> list[dict]:
    """Answers of ``jobs``, each run by a fresh worker.  Workers run as many at a
    time as there are CPUs, each pinned to its own: the host's speed drifts per
    core, and a request's best time over cores and passes is the steadier figure."""
    os.makedirs(OUT, exist_ok=True)
    answers = []
    for first in range(0, len(jobs), len(CPUS)):
        procs = []
        try:
            for cpu, job in zip(CPUS, jobs[first:first + len(CPUS)]):
                path = os.path.join(OUT, f"job-cpu{cpu}.json")
                with open(path, "w") as fh:
                    json.dump(job, fh)
                procs.append(_worker(path, str(cpu)))
            answers += [json.loads(_finish(proc).splitlines()[-1]) for proc in procs]
        finally:
            _reap(procs)
    return answers


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond it) for the highest of
    p99.9/p99/p95/p90/p75/p50 that has at least ten samples beyond it, by
    nearest rank; None below 20 samples."""
    xs = sorted(values)
    n = len(xs)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = int(-(-pct * n // 100))  # nearest rank, 1-based
        if n - rank >= 10:
            return pct, xs[rank - 1], n - rank
    return None


def failures(requests: list[dict], answers: list[dict],
             unconverged_reqs: list[int] = ()) -> tuple[list[list[str]], bool]:
    """Failure reasons per request and whether every pass printed the same bytes."""
    reasons = check_all(requests, answers[0]["results"], unconverged_reqs)
    same = all([r["stdout"] for r in a["results"]] == [r["stdout"] for r in answers[0]["results"]]
               for a in answers[1:])
    return reasons, same


def nominal_times(results: list[dict]) -> list[float]:
    """Each request's time at nominal host speed: its raw time divided by the
    speed factor of the reference chunks timed during it, and during its nearest
    neighbours in the pass while that gives fewer than MIN_SAMPLES (reference.py)."""
    if not any(res["ref"] for res in results):
        raise BenchError("no host-speed samples: every request took under 10 ms")
    out = []
    for i, res in enumerate(results):
        samples, lo, hi = list(res["ref"]), i, i
        while len(samples) < MIN_SAMPLES and (lo > 0 or hi < len(results) - 1):
            if lo > 0:
                lo -= 1
                samples += results[lo]["ref"]
            if hi < len(results) - 1:
                hi += 1
                samples += results[hi]["ref"]
        out.append(res["t"] / reference.speed_factor(samples))
    return out


def end_to_end(workload: str, requests: list[dict]):
    argvs = [r["argv"] for r in requests]
    time_setup()  # warm-up: byte-compile caches are not set-up cost
    # set-up spawns before and after the passes, so their median spans the run
    setups = [time_setup() for _ in range(SETUP_SPAWNS // 2)]
    answers = run_jobs([{"requests": argvs, "ref": True}] * PASSES)
    setups += [time_setup() for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
    nominal = [nominal_times(a["results"]) for a in answers]
    best = [min(times[i] for times in nominal) for i in range(len(argvs))]
    raw = [min(a["results"][i]["t"] for a in answers) for i in range(len(argvs))]
    reasons, same = failures(requests, answers)
    n = len(requests)
    metrics = {
        "latency_p50_ms": (1e3 * statistics.median(best), "ms"),
        "requests_per_s": (n / sum(best), "1/s"),
        "ok_ratio": (sum(not r for r in reasons) / n, "ratio"),
        "peak_rss_mb": (max(a["rss_kb"] for a in answers) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    factors = [reference.speed_factor([c for r in a["results"] for c in r["ref"]])
               for a in answers]
    notes = [f"requests={n} passes={PASSES} setup_spawns={len(setups)}",
             "median host speed factor per pass: " + " ".join(f"{f:.3f}" for f in factors),
             f"raw times: latency_p50_ms={1e3 * statistics.median(raw)!r} "
             f"requests_per_s={n / sum(raw)!r}"]
    tail = tail_percentile(best)
    if tail is not None:
        pct, value, beyond = tail
        metrics["latency_tail_ms"] = (1e3 * value, "ms")
        notes.append(f"latency_tail_ms is p{pct:g} of {n} requests ({beyond} beyond it)")
    return metrics, reasons, same, notes


def per_layer(workload: str, requests: list[dict]):
    argvs = [r["argv"] for r in requests]
    spans_out = os.path.join(OUT, f"spans-{workload}.jsonl")  # the latest traced run
    regular = [i for i, r in enumerate(requests) if r["kind"] == "regular"]
    plain, *traced = run_jobs([{"requests": argvs},
                               {"requests": argvs, "trace": True, "spans_out": spans_out,
                                "regular": regular},
                               {"requests": argvs, "trace": True}])
    reasons, same = failures(requests, [plain] + traced, traced[0]["unconverged_reqs"])
    runs = [a["layers"] for a in traced]
    counts_equal = all(runs[0][k] == runs[1][k] for k in COUNT_METRICS)
    m = runs[0]
    plain_s = sum(r["t"] for r in plain["results"])
    traced_s = sum(r["t"] for r in traced[0]["results"])
    m["trace.overhead_ratio"] = traced_s / plain_s
    m["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in plain["results"])
    for name, probe in zip(PROBES, run_jobs([{"probe": name} for name in PROBES])):
        m[f"point.{name}.ms"] = probe["ms"]
        m[f"point.{name}.evals"] = probe["evals"]
    accounted = m.pop("trace.accounted_ratio")
    metrics = {k: (v, unit_of(k)) for k, v in sorted(m.items())}
    accounted_ok = abs(accounted - 1.0) < 1e-6
    notes = [f"counts identical across two traced runs: {counts_equal}",
             f"layer self times / traced wall time = {accounted!r}",
             "self-time shares: " + " ".join(
                 f"{layer}={m[f'{layer}.self_s'] / m['trace.wall_s']:.3f}" for layer in LAYERS),
             "inclusive shares: " + inclusive_shares(m),
             "inclusive shares over regular requests: " + inclusive_shares(
                 traced[0]["layers_regular"])]
    return metrics, reasons, same and counts_equal and accounted_ok, notes


def inclusive_shares(m: dict) -> str:
    wall = m["trace.wall_s"] or 1.0
    return " ".join(f"{k}={m[k + '.s'] / wall:.3f}" for k in
                    ("extended.beta", "extended.kernel", "mathieu.panels", "mathieu.tails",
                     "mathieu.bound"))


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("ns_per_eval"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through run_jobs, which kills and waits for its workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "pqmathieu", "cli.py")):
        print("bench: no src/pqmathieu next to bench/; run from a source checkout",
              file=sys.stderr)
        return 1
    requests = generate(args.workload, args.seed, request_count(args.workload, args.seconds))
    try:
        if args.trace:
            metrics, reasons, consistent, notes = per_layer(args.workload, requests)
        else:
            metrics, reasons, consistent, notes = end_to_end(args.workload, requests)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    for i, (req, why) in enumerate(zip(requests, reasons)):
        if why:
            print(f"failed request {i} ({req['kind']}): {','.join(why)}: {' '.join(req['argv'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    wrong = any(set(why) & set(INCORRECT) for why in reasons)
    print(json.dumps({
        "correct": consistent and not wrong,
        "attempted": len(requests),
        "failed": sum(1 for why in reasons if why),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
