"""Tests of the benchmark itself: python3 -m pytest bench"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pqmathieu.cli as cli  # noqa: E402
import probes  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from check import INCORRECT, check_all, check_pair, check_request  # noqa: E402
from spans import COUNT_METRICS, Span, layer_metrics, self_times, subtree_evals  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 7, 40) == generate(workload, 7, 40)
    assert generate(workload, 7, 40) != generate(workload, 8, 40)


def test_mathieu_eval_edge_schedule():
    reqs = generate("mathieu-eval", 1, 100)
    kinds = [r["kind"] for r in reqs]
    assert kinds[99] == "edge:bound-cliff"
    assert kinds[9] == "edge:r2=a1" and kinds[19] == "edge:k(lam+eta)->1"
    assert kinds[29] == "edge:large-pq" and kinds[39] == "edge:starved"
    assert sum(k == "regular" for k in kinds) == 90


def test_bound_cliffs_alternate_k():
    cliffs = [r["argv"] for r in generate("mathieu-eval", 1, 400) if r["kind"] == "edge:bound-cliff"]
    assert ["--k" in argv for argv in cliffs] == [False, True, False, True]


def test_nominal_times_borrow_samples_from_the_nearest_requests():
    nominal = reference.NOMINAL_S
    results = [{"t": 0.1, "ref": [2 * nominal] * 5},  # own samples suffice
               {"t": 0.1, "ref": []},  # borrows the seven of its two neighbours
               {"t": 0.1, "ref": [nominal, nominal]},  # and these the nine after them
               {"t": 0.1, "ref": [nominal] * 9}]
    assert run.nominal_times(results) == pytest.approx([0.05, 0.05, 0.1, 0.1])


def test_coeff_series_starves_both_targets():
    reqs = generate("coeff-series", 1, 40)
    starved = [r["argv"][2] for r in reqs if r["kind"] == "edge:starved"]
    assert starved == ["kummer", "gauss", "kummer", "gauss"]


@pytest.mark.parametrize("workload,count", [("mathieu-eval", 30), ("coeff-series", 40),
                                            ("scan-sweep", 2)])
def test_no_regular_request_is_a_domain_error(workload, count):
    for req in generate(workload, 3, count):
        if req["kind"] == "regular":
            code, _ = _run_cli(req["argv"])
            assert code != 1, req["argv"]


def _mathieu_result():
    argv = ["eval", "--target", "mathieu", "--method", "both", "--lambda", "1", "--eta", "1",
            "--b", "1", "--c", "2", "--p", "0.5", "--q", "0.5", "--r", "0.7", "--seq", "n",
            "--output", "json"]
    code, out = _run_cli(argv)
    return argv, {"code": code, "raised": None, "stdout": out}


def _with_records(result, edit):
    recs = [json.loads(line) for line in result["stdout"].splitlines()]
    edit(recs)
    return {**result, "stdout": "".join(json.dumps(r) + "\n" for r in recs)}


def test_checker_passes_agreeing_routes():
    argv, result = _mathieu_result()
    assert check_request(argv, result) == []


def test_checker_flags_value_perturbed_by_1e6_relative():
    argv, result = _mathieu_result()

    def perturb(recs):
        recs[1]["value"] *= 1.0 + 1e-6

    assert check_request(argv, _with_records(result, perturb)) == ["routes-disagree"]


def test_checker_tells_understated_errors_from_wrong_values():
    argv, result = _mathieu_result()

    def nudge(recs):  # well within the 1e-12 tolerance, far beyond the stated errors
        recs[0]["err_est"] = recs[1]["err_est"] = 0.0
        recs[1]["value"] = recs[0]["value"] * (1.0 + 1e-13)

    assert check_request(argv, _with_records(result, nudge)) == ["err-understated"]
    assert "err-understated" not in INCORRECT


def test_checker_flags_converged_row_with_err_above_tolerance():
    argv, result = _mathieu_result()

    def loosen(recs):
        recs[0]["err_est"] = 1e-9 * abs(recs[0]["value"])  # tolerance is 1e-12 relative
        recs[1]["err_est"] = 1e-9 * abs(recs[1]["value"])

    assert check_request(argv, _with_records(result, loosen)) == ["false-convergence"]


def test_checker_flags_exit_codes_and_raises():
    assert check_request([], {"code": 2, "raised": None, "stdout": ""}) == ["exit"]
    assert check_request([], {"code": None, "raised": "ValueError: x", "stdout": ""}) == ["exit"]


def test_checker_flags_bound_below_direct_and_hidden_nonconvergence():
    direct = json.dumps({"method": "direct", "r": 0.5, "value": 1.0, "err_est": 1e-15}) + "\n"
    assert check_pair(direct, json.dumps({"r": 0.5, "value": 1.0 + 1e-12}) + "\n") == []
    assert check_pair(direct, json.dumps({"r": 0.5, "value": 0.999}) + "\n") == \
        ["bound-below-direct"]
    ok = {"code": 0, "raised": None, "stdout": ""}
    assert check_all([{"argv": []}, {"argv": []}], [ok, ok], [1]) == \
        [[], ["hidden-nonconvergence"]]


@pytest.mark.parametrize("n,pct,rank", [(19, None, None), (20, 50.0, 10), (39, 50.0, 20),
                                        (40, 75.0, 30), (100, 90.0, 90), (199, 90.0, 180),
                                        (200, 95.0, 190), (1000, 99.0, 990),
                                        (10000, 99.9, 9990)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, rank):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    tail = run.tail_percentile(values)
    if pct is None:
        assert tail is None
    else:
        assert tail == (pct, float(rank), n - rank)
        assert sum(v > tail[1] for v in values) == n - rank >= 10


def _span(name, layer, start, end, parent, work=None, conv=None):
    return Span(name, layer, start, end, parent, 0, work, conv, "k" if name == "extended_beta"
                else None)


def test_self_times_on_synthetic_tree():
    spans = [
        _span("main", "cli", 0.0, 10.0, -1),
        _span("mathieu_via_integral", "mathieu", 1.0, 8.0, 0),
        _span("cahen_integral", "mathieu", 1.5, 7.0, 1),
        _span("integrate_finite_xc", "quadrature", 2.0, 3.0, 2, work=100, conv=True),
        _span("extended_beta", "extended", 3.5, 6.0, 2, work=50, conv=True),
        _span("integrate_finite_xc", "quadrature", 4.0, 5.5, 4, work=50, conv=False),
        _span("main", "cli", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [3.0, 1.5, 2.0, 1.0, 1.0, 1.5, 1.0]
    m = layer_metrics(spans)
    assert m["trace.wall_s"] == 11.0
    assert (m["cli.self_s"], m["mathieu.self_s"], m["extended.self_s"],
            m["quadrature.self_s"]) == (4.0, 3.5, 1.0, 2.5)
    assert m["trace.accounted_ratio"] == 1.0
    assert (m["quadrature.calls"], m["quadrature.evals"], m["quadrature.unconverged"]) == \
        (2, 150, 1)
    assert (m["mathieu.panels.calls"], m["mathieu.panels.evals"], m["mathieu.panels.s"]) == \
        (1, 100, 1.0)
    assert m["extended.beta.s"] == 2.5 and m["extended.beta.distinct_ratio"] == 1.0
    assert subtree_evals(spans, 1) == 150 and subtree_evals(spans, 4) == 50


def test_self_time_clips_overlapping_children():
    spans = [_span("main", "cli", 0.0, 4.0, -1),
             _span("beta", "classical", 1.0, 3.0, 0),
             _span("beta", "classical", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_two_traced_runs_give_identical_counts():
    argvs = [r["argv"] for r in generate("coeff-series", 2, 6)]
    first, second = (a["layers"] for a in run.run_jobs([{"requests": argvs, "trace": True}] * 2))
    assert first["quadrature.evals"] > 0
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    assert first["trace.accounted_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    printed = set(layer_metrics([])) - {"trace.accounted_ratio"}
    printed |= {"trace.overhead_ratio", "cli.output_bytes"}
    assert tuple(probes.PROBES) == run.PROBES
    printed |= {f"point.{p}.{k}" for p in run.PROBES for k in ("ms", "evals")}
    assert {m["name"] for m in spec["per_layer"]} == printed
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
