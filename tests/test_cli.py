import csv
import io
import json
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "pqmathieu"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_eval_beta_trivial():
    out = run_cli("eval", "--target", "beta", "--x", "2", "--y", "3", "--p", "0", "--q", "0")
    assert out.returncode == 0
    assert "value=0.0833333333333" in out.stdout
    assert "converged=true" in out.stdout


def test_eval_gauss_log_identity():
    out = run_cli("eval", "--target", "gauss", "--a", "1", "--b", "1", "--c", "2",
                  "--z", "-1", "--p", "0", "--q", "0")
    assert out.returncode == 0
    assert "value=0.693147180559" in out.stdout


def test_eval_mathieu_both_methods_agree():
    out = run_cli("eval", "--target", "mathieu", "--method", "both", "--lambda", "1",
                  "--eta", "1", "--b", "1", "--c", "2", "--p", "0", "--q", "0",
                  "--r", "1", "--seq", "n", "--output", "csv")
    assert out.returncode == 0
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    assert [r["method"] for r in rows] == ["direct", "integral"]
    v1, v2 = (float(r["value"]) for r in rows)
    assert abs(v1 - v2) <= 1e-6 * abs(v1)


def test_csv_schema():
    out = run_cli("eval", "--target", "beta", "--x", "1", "--y", "1", "--p", "0.5",
                  "--q", "0.5", "--output", "csv")
    header = out.stdout.splitlines()[0]
    assert header == "target,method,x,y,p,q,value,err_est,n_work,converged"


def test_json_lines():
    out = run_cli("eval", "--target", "kummer", "--b", "1", "--c", "2", "--z", "-1",
                  "--p", "0.1", "--q", "0.1", "--output", "json")
    assert out.returncode == 0
    rec = json.loads(out.stdout.splitlines()[0])
    assert rec["target"] == "kummer"
    assert abs(rec["value"] - 0.3083466827082625) < 1e-9


def test_domain_error_exit_code_and_message():
    out = run_cli("eval", "--target", "beta", "--x", "-1", "--y", "3", "--p", "0", "--q", "0")
    assert out.returncode == 1
    assert out.stdout == ""
    assert "x > 0 when p = 0" in out.stderr


def test_missing_parameter_is_domain_error():
    out = run_cli("eval", "--target", "mathieu", "--lambda", "1", "--eta", "1",
                  "--b", "1", "--c", "2", "--p", "0", "--q", "0", "--seq", "n")
    assert out.returncode == 1
    assert "--r" in out.stderr


def test_non_convergence_exit_code():
    out = run_cli("eval", "--target", "beta", "--x", "0.5", "--y", "0.5",
                  "--p", "0", "--q", "0", "--max-evals", "16")
    assert out.returncode == 2
    assert "converged=false" in out.stdout


def test_overflowed_kummer_series_exits_2(capsys):
    from pqmathieu.cli import main
    # the reflected series Phi_{q,p}(1; 2; 800) overflows to inf, which made
    # its tolerance rel_tol*|sum| inf as well
    assert main(["eval", "--target", "kummer", "--b", "1", "--c", "2", "--z", "-800",
                 "--p", "0.5", "--q", "0.5"]) == 2
    assert "converged=false" in capsys.readouterr().out


def test_underflowed_kummer_reflection_exits_1_with_one_line(capsys):
    from pqmathieu.cli import main
    assert main(["eval", "--target", "kummer", "--b", "1", "--c", "2", "--z", "-200",
                 "--p", "700", "--q", "700"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "domain error: extended_kummer underflows at z=-200.0: log value -inf\n"


def test_underflowed_bound_envelope_exits_1_with_one_line(capsys):
    # exp(-(sqrt(p) + sqrt(q))^2) = exp(-800) times the bracket leaves the
    # double range: an upper bound of 0 for a positive series would be no
    # bound at all
    from pqmathieu.cli import main
    assert main(["eval", "--target", "bound", "--lambda", "1", "--eta", "3", "--r", "0.5",
                 "--b", "1", "--c", "2", "--p", "200", "--q", "200", "--seq", "n"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "domain error: bound underflows: log value -800.3\n"


@pytest.mark.parametrize("a, b, c, z, p, q", [
    (1.1579250980374536, 1.7829333257602047, 2.610814453421793, -0.8118594307696968,
     1.6552455042755627, 0.06594786953119675),
    (2.054404421733095, 1.1954727965258896, 1.5248099488646887, -0.866552626991257,
     0.36835109809687067, 0.995971272614102),
    (2.2022554270109143, 0.7369225805510137, 1.1222379002101106, -0.8692759547302548,
     0.8029852983612911, 1.497978383245688),
    (2.479317190542718, 0.6946424363385013, 1.0276882822043607, -0.8857315467261759,
     0.37388273036895886, 1.5010095281691531),
    (2.4575723574150508, 1.2449150104913085, 1.9351872677363404, -0.8836038741911353,
     0.16369379188504618, 1.5008020565962712),
])
def test_gauss_series_converges_at_cancelling_negative_arguments(capsys, a, b, c, z, p, q):
    # the raw series at these z cancelled and stopped above its tolerance
    # (exit 2); its Pfaff form at z/(z-1) has positive terms
    from pqmathieu.cli import main
    argv = ["eval", "--target", "gauss", "--method", "both"]
    for name, val in zip("abczpq", (a, b, c, z, p, q)):
        argv += [f"--{name}", repr(val)]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("converged=true") == 2


@pytest.mark.parametrize("args", [
    ["--target", "kummer", "--b", "1", "--c", "2", "--p", "0.5", "--q", "0.5", "--z=-inf"],
    ["--target", "kummer", "--b", "1", "--c", "2", "--p", "0.5", "--q", "0.5", "--z", "inf"],
    ["--target", "kummer", "--b", "1", "--c", "2", "--p", "0.5", "--q", "0.5", "--z", "nan"],
    ["--target", "mathieu", "--lambda", "1", "--eta", "1", "--r", "0.5", "--b", "1", "--c", "2",
     "--p", "0.5", "--q", "0.5", "--seq", "n^k", "--k", "inf"],
    ["--target", "mathieu", "--lambda", "1", "--eta", "1", "--r", "0.5", "--b", "1",
     "--c", "inf", "--p", "0.5", "--q", "0.5", "--seq", "n"],
    # (1.9)^1200 times the reflected series overflows
    ["--target", "gauss", "--method", "direct", "--a", "-1200", "--b", "1", "--c", "2",
     "--z", "-0.9", "--p", "0.5", "--q", "0.5"],
])
def test_non_finite_input_or_result_exits_1_with_one_domain_line(args):
    out = run_cli("eval", *args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("domain error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


def test_integrand_overflow_exits_1_with_one_line(capsys):
    from pqmathieu.cli import main
    for argv in (["eval", "--target", "gauss", "--a", "500", "--b", "1", "--c", "2",
                  "--z", "0.99", "--p", "0", "--q", "0"],
                 ["eval", "--target", "beta", "--x", "-800", "--y", "1", "--p", "0.001",
                  "--q", "0"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("integrand error: integrand overflowed at x=")
        assert err.count("\n") == 1


def test_usage_errors_exit_64():
    # a command line argparse rejects is EX_USAGE, apart from 2 (unconverged)
    out = run_cli("eval", "--target", "mathieu", "--bogus", "1")
    assert out.returncode == 64
    assert out.stdout == ""
    assert "unrecognized arguments: --bogus" in out.stderr
    out = run_cli()
    assert out.returncode == 64
    assert "required: command" in out.stderr
    # argparse takes --sweep as four strings; the scan command parses them
    sweep = ("scan", "--target", "mathieu", "--lambda", "1", "--eta", "1", "--b", "1",
             "--c", "2", "--p", "0", "--q", "0", "--seq", "n", "--sweep", "r")
    for bounds, field in ((("0.1", "0.9", "abc"), "STEPS"), (("0.1", "0.9", "2.5"), "STEPS"),
                          (("x", "0.9", "3"), "LO"), (("0.1", "", "3"), "HI")):
        out = run_cli(*sweep, *bounds)
        assert out.returncode == 64, bounds
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert f"--sweep r {field} must be" in out.stderr
    # a parameter swept twice, under one spelling or two, would drop an axis
    bound = ("scan", "--target", "bound", "--lambda", "0.5", "--eta", "3", "--b", "1", "--c", "2",
             "--p", "0.5", "--q", "0.5", "--seq", "n")
    for axes, name in ((("--sweep", "r", "0.1", "0.5", "2", "--sweep", "r", "0.6", "0.9", "2"),
                        "'r'"),
                       (("--r", "0.5", "--sweep", "lambda", "0.1", "0.5", "2",
                         "--sweep", "lam", "0.6", "0.9", "2"), "'lam'")):
        out = run_cli(*bound, *axes)
        assert out.returncode == 64, axes
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert f"parameter {name} is swept twice" in out.stderr
    # a swept parameter no row reads would repeat the rows; a name that is
    # no parameter, a third axis and an empty axis are malformed too
    kummer = ("scan", "--target", "kummer", "--b", "1", "--c", "2", "--z", "1", "--q", "0")
    u_int = ("scan", "--target", "u-integral", "--lambda", "1", "--eta", "1.5", "--r", "0.5")
    for argv, text in (
            ((*kummer, "--sweep", "p", "0.1", "0.2", "2", "--sweep", "eta", "1", "2", "2"),
             "reads parameter 'eta'"),
            ((*u_int, "--seq", "n", "--sweep", "k", "1", "2", "2"), "reads parameter 'k'"),
            ((*u_int, "--seq", "n^k", "--k", "2", "--sweep", "scale", "1", "2", "2"),
             "reads parameter 'scale'"),
            ((*kummer, "--p", "0", "--sweep", "foo", "1", "2", "2"), "reads parameter 'foo'"),
            ((*kummer, "--sweep", "p", "0.1", "0.2", "2", "--sweep", "b", "1", "2", "2",
              "--sweep", "z", "1", "2", "2"), "got 3 --sweep"),
            ((*kummer, "--sweep", "p", "0.1", "0.2", "0"), "--sweep p STEPS must be at least 1")):
        out = run_cli(*argv)
        assert out.returncode == 64, argv
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert text in out.stderr


def test_negative_values_with_an_exponent_are_values(capsys):
    # argparse alone reads -0.5 as a value but -1e-3 as a flag; every finite
    # negative number repr() prints is a value, as an option and as a --sweep bound
    from pqmathieu.cli import main
    kummer = ["--target", "kummer", "--b", "1", "--c", "2", "--p", "0.5", "--q", "0.5"]
    assert main(["eval", *kummer, "--z=-1e-3"]) == 0
    joined = capsys.readouterr().out
    assert main(["eval", *kummer, "--z", "-1e-3"]) == 0
    assert capsys.readouterr().out == joined
    assert main(["scan", *kummer, "--sweep", "z", "-1e-3", "1", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    # a z-scan row at -2^-53 replays with a space before its value
    gauss = ["--target", "gauss", "--method", "direct", "--a", "1.5", "--b", "0.8", "--c", "2",
             "--p", "0.5", "--q", "0.5"]
    assert main(["scan", *gauss, "--sweep", "z", "-0.9", "0.9", "19"]) == 0
    row, = [line for line in capsys.readouterr().out.splitlines()
            if " z=-1.1102230246251565e-16 " in line]
    assert main(["eval", *gauss, "--z", "-1.1102230246251565e-16"]) == 0
    assert capsys.readouterr().out == row + "\n"
    # a flag is still a flag
    for argv in (["eval", *kummer, "--z", "-1", "--bogus", "1"], ["eval", *kummer, "--z", "-x"]):
        assert main(argv) == 64
        assert capsys.readouterr().out == ""


def test_large_damping_alternating_direct_route_converges(capsys):
    # at q = 150 the alternating head cancels; summed as one integrand its
    # error bound stays at the integral route's, and both records converge
    recs = _records(capsys, "eval", "--target", "mathieu-alt", "--method", "both",
                    "--lambda", "0.15", "--eta", "0.1", "--r", "0.8", "--b", "1", "--c", "2",
                    "--p", "0", "--q", "150", "--seq", "n", "--output", "json")
    direct, integral = recs
    assert direct["converged"] and integral["converged"]
    assert abs(direct["value"] - integral["value"]) <= direct["err_est"] + integral["err_est"]


def test_help_exits_0():
    out = run_cli("eval", "--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: pqmathieu eval")


def test_byte_identical_reruns():
    args = ("eval", "--target", "gauss", "--a", "1.3", "--b", "0.8", "--c", "2.1",
            "--z", "-0.7", "--p", "0.4", "--q", "0.2", "--output", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_consecutive_in_process_calls_match_fresh_processes(capsys):
    from pqmathieu.cli import main
    runs = [("eval", "--target", "beta", "--x", "2", "--y", "3", "--p", "0.5", "--q", "0"),
            ("eval", "--target", "kummer", "--b", "1", "--c", "2", "--z", "-1",
             "--p", "0.1", "--q", "0.1", "--output", "json"),
            ("eval", "--target", "beta", "--x", "2", "--y", "3", "--p", "0.5", "--q", "0")]
    for args in runs:
        fresh = run_cli(*args)
        assert main(list(args)) == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


def test_scan_row_count_and_order():
    out = run_cli("scan", "--target", "mathieu", "--lambda", "1", "--eta", "1.5",
                  "--b", "1", "--c", "2", "--p", "0", "--q", "0", "--seq", "n",
                  "--sweep", "r", "0.1", "0.9", "9", "--output", "csv")
    assert out.returncode == 0
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    assert len(rows) == 9
    assert [float(r["r"]) for r in rows] == [0.1 + 0.1 * i for i in range(9)]


def test_scan_damping_monotone():
    out = run_cli("scan", "--target", "beta", "--x", "2", "--y", "3", "--q", "0",
                  "--sweep", "p", "0", "2", "5", "--output", "csv")
    assert out.returncode == 0
    vals = [float(r["value"]) for r in csv.DictReader(io.StringIO(out.stdout))]
    assert len(vals) == 5
    assert all(vals[i] >= vals[i + 1] for i in range(4))


def test_scan_bound_dominates_value():
    out = run_cli("scan", "--target", "bound", "--eta", "3", "--b", "1", "--c", "2.5",
                  "--p", "0.5", "--q", "0.5", "--r", "0.5", "--seq", "n",
                  "--sweep", "lambda", "0.25", "1.0", "4", "--output", "json")
    assert out.returncode == 0
    bounds = [json.loads(line)["value"] for line in out.stdout.splitlines()]
    direct = run_cli("scan", "--target", "mathieu", "--eta", "3", "--b", "1", "--c", "2.5",
                     "--p", "0.5", "--q", "0.5", "--r", "0.5", "--seq", "n",
                     "--sweep", "lambda", "0.25", "1.0", "4", "--output", "json")
    values = [json.loads(line)["value"] for line in direct.stdout.splitlines()]
    assert all(v <= b + 1e-9 for v, b in zip(values, bounds))


def test_scan_aborts_before_first_row_on_domain_violation():
    # the last sweep point has r^2 > a_1, so nothing at all may be computed
    out = run_cli("scan", "--target", "mathieu", "--lambda", "1", "--eta", "1.5",
                  "--b", "1", "--c", "2", "--p", "0", "--q", "0", "--seq", "n",
                  "--sweep", "r", "0.5", "1.5", "3", "--output", "csv")
    assert out.returncode == 1
    assert out.stdout == ""
    assert "r^2 <= a_1" in out.stderr


def test_sequence_flag_forms():
    out = run_cli("eval", "--target", "u-integral", "--lambda", "2", "--eta", "2",
                  "--r", "1", "--seq", "n^k", "--k", "2", "--output", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["seq"] == "n^2"
    out = run_cli("eval", "--target", "u-integral", "--lambda", "2", "--eta", "2",
                  "--r", "1", "--seq", "c*n^k", "--scale", "2", "--k", "1",
                  "--output", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["seq"] == "2*n"
    # missing --k is a domain error
    out = run_cli("eval", "--target", "u-integral", "--lambda", "2", "--eta", "2",
                  "--r", "1", "--seq", "n^k")
    assert out.returncode == 1
    assert "--k" in out.stderr


def test_verify_identities_suite_in_process():
    # covers suite functions that do not take a policy (counting checks)
    from pqmathieu.cli import main
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "identities", "--output", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    suites = {r["suite"] for r in rows}
    assert {"identities", "laplace", "two-path", "counting"} <= suites
    assert all(r["pass"] == "true" for r in rows)


def test_verify_golden_suite():
    out = run_cli("verify", "quadrature-golden", "--output", "csv")
    assert out.returncode == 0
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    assert rows and all(r["pass"] == "true" for r in rows)
    assert out.stdout.splitlines()[0] == "suite,check,params,lhs,rhs,margin,pass"


MATHIEU = ("--lambda", "1", "--eta", "1", "--b", "1", "--c", "2", "--p", "0.5", "--q", "0.5",
           "--seq", "n", "--output", "json")


@pytest.fixture
def table_calls(monkeypatch):
    # the extended-Beta tables built, one entry per extended_beta_table call
    import pqmathieu.extended as extended
    calls = []
    table = extended.extended_beta_table

    def counting(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(extended, "extended_beta_table", counting)
    return calls


def _records(capsys, *argv):
    from pqmathieu.cli import main
    assert main(list(argv)) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_one_command_builds_each_beta_column_once(table_calls, capsys):
    # both routes of every row read the column B(c-b+m, b; q, p), which does
    # not depend on r: a 20-row scan builds what its widest row builds alone
    _records(capsys, "eval", "--target", "mathieu", "--method", "integral", "--r", "0.95",
             *MATHIEU)
    row = len(table_calls)
    assert row >= 2
    table_calls.clear()
    _records(capsys, "eval", "--target", "mathieu", "--method", "both", "--r", "0.95", *MATHIEU)
    assert len(table_calls) == row
    table_calls.clear()
    _records(capsys, "scan", "--target", "mathieu", "--method", "both",
             "--sweep", "r", "0.1", "0.95", "20", *MATHIEU)
    assert len(table_calls) == row


def _printed(rec):
    return rec["value"], rec["err_est"], rec["n_work"], rec["converged"]


def test_shared_column_leaves_every_record_unchanged(capsys):
    # r falls along the sweep, so every row after the first finds the column
    # grown further than it needs; its n_work still counts only its own blocks
    scan = _records(capsys, "scan", "--target", "mathieu", "--method", "both",
                    "--sweep", "r", "0.95", "0.1", "20", *MATHIEU)
    assert len(scan) == 40
    for i in range(0, 40, 2):
        r = repr(scan[i]["r"])
        alone = [_records(capsys, "eval", "--target", "mathieu", "--method", m, "--r", r,
                          *MATHIEU)[0] for m in ("direct", "integral")]
        both = _records(capsys, "eval", "--target", "mathieu", "--method", "both", "--r", r,
                        *MATHIEU)
        assert [_printed(rec) for rec in scan[i:i + 2]] == [_printed(rec) for rec in both]
        assert both == alone


def test_series_scan_rows_print_their_own_eval(capsys):
    # every Kummer row reads the reflected column B(c-b+n, b; q, p); the
    # Gauss scan crosses z = 0, where its column key changes to B(b+n, c-b; p, q)
    from pqmathieu.cli import main

    pq = ("--p", "0.5", "--q", "0.5", "--output", "json")
    for target, sweep, rows in (
            (("--target", "kummer", "--b", "1", "--c", "2", *pq), ("-30", "-1", "20"), 20),
            (("--target", "gauss", "--method", "direct", "--a", "1.5", "--b", "0.8",
              "--c", "2", *pq), ("-0.9", "0.9", "19"), 19)):
        assert main(["scan", *target, "--sweep", "z", *sweep]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == rows
        for line in lines:
            assert main(["eval", *target, f"--z={json.loads(line)['z']!r}"]) == 0
            assert capsys.readouterr().out == line + "\n"


BOUND = ("--target", "bound", "--lambda", "0.7", "--b", "0.8", "--c", "2.1", "--p", "0.4",
         "--q", "1.1", "--seq", "n^k", "--k", "2", "--output", "json")


@pytest.fixture
def coeff_lists(monkeypatch):
    # the kernel-expansion coefficient lists built, one entry per _KernelCoeffs
    import pqmathieu.mathieu as mathieu
    built = []
    coeffs = mathieu._KernelCoeffs

    def counting(*args, **kwargs):
        built.append(args)
        return coeffs(*args, **kwargs)

    monkeypatch.setattr(mathieu, "_KernelCoeffs", counting)
    return built


def test_one_command_builds_the_bound_coefficient_lists_once(coeff_lists, capsys):
    # the bound's four lists (alpha)_m/m!/(s0+offset+m) depend on neither r
    # nor the sequence: a 20-row scan builds them once, a second command again
    scan = ("scan", *BOUND, "--eta", "2", "--sweep", "r", "0.1", "0.95", "20")
    assert len(_records(capsys, *scan)) == 20
    assert len(coeff_lists) == 4
    _records(capsys, *scan)
    assert len(coeff_lists) == 8
    # a library call outside a command builds its own lists, as it builds its own column
    import math

    from pqmathieu.extended import PQParams, _command_scope
    from pqmathieu.mathieu import MathieuParams, SequenceSpec, bound_mathieu_rhs

    params = MathieuParams(0.7, 2.0, math.sqrt(0.5), 0.8, 2.1, PQParams(0.4, 1.1),
                           SequenceSpec.power(1.0, 2.0))
    first = bound_mathieu_rhs(params)
    assert bound_mathieu_rhs(params) == first
    assert len(coeff_lists) == 16
    with _command_scope():
        assert bound_mathieu_rhs(params) == first
        assert bound_mathieu_rhs(params) == first
    assert len(coeff_lists) == 20


def test_bound_scan_rows_print_their_own_eval(capsys):
    # at k = 2 the memo's key (lam, lam+eta-1) changes with eta: row by row
    # when eta is the inner axis, once when it is the outer one, after which
    # r falls and every row finds its lists grown further than it needs
    from pqmathieu.cli import main

    for sweep in (("--sweep", "r", "0.1", "0.95", "20", "--sweep", "eta", "2.0", "2.5", "2"),
                  ("--sweep", "eta", "2.0", "2.5", "2", "--sweep", "r", "0.95", "0.1", "20")):
        assert main(["scan", *BOUND, *sweep]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 40
        for line in rows:
            rec = json.loads(line)
            assert main(["eval", *BOUND, "--r", repr(rec["r"]), "--eta", repr(rec["eta"])]) == 0
            assert capsys.readouterr().out == line + "\n"


def test_library_calls_outside_a_command_build_their_own_column(capsys, monkeypatch):
    # the integral route of the work-count probe (tests/test_work_counts.py)
    # spends its pinned 323 nodes, all in its Beta column, unless it runs
    # inside a column scope that already holds that column
    import math
    import threading

    import pqmathieu.quadrature as quadrature
    from pqmathieu.extended import PQParams, _command_scope
    from pqmathieu.mathieu import MathieuParams, SequenceSpec, mathieu_via_integral

    probe = MathieuParams(1.0, 1.0, math.sqrt(0.5), 1.0, 2.0, PQParams(0.5, 0.5),
                          SequenceSpec.power())
    counts = []
    fan = quadrature._fan

    def counting_fan(*args, **kwargs):
        n = fan(*args, **kwargs)
        counts.append(n)
        return n

    def nodes():
        counts.clear()
        mathieu_via_integral(probe)
        return sum(counts)

    monkeypatch.setattr(quadrature, "_fan", counting_fan)
    # a command leaves a column with the probe's key behind; its scope closed
    _records(capsys, "eval", "--target", "mathieu", "--method", "both",
             "--r", repr(math.sqrt(0.5)), *MATHIEU)
    assert nodes() == 323
    with _command_scope():
        assert nodes() == 323
        assert nodes() == 0
        # another thread runs in its own context, outside this scope
        in_thread = []
        worker = threading.Thread(target=lambda: in_thread.append(nodes()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert in_thread == [323]
