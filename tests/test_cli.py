import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import znkit
import znkit.cli as cli_module
from znkit.cli import (
    _COLUMN_CHUNK,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERDICT,
    _column_chunks,
    _read_column,
    _write_column,
    emit_report,
    main,
)
from znkit.arith import build_sieve, write_tables_csv
from test_arith import lambda_r_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_apcount_known_value(capsys):
    code, out = run_cli(capsys, "apcount", "--k", "3", "--limit", "15")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["count"] == 2
    assert report["meta"]["version"]
    assert report["meta"]["command"] == "apcount"
    assert report["meta"]["parameters"]["limit"] == 15


def test_gowers_exact_and_fourier_agree(capsys, tmp_path):
    rng = np.random.default_rng(0)
    n = 101
    path = os.path.join(tmp_path, "f.csv")
    with open(path, "w") as fh:
        for v in rng.normal(size=n):
            fh.write(format(float(v), ".17g") + "\n")
    code, out = run_cli(capsys, "gowers", "--n", str(n), "--d", "2",
                        "--input", path, "--mode", "exact")
    assert code == EXIT_OK
    exact = json.loads(out)["result"]["norm_value"]
    code, out = run_cli(capsys, "gowers", "--n", str(n), "--d", "2",
                        "--input", path, "--mode", "fourier")
    assert code == EXIT_OK
    fourier = json.loads(out)["result"]["norm_value"]
    assert abs(exact - fourier) <= 1e-9 * max(exact, fourier)


def test_majorant_then_dual_pipeline(capsys, tmp_path):
    nu_path = os.path.join(tmp_path, "nu.csv")
    df_path = os.path.join(tmp_path, "df.csv")
    code, _ = run_cli(capsys, "majorant", "--n", "1009", "--k", "3", "--w", "2",
                      "--theta", "0.25", "--epsilon", "0.25", "--output", nu_path)
    assert code == EXIT_OK
    assert sum(1 for _ in open(nu_path)) == 1009
    code, out = run_cli(capsys, "dual", "--n", "1009", "--d", "2", "--input", nu_path,
                        "--mode", "fourier", "--output", df_path)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["sup"] > 0


def test_decompose_meets_threshold(capsys):
    code, out = run_cli(
        capsys, "decompose", "--n", "101", "--nu", "constant", "--f", "dense01",
        "--f-seed", "3", "--k", "3", "--epsilon-dec", "0.05",
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["terminated_successfully"] is True
    assert result["final_uniformity"] <= result["uniformity_threshold"]
    assert result["iterations"] <= result["iteration_cap"]
    assert len(result["energy_trace"]) == result["iterations"] + 1


def test_linforms_verdict_exit_codes(capsys):
    code, out = run_cli(
        capsys, "linforms", "--n", "101", "--nu", "constant",
        "--system", "cube:2", "--mode", "exact",
    )
    assert code == EXIT_OK
    assert json.loads(out)["result"]["passed"] is True
    # an impossible threshold forces the verdict exit code
    code, out = run_cli(
        capsys, "linforms", "--n", "101", "--nu", "bernoulli", "--nu-seed", "4",
        "--system", "cube:2", "--mode", "exact", "--threshold", "1e-9",
    )
    assert code == EXIT_VERDICT
    assert json.loads(out)["result"]["passed"] is False


def test_linforms_reads_a_rational_system_file(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"rows": [[1, 0], [1, "1/2"], [1, 1]]}))
    code, out = run_cli(capsys, "linforms", "--n", "101", "--nu", "bernoulli",
                        "--nu-seed", "4", "--system", str(path), "--mode", "exact")
    assert code in (EXIT_OK, EXIT_VERDICT)
    result = json.loads(out)["result"]
    assert result["parameters"][:2] == [3, 2]
    # 1/2 is 51 mod 101: E_(x,y) nu(x) nu(x + 51 y) nu(x + y), enumerated
    nu = znkit.bernoulli_measure(101, 4).values
    x, y = np.indices((101, 101))
    expect = (nu[x] * nu[(x + 51 * y) % 101] * nu[(x + y) % 101]).mean()
    assert result["estimate"] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("data, reason", [
    ({"rows": [[1, 0.5], [1, 1]]}, "must be rational, got float"),
    ({"forms": [[1, 0], [1, 1]]}, '"rows"'),
    ([[1, 0], [1, 1]], '"rows"'),
    ({"rows": [[1, 0], [1, 1]], "constants": [0.5, 0]}, "'float'"),
])
def test_linforms_refuses_a_malformed_system_file(capsys, tmp_path, data, reason):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "linforms", "--n", "101", "--nu", "constant",
                        "--system", str(path), "--mode", "exact")
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert str(path) in error["message"] and reason in error["message"]


@pytest.mark.parametrize("command", ["majorant", "gycheck"])
def test_window_past_n_is_refused(capsys, command):
    # epsilon_k = 1/2 puts the window's top at N = 101, which is no residue
    code, out = run_cli(capsys, command, "--n", "101", "--epsilon", "0.5",
                        "--theta", "0.3")
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert "epsilon_k = 0.5" in error["message"] and "[51, 101]" in error["message"]


def test_budget_exit_code(capsys):
    code, out = run_cli(capsys, "gowers", "--n", "1009", "--d", "3",
                        "--input", "/nonexistent.csv", "--budget", "10")
    # budget / input errors both map to machine-readable objects
    assert code in (EXIT_BUDGET, EXIT_INVALID)
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv", [("gowers", "--n", "3", "--d", "30", "--mode", "mc"),
                                  ("dual", "--n", "3", "--d", "25", "--mode", "mc")])
def test_sampled_huge_d_is_a_budget_refusal(capsys, tmp_path, argv):
    # 2^d rows would be built before any check: 2^30 of them exhausted memory
    path = tmp_path / "f.csv"
    path.write_text("1.0\n" * 3)
    code, out = run_cli(capsys, *argv, "--samples", "100", "--input", str(path))
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"]["type"] == "budget"


def test_exact_u3_at_n2003_is_within_the_default_budget(capsys, tmp_path):
    # the enumeration's 2^d N^(d+1) gate refused this; the recursion's cost is 7.8e8
    path = tmp_path / "f.csv"
    rng = np.random.default_rng(2003)
    path.write_text("".join(format(float(v), ".17g") + "\n" for v in rng.uniform(-1, 1, 2003)))
    code, out = run_cli(capsys, "gowers", "--n", "2003", "--d", "3", "--input", str(path),
                        "--mode", "exact")
    assert code == EXIT_OK
    assert 0 < json.loads(out)["result"]["raised_value"] < 1


def test_invalid_parameters_exit_code(capsys):
    code, out = run_cli(capsys, "majorant", "--n", "100", "--k", "3")
    assert code == EXIT_INVALID
    assert json.loads(out)["error"]["type"] == "invalid"


def test_budget_specifically(capsys, tmp_path):
    path = os.path.join(tmp_path, "f.csv")
    with open(path, "w") as fh:
        for _ in range(1009):
            fh.write("1.0\n")
    code, out = run_cli(capsys, "gowers", "--n", "1009", "--d", "3",
                        "--input", path, "--budget", "1000")
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"]["type"] == "budget"


@pytest.mark.parametrize("argv", [("apcount", "--k", "3", "--limit", "60000000"),
                                  ("sieve", "--limit", "60000000")])
def test_sieve_cap_is_a_budget_refusal(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_BUDGET
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert "exceeds the cap 50000000" in error["message"]


def test_gycheck_moment_and_shifted(capsys):
    with pytest.warns(UserWarning, match="below R"):  # desk-scale box is short
        code, out = run_cli(capsys, "gycheck", "--n", "10007", "--k", "3", "--w", "2",
                            "--theta", "0.25", "--epsilon", "0.25")
    assert code == EXIT_OK
    moment = json.loads(out)["result"]
    assert moment["kind"] == "window_moment"
    assert 0 < moment["ratio"] < 2

    code, out = run_cli(capsys, "gycheck", "--n", "10007", "--k", "3", "--w", "2",
                        "--theta", "0.25", "--epsilon", "0.25", "--h-list", "0,1")
    assert code == EXIT_OK
    shifted = json.loads(out)["result"]
    assert shifted["kind"] == "shifted_correlation"
    assert 0 < shifted["ratio"] < 2


_SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", _SCRIPTS, ids=lambda path: path.name)
def test_script_runs_with_default_arguments(script):
    # each script imports the public names of znkit from src/ under the repo
    # root, so renaming one breaks it
    proc = subprocess.run([sys.executable, str(script)], cwd=script.parents[1],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_counters_read_their_parameters(capsys, tmp_path):
    # perfbench/tracer.py reads the parameters alpha_grid, eta, G, f, F, d,
    # mode and samples of the functions it wraps; renaming one breaks the
    # traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    interval = tmp_path / "interval.csv"
    interval.write_text("".join("1\n" if i < 50 else "0\n" for i in range(101)))
    calls = [
        ("gowers", "--n", "101", "--d", "3", "--input", str(interval),
         "--mode", "mc", "--samples", "1000"),
        ("dual", "--n", "101", "--d", "3", "--input", str(interval),
         "--mode", "mc", "--samples", "100"),
        ("decompose", "--n", "101", "--f", str(interval),
         "--epsilon-dec", "1e-4", "--eta", "1e-5"),
        ("linforms", "--n", "101", "--samples", "1000"),
        ("gycheck", "--n", "1009", "--theta", "0.5", "--epsilon", "0.25",
         "--mode", "monte_carlo", "--samples", "1000"),
        ("gvn", "--n", "101", "--trials", "2"),
        ("apcount", "--k", "3", "--limit", "1000"),
        ("apcount", "--k", "4", "--limit", "200"),
        ("gowers", "--n", "101", "--d", "3", "--input", str(interval), "--mode", "exact"),
        ("dual", "--n", "101", "--d", "3", "--input", str(interval), "--mode", "exact"),
    ]
    trace = tracer.Tracer()
    trace.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            codes = [run_cli(capsys, *argv)[0] for argv in calls]
    finally:
        trace.uninstall()
    assert codes == [EXIT_OK] * len(calls)
    metrics = trace.metrics()
    for name in ("transference.alpha_evals", "transference.refine_iterations",
                 "pseudo.mc_samples", "gowers.mc_samples", "gowers.exact_nominal_cost"):
        assert metrics[name] > 0, name
    # the self-timed functions still do their own work under their public names
    for name in ("transference.ap_expectation", "transference.build_level_sigma",
                 "transference.count_prime_aps"):
        assert metrics[f"{name}.self_s"] > 0, name


@pytest.mark.parametrize("argv", [
    ("decompose", "--n", "101", "--f", "interval", "--epsilon-dec", "1e-4", "--eta", "1e-5"),
    ("decompose", "--n", "1009", "--nu", "bernoulli", "--nu-seed", "1", "--f", "nu-mask",
     "--epsilon-dec", "1e-4", "--eta", "1e-5"),
])
def test_decompose_report_is_the_join_of_every_factor(capsys, monkeypatch, tmp_path, argv):
    # skipping one-atom factors in join_sigma leaves the report byte-identical
    # to a join that folds in and re-canonicalises every factor
    def join_every_factor(algebras, group=None):
        labels = algebras[0].atom_label
        for other in algebras[1:]:
            keys = labels * np.int64(other.atom_count) + other.atom_label
            labels = znkit.SigmaAlgebra.from_labels(other.group, keys).atom_label
        return znkit.SigmaAlgebra.from_labels(algebras[0].group, labels)

    interval = tmp_path / "interval.csv"
    interval.write_text("".join("1\n" if i < 50 else "0\n" for i in range(101)))
    argv = [str(interval) if arg == "interval" else arg for arg in argv]
    code, fast = run_cli(capsys, *argv)
    assert code == EXIT_OK
    monkeypatch.setattr(znkit.transference, "join_sigma", join_every_factor)
    code, slow = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert fast == slow
    assert json.loads(fast)["result"]["iterations"] >= 1


def test_decompose_with_a_fine_level_grid_finishes(capsys):
    # 10^13 cut points per refinement: a per-alpha loop never finished this
    start = time.perf_counter()
    code, out = run_cli(capsys, "decompose", "--n", "31", "--k", "4",
                        "--epsilon-dec", "1e-12", "--eta", "1e-13")
    assert code == EXIT_OK
    assert time.perf_counter() - start < 5.0
    assert json.loads(out)["result"]["iterations"] >= 1


def test_decompose_refuses_a_level_grid_past_2_53(capsys):
    code, out = run_cli(capsys, "decompose", "--n", "31", "--k", "4",
                        "--epsilon-dec", "1e-12", "--eta", "1e-17")
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert "2^53" in error["message"]


def test_gvn_needs_a_trial(capsys):
    code, out = run_cli(capsys, "gvn", "--n", "101", "--trials", "0")
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert "trials" in error["message"]


@pytest.mark.parametrize("k", ["0", "1"])
def test_gvn_needs_two_terms(capsys, k):
    code, out = run_cli(capsys, "gvn", "--n", "11", "--k", k)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert f"k = {k}" in error["message"]


@pytest.mark.parametrize("extra", [(), ("--h-list", "0,2")])
def test_gycheck_empty_box_is_refused(capsys, extra):
    code, out = run_cli(capsys, "gycheck", "--n", "999983", "--box", "10:5", *extra)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert "[10, 5] is empty" in error["message"]


@pytest.mark.parametrize("box", ["5", "1:2:3", "a:b", "1.5:9"])
def test_gycheck_box_needs_two_integers(capsys, box):
    code, out = run_cli(capsys, "gycheck", "--n", "1009", "--box", box)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert error["message"] == f"--box takes two integers lo:hi, got {box!r}"


@pytest.mark.parametrize("h_list", ["0,a", "0,,1", "0,1.5", ","])
def test_gycheck_h_list_needs_integers(capsys, h_list):
    code, out = run_cli(capsys, "gycheck", "--n", "1009", "--h-list", h_list)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert error["message"] == f"--h-list takes comma-separated integers, got {h_list!r}"


@pytest.mark.parametrize("spec, form", [("cube:x", "cube:D takes an integer D"),
                                        ("cube:", "cube:D takes an integer D"),
                                        ("progression:x", "progression:K takes an integer K"),
                                        ("progression:2.5", "progression:K takes an integer K")])
def test_linforms_system_size_needs_an_integer(capsys, spec, form):
    code, out = run_cli(capsys, "linforms", "--n", "1009", "--system", spec)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert error["message"] == f"--system {form}, got {spec!r}"


def test_correlation_with_no_distinct_tuple_is_refused(capsys):
    code, out = run_cli(capsys, "correlation", "--n", "7", "--m", "8", "--tuples", "3")
    assert code == EXIT_INVALID
    message = json.loads(out)["error"]["message"]
    assert "none of the 3 drawn tuples" in message
    assert "m = 8" in message and "N = 7" in message


def test_correlation_needs_n_at_least_three(capsys):
    code, out = run_cli(capsys, "correlation", "--n", "2")
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert "(N - 1)/2 nonzero residues" in error["message"]


@pytest.mark.filterwarnings("ignore:box side")
@pytest.mark.parametrize("samples", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ("linforms", "--n", "101"),
    ("gycheck", "--n", "1009", "--theta", "0.3", "--epsilon", "0.25",
     "--mode", "monte_carlo"),
])
def test_monte_carlo_needs_two_samples(capsys, argv, samples):
    code, out = run_cli(capsys, *argv, "--samples", samples)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert f"at least 2 samples, got {samples}" in error["message"]


def test_majorant_reaches_w11(capsys):
    # the full divisor-sum table would need W N = 2310 * 10^6 floats (8.6 GiB)
    code, out = run_cli(capsys, "majorant", "--n", "999983", "--w", "11",
                        "--theta", "0.3333", "--epsilon", "0.25")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["W"] == 2310
    assert 0 < result["mean"] < 2


def test_sieve_csv_columns(capsys, tmp_path):
    path = os.path.join(tmp_path, "tables.csv")
    code, _ = run_cli(capsys, "sieve", "--limit", "100", "--r", "10",
                      "--output", path)
    assert code == EXIT_OK
    with open(path) as fh:
        assert fh.readline().strip() == "n,mu,lambda,lambda_r"


def test_sieve_r_csv_is_the_oracle_table(capsys, tmp_path):
    path = tmp_path / "tables.csv"
    code, _ = run_cli(capsys, "sieve", "--limit", "5000", "--r", "30", "--output", str(path))
    assert code == EXIT_OK
    want = tmp_path / "oracle.csv"
    write_tables_csv(build_sieve(5000), lambda_r_table(5000, 30.0), str(want), limit=5000)
    assert path.read_bytes() == want.read_bytes()


def test_apcount_names_its_route_on_stderr(capsys):
    code = main(["apcount", "--k", "3", "--limit", "1000000"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["result"]["count"] == 157300309
    route = [line for line in captured.err.splitlines() if "route" in line]
    assert route == ["[znkit] apcount route: wheel 30 on half-indices, "
                     "16 forward and 28 inverse transforms of length L' = 33750"]
    main(["apcount", "--k", "4", "--limit", "1000"])
    assert "route" not in capsys.readouterr().err


def test_correlation_names_its_route_on_stderr(capsys):
    argv = ["correlation", "--n", "999983", "--tuples", "20", "--seed", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["result"]["condition"] == "correlation"
    route = [line for line in captured.err.splitlines() if "route" in line]
    assert route == ["[znkit] correlation route: product leaves of at most 16384 points, "
                     "32 tau leaves of at most 16384 residues, factor table of 249996 "
                     "entries, 20 of 20 tuples kept"]
    # N = 7 draws repeated shifts: the line counts the tuples kept
    main(["correlation", "--n", "7", "--m", "3", "--tuples", "6"])
    route = [line for line in capsys.readouterr().err.splitlines() if "route" in line]
    assert route == ["[znkit] correlation route: product leaves of at most 16384 points, "
                     "1 tau leaves of at most 16384 residues, factor table of 2 entries, "
                     "3 of 6 tuples kept"]


MAJ_SMALL = ("--n", "10007", "--theta", "0.3333", "--epsilon", "0.25")
LIN_SMALL = ("--n", "1009", "--nu", "majorant", "--k", "3", "--w", "2",
             "--theta", "0.3333", "--epsilon", "0.1", "--seed", "1")

# Each command of the three benchmark sessions, at small N and sample counts.
BENCHMARK_SESSIONS = {
    "majorant": [
        ("majorant", *MAJ_SMALL, "--w", "2"),
        ("majorant", *MAJ_SMALL, "--w", "3", "--output", "nu.csv"),
        ("majorant", *MAJ_SMALL, "--w", "5"),
        ("majorant", *MAJ_SMALL, "--w", "7"),
        ("gycheck", *MAJ_SMALL, "--w", "2"),
        ("gycheck", *MAJ_SMALL, "--w", "5"),
        ("gycheck", *MAJ_SMALL, "--h-list", "0,2,6"),
        ("gowers", "--n", "10007", "--d", "2", "--input", "nu.csv", "--mode", "fourier"),
        ("dual", "--n", "10007", "--d", "2", "--input", "nu.csv", "--mode", "fourier",
         "--output", "dual.csv"),
    ],
    "progressions": [
        ("apcount", "--k", "3", "--limit", "100000"),
        ("apcount", "--k", "4", "--limit", "10000"),
        ("gvn", "--n", "101", "--trials", "5", "--seed", "1"),
        ("gvn", "--n", "31", "--k", "4", "--trials", "5", "--seed", "1"),
        ("gowers", "--n", "31", "--d", "3", "--input", "small.csv", "--mode", "exact"),
        ("dual", "--n", "31", "--d", "3", "--input", "small.csv", "--mode", "exact"),
        ("decompose", "--n", "101", "--f", "interval.csv", "--epsilon-dec", "1e-4",
         "--eta", "1e-5"),
    ],
    "verifiers": [
        ("linforms", *LIN_SMALL, "--system", "cube:2", "--samples", "20000"),
        ("linforms", *LIN_SMALL, "--system", "cube:3", "--samples", "20000"),
        ("gycheck", *MAJ_SMALL, "--w", "2", "--mode", "monte_carlo", "--samples", "20000",
         "--seed", "1"),
        ("gowers", "--n", "101", "--d", "3", "--input", "uniform.csv", "--mode", "mc",
         "--samples", "4000", "--seed", "1"),
        ("dual", "--n", "101", "--d", "3", "--input", "uniform.csv", "--mode", "mc",
         "--samples", "100", "--seed", "1", "--output", "dual_mc.csv"),
        ("decompose", "--n", "211", "--nu", "bernoulli", "--nu-seed", "1", "--k", "4",
         "--mode", "monte_carlo", "--epsilon-dec", "1e-4", "--samples", "2000",
         "--seed", "1"),
        ("correlation", "--n", "10007", "--tuples", "5", "--seed", "1"),
    ],
}


@pytest.mark.filterwarnings("ignore:box side")
@pytest.mark.parametrize("session", sorted(BENCHMARK_SESSIONS))
def test_in_process_runs_write_only_to_the_current_streams(capfd, monkeypatch, tmp_path,
                                                           session):
    # An in-process caller (a benchmark harness, say) redirects sys.stdout and
    # sys.stderr around main(); nothing may bypass them to file descriptors
    # 1 and 2, and the redirected stdout must end in the report.
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    interval = np.zeros(101)
    interval[:50] = 1.0
    for name, col in (("small", rng.uniform(-1.0, 1.0, 31)), ("interval", interval),
                      ("uniform", rng.random(101))):
        _write_column(col, str(tmp_path / f"{name}.csv"))
    capfd.readouterr()
    for argv in BENCHMARK_SESSIONS[session]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (EXIT_OK, EXIT_VERDICT), (argv, out.getvalue())
        assert json.loads(out.getvalue())["meta"]["command"] == argv[0]
        assert f"[znkit] {argv[0]} finished in" in err.getvalue()
        assert capfd.readouterr() == ("", ""), argv


def test_stdout_is_deterministic(capsys):
    _, out1 = run_cli(capsys, "linforms", "--n", "101", "--nu", "bernoulli",
                      "--nu-seed", "1", "--system", "cube:2",
                      "--mode", "monte_carlo", "--samples", "20000", "--seed", "7")
    _, out2 = run_cli(capsys, "linforms", "--n", "101", "--nu", "bernoulli",
                      "--nu-seed", "1", "--system", "cube:2",
                      "--mode", "monte_carlo", "--samples", "20000", "--seed", "7")
    assert out1 == out2


def test_gvn_command(capsys):
    code, out = run_cli(capsys, "gvn", "--n", "101", "--nu", "constant",
                        "--trials", "4", "--seed", "2")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert len(result["pairs"]) == 4
    assert result["slope"] >= 0


class TestEmitReport:
    def test_byte_identical_for_fixed_result(self, tmp_path):
        report = {"meta": {"seed": 1}, "result": {"value": 0.1, "flag": True}}
        p1 = os.path.join(tmp_path, "a.json")
        p2 = os.path.join(tmp_path, "b.json")
        emit_report(report, "json", p1)
        emit_report(report, "json", p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_json_round_trips(self):
        report = {
            "a": 1.0 / 3.0,
            "b": [1, 2.5, None, False],
            "c": {"nested": 1e-300},
        }
        text = emit_report(report, "json", None)
        back = json.loads(text)
        assert back["a"] == 1.0 / 3.0  # 17 significant digits round-trip
        assert back["c"]["nested"] == 1e-300

    def test_json_sorts_keys(self):
        text = emit_report({"b": 1, "a": 2}, "json", None)
        assert text.index('"a"') < text.index('"b"')

    def test_csv_header_lists_all_columns(self):
        report = {"alpha": 1, "beta": {"gamma": 2.0}}
        text = emit_report(report, "csv", None)
        header, row = text.strip().split("\n")
        assert header == "alpha,beta.gamma"
        assert row == "1,2"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            emit_report({"x": float("nan")}, "json", None)


def per_value_text(values):
    return "".join(format(float(v), ".17g") + "\n" for v in values)


class TestColumnFiles:
    EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e-5, 1e16,
             1e17, 2.0**53 + 2, -123.456, 1.0]

    def test_edge_values_match_per_value_format(self, tmp_path):
        path = tmp_path / "col.csv"
        _write_column(np.array(self.EDGES), str(path))
        assert path.read_text() == per_value_text(self.EDGES)

    @pytest.mark.parametrize(
        "size", [1, _COLUMN_CHUNK - 1, _COLUMN_CHUNK, _COLUMN_CHUNK + 1])
    def test_chunk_boundaries_round_trip_bit_identical(self, tmp_path, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        values[: len(self.EDGES)] = self.EDGES[:size]
        path = tmp_path / "col.csv"
        _write_column(values, str(path))
        assert path.read_text() == per_value_text(values)
        if size > 1:  # Z_1 is not a group, so one value is not a readable column
            back = _read_column(str(path), size).values
            assert np.array_equal(back.view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_is_refused_before_the_file_opens(self, tmp_path, bad):
        values = np.ones(_COLUMN_CHUNK + 5)
        values[-1] = bad
        path = tmp_path / "col.csv"
        with pytest.raises(ValueError, match="finite"):
            _write_column(values, str(path))
        assert not path.exists()

    def test_writer_peak_memory_is_flat_in_the_column_length(self, tmp_path):
        # one tuple of the whole column would hold about 10^6 Python floats
        # and their text at once (> 50 MB); chunks keep this to a few MB
        values = np.random.default_rng(0).standard_normal(999983)
        tracemalloc.start()
        try:
            _write_column(values, str(tmp_path / "col.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak

    def test_empty_input_is_refused_without_a_numpy_warning(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        env = dict(os.environ, PYTHONPATH=str(Path(znkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "znkit", "gowers", "--n", "5", "--d", "2",
             "--input", str(empty)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == EXIT_INVALID
        assert json.loads(proc.stdout)["error"]["message"] == (
            f"{empty} holds 0 values, expected 5")
        assert proc.stderr == ""


def column_bytes(values):
    return b"".join(_column_chunks(np.array(values, dtype=np.float64)))


def _ulps_from(x, ulps):
    """The double `ulps` steps of the bit pattern away from x > 0."""
    return float((np.array([x]).view(np.int64) + ulps).view(np.float64)[0])


def _signed(strategy):
    return st.builds(lambda x, neg: -x if neg else x, strategy, st.booleans())


# Where the fixed-notation route can go wrong: the exponent estimate next to a
# power of ten, round-half-to-even ties among m * 2^e, m in [2^52, 2^53), and
# the values the % route must take (zeros, subnormals).
NEAR_POWERS_OF_TEN = _signed(st.builds(
    _ulps_from, st.integers(-5, 17).map(lambda j: float(f"1e{j}")), st.integers(-3, 3)))
TIES = _signed(st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(-60, 4)))
SUBNORMALS = _signed(st.integers(1, 2**52 - 1).map(lambda m: math.ldexp(m, -1074)))
TARGETED = st.one_of(NEAR_POWERS_OF_TEN, TIES, SUBNORMALS,
                     st.sampled_from([0.0, -0.0, 9.999999999999999e16, 0.09999999999999999,
                                      1234567890123456.25, 1234567890123456.75]))


class TestColumnFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_bytes_match_format_17g(self, values):
        assert column_bytes(values) == per_value_text(values).encode()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TARGETED, min_size=1, max_size=40))
    @example([1234567890123456.25, 1234567890123456.75, 0.0, -0.0, 5e-324,
              9.999999999999999e16, 0.09999999999999999])
    def test_targeted_values_match_format_17g(self, values):
        assert column_bytes(values) == per_value_text(values).encode()

    def test_every_power_of_ten_neighbourhood(self):
        values = [_ulps_from(float(f"1e{j}"), u) for j in range(-5, 18) for u in range(-3, 4)]
        values += [-v for v in values]
        assert column_bytes(values) == per_value_text(values).encode()

    def test_fixed_notation_never_takes_the_percent_route(self, tmp_path, monkeypatch):
        def refuse(values):
            raise AssertionError(f"{values.size} values sent to the % route")

        monkeypatch.setattr(cli_module, "_percent_rows", refuse)
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-4, 17, _COLUMN_CHUNK + 7) * rng.choice([-1, 1], _COLUMN_CHUNK + 7)
        values[:4] = [1e-4, -1e-4, 9.999999999999999e16, 1.0]
        path = tmp_path / "col.csv"
        _write_column(values, str(path))
        assert path.read_text() == per_value_text(values)
        with pytest.raises(AssertionError, match="1 values sent"):
            _write_column(np.array([1.0, 0.0]), str(path))


def test_report_file_flag_writes_stdout_copy(capsys, tmp_path):
    path = os.path.join(tmp_path, "report.json")
    code = main(["--report-file", path, "apcount", "--k", "3", "--limit", "15"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert open(path).read() == out
