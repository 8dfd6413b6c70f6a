import json
import os

import numpy as np
import pytest

from znkit.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_VERDICT, emit_report, main


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


def test_budget_exit_code(capsys):
    code, out = run_cli(capsys, "gowers", "--n", "1009", "--d", "3",
                        "--input", "/nonexistent.csv", "--budget", "10")
    # budget / input errors both map to machine-readable objects
    assert code in (EXIT_BUDGET, EXIT_INVALID)
    assert "error" in json.loads(out)


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


@pytest.mark.parametrize("extra", [(), ("--h-list", "0,2")])
def test_gycheck_empty_box_is_refused(capsys, extra):
    code, out = run_cli(capsys, "gycheck", "--n", "999983", "--box", "10:5", *extra)
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert error["type"] == "invalid"
    assert "[10, 5] is empty" in error["message"]


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


def test_report_file_flag_writes_stdout_copy(capsys, tmp_path):
    path = os.path.join(tmp_path, "report.json")
    code = main(["--report-file", path, "apcount", "--k", "3", "--limit", "15"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert open(path).read() == out
