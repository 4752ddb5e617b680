"""End-to-end CLI runs: exit codes, documents, traces, determinism."""

import json
import subprocess
import sys

import pytest

from lcpower import cli
from lcpower.textio import parse_series


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def matrix_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2; t\nt; 1\n")
    return p


class TestSolveMatrix:
    def test_result_document(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "result.json"
        code = run_cli(["solve-matrix", matrix_file, "--truncation", "8",
                        "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["q0"] == "0"
        nu = parse_series(doc["eigenvalue"])
        assert abs(nu[0] - 2.0) < 1e-9
        assert abs(nu[2] - 1.0) < 1e-8  # + t^2 term
        assert len(doc["eigenvector"]) == 2

    def test_trace_csv(self, tmp_path, matrix_file):
        out = tmp_path / "r.json"
        trace = tmp_path / "trace.csv"
        code = run_cli(["solve-matrix", matrix_file, "--truncation", "8",
                        "--out", out, "--trace-out", trace, "--trace-every", "5"])
        assert code == cli.EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("step,t^0")
        steps = [int(row.split(",")[0]) for row in lines[1:]]
        assert steps[0] == 0 and steps == sorted(steps)
        assert all(s % 5 == 0 for s in steps[:-1])  # final row always present
        cells = lines[1].split(",")[1:]
        assert all("e" in c for c in cells)  # %.5e formatting

    def test_config_file_and_flag_override(self, tmp_path, matrix_file):
        cfgfile = tmp_path / "solver.cfg"
        cfgfile.write_text("truncation = 4\nmax_iters = 300\nnorm = max\n")
        out = tmp_path / "r.json"
        code = run_cli(["solve-matrix", matrix_file, "--config", cfgfile,
                        "--truncation", "6", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["truncation"] == "6"  # flag wins
        assert doc["config"]["norm"] == "max"      # file value kept

    def test_stdout_default(self, matrix_file, capsys):
        code = run_cli(["solve-matrix", matrix_file, "--truncation", "6"])
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "matrix"

    def test_start_from_file(self, tmp_path, matrix_file):
        sv = tmp_path / "start.txt"
        sv.write_text("1\n0.5\n")
        out = tmp_path / "r.json"
        assert run_cli(["solve-matrix", matrix_file, "--truncation", "6",
                        "--start", f"file:{sv}", "--out", out]) == cli.EXIT_OK


class TestPolyRoot:
    def test_quadratic(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        p.write_text("poly: 2; -3\n")  # (x-1)(x-2)
        code = run_cli(["poly-root", p, "--truncation", "6"])
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "polynomial"
        assert abs(parse_series(doc["eigenvalue"])[0] - 2.0) < 1e-9
        assert doc["poly_residual"] < 1e-10

    def test_reference_trace(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("poly: 6 + 2*t^1; -5 - 1*t^1\n")  # (x-2)(x-3-t)
        ref = tmp_path / "ref.txt"
        ref.write_text("3 + t\n")
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        code = run_cli(["poly-root", p, "--truncation", "6", "--reference", ref,
                        "--out", out, "--trace-out", trace])
        assert code == cli.EXIT_OK
        last = trace.read_text().splitlines()[-1].split(",")
        assert all(float(c) < 1e-8 for c in last[1:])  # converged onto the reference


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1; oops\n2; 3\n")
        assert run_cli(["solve-matrix", bad, "--truncation", "6"]) == cli.EXIT_PARSE

    def test_dominance_uncertain(self, tmp_path, capsys):
        m = tmp_path / "swap.txt"
        m.write_text("0; 1\n1; 0\n")
        assert run_cli(["solve-matrix", m, "--truncation", "6"]) == cli.EXIT_DOMINANCE

    def test_nonconvergence(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "r.json"
        code = run_cli(["solve-matrix", matrix_file, "--truncation", "8",
                        "--max-iters", "2", "--out", out])
        assert code == cli.EXIT_NONCONVERGED
        assert json.loads(out.read_text())["converged"] is False

    def test_internal_error(self, tmp_path, capsys):
        m = tmp_path / "zero.txt"
        m.write_text("0; 0\n0; 0\n")
        assert run_cli(["solve-matrix", m, "--truncation", "6"]) == cli.EXIT_INTERNAL

    def test_missing_truncation(self, tmp_path, matrix_file, capsys):
        assert run_cli(["solve-matrix", matrix_file]) == cli.EXIT_PARSE

    def test_bad_trace_stride(self, tmp_path, matrix_file, capsys):
        assert run_cli(["solve-matrix", matrix_file, "--truncation", "6",
                        "--trace-every", "0"]) == cli.EXIT_PARSE

    def test_colliding_paths(self, matrix_file, capsys):
        assert run_cli(["solve-matrix", matrix_file, "--truncation", "6",
                        "--out", matrix_file]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("flags", [["--start", "random:abc"], ["--start", "random:-1"],
                                       ["--tol", "nan"]])
    def test_bad_config_value(self, tmp_path, matrix_file, capsys, flags):
        out = tmp_path / "r.json"
        assert run_cli(["solve-matrix", matrix_file, "--truncation", "6", "--max-iters", "50",
                        "--out", out, *flags]) == cli.EXIT_INTERNAL
        assert flags[1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, flags, config", [
        ("check_window", ["--check-window", "-1"], ""),
        ("truncation", ["--truncation", "-1"], ""),
        ("complex_pi_iters", [], "complex_pi_iters = 0\n"),
        ("complex_pi_tol", [], "complex_pi_tol = nan\n"),
        ("complex_pi_tol", [], "complex_pi_tol = 0\n")],
        ids=["check_window", "truncation", "complex_pi_iters", "complex_pi_tol-nan",
             "complex_pi_tol-0"])
    def test_out_of_range_setting(self, tmp_path, capsys, name, flags, config):
        m = tmp_path / "m.txt"
        m.write_text("2 + t; 1\n1; 1\n")
        cfgfile = tmp_path / "solver.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "r.json"
        assert run_cli(["solve-matrix", m, "--config", cfgfile, "--truncation", "3", *flags,
                        "--out", out]) == cli.EXIT_INTERNAL
        assert f"error: {name} must" in capsys.readouterr().err
        assert not out.exists()



class TestGershgorin:
    def test_diagonal(self, tmp_path, capsys):
        m = tmp_path / "d.txt"
        m.write_text("2; 0\n0; 1\n")
        assert run_cli(["gershgorin", m]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "disk 0: center = 2.0; radius = 0" in out
        assert "all eigenvalues at most finite: yes" in out

    def test_offdiagonal(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("2; t\nt; 1\n")
        run_cli(["gershgorin", m])
        out = capsys.readouterr().out
        assert "radius = 1.0*t^1" in out
        assert "all eigenvalues at most finite: yes" in out

    def test_complex_offdiagonal(self, tmp_path, capsys):
        # |1 + i t| = 1 + t^2/2 - ... has infinite support: it is taken up
        # to the largest exponent of the matrix, and the radius says so
        m = tmp_path / "m.txt"
        m.write_text("2 + t; 1 + i*t\n1; 1\n")
        assert run_cli(["gershgorin", m]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "disk 0: center = 2.0 + 1.0*t^1; radius = 1.0 (valid to exponent 1)" in out
        assert "disk 1: center = 1.0; radius = 1.0\n" in out
        assert "all eigenvalues at most finite: yes" in out

    def test_infinitely_large(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("1*t^(-1); 0\n0; 1\n")
        run_cli(["gershgorin", m])
        assert "all eigenvalues at most finite: no" in capsys.readouterr().out


class TestDeterminism:
    def test_same_manifest_same_bytes(self, tmp_path, matrix_file):
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        args = ["solve-matrix", matrix_file, "--truncation", "8",
                "--start", "random:42", "--out", out, "--trace-out", trace]
        assert run_cli(args) == cli.EXIT_OK
        first = (out.read_bytes(), trace.read_bytes())
        assert run_cli(args) == cli.EXIT_OK
        assert (out.read_bytes(), trace.read_bytes()) == first


def test_module_entrypoint(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("2; 0\n0; 1\n")
    proc = subprocess.run([sys.executable, "-m", "lcpower.cli", "gershgorin", str(m)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all eigenvalues at most finite: yes" in proc.stdout
