import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "readk", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "block.json"
    res = run_cli("gen", "--preset", "block-tight", "--k", 2, "--blocks", 2,
                  "--p", "1/2", "--out", path)
    assert res.returncode == 0, res.stderr
    return path


class TestBound:
    def test_block_point(self):
        res = run_cli("bound", "--r", 4, "--k", 2, "--p", 0.5, "--eps", 0.5,
                      "--tail", "upper")
        assert res.returncode == 0
        assert res.stdout == (
            '{"log_bound": -1.3862943611198906e+00, "bound": 2.5000000000000000e-01}\n'
        )

    def test_threshold_flag_converts_to_eps(self):
        via_eps = run_cli("bound", "--r", 4, "--k", 2, "--p", 0.5, "--eps", 0.5,
                          "--tail", "upper")
        via_t = run_cli("bound", "--r", 4, "--k", 2, "--p", 0.5, "--t", 4,
                        "--tail", "upper")
        assert via_t.stdout == via_eps.stdout

    def test_threshold_on_wrong_side_is_usage_error(self):
        res = run_cli("bound", "--r", 4, "--k", 2, "--p", 0.5, "--t", 1,
                      "--tail", "upper")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_simplified_flag(self):
        res = run_cli("bound", "--r", 100, "--k", 4, "--p", 0.5, "--eps", 0.25,
                      "--tail", "upper", "--simplified")
        assert res.returncode == 0
        assert json.loads(res.stdout)["bound"] == pytest.approx(0.0439369336234074, rel=1e-9)

    def test_zero_r_with_threshold_is_usage_error(self):
        res = run_cli("bound", "--r", 0, "--k", 2, "--p", 0.5, "--t", 3, "--tail", "upper")
        assert res.returncode == 2
        assert res.stderr == "error: r must be a positive int, got 0\n"

    def test_eps_and_t_are_mutually_exclusive(self):
        res = run_cli("bound", "--r", 4, "--k", 2, "--p", 0.5, "--eps", 0.5,
                      "--t", 4, "--tail", "upper")
        assert res.returncode == 2


class TestExact:
    def test_pmf_and_tail(self, block_file):
        res = run_cli("exact", block_file, "--t", 4)
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["pmf"] == [0.25, 0.0, 0.5, 0.0, 0.25]
        assert out["tail_prob"] == 0.25

    def test_pmf_only(self, block_file):
        out = json.loads(run_cli("exact", block_file).stdout)
        assert "tail_prob" not in out

    def test_infinite_threshold_is_exit_two(self, block_file):
        res = run_cli("exact", block_file, "--t", "inf")
        assert res.returncode == 2
        assert res.stderr == "error: threshold must be finite, got inf\n"

    def test_missing_file_is_exit_two(self, tmp_path):
        res = run_cli("exact", tmp_path / "nope.json")
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_malformed_file_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        res = run_cli("exact", bad)
        assert res.returncode == 2


class TestVerify:
    def test_block_passes_with_zero_slack_at_top(self, block_file):
        res = run_cli("verify", block_file)
        assert res.returncode == 0
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        assert lines[-1]["result"] == "PASS"
        top = [row for row in lines[:-1] if row.get("tail") == "upper" and row["t"] == 4]
        assert top[0]["slack"] == 0.0
        assert top[0]["ok"] is True

    def test_pretty_table(self, block_file):
        res = run_cli("verify", block_file, "--pretty")
        assert res.returncode == 0
        assert "result: PASS" in res.stdout

    def test_violations_exit_one(self, block_file):
        # a negative tolerance makes every comparison fail, driving the
        # violation-reporting path without needing an unsound oracle
        res = run_cli("verify", block_file, "--tol", -1)
        assert res.returncode == 1
        assert json.loads(res.stdout.splitlines()[-1])["result"] == "FAIL"

    def test_weighted_family_passes(self, tmp_path):
        fam = tmp_path / "weighted.json"
        fam.write_text(
            json.dumps(
                {
                    "variables": [
                        {"name": "a", "support": 2, "probs": [0.7, 0.3]},
                        {"name": "b", "support": 3, "probs": [0.2, 0.5, 0.3]},
                    ],
                    "functions": [
                        {"name": "f0", "vars": [0, 1], "truth_table": "010110"},
                        {"name": "f1", "vars": [1], "truth_table": "101"},
                    ],
                }
            )
        )
        res = run_cli("verify", fam)
        assert res.returncode == 0
        assert json.loads(res.stdout.splitlines()[-1])["result"] == "PASS"


class TestTraceAndShearer:
    def test_trace_pass(self, block_file):
        res = run_cli("trace", block_file, "--t", 4, "--tail", "upper")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["result"] == "PASS"
        assert out["neg_log_tail"] == pytest.approx(1.3862943611198906, rel=1e-12)

    def test_trace_empty_tail_is_exit_two(self, block_file):
        res = run_cli("trace", block_file, "--t", 5, "--tail", "upper")
        assert res.returncode == 2

    def test_trace_infinite_threshold_is_exit_two(self, block_file):
        res = run_cli("trace", block_file, "--t", "inf", "--tail", "upper")
        assert res.returncode == 2
        assert res.stderr == "error: threshold must be finite, got inf\n"

    def test_shearer_report(self, block_file):
        res = run_cli("shearer", block_file, "--t", 4, "--tail", "upper")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["result"] == "PASS"
        assert out["corollary_lhs"] >= out["corollary_rhs"]


class TestMc:
    def test_deterministic_given_seed(self, block_file):
        a = run_cli("mc", block_file, "--t", 4, "--tail", "upper",
                    "--samples", 20000, "--seed", 5)
        b = run_cli("mc", block_file, "--t", 4, "--tail", "upper",
                    "--samples", 20000, "--seed", 5)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        out = json.loads(a.stdout)
        assert out["ci_low"] <= 0.25 <= out["ci_high"]


class TestGen:
    def test_written_file_round_trips(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = run_cli("gen", "--preset", "random", "--m", 6, "--r", 5, "--k", 3,
                     "--max-arity", 2, "--seed", 9, "--out", p1)
        r2 = run_cli("gen", "--preset", "random", "--m", 6, "--r", 5, "--k", 3,
                     "--max-arity", 2, "--seed", 9, "--out", p2)
        assert r1.returncode == r2.returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_random_params_is_exit_two(self, tmp_path):
        res = run_cli("gen", "--preset", "random", "--m", 6, "--out", tmp_path / "x.json")
        assert res.returncode == 2

    def test_bad_rational_is_exit_two(self, tmp_path):
        res = run_cli("gen", "--preset", "block-tight", "--k", 2, "--blocks", 2,
                      "--p", "1/100", "--out", tmp_path / "x.json")
        assert res.returncode == 2


def test_unknown_subcommand_is_exit_two():
    assert run_cli("frobnicate").returncode == 2


def test_guard_env_variable_is_honored(tmp_path):
    xor = tmp_path / "xor.json"
    xor.write_text(
        '{"variables": [{"name": "x0", "support": 2}, {"name": "x1", "support": 2}],'
        ' "functions": [{"name": "y0", "vars": [0], "truth_table": "01"},'
        ' {"name": "y1", "vars": [0, 1], "truth_table": "0110"}]}'
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["READK_ENUM_GUARD"] = "2"
    res = subprocess.run(
        [sys.executable, "-m", "readk", "exact", str(xor)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2
    assert "guard" in res.stderr
