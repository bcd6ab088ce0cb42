import json
import math
import os
import re
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

    def test_zero_p_prints_a_minus_infinity_exponent(self):
        res = run_cli("bound", "--r", 10, "--k", 1, "--p", 0, "--eps", 0.5, "--tail", "upper")
        assert res.returncode == 0
        assert res.stdout == '{"log_bound": -Infinity, "bound": 0.0000000000000000e+00}\n'

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

    @pytest.mark.parametrize("t", ["nan", "inf", "12", "-2", "3"],
                             ids=["nan", "inf", "above-r", "negative", "wrong-side"])
    def test_bad_threshold_names_t(self, t):
        res = run_cli("bound", "--r", 10, "--k", 1, "--p", 0.5, "--t", t, "--tail", "upper")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert res.stderr.startswith("error: ")
        assert re.search(r"\bthreshold\b", res.stderr)
        assert "eps" not in res.stderr

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

    def test_wrong_json_type_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variables": 5, "functions": []}')
        res = run_cli("exact", bad)
        assert res.returncode == 2
        assert res.stderr == "error: family: variables has the wrong JSON type: 5\n"

    @pytest.mark.parametrize(
        "variable, function, message",
        [
            ('"support": true', '"vars": [0], "truth_table": "0"', "variable 'x': support"),
            ('"support": 2, "probs": [true, false]', '"vars": [0], "truth_table": "01"',
             "variable 'x': probs"),
            ('"support": 2', '"vars": [0], "truth_table": 10', "function 'y': truth_table"),
            ('"support": 2', '"vars": [true], "truth_table": "01"', "function 'y': vars"),
        ],
        ids=["support-bool", "probs-bool", "table-number", "vars-bool"],
    )
    def test_json_boolean_or_numeric_table_is_exit_two(self, tmp_path, variable, function, message):
        bad = tmp_path / "bad.json"
        bad.write_text(
            f'{{"variables": [{{"name": "x", {variable}}}, {{"name": "z", "support": 2}}],'
            f' "functions": [{{"name": "y", {function}}}]}}'
        )
        res = run_cli("exact", bad)
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {message} has the wrong JSON type: ")
        assert res.stderr.count("\n") == 1


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

    def test_violations_exit_one(self, block_file, monkeypatch, capsys):
        # a zero bound under every nonzero exact tail drives the
        # violation-reporting path without needing an unsound oracle
        from readk import bounds, cli

        monkeypatch.setattr(bounds, "_log_bound", lambda *args: -math.inf)
        assert cli.main(["verify", str(block_file)]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[-1]["result"] == "FAIL"
        assert lines[-1]["violations"] == len(lines) - 1 > 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_outside_finite_non_negative_is_exit_two(self, block_file, tol):
        res = run_cli("verify", block_file, "--tol", tol)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: tol must be finite and >= 0, got {float(tol)!r}\n"

    def test_zero_tol_runs(self, block_file):
        res = run_cli("verify", block_file, "--tol", 0)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1])["result"] == "PASS"

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

    def test_trace_sure_event_prints_positive_zero(self, block_file):
        res = run_cli("trace", block_file, "--t", 0, "--tail", "upper")
        assert res.returncode == 0
        assert res.stdout.startswith('{"neg_log_tail": 0.0000000000000000e+00, ')

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

    def test_shearer_reports_failed_gaps_as_nan(self, block_file, monkeypatch, capsys):
        # With no slack at all, both inequalities fail on finite sides.
        from readk import audit, cli

        monkeypatch.setattr(audit, "GAP_TOL", -math.inf)
        assert cli.main(["shearer", str(block_file), "--t", "4", "--tail", "upper"]) == 1
        out = capsys.readouterr()
        assert out.out == (
            '{"lemma_k": 2, "lemma_lhs": NaN, "lemma_rhs": NaN, "corollary_k": 2, '
            '"corollary_lhs": NaN, "corollary_rhs": NaN, "result": "FAIL"}\n'
        )
        assert out.err == ""

    def test_trace_reports_a_broken_chain(self, block_file, monkeypatch, capsys):
        from readk import cli
        from readk.audit import ProofTrace

        monkeypatch.setattr(ProofTrace, "chain_holds", lambda self, rel_tol=0.0: False)
        assert cli.main(["trace", str(block_file), "--t", "4", "--tail", "upper"]) == 1
        out = capsys.readouterr()
        line = json.loads(out.out)
        assert (line["chain_ok"], line["result"]) == (False, "FAIL")
        assert out.out.endswith(', "chain_ok": false, "result": "FAIL"}\n')
        assert out.err == ""

    def test_trace_names_a_long_count_in_brief(self, tmp_path):
        # 2^2000 assignments: 603 digits in full.
        fam = tmp_path / "fam.json"
        res = run_cli("gen", "--preset", "block-tight", "--k", 1, "--blocks", 2000,
                      "--p", "1/3", "--out", fam)
        assert res.returncode == 0, res.stderr
        res = run_cli("trace", fam, "--t", 700, "--tail", "upper")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: family spans 1.148e+602 assignments, exceeding the guard 16777216\n"
        )
        assert len(res.stderr.encode()) < 200


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

    def test_negative_seed_is_exit_two(self, block_file):
        res = run_cli("mc", block_file, "--t", 4, "--tail", "upper",
                      "--samples", 100, "--seed", -1)
        assert res.returncode == 2
        assert res.stderr == "error: seed must be a non-negative int, got -1\n"


class TestGen:
    def test_written_file_round_trips(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = run_cli("gen", "--preset", "random", "--m", 6, "--r", 5, "--k", 3,
                     "--max-arity", 2, "--seed", 9, "--out", p1)
        r2 = run_cli("gen", "--preset", "random", "--m", 6, "--r", 5, "--k", 3,
                     "--max-arity", 2, "--seed", 9, "--out", p2)
        assert r1.returncode == r2.returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_control_characters_in_out_path_stay_one_json_line(self, tmp_path):
        path = tmp_path / "tab\there\nnewline.json"
        res = run_cli("gen", "--preset", "block-tight", "--k", 1, "--blocks", 2,
                      "--p", "1/2", "--out", path)
        assert res.returncode == 0
        [line] = res.stdout.splitlines()
        assert json.loads(line) == {"written": str(path)}

    def test_missing_random_params_is_exit_two(self, tmp_path):
        res = run_cli("gen", "--preset", "random", "--m", 6, "--out", tmp_path / "x.json")
        assert res.returncode == 2

    @pytest.mark.parametrize("preset, given, message", [
        ("block-tight", ["--k", "2", "--p", "1/2"],
         "gen --preset block-tight needs --k, --blocks and --p"),
        ("random", ["--m", "6"],
         "gen --preset random needs --m, --r, --k, --max-arity and --seed"),
    ])
    def test_missing_params_are_a_domain_error(self, tmp_path, capsys, preset, given, message):
        from readk import cli
        from readk.errors import DomainError

        argv = ["gen", "--preset", preset, *given, "--out", str(tmp_path / "x.json")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(DomainError, match=re.escape(message)):
            cli._cmd_gen(cli._build_parser().parse_args(argv))
        assert not (tmp_path / "x.json").exists()

    def test_bad_rational_is_exit_two(self, tmp_path):
        res = run_cli("gen", "--preset", "block-tight", "--k", 2, "--blocks", 2,
                      "--p", "1/100", "--out", tmp_path / "x.json")
        assert res.returncode == 2


PRETTY_COMMANDS = {
    "bound": ["bound", "--r", 4, "--k", 2, "--p", 0.5, "--eps", 0.5, "--tail", "upper"],
    "gen": ["gen", "--preset", "block-tight", "--k", 1, "--blocks", 2, "--p", "1/2",
            "--out", "{dir}/gen.json"],
    "exact": ["exact", "{family}", "--t", 4, "--tail", "upper"],
    "mc": ["mc", "{family}", "--t", 4, "--tail", "upper", "--samples", 2000, "--seed", 5],
    "trace": ["trace", "{family}", "--t", 4, "--tail", "upper"],
    "shearer": ["shearer", "{family}", "--t", 4, "--tail", "upper"],
}


@pytest.mark.parametrize("command", list(PRETTY_COMMANDS))
def test_pretty_prints_one_aligned_line_per_key(block_file, tmp_path, command):
    args = [str(a).format(family=block_file, dir=tmp_path) for a in PRETTY_COMMANDS[command]]
    plain, pretty = run_cli(*args), run_cli(*args, "--pretty")
    assert plain.returncode == pretty.returncode == 0, pretty.stderr
    [line] = plain.stdout.splitlines()
    keys = list(json.loads(line))
    rows = pretty.stdout.splitlines()
    assert len(rows) == len(keys)
    # Each row is the key right-aligned in 14 columns, " = ", then its JSON token,
    # so the rows put back together give the JSON line.
    assert [row[:17] for row in rows] == [f"{key:>14} = " for key in keys]
    assert "{" + ", ".join(f'"{key}": {row[17:]}' for key, row in zip(keys, rows)) + "}" == line


def test_fmt_tokens_for_non_finite_floats_and_unknown_types():
    from readk.cli import _fmt

    assert [_fmt(x) for x in (math.nan, math.inf, -math.inf)] == ["NaN", "Infinity", "-Infinity"]
    with pytest.raises(TypeError, match="^cannot serialize None$"):
        _fmt(None)


def test_unknown_subcommand_is_exit_two():
    assert run_cli("frobnicate").returncode == 2


#: Every option each subcommand accepts, ``family`` being the positional.
SUBCOMMAND_OPTIONS = {
    "bound": {"--r", "--k", "--p", "--eps", "--t", "--tail", "--simplified", "--pretty"},
    "exact": {"family", "--t", "--tail", "--pretty"},
    "mc": {"family", "--t", "--tail", "--samples", "--seed", "--pretty"},
    "verify": {"family", "--tol", "--pretty"},
    "trace": {"family", "--t", "--tail", "--pretty"},
    "shearer": {"family", "--t", "--tail", "--pretty"},
    "gen": {"--preset", "--k", "--blocks", "--p", "--m", "--r", "--max-arity", "--seed",
            "--out", "--pretty"},
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_OPTIONS))
def test_help_names_every_option(command):
    res = run_cli(command, "--help")
    assert res.returncode == 0, res.stderr
    options = SUBCOMMAND_OPTIONS[command]
    flags = {o for o in options if o.startswith("--")} | {"--help"}
    assert set(re.findall(r"--[\w-]+", res.stdout)) == flags
    assert ("family" in options) == bool(re.search(r"^  family\b", res.stdout, re.M))


@pytest.mark.parametrize("command", ["mc", "trace", "shearer"])
@pytest.mark.parametrize("missing", ["family", "--t"])
def test_tail_event_arguments_are_required(block_file, command, missing):
    given = {"family": [block_file], "--t": ["--t", 4]}
    argv = [a for name, args in given.items() if name != missing for a in args]
    extra = ["--samples", 100, "--seed", 1] if command == "mc" else []
    res = run_cli(command, *argv, "--tail", "upper", *extra)
    assert res.returncode == 2
    assert f"the following arguments are required: {missing}" in res.stderr


def _imported_modules(*args):
    """Run ``python -X importtime *args``; its stdout and the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    log = re.findall(r"^import time:.*\|\s*(\S+)$", res.stderr, re.M)
    return res.stdout, set(log)


BOUND_ARGS = ("bound", "--r", "4", "--k", "2", "--p", "0.5", "--tail", "upper")
#: Projections, a push-forward and the entropies of a three-outcome law, without numpy.
INFO_THEORY_CALLS = (
    "from readk.info_theory import Distribution, conditional_entropy, entropy, kl_divergence, "
    "project, push_forward\n"
    "d = Distribution.uniform([(0, 0), (0, 1), (1, 1)])\n"
    "print(entropy(project(d, (0,))), "
    "kl_divergence(project(d, (1,)), push_forward(d, lambda a: a[:1])), "
    "conditional_entropy(d, (1,), (0,)))"
)


@pytest.mark.parametrize(
    "args, stdout",
    [
        (("-c", "import readk"), ""),
        (("-c", "import readk.cli"), ""),
        (("-m", "readk", *BOUND_ARGS, "--eps", "0.5"),
         '{"log_bound": -1.3862943611198906e+00, "bound": 2.5000000000000000e-01}\n'),
        (("-m", "readk", *BOUND_ARGS, "--t", "4"),
         '{"log_bound": -1.3862943611198906e+00, "bound": 2.5000000000000000e-01}\n'),
        (("-m", "readk", *BOUND_ARGS, "--eps", "0.5", "--simplified"),
         '{"log_bound": -1.0000000000000000e+00, "bound": 3.6787944117144233e-01}\n'),
        (("-c", INFO_THEORY_CALLS),
         "0.6365141682948128 0.23104906018664842 0.46209812037329684\n"),
    ],
    ids=["import-readk", "import-readk-cli", "bound-eps", "bound-t", "bound-simplified",
         "info-theory"],
)
def test_start_up_leaves_numpy_unloaded(args, stdout):
    out, modules = _imported_modules(*args)
    assert "readk" in modules
    assert "numpy" not in modules
    assert out == stdout


def test_exact_loads_only_its_own_modules(block_file):
    out, modules = _imported_modules("-m", "readk", "exact", str(block_file))
    assert json.loads(out)["pmf"] == [0.25, 0.0, 0.5, 0.0, 0.25]
    assert {"readk.exact", "readk.family", "numpy"} <= modules
    assert not modules & {"readk.audit", "readk.sampler", "readk.generators"}


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
    assert res.stderr == (
        "error: component [y0, y1]: an elimination factor spans 12 cells, exceeding the guard 2\n"
    )


@pytest.mark.parametrize("value", ["1e6", "-5"])
def test_invalid_guard_env_variable_is_named(block_file, value):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["READK_ENUM_GUARD"] = value
    res = subprocess.run(
        [sys.executable, "-m", "readk", "exact", str(block_file)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2
    assert "READK_ENUM_GUARD must be a positive int" in res.stderr


WEIGHTED_FAMILY = {
    "variables": [
        {"name": "a", "support": 2, "probs": [0.25, 0.75]},
        {"name": "b", "support": 3, "probs": [0.5, 0.0, 0.5]},
        {"name": "c", "support": 2, "probs": [0.6, 0.4]},
    ],
    "functions": [
        {"name": "f0", "vars": [0, 1], "truth_table": "011010"},
        {"name": "f1", "vars": [1, 2], "truth_table": "100110"},
        {"name": "f2", "vars": [2, 0], "truth_table": "0111"},
        {"name": "f3", "vars": [1], "truth_table": "010"},
    ],
}

#: Stdout recorded with an earlier version of readk on three families: ``random`` is
#: ``gen --preset random --m 6 --r 5 --k 2 --max-arity 2 --seed 3``, ``weighted``
#: is WEIGHTED_FAMILY (a zero-probability value included) and ``block-tight`` is
#: ``gen --preset block-tight --k 2 --blocks 3 --p 1/3``, whose conditioned law
#: holds outcomes of several masses.
#: Byte equality pins the output across versions, not only run to run.
GOLDEN_STDOUT = {
    ('random', ('exact', '--t', 3, '--tail', 'upper')): (
        '{"pmf": [0.0000000000000000e+00, 1.6666666666666666e-01, '
        '3.1944444444444442e-01, 3.3333333333333331e-01, 1.2500000000000000e-01, '
        '5.5555555555555552e-02], "t": 3.0000000000000000e+00, "tail": "upper", '
        '"tail_prob": 5.1388888888888884e-01}\n'
    ),
    ('random', ('trace', '--t', 3, '--tail', 'upper')): (
        '{"neg_log_tail": 6.6574820637183096e-01, '
        '"shearer_term": 3.0164877655688871e-01, "dpi_term": 2.4562581887373147e-01, '
        '"convexity_term": 1.5831740454798834e-01, '
        '"final_term": 3.5055601317917143e-02, "chain_ok": true, "result": "PASS"}\n'
    ),
    ('random', ('trace', '--t', 1, '--tail', 'lower')): (
        '{"neg_log_tail": 1.7917594692280550e+00, '
        '"shearer_term": 1.7917594692280550e+00, "dpi_term": 1.1897730670650870e+00, '
        '"convexity_term": 5.3327008449426117e-01, '
        '"final_term": 5.3327008449426117e-01, "chain_ok": true, "result": "PASS"}\n'
    ),
    ('random', ('shearer', '--t', 3, '--tail', 'upper')): (
        '{"lemma_k": 1, "lemma_lhs": 4.3040650932041693e+00, '
        '"lemma_rhs": 6.8514223962502241e+00, "corollary_k": 2, '
        '"corollary_lhs": 1.3314964127436621e+00, '
        '"corollary_rhs": 6.0329755311377742e-01, "result": "PASS"}\n'
    ),
    ('random', ('shearer', '--t', 1, '--tail', 'lower')): (
        '{"lemma_k": 1, "lemma_lhs": 3.1780538303479453e+00, '
        '"lemma_rhs": 3.8712010109078907e+00, "corollary_k": 2, '
        '"corollary_lhs": 3.5835189384561099e+00, '
        '"corollary_rhs": 3.5835189384561099e+00, "result": "PASS"}\n'
    ),
    ('random', ('verify',)): (
        '{"tail": "upper", "t": 3, "exact": 5.1388888888888884e-01, '
        '"bound": 9.6555172881639473e-01, "slack": 4.5166283992750589e-01, '
        '"ok": true}\n'
        '{"tail": "upper", "t": 4, "exact": 1.8055555555555555e-01, '
        '"bound": 6.4840938006498494e-01, "slack": 4.6785382450942936e-01, '
        '"ok": true}\n'
        '{"tail": "upper", "t": 5, "exact": 5.5555555555555552e-02, '
        '"bound": 1.9187840893876634e-01, "slack": 1.3632285338321079e-01, '
        '"ok": true}\n'
        '{"tail": "lower", "t": 0, "exact": 0.0000000000000000e+00, '
        '"bound": 1.6241153416565324e-01, "slack": 1.6241153416565324e-01, '
        '"ok": true}\n'
        '{"tail": "lower", "t": 1, "exact": 1.6666666666666666e-01, '
        '"bound": 5.8668332537580092e-01, "slack": 4.2001665870913429e-01, '
        '"ok": true}\n'
        '{"tail": "lower", "t": 2, "exact": 4.8611111111111105e-01, '
        '"bound": 9.3388564074342584e-01, "slack": 4.4777452963231479e-01, '
        '"ok": true}\n'
        '{"result": "PASS", "r": 5, "k": 2, "thresholds": 6, "violations": 0}\n'
    ),
    ('weighted', ('exact', '--t', 2, '--tail', 'upper')): (
        '{"pmf": [0.0000000000000000e+00, 4.2500000000000004e-01, '
        '5.7499999999999996e-01, 0.0000000000000000e+00, 0.0000000000000000e+00], '
        '"t": 2.0000000000000000e+00, "tail": "upper", '
        '"tail_prob": 5.7499999999999996e-01}\n'
    ),
    ('weighted', ('trace', '--t', 2, '--tail', 'upper')): (
        '{"neg_log_tail": 5.5338523818478669e-01, '
        '"shearer_term": 3.0013186850731605e-01, "dpi_term": 9.5057377951795655e-02, '
        '"convexity_term": 3.0805042968565177e-02, '
        '"final_term": 3.0805042968565177e-02, "chain_ok": true, "result": "PASS"}\n'
    ),
    ('weighted', ('trace', '--t', 1, '--tail', 'lower')): (
        '{"neg_log_tail": 8.5566611005772009e-01, '
        '"shearer_term": 4.7135394992740359e-01, "dpi_term": 1.7163198084517783e-01, '
        '"convexity_term": 6.1362340186131070e-02, '
        '"final_term": 6.1362340186131070e-02, "chain_ok": true, "result": "PASS"}\n'
    ),
    ('weighted', ('shearer', '--t', 2, '--tail', 'upper')): (
        '{"lemma_k": 2, "lemma_lhs": 2.4247124649734153e+00, '
        '"lemma_rhs": 3.3242345163809857e+00, "corollary_k": 3, '
        '"corollary_lhs": 1.6601557145543602e+00, '
        '"corollary_rhs": 9.0039560552194808e-01, "result": "PASS"}\n'
    ),
    ('weighted', ('shearer', '--t', 1, '--tail', 'lower')): (
        '{"lemma_k": 2, "lemma_lhs": 2.5860449401287990e+00, '
        '"lemma_rhs": 3.5764624910219736e+00, "corollary_k": 3, '
        '"corollary_lhs": 2.5669983301731603e+00, '
        '"corollary_rhs": 1.4140618497822108e+00, "result": "PASS"}\n'
    ),
    ('weighted', ('verify',)): (
        '{"tail": "upper", "t": 2, "exact": 5.7499999999999996e-01, '
        '"bound": 9.6966459758103085e-01, "slack": 3.9466459758103090e-01, '
        '"ok": true}\n'
        '{"tail": "upper", "t": 3, "exact": 0.0000000000000000e+00, '
        '"bound": 7.0533681280628291e-01, "slack": 7.0533681280628291e-01, '
        '"ok": true}\n'
        '{"tail": "upper", "t": 4, "exact": 0.0000000000000000e+00, '
        '"bound": 2.8859851299790301e-01, "slack": 2.8859851299790301e-01, '
        '"ok": true}\n'
        '{"tail": "lower", "t": 0, "exact": 0.0000000000000000e+00, '
        '"bound": 5.1310037904094274e-01, "slack": 5.1310037904094274e-01, '
        '"ok": true}\n'
        '{"tail": "lower", "t": 1, "exact": 4.2500000000000004e-01, '
        '"bound": 9.4048240346126877e-01, "slack": 5.1548240346126872e-01, '
        '"ok": true}\n'
        '{"result": "PASS", "r": 4, "k": 3, "thresholds": 5, "violations": 0}\n'
    ),
    ('block-tight', ('shearer', '--t', 2, '--tail', 'upper')): (
        '{"lemma_k": 2, "lemma_lhs": 3.6999921249856853e+00, '
        '"lemma_rhs": 4.1505689931145069e+00, "corollary_k": 2, '
        '"corollary_lhs": 7.0279577367577717e-01, '
        '"corollary_rhs": 2.5221890554695581e-01, "result": "PASS"}\n'
    ),
    ('random', ('mc', '--t', 3, '--tail', 'upper', '--samples', 20000, '--seed', 7)): (
        '{"estimate": 5.1315000000000000e-01, "samples": 20000, '
        '"ci_low": 5.0164096293499316e-01, "ci_high": 5.2465903706500683e-01, "seed": 7}\n'
    ),
    ('random', ('mc', '--t', 1, '--tail', 'lower', '--samples', 20000, '--seed', 7)): (
        '{"estimate": 1.6800000000000001e-01, "samples": 20000, '
        '"ci_low": 1.5649096293499318e-01, "ci_high": 1.7950903706500684e-01, "seed": 7}\n'
    ),
    ('weighted', ('mc', '--t', 2, '--tail', 'upper', '--samples', 20000, '--seed', 7)): (
        '{"estimate": 5.7355000000000000e-01, "samples": 20000, '
        '"ci_low": 5.6204096293499317e-01, "ci_high": 5.8505903706500684e-01, "seed": 7}\n'
    ),
    ('weighted', ('mc', '--t', 1, '--tail', 'lower', '--samples', 20000, '--seed', 7)): (
        '{"estimate": 4.2645000000000000e-01, "samples": 20000, '
        '"ci_low": 4.1494096293499316e-01, "ci_high": 4.3795903706500683e-01, "seed": 7}\n'
    ),
}


@pytest.fixture(scope="module")
def golden_families(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    res = run_cli("gen", "--preset", "random", "--m", 6, "--r", 5, "--k", 2,
                  "--max-arity", 2, "--seed", 3, "--out", root / "random.json")
    assert res.returncode == 0, res.stderr
    (root / "weighted.json").write_text(json.dumps(WEIGHTED_FAMILY))
    res = run_cli("gen", "--preset", "block-tight", "--k", 2, "--blocks", 3, "--p", "1/3",
                  "--out", root / "block-tight.json")
    assert res.returncode == 0, res.stderr
    return root


def _golden_id(key):
    family, args = key
    return "-".join([family, *(str(a) for a in args if not str(a).startswith("--"))])


@pytest.mark.parametrize("key", list(GOLDEN_STDOUT), ids=map(_golden_id, GOLDEN_STDOUT))
def test_stdout_matches_recorded_bytes(golden_families, key):
    family, (command, *flags) = key
    res = run_cli(command, golden_families / f"{family}.json", *flags)
    assert res.returncode == 0, res.stderr
    assert res.stdout == GOLDEN_STDOUT[key]
