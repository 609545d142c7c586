"""End-to-end command-line behaviour: exit codes, formats, config."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import maxdeficit
from maxdeficit import ConvergenceError, cli, load_batch
from maxdeficit.cli import main

LINE1_ARGS = ["--line", "10,1,12"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [row.split(",") for row in out.strip().splitlines()]
    return lines[0], lines[1:]


class TestMeasureCommand:
    def test_coherent_csv(self, capsys):
        code, out, _ = run(
            capsys, "measure", "coherent", *LINE1_ARGS, "--format", "csv"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["lam", "mu", "c", "value", "method", "residual", "branch"]
        assert rows[0][:4] == ["10", "1", "12", "5"]
        assert rows[0][4] == "closed-form"

    def test_convex_continuation_branch(self, capsys):
        code, out, _ = run(
            capsys,
            "measure", "convex", *LINE1_ARGS, "--A", "20", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][3] == "-8.31777"
        assert rows[0][6] == "continuation"

    def test_proportional_lambert(self, capsys):
        code, out, _ = run(
            capsys,
            "measure", "proportional", *LINE1_ARGS, "--delta", "0.2",
            "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][3] == "7.34728"
        assert rows[0][4] == "lambert-w"

    def test_lambert_argument_past_1e302(self, capsys):
        # W(a / delta) / b with a / delta = 8.3e304, where w*exp(w) - y overflows
        code, out, _ = run(
            capsys,
            "measure", "proportional", *LINE1_ARGS, "--delta", "1e-305",
            "--format", "csv",
        )
        assert code == 0
        assert csv_rows(out)[1][0][3:5] == ["4173.37", "lambert-w"]

    def test_tvar_edge_near_the_smallest_float(self, capsys):
        # 1/b + ln(a / alpha) / b, where a / alpha overflows
        code, out, _ = run(
            capsys,
            "measure", "coherent", *LINE1_ARGS, "--g", "tvar:1e-320",
            "--format", "csv",
        )
        assert code == 0
        assert csv_rows(out)[1][0][3] == "4425.87"

    def test_precision_flag_widens_output(self, capsys):
        _, coarse, _ = run(
            capsys,
            "measure", "coherent", *LINE1_ARGS, "--g", "ph:0.5", "--format", "csv",
        )
        _, fine, _ = run(
            capsys,
            "measure", "coherent", *LINE1_ARGS, "--g", "ph:0.5", "--format", "csv",
            "--precision", "12",
        )
        assert csv_rows(coarse)[1][0][3] == "10.9545"
        assert csv_rows(fine)[1][0][3] == "10.9544511501"

    def test_ear_levels(self, capsys):
        code, out, _ = run(
            capsys, "measure", "ear", *LINE1_ARGS, "--A", "5", "--format", "csv"
        )
        assert code == 0
        assert csv_rows(out)[1][0][3] == "6.59167"

    def test_premium_bound_warns_on_nonconcave(self, capsys):
        code, out, err = run(
            capsys,
            "measure", "premium-bound", *LINE1_ARGS, "--g", "varstep:0.4",
            "--n", "1000", "--seed", "4", "--format", "csv",
        )
        assert code == 0
        assert "not concave" in err
        assert csv_rows(out)[1][0][5] == "no"

    def test_empirical_route_via_horizon(self, capsys):
        code, out, _ = run(
            capsys,
            "measure", "coherent", *LINE1_ARGS, "--t", "40", "--n", "4000",
            "--seed", "12", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][4] == "empirical"
        assert float(rows[0][3]) == pytest.approx(5.0, rel=0.15)

    def test_multiple_lines_multiple_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "measure", "coherent", "--line", "10,1,12", "--line", "1,10,15",
            "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[3] for r in rows] == ["5", "20"]


class TestNoClaimsLine:
    # lam = 0 gives a = 0 and D = 0 on u >= 0 for every distortion: the
    # coherent and proportional rules hold nothing, and the convex rule
    # follows the curve's sub-zero line D(u) = -u where a plateau curve
    # has one; the ph continuation has no root
    @pytest.mark.parametrize("spec", ["identity", "ph:0.5", "tvar:0.1", "varstep:0.1"])
    def test_one_rule_for_every_kind(self, capsys, spec):
        base = ["--line", "0,1,1", "--g", spec, "--format", "csv"]
        code, out, _ = run(capsys, "measure", "coherent", *base)
        assert code == 0
        assert csv_rows(out)[1][0][3:5] == ["0", "closed-form"]
        code, out, _ = run(capsys, "measure", "proportional", *base, "--delta", "0.05")
        assert code == 0
        assert csv_rows(out)[1][0][3:] == ["0", "closed-form", "0", "degenerate"]
        code, out, err = run(capsys, "measure", "convex", *base, "--A", "2")
        if spec.startswith(("tvar", "varstep")):
            assert code == 0
            assert csv_rows(out)[1][0][3:] == ["-2", "closed-form", "0", "linear"]
        else:
            assert code == 3
            assert "no claims" in err


class TestExitCodes:
    def test_missing_required_value_is_usage(self, capsys):
        code, _, err = run(capsys, "measure", "convex", *LINE1_ARGS)
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [["measure", "coherent"], ["allocate", "--u", "10"],
         ["simulate", "--t", "1", "--n", "5", "--seed", "0"]],
        ids=["measure", "allocate", "simulate"],
    )
    def test_missing_line_is_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "at least one --line is required" in err

    def test_two_distortions_for_one_measure_is_usage(self, capsys):
        argv = ["measure", "coherent", *LINE1_ARGS, "--g", "ph:0.5", "--g", "tvar:0.1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "exactly one --g is expected here" in err

    def test_bad_distortion_parameter_is_usage(self, capsys):
        code, _, _ = run(capsys, "measure", "coherent", *LINE1_ARGS, "--g", "ph:1.5")
        assert code == 2

    def test_malformed_line_is_usage(self, capsys):
        code, _, _ = run(capsys, "measure", "coherent", "--line", "10,1")
        assert code == 2

    def test_non_finite_line_is_usage(self, capsys):
        code, out, _ = run(capsys, "measure", "coherent", "--line", "nan,1,12")
        assert code == 2
        assert out == ""

    def test_unprofitable_line_is_usage(self, capsys):
        # rejected while parsing the flag, before any computation
        code, _, _ = run(capsys, "measure", "coherent", "--line", "10,1,9")
        assert code == 2

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("value", ["-3", "x"])
    def test_bad_precision_is_usage(self, capsys, tmp_path, value):
        # refused while parsing, from the command line or a file, with the
        # flag named; a negative count of digits used to reach the formatter
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"precision={value}\n")
        for extra in (["--precision", value], ["--config", str(cfg)]):
            code, out, err = run(capsys, "measure", "coherent", *LINE1_ARGS, *extra)
            assert (code, out) == (2, "")
            assert f"argument --precision: expects an integer >= 0, got '{value}'" in err

    def test_runtime_domain_error_is_three(self, capsys):
        code, _, err = run(capsys, "measure", "ear", *LINE1_ARGS, "--A", "-1")
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_horizon_is_three(self, capsys, t):
        code, out, err = run(
            capsys, "measure", "coherent", *LINE1_ARGS, "--t", t, "--n", "10"
        )
        assert code == 3
        assert out == ""
        assert "horizon must be positive and finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", *LINE1_ARGS, "--t", "1e308", "--n", "10", "--seed", "1"],
            ["measure", "convex", *LINE1_ARGS, "--t", "1e308", "--A", "2"],
        ],
        ids=["simulate", "measure"],
    )
    def test_horizon_past_one_block_is_three(self, capsys, argv):
        # lam * t = 1e309 once overflowed in int() and exited 1 with a
        # traceback; it is now refused before any path is drawn
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("domain error: horizon 1e+308") and err.count("\n") == 1

    def test_nan_reserve_level_is_three(self, capsys):
        code, out, err = run(
            capsys, "simulate", *LINE1_ARGS, "--t", "1", "--n", "10", "--seed", "7",
            "--u", "0,nan",
        )
        assert code == 3
        assert out == ""
        assert "reserve level must not be NaN" in err

    def test_figure_grid_outside_domain_is_three(self, capsys):
        code, _, _ = run(capsys, "figure", "--r-grid", "0.5:1.5:3")
        assert code == 3

    def test_convergence_failure_is_four(self, capsys, monkeypatch):
        def boom(*args):
            raise ConvergenceError("stalled")

        monkeypatch.setattr("maxdeficit.cli.method1_exponential", boom)
        code, _, err = run(capsys, "allocate", *LINE1_ARGS, "--u", "10")
        assert code == 4
        assert "convergence error" in err


class TestAllocateCommand:
    def test_marginal_sum_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "10,1,12", "--line", "1,10,15",
            "--line", "0.1,100,20", "--u", "10", "--format", "csv",
        )
        assert code == 0
        body, summary = out.rsplit("threshold=", 1)
        _, rows = csv_rows(body)
        assert [r[4] for r in rows] == ["2.78238", "7.21762", "0"]
        assert [r[5] for r in rows] == ["yes", "yes", "no"]
        assert "objective=" in summary

    def test_penalty_exponents(self, capsys):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "10,1,12", "--line", "1,10,15",
            "--line", "0.1,100,20", "--u", "100", "--gamma", "1,1,2",
            "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out.rsplit("threshold=", 1)[0])
        assert float(rows[2][4]) == pytest.approx(92.4598471, abs=1e-4)

    @pytest.mark.parametrize("gammas", ["nan,1", "inf,1"])
    def test_non_finite_penalty_exponent_is_three(self, capsys, gammas):
        code, out, err = run(
            capsys,
            "allocate", "--line", "10,1,12", "--line", "1,10,15",
            "--u", "10", "--gamma", gammas,
        )
        assert code == 3
        assert out == ""
        assert "penalty exponents" in err

    def test_aggregate_min_two_line_route(self, capsys):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "0.45,2,1", "--line", "0.09,10,1",
            "--u", "60", "--method", "aggregate-min", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out.rsplit("threshold=", 1)[0])
        assert float(rows[0][4]) == pytest.approx(3.0847647, abs=1e-4)
        assert float(rows[1][4]) == pytest.approx(56.9152353, abs=1e-4)

    @pytest.mark.parametrize("total", ["1e-17", "1e-20", "1e-300"])
    def test_aggregate_min_budget_below_rounding(self, capsys, total):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "10,1,12", "--line", "1,10,15",
            "--line", "0.1,100,20", "--u", total, "--method", "aggregate-min",
            "--g", "ph:0.7", "--format", "csv",
        )
        assert code == 0
        body, summary = out.rsplit("threshold=", 1)
        _, rows = csv_rows(body)
        assert [r[4] for r in rows] == ["0", "0", total]
        assert summary.split() == ["0.563218", "objective=186.522"]

    @pytest.mark.parametrize("total", ["1e-09", "1e-17"])
    def test_aggregate_min_corner_below_1e_8_is_active(self, capsys, total):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "10,1,12", "--line", "1,10,15",
            "--line", "0.1,100,20", "--u", total, "--method", "aggregate-min",
            "--g", "ph:0.7", "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out.rsplit("threshold=", 1)[0])
        assert [r[4] for r in rows] == ["0", "0", total]
        assert [r[5] for r in rows] == ["no", "no", "yes"]

    def test_aggregate_min_three_line_exact_route(self, capsys):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "10,1,12", "--line", "1,10,15",
            "--line", "0.1,100,20", "--u", "100", "--method", "aggregate-min",
            "--format", "csv",
        )
        assert code == 0
        body, summary = out.rsplit("threshold=", 1)
        _, rows = csv_rows(body)
        assert [r[4] for r in rows] == ["0.983557", "10.7429", "88.2735"]
        assert [r[5] for r in rows] == ["yes", "yes", "yes"]
        assert summary.split() == ["0.297992", "objective=76.1744"]

    @pytest.mark.parametrize(
        "extra,threshold",
        [
            # one line: -dF/du = psi(50) under identity, psi(50) / 0.1 under
            # tvar(0.1) and 0.5 psi(50)**0.5 / 0.5 under ph(0.5)
            (["--line", "10,1,12", "--u", "50"], 0.000200308),
            (["--line", "10,1,12", "--u", "50", "--g", "tvar:0.1"], 0.00200308),
            (["--line", "10,1,12", "--u", "50", "--g", "ph:0.5"], 0.014153),
            # no budget: the largest marginal reduction at zero reserves
            (["--line", "10,1,12", "--line", "1,10,15", "--u", "0", "--g", "ph:0.5"],
             None),
        ],
    )
    def test_aggregate_min_threshold_is_finite(self, capsys, extra, threshold):
        code, out, _ = run(capsys, "allocate", "--method", "aggregate-min", *extra)
        assert code == 0
        value = float(out.rsplit("threshold=", 1)[1].split()[0])
        assert math.isfinite(value) and value > 0.0
        if threshold is not None:
            assert value == pytest.approx(threshold, rel=1e-5)

    def test_budget_far_past_the_top_levels(self, capsys):
        code, out, _ = run(
            capsys,
            "allocate", "--line", "1,0.5,1", "--line", "1,0.5,1", "--u", "100",
            "--format", "csv",
        )
        assert code == 0
        _, rows = csv_rows(out.rsplit("threshold=", 1)[0])
        assert [r[4] for r in rows] == ["50", "50"]

    def test_missing_budget_is_usage(self, capsys):
        assert run(capsys, "allocate", *LINE1_ARGS)[0] == 2

    @pytest.mark.parametrize(
        "method,flag,value", [("marginal-sum", "g", "ph:0.5"), ("aggregate-min", "gamma", "1,3")]
    )
    def test_flag_the_method_does_not_read_is_usage(self, capsys, tmp_path, method, flag, value):
        # marginal-sum reads --gamma and aggregate-min reads --g; the other
        # flag is refused rather than dropped, from the command line or a file
        argv = ["allocate", "--line", "10,1,12", "--line", "1,10,15", "--u", "50",
                "--method", method]
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{flag}={value}\n")
        for extra in ([f"--{flag}", value], ["--config", str(cfg)]):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, "")
            assert f"--{flag} is not read" in err


class TestTableCommand:
    def test_table_two_reference_rows(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--format", "csv")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["total_u", "u1", "u2", "u3"]
        by_budget = {r[0]: r[1:] for r in rows}
        assert by_budget["10"] == ["2.78238", "7.21762", "0"]
        assert by_budget["1"] == ["1", "0", "0"]

    def test_table_four_shows_corner(self, capsys):
        code, out, _ = run(capsys, "table", "4", "--format", "csv")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][0] == "30"
        assert rows[0][3:] == ["0", "30"]

    def test_table_three_penalized_rows(self, capsys):
        code, out, _ = run(capsys, "table", "3")
        assert code == 0
        assert out == (
            "gamma1  gamma2  gamma3  u1       u2       u3\n"
            "1       1       1       5.30999  19.8556  74.8344\n"
            "1       1       2       2.37241  5.16774  92.4598\n"
        )

    def test_unknown_table_is_usage(self, capsys):
        assert run(capsys, "table", "9")[0] == 2

    def test_default_format_aligns_columns(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        top = out.splitlines()[0]
        assert "," not in top
        assert top.split() == ["lam", "mu", "c", "a", "b"]


class TestFigureCommand:
    def test_grid_and_gap_structure(self, capsys):
        code, out, _ = run(
            capsys,
            "figure", "--r-grid", "0.1:0.3:3", "--format", "csv",
            "--precision", "12",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header[0] == "R"
        assert [r[0] for r in rows] == ["0.1", "0.2", "0.3"]
        coherent = header.index("coherent_identity")
        a20 = header.index("convex_identity_A20")
        a5 = header.index("convex_identity_A5")
        col = [float(r[coherent]) for r in rows]
        assert col[0] > col[1] > col[2]
        for r in rows:
            gap = float(r[a5]) - float(r[a20])
            assert gap == pytest.approx(math.log(4.0) / float(r[0]), rel=1e-9)

    def test_requires_grid(self, capsys):
        assert run(capsys, "figure")[0] == 2

    @pytest.mark.parametrize(
        "grid, text",
        [("1:2", "--r-grid expects start:stop:count"), ("0.1:0.5:0", "count must be >= 1")],
    )
    def test_malformed_grid_is_usage(self, capsys, grid, text):
        code, out, err = run(capsys, "figure", "--r-grid", grid)
        assert (code, out) == (2, "")
        assert text in err

    def test_writes_csv_file(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, out, _ = run(
            capsys,
            "figure", "--r-grid", "0.2:0.4:2", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("R,")


class TestSimulateCommand:
    def test_summary_and_batch_file(self, capsys, tmp_path):
        target = tmp_path / "batch.txt"
        code, out, _ = run(
            capsys,
            "simulate", *LINE1_ARGS, "--t", "2", "--n", "50", "--seed", "9",
            "--u", "0,5", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["u", "ruin_estimate", "half_width"]
        assert len(rows) == 2
        batch = load_batch(target)
        assert batch.n == 50 and batch.seed == 9

    def test_unwritable_batch_file_is_usage(self, capsys, tmp_path):
        target = tmp_path / "missing" / "batch.txt"
        code, out, err = run(
            capsys,
            "simulate", *LINE1_ARGS, "--t", "1", "--n", "10", "--u", "1",
            "--seed", "1", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXDEFICIT_SEED", "77")
        code, out, _ = run(
            capsys,
            "simulate", *LINE1_ARGS, "--t", "1", "--n", "20", "--format", "csv",
        )
        assert code == 0

    def test_seed_required_without_fallback(self, capsys, monkeypatch):
        monkeypatch.delenv("MAXDEFICIT_SEED", raising=False)
        code, _, err = run(
            capsys, "simulate", *LINE1_ARGS, "--t", "1", "--n", "20"
        )
        assert code == 2
        assert "seed" in err


class TestSuccessiveCalls:
    def test_appended_flags_start_empty(self, capsys):
        # --line and --g append to a default list; a second call in the
        # same process sees only its own values
        code, out, _ = run(
            capsys, "measure", "coherent", "--line", "10,1,12", "--line", "1,10,15",
            "--g", "ph:0.5", "--format", "csv",
        )
        assert code == 0
        assert len(csv_rows(out)[1]) == 2
        code, out, _ = run(
            capsys, "measure", "coherent", "--line", "0.1,100,20", "--format", "csv"
        )
        assert code == 0
        _, rows = csv_rows(out)
        # identity's D(0) = a / b = 0.5 / 0.005 on the one line given
        assert [r[:4] for r in rows] == [["0.1", "100", "20", "100"]]

    def test_mixed_commands_match_lone_runs(self, capsys, monkeypatch):
        # each call builds the parser for its own command; in one process,
        # every output is the one that argv prints in a fresh interpreter
        monkeypatch.delenv("MAXDEFICIT_SEED", raising=False)
        argvs = [
            ["measure", "coherent", "--line", "10,1,12", "--line", "1,10,15",
             "--g", "ph:0.5"],
            ["allocate", "--line", "10,1,12", "--line", "1,10,15", "--u", "30"],
            ["table", "2"],
            ["figure", "--r-grid", "0.1:0.5:2"],
            ["measure", "convex", "--line", "0.1,100,20", "--A", "5"],
        ]
        together = [run(capsys, *argv) for argv in argvs]
        src = os.path.dirname(os.path.dirname(maxdeficit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv, (code, out, err) in zip(argvs, together):
            alone = subprocess.run(
                [sys.executable, "-m", "maxdeficit.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)


class TestCommandParser:
    """main builds only the named command's subparser; what it prints
    matches the parser with all six."""

    def test_builds_only_the_named_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser("table").parse_args(["measure", "coherent"])
        assert "invalid choice: 'measure'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, usage", [
        (["measure", "--help"], "usage: maxdeficit measure [-h] "),
        (["table", "9"], "usage: maxdeficit table [-h] "),
        (["measure", "coherent", "--bogus"],
         "usage: maxdeficit [-h] {measure,allocate,table,figure,simulate,check} ...\n"),
    ])
    def test_usage_lines_name_every_command(self, capsys, argv, usage):
        # the subparsers' usage and the top-level one, as the full parser
        # prints them without a pinned usage
        _, out, err = run(capsys, *argv)
        assert (out + err).startswith(usage)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], [], ["nonsense"], ["meas"],
        ["measure", "--help"], ["table", "-h"], ["allocate", "--help"],
        ["figure", "--help"], ["simulate", "--help"], ["check", "--help"],
        ["table", "9"], ["measure"],
        ["measure", "--line", "10,1,12", "coherent"],
        ["measure", "coherent", "--line", "10,1,12", "--prec", "17"],
        ["measure", "coherent", "--config", "CONFIG", "--lin", "1,10,15"],
        ["measure", "coherent", *LINE1_ARGS, "--precision", "-3"],
        ["figure"],
        ["simulate", *LINE1_ARGS],
        ["allocate", *LINE1_ARGS, "--u", "10", "--g", "ph:0.5"],
        ["measure", "coherent", "--bogus"],
    ])
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("line=10,1,12\nline=0.1,100,20\nformat=csv\n")
        argv = [str(cfg) if tok == "CONFIG" else tok for tok in argv]
        got = run(capsys, *argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == run(capsys, *argv)


class TestConfigFile:
    def test_preseeds_flags(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# defaults\nline=10,1,12\nA=5\nformat=csv\n")
        code, out, _ = run(
            capsys, "measure", "convex", "--config", str(cfg)
        )
        assert code == 0
        _, rows = csv_rows(out)
        # 6 ln((a/b)/A) with a/b = 5 and the budget A = 5 from the file
        assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-12)

    def test_explicit_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("line=10,1,12\nA=5\nformat=csv\n")
        code, out, _ = run(
            capsys, "measure", "convex", "--config", str(cfg), "--A", "20"
        )
        assert code == 0
        assert csv_rows(out)[1][0][3] == "-8.31777"

    def test_repeated_line_keys_accumulate(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("line=10,1,12\nline=1,10,15\nformat=csv\n")
        code, out, _ = run(capsys, "measure", "coherent", "--config", str(cfg))
        assert code == 0
        assert len(csv_rows(out)[1]) == 2

    def test_unknown_key_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _, err = run(capsys, "measure", "coherent", "--config", str(cfg))
        assert code == 2
        assert "frobnicate" in err

    @pytest.mark.parametrize("entry", ["method=marginal-summ", "format=xml"])
    def test_values_checked_like_flags(self, capsys, tmp_path, entry):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{entry}\n")
        code, out, _ = run(
            capsys, "allocate", *LINE1_ARGS, "--u", "10", "--config", str(cfg)
        )
        assert code == 2
        assert out == ""

    def test_line_flag_replaces_file_lines(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("line=10,1,12\nline=1,10,15\nformat=csv\n")
        code, out, _ = run(
            capsys, "measure", "coherent", "--config", str(cfg),
            "--line", "0.1,100,20",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[:3] for r in rows] == [["0.1", "100", "20"]]

    @pytest.mark.parametrize("flag", [["--lin", "0.1,100,20"], ["--li=0.1,100,20"]])
    def test_abbreviated_flag_replaces_its_key(self, capsys, tmp_path, flag):
        # argparse takes a unique prefix for the flag, and so does the file
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("line=10,1,12\nline=1,10,15\nformat=csv\n")
        code, out, _ = run(capsys, "measure", "coherent", "--config", str(cfg), *flag)
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[:3] for r in rows] == [["0.1", "100", "20"]]

    def test_missing_file_is_usage(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "measure", "coherent", "--config", str(tmp_path / "x.cfg")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_malformed_entry_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("just some words\n")
        assert run(capsys, "measure", "coherent", "--config", str(cfg))[0] == 2


class TestCheckCommand:
    def test_full_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines)

    def test_a_wrong_route_fails_its_check(self, capsys, monkeypatch):
        right = cli.method1_exponential

        def wrong(lines, total_u, gammas=None):
            res = right(lines, total_u, gammas)
            res.reserves = res.reserves * 1.01
            return res

        monkeypatch.setattr(cli, "method1_exponential", wrong)
        code, out, _ = run(capsys, "check", "--seed", "3")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[5] == "FAIL  allocation identities"
        assert [line[:4] for line in lines] == ["PASS"] * 5 + ["FAIL", "PASS"]
