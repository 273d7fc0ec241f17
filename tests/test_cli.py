import argparse
import csv
import hashlib
import io
import json
import math

import pytest

from stratavol import cli, ribbon, volumes
from stratavol.cli import _check_ribbon_work, build_parser, main
from stratavol.permutation import partitions
from stratavol.pnum import p_value


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def assert_refused(argv, message, capsys):
    """A refused input exits 2 with one error line and no output."""
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def assert_parse_error(argv, message, capsys):
    """argparse turns the input away: exit 2, no output, its error line last."""
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv, out=out)
    assert info.value.code == 2
    assert out.getvalue() == ""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: stratavol")
    assert captured.err.endswith(f" error: {message}\n")


def assert_unrecognized(argv, unread, capsys):
    """A flag the command's leaf does not declare is an unrecognized argument."""
    assert_parse_error(argv, f"unrecognized arguments: {unread}", capsys)


class TestVolumes:
    def test_table_one_csv(self):
        code, text = run_cli(["volumes", "--gmax", "4", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "g,n,a_gn"
        assert len(lines) == 11
        assert "2,2,1/1152" in lines
        assert "4,2,5197/29030400" in lines

    def test_single_row(self):
        code, text = run_cli(["volumes", "--gmax", "1", "--format", "csv"])
        assert code == 0
        assert text.strip().splitlines()[1:] == ["1,1,1/24"]

    def test_json_contains_pi_powers(self):
        code, text = run_cli(["volumes", "--gmax", "1", "--format", "json"])
        rows = json.loads(text)
        assert rows == [{"g": 1, "n": 1, "a_gn": "1/24", "vol": {"coeff": "1/3", "pi_exp": 2}}]

    def test_gmax_guard(self, capsys):
        assert_refused(["volumes", "--gmax", "11"], "--gmax is capped at 10", capsys)

    @pytest.mark.parametrize("gmax", ["0", "-3"])
    def test_gmax_below_one_refused(self, gmax, capsys):
        # the table starts at g = 1, so it would be only a header
        assert_refused(
            ["volumes", "--gmax", gmax, "--format", "csv"], "--gmax must be >= 1", capsys
        )

    def test_float_column(self):
        code, text = run_cli(["volumes", "--gmax", "1", "--format", "csv", "--float"])
        assert code == 0
        header, row = text.splitlines()
        assert header == "g,n,a_gn,vol_float"
        assert row.startswith("1,1,1/24,")
        assert float(row.split(",")[3]) == pytest.approx(math.pi**2 / 3)

    def test_determinism(self):
        first = run_cli(["volumes", "--gmax", "3", "--format", "json"])
        second = run_cli(["volumes", "--gmax", "3", "--format", "json"])
        assert first == second


class TestPnumbers:
    def test_weight_eight_has_eleven_entries(self):
        code, text = run_cli(["pnumbers", "--weight", "8", "--format", "json"])
        entries = json.loads(text)
        assert code == 0
        assert len(entries) == 11
        assert {"parts": [4, 2], "value": "18"} in entries

    def test_weight_two(self):
        code, text = run_cli(["pnumbers", "--weight", "2", "--format", "json"])
        assert json.loads(text) == [{"parts": [2], "value": "1"}]

    @pytest.mark.parametrize("weight", ["1", "0", "-4"])
    def test_weight_below_two_refused(self, weight, capsys):
        # no p-number has weight below 2, so the table would be empty
        assert_refused(
            ["pnumbers", "--weight", weight, "--format", "json"], "--weight must be >= 2", capsys
        )

    def test_weight_guard(self, capsys):
        assert_refused(["pnumbers", "--weight", "22"], "--weight is capped at 20", capsys)


class TestSeries:
    def test_coefficients(self):
        code, text = run_cli(["series", "--order", "4", "--format", "json"])
        rows = json.loads(text)
        assert rows[2] == {"t_power": 2, "u_coeffs": ["0", "1/24"]}
        assert rows[3] == {"t_power": 3, "u_coeffs": []}

    def test_order_guard(self, capsys):
        assert_refused(["series", "--order", "3"], "--order must be even and >= 2", capsys)


class TestFullSizePins:
    # SHA-256 of the whole output at the guard limits, so a change to any
    # a_{g,n} up to g = 10 or any coefficient of C(t,u) to t^20 shows here.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ["volumes", "--gmax", "10", "--format", "json"],
                "7b9842d867572d0b81edbfc1fd475e8e3bf2e8ee8c6c8129826250990e83c3a7",
                id="volumes-json",
            ),
            pytest.param(
                ["volumes", "--gmax", "10", "--format", "csv"],
                "39efd0088290e54632cb866f9006ff012743c4dcc45084444b15e1bcb6e3a84c",
                id="volumes-csv",
            ),
            pytest.param(
                ["series", "--order", "20", "--format", "json"],
                "f396af3a491b1c6c74b7de0cfce523ca3fe3e33a5755d332dc498e01db974072",
                id="series-json",
            ),
        ],
    )
    def test_output_digest(self, argv, digest):
        code, text = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCount:
    def test_ribbon(self):
        code, text = run_cli(
            [
                "count",
                "ribbon",
                "--genus",
                "1",
                "--black-perimeters",
                "4",
                "--white-perimeters",
                "4",
            ]
        )
        assert code == 0 and text.strip() == "1"

    def test_trees(self):
        # trees are the genus-0 family, so count trees takes no --genus
        code, text = run_cli(
            ["count", "trees", "--black-perimeters", "5,1", "--white-perimeters", "4,2"]
        )
        assert code == 0 and text.strip() == "2"

    def test_sts_cumulative(self):
        code, text = run_cli(
            ["count", "sts", "--genus", "1", "--max-squares", "3", "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "g,N,n,count,weighted_count"
        counts = [int(line.split(",")[3]) for line in lines[1:]]
        assert sum(counts) == 8

    def test_missing_perimeters(self, capsys):
        # both perimeter flags are required by the kind's parser
        for kind in ("ribbon", "trees"):
            assert_parse_error(
                ["count", kind, "--black-perimeters", "3"],
                "the following arguments are required: --white-perimeters",
                capsys,
            )

    def test_ribbon_work_guard(self, capsys):
        # 4 graph classes at g = 2 times 60^4 lattice points each
        assert_refused(
            ["count", "ribbon", "--genus", "2", "--black-perimeters", "60",
             "--white-perimeters", "60"],
            "count ribbon would visit up to 51840000 lattice points; the cap is 1000000",
            capsys,
        )

    def test_ribbon_benchmark_inputs_within_budget(self):
        # the benchmark's g = 2 point at perimeter 20 (4 * 20^4 = 640,000) and
        # the worst of its g = 1, k = l = 2 points, whose parts sum to 24
        _check_ribbon_work(2, (20,), (20,))
        _check_ribbon_work(1, (23, 1), (1, 23))

    def test_sts_genus_guard(self, capsys):
        assert_refused(
            ["count", "sts", "--genus", "0"], "--genus must be >= 1 for sts counts", capsys
        )

    def test_sts_genus_required(self, capsys):
        assert_parse_error(
            ["count", "sts"], "the following arguments are required: --genus", capsys
        )

    def test_sts_squares_guard(self, capsys):
        # refused before the census starts, which would run to N = 8 first
        for squares, message in (
            ("0", "--max-squares must be >= 1"),
            ("-1", "--max-squares must be >= 1"),
            ("9", "--max-squares is capped at 8"),
        ):
            assert_refused(
                ["count", "sts", "--genus", "2", "--max-squares", squares], message, capsys
            )

    def test_empty_perimeter_part(self, capsys):
        assert_refused(
            ["count", "trees", "--black-perimeters", ",", "--white-perimeters", "1"],
            "--black-perimeters must be comma-separated integers",
            capsys,
        )

    def test_module_guard_propagates_as_failure(self):
        code, _ = run_cli(
            [
                "count",
                "ribbon",
                "--genus",
                "5",
                "--black-perimeters",
                "2",
                "--white-perimeters",
                "2",
            ]
        )
        assert code == 2

    def test_family_guards(self, capsys):
        # checked in the CLI, before any family is enumerated; trees are genus 0
        assert_refused(
            ["count", "ribbon", "--genus", "-1", "--black-perimeters", "1",
             "--white-perimeters", "1"],
            "need g >= 0, k >= 1, l >= 1",
            capsys,
        )
        assert_refused(
            ["count", "trees", "--black-perimeters", "1,1,1,1,1",
             "--white-perimeters", "1,1,1,1,1"],
            "(g,k,l)=(0,5,5) needs 9 edges; bound is 8",
            capsys,
        )
        assert_refused(
            ["count", "ribbon", "--genus", "5", "--black-perimeters", "2",
             "--white-perimeters", "2"],
            "(g,k,l)=(5,1,1) needs 11 edges; bound is 8",
            capsys,
        )

    @pytest.mark.parametrize(
        "argv, why",
        [
            (["count", "trees", "--black-perimeters", "2,1", "--white-perimeters", "1,2",
              "--genus", "3"],
             "count trees is the genus-0 family; --genus is not one of its flags"),
            (["count", "ribbon", "--genus", "1", "--black-perimeters", "4",
              "--white-perimeters", "4", "--max-squares", "99"],
             "count ribbon does not read --max-squares"),
            (["count", "trees", "--black-perimeters", "5,1", "--white-perimeters", "4,2",
              "--max-squares", "6"],
             "count trees does not read --max-squares"),
            (["count", "sts", "--genus", "1", "--max-squares", "3",
              "--black-perimeters", "5"],
             "count sts does not read --black-perimeters"),
            (["count", "sts", "--genus", "1", "--white-perimeters", "5"],
             "count sts does not read --white-perimeters"),
            (["count", "trees", "--black-perimeters", "1", "--white-perimeters", "1",
              "--genus", "-1"],
             "count trees has no --genus, not even a negative one"),
            (["count", "trees", "--black-perimeters", "5,1", "--white-perimeters", "4,2",
              "--genus", "0"],
             "count trees has no --genus, not even 0"),
        ],
    )
    def test_unread_flags_refused(self, argv, why, capsys):
        # each argv ends with the unread flag and its value
        assert_unrecognized(argv, " ".join(argv[-2:]), capsys)

    def test_infeasible_ribbon_point_skips_work_guard(self):
        # an unbalanced 8-edge point gives 0 before its 176,400 classes are listed
        before = ribbon._enumerate_graphs.cache_info()
        code, text = run_cli(
            ["count", "ribbon", "--genus", "0", "--black-perimeters", "9,9,9,9",
             "--white-perimeters", "9,9,9,9,9"]
        )
        assert code == 0 and text == "0\n"
        assert ribbon._enumerate_graphs.cache_info() == before

    def test_genus_zero_work_guard_lists_no_classes(self):
        # the balanced 8-edge point: the guard takes its work from the
        # 32,000 trees of K_{4,5}, not from the 176,400 classes
        before = ribbon._enumerate_graphs.cache_info()
        for kind in (["ribbon", "--genus", "0"], ["trees"]):
            code, text = run_cli(
                ["count", *kind, "--black-perimeters", "10,10,10,15",
                 "--white-perimeters", "9,9,9,9,9"]
            )
            assert code == 0 and text == "5040\n"
        assert ribbon._enumerate_graphs.cache_info() == before

    @pytest.mark.parametrize("black, white", [("40", "41"), ("5,-5", "0")])
    def test_infeasible_ribbon_point_not_refused(self, black, white):
        # unbalanced, or balanced with a perimeter below 1: no metric, no lattice point
        code, text = run_cli(
            ["count", "ribbon", "--genus", "3", "--black-perimeters", black,
             "--white-perimeters", white]
        )
        assert code == 0 and text == "0\n"

    def test_trees_unbalanced_refused(self, capsys):
        # no tree metric lies off sum L = sum L'; count ribbon prints 0 there
        assert_refused(
            ["count", "trees", "--black-perimeters", "3", "--white-perimeters", "2"],
            "perimeters must balance: sum L = sum L'",
            capsys,
        )
        code, text = run_cli(
            ["count", "ribbon", "--black-perimeters", "3", "--white-perimeters", "2"]
        )
        assert code == 0 and text == "0\n"


class TestVerify:
    def test_fast_suites_pass(self):
        code, text = run_cli(["verify", "bivariate"])
        assert code == 0 and "ok" in text
        code, text = run_cli(["verify", "multivariate", "--format", "json"])
        assert code == 0
        assert json.loads(text)["passed"] is True

    def test_csv_parses(self):
        code, text = run_cli(["verify", "walls", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["check", "passed", "detail"], ["walls", "True", "cells of V_2, V_3"]]

    def test_oracle_sts_small(self):
        code, text = run_cli(["verify", "oracle-sts", "--max-squares", "4"])
        assert code == 0

    def test_oracle_sts_squares_guard(self, capsys, monkeypatch):
        # refused before any suite runs, not clamped to the cap
        monkeypatch.setattr(
            volumes, "verify_bivariate_relation", lambda g: pytest.fail("suite ran")
        )
        for suite in ("oracle-sts", "all"):
            assert_refused(
                ["verify", suite, "--max-squares", "12"], "--max-squares is capped at 8", capsys
            )

    def test_oracle_sts_squares_below_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            volumes, "verify_bivariate_relation", lambda g: pytest.fail("suite ran")
        )
        for suite in ("oracle-sts", "all"):
            for squares in ("0", "-1"):
                assert_refused(
                    ["verify", suite, "--max-squares", squares],
                    "--max-squares must be >= 1",
                    capsys,
                )

    @pytest.mark.parametrize(
        "suite, flag",
        [
            ("bivariate", "--max-squares"),
            ("multivariate", "--max-squares"),
            ("walls", "--max-squares"),
            ("oracle-p", "--max-squares"),
            ("bivariate", "--seed"),
            ("multivariate", "--seed"),
            ("walls", "--seed"),
            ("oracle-sts", "--seed"),
        ],
    )
    def test_unread_flags_refused(self, suite, flag, capsys, monkeypatch):
        # refused before any suite runs
        monkeypatch.setattr(
            volumes, "verify_bivariate_relation", lambda g: pytest.fail("suite ran")
        )
        assert_unrecognized(["verify", suite, flag, "3"], f"{flag} 3", capsys)

    def test_failed_identity_exits_one(self, monkeypatch):
        monkeypatch.setattr(volumes, "verify_bivariate_relation", lambda g: False)
        code, text = run_cli(["verify", "bivariate"])
        assert code == 1
        assert text.startswith("FAIL bivariate")

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["verify", "nonsense"])
        assert info.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["volumes", "--frobnicate"])
        assert info.value.code == 2


class TestFloatFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pnumbers", "--weight", "4"],
            ["series", "--order", "4"],
            ["count", "ribbon", "--genus", "1", "--black-perimeters", "4",
             "--white-perimeters", "4"],
            ["count", "sts", "--genus", "1", "--max-squares", "2"],
            ["verify", "bivariate"],
        ],
    )
    def test_unknown_outside_volumes(self, argv, capsys):
        # only volumes reads --float; elsewhere it is an unknown flag
        assert_unrecognized(argv + ["--float"], "--float", capsys)


def _leaves(parser, path=()):
    """(command path, parser) for each leaf of the parser tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


class TestParserTree:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_defaults_do_not_carry_over(self):
        parser = build_parser()
        assert parser.parse_args(["verify", "oracle-p", "--seed", "3"]).seed == 3
        assert parser.parse_args(["verify", "oracle-p"]).seed == 0

    def test_every_leaf_has_format_and_run(self):
        leaves = dict(_leaves(build_parser()))
        assert len(leaves) == 12  # 3 tables, 3 count kinds, 6 verify suites
        for path, leaf in leaves.items():
            assert "--format" in leaf._option_string_actions, path
            assert callable(leaf.get_default("run")), path

    def test_every_command_function_is_a_leaf_run(self):
        runs = {leaf.get_default("run") for _, leaf in _leaves(build_parser())}
        commands = {f for name, f in vars(cli).items() if name.startswith("cmd_")}
        assert runs == commands


class TestOutsideState:
    def test_poisoned_cache_file_ignored(self, tmp_path, monkeypatch):
        # A full weight-20 memo file in the format the CLI once read, with
        # p_{4,2} poisoned; no file may change a printed value.
        entries = [
            {"parts": list(parts), "value": str(19 if parts == (4, 2) else p_value(parts))}
            for weight in range(2, 21, 2)
            for parts in partitions(weight)
            if not any(part % 2 for part in parts)
        ]
        path = tmp_path / "memo.json"
        path.write_text(json.dumps(entries))
        before = path.read_bytes()
        monkeypatch.setenv("STRATAVOL_CACHE", str(path))
        code, text = run_cli(["pnumbers", "--weight", "8", "--format", "json"])
        assert code == 0
        assert {"parts": [4, 2], "value": "18"} in json.loads(text)
        code, text = run_cli(["volumes", "--gmax", "3", "--format", "csv"])
        assert code == 0
        assert "3,2,1/3840" in text.splitlines()
        assert path.read_bytes() == before


class TestInternalError:
    def test_assertion_exits_three_without_traceback(self, monkeypatch, capsys):
        def broken(g, n):
            raise AssertionError("form mismatch")

        monkeypatch.setattr(volumes, "a_gn", broken)
        code, text = run_cli(["volumes", "--gmax", "2"])
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == "internal error: form mismatch\n"

    def test_package_value_error_exits_three(self, monkeypatch, capsys):
        # A ValueError on accepted input is a fault of the package, not a refusal.
        def broken(g, n):
            raise ValueError("no point of the open wall")

        monkeypatch.setattr(volumes, "a_gn", broken)
        code, text = run_cli(["volumes", "--gmax", "2"])
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == "internal error: no point of the open wall\n"
