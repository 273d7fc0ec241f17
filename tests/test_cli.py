import io
import json

import pytest

from stratavol import volumes
from stratavol.cli import main
from stratavol.pnum import p_value, partitions_min2


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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

    def test_empty_table_success(self):
        code, text = run_cli(["volumes", "--gmax", "0", "--format", "csv"])
        assert code == 0
        assert text.strip() == "g,n,a_gn"

    def test_json_contains_pi_powers(self):
        code, text = run_cli(["volumes", "--gmax", "1", "--format", "json"])
        rows = json.loads(text)
        assert rows == [{"g": 1, "n": 1, "a_gn": "1/24", "vol": {"coeff": "1/3", "pi_exp": 2}}]

    def test_gmax_guard(self):
        with pytest.raises(SystemExit):
            run_cli(["volumes", "--gmax", "11"])

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

    def test_weight_one_empty(self):
        code, text = run_cli(["pnumbers", "--weight", "1", "--format", "json"])
        assert code == 0
        assert json.loads(text) == []

    def test_weight_guard(self):
        with pytest.raises(SystemExit):
            run_cli(["pnumbers", "--weight", "22"])


class TestSeries:
    def test_coefficients(self):
        code, text = run_cli(["series", "--order", "4", "--format", "json"])
        rows = json.loads(text)
        assert rows[2] == {"t_power": 2, "u_coeffs": ["0", "1/24"]}
        assert rows[3] == {"t_power": 3, "u_coeffs": []}

    def test_order_guard(self):
        with pytest.raises(SystemExit):
            run_cli(["series", "--order", "3"])


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
        code, text = run_cli(
            [
                "count",
                "trees",
                "--black-perimeters",
                "5,1",
                "--white-perimeters",
                "4,2",
            ]
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

    def test_missing_perimeters(self):
        with pytest.raises(SystemExit):
            run_cli(["count", "trees", "--black-perimeters", "3"])

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


class TestVerify:
    def test_fast_suites_pass(self):
        code, text = run_cli(["verify", "bivariate"])
        assert code == 0 and "ok" in text
        code, text = run_cli(["verify", "multivariate", "--format", "json"])
        assert code == 0
        assert json.loads(text)["passed"] is True

    def test_oracle_sts_small(self):
        code, text = run_cli(["verify", "oracle-sts", "--max-squares", "4"])
        assert code == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["verify", "nonsense"])
        assert info.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["volumes", "--frobnicate"])
        assert info.value.code == 2


class TestOutsideState:
    def test_poisoned_cache_file_ignored(self, tmp_path, monkeypatch):
        # A full weight-20 memo file in the format the CLI once read, with
        # p_{4,2} poisoned; no file may change a printed value.
        entries = [
            {"parts": list(parts), "value": str(19 if parts == (4, 2) else p_value(parts))}
            for weight in range(2, 21, 2)
            for parts in partitions_min2(weight)
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
