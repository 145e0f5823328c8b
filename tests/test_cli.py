"""Command surface: formats, golden outputs, exit statuses, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import monocoh.cli as cli
import monocoh.takayama as tk
from monocoh.errors import InternalConsistencyError
from monocoh.takayama import CohomologyTable

GOLDEN = Path(__file__).parent / "golden"
CYCLE5 = "x1*x3, x1*x4, x2*x4, x2*x5, x3*x5"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestDelta:
    def test_cycle_golden(self, capsys):
        code, out = run_cli(capsys, "delta", "--ideal", CYCLE5, "--d", "5")
        assert code == 0 and out == golden("delta_cycle5.txt")

    def test_irrelevant_marker(self, capsys):
        code, out = run_cli(capsys, "delta", "--ideal", "x1", "--d", "1")
        assert code == 0 and out == "{}\n"

    def test_zero_ideal_full_simplex(self, capsys):
        code, out = run_cli(capsys, "delta", "--ideal", "0", "--d", "3")
        assert code == 0 and out == "1,2,3\n"

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "delta", "--ideal", "x1*x2", "--d", "2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out) == {"d": 2, "facets": [[1], [2]]}


class TestCohomology:
    def test_text_golden(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                            "--d", "2", "--i", "1", "--powers", "1..1")
        assert code == 0 and out == golden("cohomology_edge.txt")

    def test_json_golden_and_round_trip(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                            "--d", "2", "--i", "1", "--format", "json")
        assert code == 0 and out == golden("cohomology_edge.json")
        payload = json.loads(out)
        t = CohomologyTable.from_dict(payload[0]["table"])
        assert t == tk.cohomology_table(
            cli.mc.parse_ideal("x1*x2", 2), 1, 0)

    def test_csv_golden(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                            "--d", "2", "--i", "1", "--format", "csv")
        assert code == 0 and out == golden("cohomology_edge.csv")

    def test_empty_table_exits_zero(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal",
                            "x1^2, x1*x2, x2^2", "--d", "2", "--i", "1")
        assert code == 0
        assert "entries=0" in out

    def test_i_zero_on_max_ideal(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1, x2",
                            "--d", "2", "--i", "0")
        assert code == 0
        assert "G={} a+=(0,0) dim=1" in out

    def test_i_all(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                            "--d", "2", "--i", "all", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [e["table"]["i"] for e in payload] == [0, 1, 2]

    def test_at_degree_vector(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                            "--d", "2", "--i", "1", "--at", "(-3,0)")
        assert code == 0 and out == "n=1 i=1 a=(-3,0) dim=1\n"

    def test_at_length_mismatch(self, capsys):
        code, _ = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                          "--d", "2", "--i", "1", "--at", "(1,2,3)")
        assert code == 2

    def test_ideal_file(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("x1*x2\nx2^3\n")
        code, out = run_cli(capsys, "cohomology", "--ideal-file", str(f),
                            "--d", "2", "--i", "1")
        assert code == 0

    def test_saturated_flag(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--ideal", CYCLE5,
                            "--d", "5", "--i", "1", "--powers", "2..2",
                            "--saturated", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["table"]["entries"] == []

    # (x1^2, x2) is primary to the maximal ideal: every power saturates to
    # the unit ideal, so each table is that of the zero module
    SATURATES_TO_UNIT = ("cohomology", "--ideal", "x1^2, x2", "--d", "2",
                         "--saturated")

    def test_saturated_unit_power_text(self, capsys):
        code, out = run_cli(capsys, *self.SATURATES_TO_UNIT, "--i", "0")
        assert code == 0
        assert out == "# n=1 i=0 char=0 finite_length=true entries=0\n"

    def test_saturated_unit_power_json(self, capsys):
        code, out = run_cli(capsys, *self.SATURATES_TO_UNIT, "--i", "0",
                            "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"n": 1, "table": {
            "i": 0, "char": 0, "finite_length": True, "entries": []}}]

    def test_saturated_unit_power_csv(self, capsys):
        code, out = run_cli(capsys, *self.SATURATES_TO_UNIT, "--i", "0",
                            "--format", "csv")
        assert code == 0
        assert out == "n,i,char,finite_length,G,a_plus,dim\n"

    def test_saturated_unit_power_i_all(self, capsys):
        code, out = run_cli(capsys, *self.SATURATES_TO_UNIT, "--i", "all",
                            "--powers", "1..2", "--format", "json")
        assert code == 0
        assert [(e["n"], e["table"]) for e in json.loads(out)] == [
            (n, {"i": i, "char": 0, "finite_length": True, "entries": []})
            for n in (1, 2) for i in (0, 1, 2)]

    def test_saturated_unit_power_at(self, capsys):
        code, out = run_cli(capsys, *self.SATURATES_TO_UNIT, "--i", "all",
                            "--at", "(-1,0)")
        assert code == 0
        assert out == "".join(
            f"n=1 i={i} a=(-1,0) dim=0\n" for i in (0, 1, 2))

    def test_at_on_unit_ideal_is_2(self, capsys):
        code = cli.main(["cohomology", "--ideal", "1", "--d", "2", "--i", "0",
                         "--at", "(0,0)", "--saturated"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""


class TestSequenceCommands:
    def test_indeg_csv_golden(self, capsys):
        code, out = run_cli(capsys, "indeg", "--ideal", "x1*x2", "--d", "2",
                            "--i", "1", "--powers", "1..3", "--format", "csv")
        assert code == 0 and out == golden("indeg_edge.csv")

    def test_dichotomy_cycle_csv_golden(self, capsys):
        code, out = run_cli(capsys, "dichotomy", "--ideal", CYCLE5, "--d", "5",
                            "--i", "1", "--powers", "1..4", "--saturated",
                            "--format", "csv")
        assert code == 0 and out == golden("dichotomy_cycle5.csv")

    def test_dichotomy_bipartite_json_golden(self, capsys):
        code, out = run_cli(capsys, "dichotomy", "--ideal",
                            "x1*x3, x1*x4, x2*x3, x2*x4", "--d", "4",
                            "--i", "1", "--powers", "1..3", "--format", "json")
        assert code == 0 and out == golden("dichotomy_bipartite.json")
        payload = json.loads(out)
        assert payload["verdict"]["case"] == "CASE1"

    def test_reg_csv_golden(self, capsys):
        code, out = run_cli(capsys, "reg", "--ideal", "x1*x2", "--d", "2",
                            "--powers", "1..6", "--format", "csv")
        assert code == 0 and out == golden("reg_edge.csv")

    def test_reg_short_range_no_fit(self, capsys):
        code, out = run_cli(capsys, "reg", "--ideal", "x1*x2", "--d", "2",
                            "--powers", "1..3", "--format", "csv")
        assert code == 0
        assert out.endswith("# fit: none\n")

    def test_indeg_text_has_ratio_line(self, capsys):
        code, out = run_cli(capsys, "indeg", "--ideal",
                            "x1*x3, x1*x4, x2*x3, x2*x4", "--d", "4",
                            "--i", "1", "--powers", "1..3")
        assert code == 0
        assert "# indeg/n estimates: min=0 last=0" in out


class TestExitCodes:
    def test_syntax_error_is_2(self, capsys):
        code, _ = run_cli(capsys, "cohomology", "--ideal", "x1*",
                          "--d", "2", "--i", "1")
        assert code == 2

    def test_unit_ideal_is_2(self, capsys):
        code, _ = run_cli(capsys, "cohomology", "--ideal", "1",
                          "--d", "2", "--i", "1")
        assert code == 2

    def test_bad_i_is_2(self, capsys):
        code, _ = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                          "--d", "2", "--i", "7")
        assert code == 2

    def test_bad_powers_is_2(self, capsys):
        code, _ = run_cli(capsys, "indeg", "--ideal", "x1*x2", "--d", "2",
                          "--i", "1", "--powers", "3..1")
        assert code == 2

    def test_huge_exponent_is_2(self, capsys):
        code = cli.main(["delta", "--ideal", "x1^99999999999999999999",
                         "--d", "2"])
        err = capsys.readouterr().err
        assert code == 2 and "exceeds" in err

    def test_power_exponent_overflow_is_2(self, capsys):
        # x1^(2**62) squared wraps int64; the message names the overflow
        code = cli.main(["cohomology", "--ideal", "x1^4611686018427387904*x2",
                         "--d", "2", "--i", "1", "--powers", "2..2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exponent overflow: x1" in captured.err
        assert "int64" in captured.err

    @pytest.mark.parametrize("argv", [
        ["cohomology", "--i", "1", "--char", "4"],
        ["cohomology", "--i", "all", "--char", "4"],
        ["indeg", "--i", "1", "--char", "4"],
        ["indeg", "--i", "9"],
        ["indeg", "--i", "1", "--powers", "2..3"],
        ["reg", "--char", "4"],
        ["reg", "--powers", "0..2"],
    ], ids=lambda a: "-".join(a).replace("--", ""))
    def test_rejected_command_prints_nothing(self, capsys, argv):
        code = cli.main(argv + ["--ideal", "x1*x2", "--d", "2",
                                "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_char_above_bound_is_2(self, capsys):
        code = cli.main(["cohomology", "--ideal", "x1*x2", "--d", "2",
                         "--i", "1", "--char", "4294967311"])
        err = capsys.readouterr().err
        assert code == 2 and "2**31 - 1" in err

    def test_unknown_command_is_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_file_is_2(self, capsys):
        code, _ = run_cli(capsys, "cohomology", "--ideal-file",
                          "/nonexistent/path", "--d", "2", "--i", "1")
        assert code == 2

    def test_cap_is_3_and_names_n_i_cap(self, capsys):
        code = cli.main(["cohomology", "--ideal", CYCLE5, "--d", "5",
                         "--i", "1", "--powers", "3..3",
                         "--pattern-cap", "10"])
        err = capsys.readouterr().err
        assert code == 3
        assert "n=3" in err and "i=1" in err and "10" in err

    def test_cap_between_degrees_is_3_before_any_scan(self, capsys,
                                                      monkeypatch):
        # C_5 has rho = 1: i=0 scans 32 patterns, i=1 scans 112
        scanned = []
        monkeypatch.setattr(cli.tk._kernels, "scan_face_masks",
                            lambda *a, **k: scanned.append(a))
        code = cli.main(["cohomology", "--ideal", CYCLE5, "--d", "5",
                         "--i", "all", "--pattern-cap", "100"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and scanned == []
        assert "n=1" in captured.err and "i=1" in captured.err
        assert "cap 100" in captured.err

    def test_internal_consistency_is_4(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise InternalConsistencyError("forced for the exit-path test")
        monkeypatch.setattr(cli.tk, "cohomology_table", boom)
        code, _ = run_cli(capsys, "cohomology", "--ideal", "x1*x2",
                          "--d", "2", "--i", "1")
        assert code == 4

    def test_help_is_0(self, capsys):
        assert cli.main(["--help"]) == 0


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["cohomology", "--ideal", CYCLE5, "--d", "5", "--i", "1",
                "--powers", "1..2", "--saturated", "--format", "json"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "monocoh.cli", "delta", "--ideal",
             "x1*x2", "--d", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "1\n2\n"
