"""Command surface: formats, golden outputs, exit statuses, determinism."""

import gc
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import monocoh.asymptotics as asy
import monocoh.cli as cli
import monocoh.takayama as tk
from monocoh.errors import InternalConsistencyError
from monocoh.monomial_core import parse_ideal
from monocoh.takayama import CohomologyTable

import oracles
from conftest import PATH_D11, cycle_ideal, rows_permuted, text_lines, within_alarm

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

    def test_unit_ideal_is_2_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["delta", "--ideal", "1", "--d", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: the complex Delta(I) of the unit ideal is void; "
            "it has no faces\n")


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

    @pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("csv", "csv")])
    def test_two_element_g_golden(self, capsys, fmt, suffix):
        # rows at |G| = 2 under four different G, {1,4} before {2,3}
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1^2*x2, x3*x4^2",
                            "--d", "4", "--i", "2", "--format", fmt)
        assert code == 0 and out == golden(f"cohomology_two_g.{suffix}")

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

    @pytest.mark.parametrize("huge,clamped", [
        ("(99999999999999999999,0)", "(1,0)"),
        ("(-99999999999999999999,0)", "(-1,0)"),
    ])
    def test_at_huge_degree_vector(self, capsys, huge, clamped):
        argv = ["cohomology", "--ideal", "x1*x2", "--d", "2", "--i", "1"]
        code, out = run_cli(capsys, *argv, "--at", huge)
        code_c, out_c = run_cli(capsys, *argv, "--at", clamped)
        assert code == code_c == 0
        assert out == out_c.replace(clamped, huge)

    def test_at_twenty_variables_within_alarm(self, capsys):
        # one corner read of the 2^20 masks and a frame of the faces with
        # at most 3 vertices, not a walk over every face of Δ_a
        ideal, at = "x1*x2, x2*x3", f"({','.join('0' * 20)})"
        with within_alarm(5, "no answer within 5 s at d = 20"):
            dim = tk.cohomology_dim_at(parse_ideal(ideal, 20), 2, (0,) * 20)
            code, out = run_cli(capsys, "cohomology", "--ideal", ideal, "--d",
                                "20", "--i", "2", "--at", at)
        assert dim == 0
        assert code == 0 and out == f"n=1 i=2 a={at} dim=0\n"

    def test_at_twenty_variables_cone_point_lists_no_face(self, capsys,
                                                          monkeypatch):
        # at i = 16 the frame would hold every face of up to 18 vertices;
        # x4..x20 are cone points of the corner flags, which answer 0 first
        ideal, at = "x1*x2, x2*x3", f"({','.join('0' * 20)})"
        listed = []
        flags_homology = tk._flags_homology

        def recording(*args):
            listed.append(args[1:])
            return flags_homology(*args)

        monkeypatch.setattr(tk, "_flags_homology", recording)
        with within_alarm(5, "no answer within 5 s at d = 20, i = 16"):
            dim = tk.cohomology_dim_at(parse_ideal(ideal, 20), 16, (0,) * 20)
            code, out = run_cli(capsys, "cohomology", "--ideal", ideal, "--d",
                                "20", "--i", "16", "--at", at)
        assert dim == 0 and listed == []
        assert code == 0 and out == f"n=1 i=16 a={at} dim=0\n"

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


class TestTableText:
    """The cohomology command's JSON, CSV and text against the reference
    writer of ``oracles``, on computed tables and on tables in any row
    order."""

    CASES = [
        (CYCLE5, 5, "all", "1..3", (), 0),
        (CYCLE5, 5, "1", "2..3", ("--saturated",), 2),
        (PATH_D11, 11, "all", "1..1", (), 2),
        ("x1^2, x2^2", 2, "all", "1..2", ("--saturated",), 0),
        ("x1^2*x2, x2^3*x3", 3, "all", "1..2", (), 32003),
    ]

    @pytest.fixture(scope="class")
    def computed(self) -> list[list[tuple[int, int, CohomologyTable]]]:
        """Each case's tables as ``(n, i, table)``, in the command's order."""
        out = []
        for gens, d, i_arg, powers, extra, char in self.CASES:
            I = parse_ideal(gens, d)
            i_list = list(range(d + 1)) if i_arg == "all" else [int(i_arg)]
            lo, hi = map(int, powers.split(".."))
            tables = []
            for n in range(lo, hi + 1):
                J = asy._power_ideal(I, n, bool(extra), tk.DEFAULT_PATTERN_CAP)
                by_i = ({i: cli._zero_table(i, char) for i in i_list} if J.is_unit
                        else tk.cohomology_tables(J, i_list, char))
                tables += [(n, i, t) for i, t in by_i.items()]
            out.append(tables)
        return out

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_computed_tables(self, capsys, monkeypatch, computed, fmt):
        rng = np.random.default_rng(11)
        scan = tk.cohomology_tables

        def shuffled(*args, **kwargs):
            return {i: rows_permuted(t, rng.permutation(t.dims.size))
                    for i, t in scan(*args, **kwargs).items()}

        for (gens, d, i_arg, powers, extra, char), tables in zip(self.CASES,
                                                                 computed):
            want = text_lines(oracles.reference_cohomology_output(tables, fmt, char))
            argv = ["cohomology", "--ideal", gens, "--d", str(d), "--i", i_arg,
                    "--powers", powers, "--char", str(char), *extra,
                    "--format", fmt]
            code, out = run_cli(capsys, *argv)
            assert code == 0 and text_lines(out) == want
            with monkeypatch.context() as m:
                m.setattr(tk, "cohomology_tables", shuffled)
                code, out = run_cli(capsys, *argv)
            assert code == 0 and text_lines(out) == want

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_any_tables(self, capsys, monkeypatch, writer_tables, fmt):
        # every kind of table the writer tests use, served three per power
        # in place of the scan's
        tables = writer_tables
        chunks = [tables[k:k + 3] for k in range(0, len(tables), 3)]
        served = iter(chunks)
        monkeypatch.setattr(tk, "cohomology_tables",
                            lambda J, i_list, *args, **kwargs:
                            dict(zip(i_list, next(served))))
        code, out = run_cli(capsys, "cohomology", "--ideal", "x1*x2", "--d", "2",
                            "--i", "all", "--powers", f"1..{len(chunks)}",
                            "--format", fmt)
        tables = [(n, i, t) for n, chunk in enumerate(chunks, 1)
                  for i, t in enumerate(chunk)]
        assert code == 0
        assert text_lines(out) == text_lines(
            oracles.reference_cohomology_output(tables, fmt, 0))


class TestSequenceCommands:
    BIPARTITE_INDEG = ("indeg", "--ideal", "x1*x3, x1*x4, x2*x3, x2*x4",
                       "--d", "4", "--i", "1", "--powers", "1..3")

    @pytest.mark.parametrize("fmt,suffix", [
        ("text", "txt"), ("json", "json"), ("csv", "csv")])
    def test_indeg_bipartite_golden(self, capsys, fmt, suffix):
        code, out = run_cli(capsys, *self.BIPARTITE_INDEG, "--format", fmt)
        assert code == 0 and out == golden(f"indeg_bipartite.{suffix}")

    def test_dichotomy_cycle_text_golden(self, capsys):
        code, out = run_cli(capsys, "dichotomy", "--ideal", CYCLE5, "--d", "5",
                            "--i", "1", "--powers", "1..4", "--saturated")
        assert code == 0 and out == golden("dichotomy_cycle5.txt")

    @pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json")])
    def test_reg_golden(self, capsys, fmt, suffix):
        code, out = run_cli(capsys, "reg", "--ideal", "x1*x2", "--d", "2",
                            "--powers", "1..6", "--format", fmt)
        assert code == 0 and out == golden(f"reg_edge.{suffix}")

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
        ["delta", "--char", "4"],
        ["delta", "--powers", "3..1"],
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

    def test_dichotomy_csv_cap_keeps_earlier_rows(self, capsys):
        # the rows of the powers before the cap trip stream out, as indeg's
        # do; the golden is the full run, without the cap
        code = cli.main(["dichotomy", "--ideal", CYCLE5, "--d", "5",
                         "--i", "1", "--powers", "1..4", "--pattern-cap", "400",
                         "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: power n=2: ")
        full = golden("dichotomy_cycle5_powers.csv").splitlines(keepends=True)
        assert captured.out == "".join(full[:2])
        code, out = run_cli(capsys, "dichotomy", "--ideal", CYCLE5, "--d", "5",
                            "--i", "1", "--powers", "1..4", "--format", "csv")
        assert code == 0 and out == "".join(full)

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_at_cap_keeps_earlier_rows(self, capsys, fmt):
        # C_5^2 has 243 cells and C_5^3 1,024: the rows of n = 1, 2 stream
        # out before the trip, as the uncapped run prints them
        argv = ["cohomology", "--ideal", CYCLE5, "--d", "5", "--i", "1",
                "--at", "(0,0,0,0,0)", "--format", fmt]
        code = cli.main(argv + ["--powers", "1..4", "--pattern-cap", "400"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: power n=3, i=1: ")
        code, out = run_cli(capsys, *argv, "--powers", "1..2")
        assert code == 0 and len(out.splitlines()) == (3 if fmt == "csv" else 2)
        assert captured.out == out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, where", [
        (["indeg", "--i", "1"], "n=3, i=1"),
        (["dichotomy", "--i", "1"], "n=3, i=1"),
        (["reg"], "n=3"),
    ], ids=["indeg", "dichotomy", "reg"])
    def test_text_and_json_refuse_a_power_before_the_first(
            self, capsys, monkeypatch, argv, where, fmt):
        # C_5^3's power box has 4^5 = 1,024 cells: text and JSON refuse it
        # before any power is computed, where CSV streams the row of n = 1
        # and trips on the table of n = 2 (see the dichotomy CSV test above)
        built = []
        monkeypatch.setattr(asy, "power", lambda *a: built.append(a))
        code = cli.main(argv + ["--ideal", CYCLE5, "--d", "5", "--powers",
                                "1..4", "--pattern-cap", "400", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and built == []
        assert captured.err == (f"error: power {where}: power box of 1024 "
                                "cells exceeds the cap 400\n")

    @pytest.mark.parametrize("extra", [
        ["--powers", "1..4000000000"],
        ["--powers", "1..4000000000", "--at", "(0,0,0,0)"],
        ["--powers", "3..4000000000"],
    ], ids=["table", "at", "from-3"])
    def test_cohomology_json_refuses_a_power_before_the_first(
            self, capsys, extra):
        # JSON prints only once the whole range is done; x1^2 has a power
        # box of 2n + 1 cells, over the default cap from n = 5,000,000
        with within_alarm(5, "cohomology JSON ran the powers before the check"):
            code = cli.main(["cohomology", "--ideal", "x1^2", "--d", "4",
                             "--i", "0", "--format", "json", *extra])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("error: power n=5000000, i=0: power box of "
                                "10000001 cells exceeds the cap 10000000\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_text_and_json_refuse_an_exponent_overflow_first(self, capsys, fmt):
        # CSV would trip on the table of n = 1 first
        code = cli.main(["indeg", "--ideal", "x1^4611686018427387904*x2",
                         "--d", "2", "--i", "0", "--powers", "1..3",
                         "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: exponent overflow: x1 ")
        assert "in I^2," in captured.err

    @pytest.mark.parametrize("i", ["0", "2"])
    def test_dichotomy_csv_checks_i_before_any_row(self, capsys, i):
        code = cli.main(["dichotomy", "--ideal", "x1*x2", "--d", "2",
                         "--i", i, "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "dim R/I = 1" in captured.err

    @pytest.mark.parametrize("argv", [
        ["cohomology", "--i", "0"],
        ["indeg", "--i", "1"],
        ["dichotomy", "--i", "1"],
        ["reg"],
    ], ids=lambda a: a[0])
    def test_cap_on_first_power_prints_nothing(self, capsys, argv):
        code = cli.main(argv + ["--ideal", "x1*x2", "--d", "2",
                                "--pattern-cap", "1", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: power n=1: ")

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

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("cap", ["-5", "0"])
    @pytest.mark.parametrize("argv", [
        ["delta"],
        ["cohomology", "--i", "0"],
        ["cohomology", "--i", "all"],
        ["cohomology", "--i", "0", "--at", "(0,0)"],
        ["indeg", "--i", "1"],
        ["dichotomy", "--i", "1"],
        ["reg"],
    ], ids=lambda a: "-".join(a).replace("--", ""))
    def test_nonpositive_pattern_cap_is_2(self, capsys, argv, cap, fmt):
        code = cli.main(argv + ["--ideal", "x1*x2", "--d", "2",
                                "--pattern-cap", cap, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: --pattern-cap must be at least 1, got {cap}\n")

    def test_internal_consistency_is_4(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise InternalConsistencyError("forced for the exit-path test")
        monkeypatch.setattr(cli.tk, "cohomology_tables", boom)
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

    def test_reruns_leave_no_cyclic_garbage(self, capsys):
        # the parser is built once; a parser per call is a web of cycles
        argv = ["reg", "--ideal", "x1*x2", "--d", "2", "--powers", "1..4"]
        run_cli(capsys, *argv)
        gc.collect()
        run_cli(capsys, *argv)
        assert gc.collect() == 0

    def test_console_script_installed(self):
        # the child imports the package this suite imports, installed or
        # found through pytest's pythonpath
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "monocoh.cli", "delta", "--ideal",
             "x1*x2", "--d", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout == "1\n2\n"

    def test_import_loads_no_numpy_submodule_beyond_numpy(self):
        # every command pays the import: a lazily loaded numpy submodule
        # (numpy.ma costs about 10 ms in a fresh interpreter) shows in the
        # start-up time of each run
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = (
            "import sys\n"
            "def loaded():\n"
            "    return {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
            "import numpy\n"
            "bare = loaded()\n"
            "import monocoh.cli\n"
            "print(sorted(loaded() - bare))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def random_argv(rng: random.Random) -> list[str]:
    """One command line from a small grammar: each value is drawn valid most
    of the time and odd otherwise (out of range, malformed, at or past the
    int64 limit). Every power range is bounded (at most 1..3), so no draw
    asks for unbounded work."""

    def draw(valid, odd, p_odd=0.1):
        return rng.choice(odd if rng.random() < p_odd else valid)

    command = draw(["delta", "cohomology", "indeg", "dichotomy", "reg"],
                   ["nope", ""], 0.03)
    argv = [command]
    ideal = draw(
        ["x1*x2, x2*x3", "x1*x3, x2*x4", "x1*x2*x3*x4", "x1^3*x2, x2^2*x3",
         "x1^2*x2*x3, x1*x2^2, x1*x3^2", "x1, x2^2", "x1^2, x2^2, x3, x1*x2",
         "0", "1", "x1*x2, x3^2*x4, x1*x4"],
        ["", ",", "x0", "x1^0", "x1 x2", "x1*", "x5", "x1^9223372036854775807",
         "x1^9223372036854775808", "x1^4611686018427387904*x2",
         "x1^1000000000, x2"], 0.2)
    if rng.random() < 0.3:
        # a random ideal in four variables, exponents at most 3
        ideal = ", ".join(
            "*".join(f"x{j}^{rng.randint(1, 3)}"
                     for j in rng.sample(range(1, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.97:
        argv += ["--ideal", ideal]
    if rng.random() < 0.97:
        argv += ["--d", draw(["4"], ["-1", "0", "1", "2", "20", "21", "x"])]
    if command in ("cohomology", "indeg", "dichotomy") or rng.random() < 0.05:
        i_values = ["0", "1", "2", "3"] + (["all"] if command == "cohomology" else [])
        argv += ["--i", draw(i_values, ["-1", "5", "x", "all"])]
    if rng.random() < 0.4:
        argv += ["--char", draw(["0", "2", "3", "32003", "2147483647"],
                                ["4", "-1", "1", "2147483659", "q"])]
    if rng.random() < 0.6:
        argv += ["--powers", draw(["1..1", "1..2", "1..3", "2..3", "2..2"],
                                  ["0..2", "3..1", "1..x", "5"])]
    if rng.random() < 0.3:
        argv += ["--pattern-cap", draw(["1", "10", "100", "400", "100000"],
                                       ["0", "-5", "z"], 0.2)]
    if command == "cohomology" and rng.random() < 0.2:
        argv += ["--at", draw(["(-1,0,2,0)", "(0,0,0,0)", "(-3,-3,-3,-3)",
                               "(1,-1,0,2)"], ["(1,-1)", "()", "(x)", "1,2"])]
    if rng.random() < 0.3:
        argv.append("--saturated")
    if rng.random() < 0.6:
        argv += ["--format", draw(["text", "json", "csv"], ["xml"], 0.05)]
    return argv


class TestSeededFuzz:
    """Every accepted input gets an answer or a documented exit status."""

    CALLS = 300
    ALARM_S = 5
    # the last stderr line of a failed command: ``error: ...`` from the
    # package, or ``monocoh <command>: error: ...`` from argparse
    ERROR_LINE = re.compile(r"(monocoh( \w+)?: )?error: ")

    @staticmethod
    def fixed_cases() -> list[tuple[list[str], int, int]]:
        """(argv, exit status, stdout lines) of the commands run before the
        seeded draws: the power boxes of C_7^10 (19,487,171 cells) and of
        C_9^5 (10,077,696) are refused at the default cap and built under a
        larger one, and a text sequence over four billion powers of x1^2 is
        refused before its first power, at n = 5,000,000."""
        cases = [(["indeg", "--ideal", "x1^2", "--d", "4", "--powers",
                   "1..4000000000", "--i", "0", "--format", "text",
                   "--saturated"], 3, 0)]
        for d, n, extra, lines in ((7, 10, [], 48049),
                                   (9, 5, ["--saturated"], 3589)):
            argv = ["cohomology", "--ideal", cycle_ideal(d).generators_str(),
                    "--d", str(d), "--i", "1", "--powers", f"{n}..{n}",
                    "--format", "csv", *extra]
            cases += [(argv, 3, 0),
                      (argv + ["--pattern-cap", "40000000"], 0, lines)]
        return cases

    # dichotomy warns when no drawn power has finite length
    @pytest.mark.filterwarnings("ignore:no power in the computed range")
    def test_exit_codes_and_streams(self, capsys):
        rng = random.Random(20261019)

        def run(argv: list[str]) -> tuple[int, str]:
            with within_alarm(self.ALARM_S,
                              f"no exit within {self.ALARM_S} s: {argv}"):
                code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3, 4), (argv, code, err)
            if code == 2:
                assert out == "", argv
            if code:
                last = err.rstrip("\n").rsplit("\n", 1)[-1]
                assert self.ERROR_LINE.match(last), (argv, err)
            if code == 3:
                assert "exceeds the cap" in last, (argv, err)
            return code, out

        codes = []
        for argv, code, lines in self.fixed_cases():
            got, out = run(argv)
            assert (got, len(out.splitlines())) == (code, lines), argv
        for _ in range(self.CALLS):
            codes.append(run(random_argv(rng))[0])
        # the grammar reaches success, usage errors and the cap
        assert {0, 2, 3} <= set(codes), sorted(set(codes))
        assert codes.count(0) >= 100, codes.count(0)
