"""Command-line surface: batch computation with text, JSON, and CSV output.

Sequence commands stream one CSV row per power as it is computed; JSON
output is buffered and emitted once at the end. For a fixed command line
the output is byte-identical across runs.

Exit status: 0 success, 2 usage or parse error, 3 resource cap exceeded,
4 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import asymptotics as asy
from . import monomial_core as mc
from . import takayama as tk
from .errors import (
    IdealSyntaxError,
    InternalConsistencyError,
    ResourceCapError,
    UnitIdealError,
)
from .simplicial import _validate_char, stanley_reisner_complex
from .takayama import DEFAULT_PATTERN_CAP


def _parse_powers(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"powers must look like 'a..b', got {text!r}")
    a, b = int(parts[0]), int(parts[1])
    if not 1 <= a <= b:
        raise ValueError(f"powers range {text!r} is empty or starts below 1")
    return a, b


def _parse_degree_vector(text: str, d: int) -> tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(
            f"degree vector must be parenthesized like '(-1,0,2)', got {text!r}"
        )
    parts = [p.strip() for p in s[1:-1].split(",")]
    if parts == [""]:
        parts = []
    vec = tuple(int(p) for p in parts)
    if len(vec) != d:
        raise ValueError(f"degree vector has {len(vec)} components, expected {d}")
    return vec


def _load_ideal(args: argparse.Namespace) -> mc.MonomialIdeal:
    if args.ideal is not None:
        src = args.ideal
    else:
        src = Path(args.ideal_file).read_text()
    return mc.parse_ideal(src, args.d)


def _checked_inputs(
    args: argparse.Namespace, module: bool = True
) -> tuple[mc.MonomialIdeal, int, int]:
    """The ideal and the power range, with the ideal (a module when
    ``module``, else not the unit ideal) and the characteristic validated, so
    a rejected command writes no output."""
    I = _load_ideal(args)
    if module:
        tk._require_module(I)
    else:
        tk._require_not_unit(I)
    lo, hi = _parse_powers(args.powers)
    _validate_char(args.char)
    return I, lo, hi


def _sequence_inputs(args: argparse.Namespace) -> tuple[mc.MonomialIdeal, int]:
    """The validated ideal and the top power of a sequence command."""
    I, lo, hi = _checked_inputs(args)
    if lo != 1:
        raise ValueError(
            "sequence commands need a contiguous range from 1, e.g. '1..4'"
        )
    tk._validate_i(args.d, args.i)
    return I, hi


def _add_common(p: argparse.ArgumentParser, powers_default: str) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ideal", help="inline generator list, e.g. 'x1*x2, x2^3'")
    group.add_argument("--ideal-file", help="path to a file holding the generators")
    p.add_argument("--d", type=int, required=True, help="number of variables")
    p.add_argument("--char", type=int, default=0, help="field characteristic (0 or prime)")
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
    )
    p.add_argument(
        "--pattern-cap",
        type=int,
        default=DEFAULT_PATTERN_CAP,
        help="abort if a single table would scan more degree patterns than this",
    )
    p.add_argument(
        "--powers",
        default=powers_default,
        help="power range 'a..b' (inclusive, 1-based)",
    )
    p.add_argument(
        "--saturated",
        action="store_true",
        help="work with the saturation of each power",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocoh",
        description="Graded local cohomology of monomial quotients via "
        "degree-complex homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser(
        "delta", help="facets of the full complex Delta(I) (from the radical)"
    )
    _add_common(p_delta, "1..1")

    p_coh = sub.add_parser(
        "cohomology", help="graded dimension tables of H^i_m(R/I^n)"
    )
    _add_common(p_coh, "1..1")
    p_coh.add_argument(
        "--i", required=True, help="cohomological degree, an integer or 'all'"
    )
    p_coh.add_argument(
        "--at",
        default=None,
        help="evaluate a single degree vector like '(-1,0,2)' instead of the table",
    )

    p_indeg = sub.add_parser("indeg", help="indeg/topdeg/regularity rows over powers")
    _add_common(p_indeg, "1..1")
    p_indeg.add_argument("--i", required=True, type=int, help="cohomological degree")

    p_dich = sub.add_parser(
        "dichotomy", help="per-power indeg consistency with the two-case bound"
    )
    _add_common(p_dich, "1..1")
    p_dich.add_argument("--i", required=True, type=int, help="cohomological degree")

    p_reg = sub.add_parser(
        "reg", help="regularity sequence over powers and its linear fit"
    )
    _add_common(p_reg, "1..4")

    return parser


def _emit(line: str) -> None:
    print(line, flush=True)


def _cmd_delta(args: argparse.Namespace) -> int:
    I = _load_ideal(args)
    K = stanley_reisner_complex(mc.radical(I))
    if args.fmt == "json":
        _emit(json.dumps({"d": K.d, "facets": [list(f) for f in K.facets]},
                         separators=(",", ":")))
    elif args.fmt == "csv":
        _emit("facet")
        for f in K.facets:
            _emit(";".join(str(v) for v in f))
    else:
        _emit(K.text_form())
    return 0


def _requested_is(args: argparse.Namespace, d: int) -> list[int]:
    if args.i == "all":
        return list(range(d + 1))
    return [tk._validate_i(d, int(args.i))]


def _power_ideal(I: mc.MonomialIdeal, n: int, saturated: bool) -> mc.MonomialIdeal:
    J = mc.power(I, n)
    if saturated:
        J = mc.saturate_irrelevant(J)
    return J


def _zero_table(i: int, char: int) -> tk.CohomologyTable:
    """The table of H^i_m(R/J) when J is the unit ideal: the saturation of
    an irrelevant-primary power, whose quotient is the zero module."""
    return tk.CohomologyTable(i=i, char=char, entries={}, rho=(), finite_length=True)


def _cmd_cohomology(args: argparse.Namespace) -> int:
    I, lo, hi = _checked_inputs(args, module=args.at is None)
    i_list = _requested_is(args, args.d)
    if args.at is not None:
        a = _parse_degree_vector(args.at, args.d)
        results = []
        for n in range(lo, hi + 1):
            J = _power_ideal(I, n, args.saturated)
            for i in i_list:
                dim = 0 if J.is_unit else tk.cohomology_dim_at(J, i, a, args.char)
                results.append((n, i, dim))
        if args.fmt == "json":
            _emit(json.dumps(
                [{"n": n, "i": i, "a": list(a), "dim": dim}
                 for n, i, dim in results],
                separators=(",", ":")))
        elif args.fmt == "csv":
            _emit("n,i,char,a,dim")
            for n, i, dim in results:
                _emit(f"{n},{i},{args.char},"
                      f"{';'.join(str(v) for v in a)},{dim}")
        else:
            for n, i, dim in results:
                _emit(f"n={n} i={i} a=({','.join(str(v) for v in a)}) dim={dim}")
        return 0

    buffered = []
    if args.fmt == "csv":
        _emit("n,i,char,finite_length,G,a_plus,dim")
    for n in range(lo, hi + 1):
        J = _power_ideal(I, n, args.saturated)
        try:
            if J.is_unit:
                tables = {i: _zero_table(i, args.char) for i in i_list}
            elif args.i == "all":
                tables = tk.cohomology_tables(
                    J, i_list, args.char, pattern_cap=args.pattern_cap)
            else:
                tables = {i: tk.cohomology_table(
                    J, i, args.char, pattern_cap=args.pattern_cap) for i in i_list}
        except ResourceCapError as exc:
            raise ResourceCapError(
                f"power n={n}: {exc}", required=exc.required, cap=exc.cap
            ) from exc
        for i, table in tables.items():
            if args.fmt == "json":
                buffered.append({"n": n, "table": table.to_dict()})
            elif args.fmt == "csv":
                fl = str(table.finite_length).lower()
                for pat, dim in table.sorted_entries():
                    g = ";".join(str(v) for v in pat.G)
                    ap = ";".join(str(v) for v in pat.a_plus)
                    _emit(f"{n},{i},{args.char},{fl},{g},{ap},{dim}")
            else:
                _emit(f"# n={n} i={i} char={args.char} "
                      f"finite_length={str(table.finite_length).lower()} "
                      f"entries={len(table.entries)}")
                for pat, dim in table.sorted_entries():
                    g = "{" + ",".join(str(v) for v in pat.G) + "}"
                    ap = "(" + ",".join(str(v) for v in pat.a_plus) + ")"
                    _emit(f"G={g} a+={ap} dim={dim}")
    if args.fmt == "json":
        _emit(json.dumps(buffered, separators=(",", ":")))
    return 0


def _sequence_report(args: argparse.Namespace) -> asy.PowerSequenceReport:
    I, hi = _sequence_inputs(args)
    return asy.power_sequence(
        I,
        args.i,
        hi,
        saturated=args.saturated,
        char=args.char,
        pattern_cap=args.pattern_cap,
    )


def _cmd_indeg(args: argparse.Namespace) -> int:
    if args.fmt == "csv":
        # recompute row by row so output streams as powers finish
        I, hi = _sequence_inputs(args)
        _emit(asy.CSV_HEADER)
        rows = []
        for n in range(1, hi + 1):
            row, _ = asy._row_for_power(
                I, n, args.i, args.saturated, args.char, args.pattern_cap
            )
            rows.append(row)
            sat = str(args.saturated).lower()
            fl = str(row.finite_length).lower()
            _emit(f"{n},{args.i},{args.char},{sat},{fl},"
                  f"{row.indeg},{row.topdeg},{row.reg}")
        report = asy.PowerSequenceReport(
            ideal=I, i=args.i, char=args.char, saturated=args.saturated,
            rows=tuple(rows), n_max=hi,
        )
        _maybe_ratio_comment(report)
        return 0
    report = _sequence_report(args)
    if args.fmt == "json":
        _emit(json.dumps(report.to_dict(), separators=(",", ":")))
    else:
        _emit(f"# i={report.i} char={report.char} "
              f"saturated={str(report.saturated).lower()}")
        for r in report.rows:
            _emit(f"n={r.n} indeg={r.indeg} topdeg={r.topdeg} "
                  f"finite_length={str(r.finite_length).lower()} reg={r.reg}")
        try:
            lo_est, last = asy.ratio_summary(report)
            _emit(f"# indeg/n estimates: min={lo_est} last={last} "
                  "(finite-sample only)")
        except ValueError:
            pass
    return 0


def _maybe_ratio_comment(report: asy.PowerSequenceReport) -> None:
    try:
        lo_est, last = asy.ratio_summary(report)
    except ValueError:
        return
    _emit(f"# indeg/n estimates: min={lo_est} last={last} (finite-sample only)")


def _cmd_dichotomy(args: argparse.Namespace) -> int:
    I = _load_ideal(args)
    lo, hi = _parse_powers(args.powers)
    if lo != 1:
        raise ValueError(
            "sequence commands need a contiguous range from 1, e.g. '1..4'"
        )
    verdict, report = asy.dichotomy_report(
        I,
        args.i,
        hi,
        char=args.char,
        saturated=args.saturated,
        pattern_cap=args.pattern_cap,
    )
    if args.fmt == "json":
        _emit(json.dumps(
            {"verdict": verdict.to_dict(), "report": report.to_dict()},
            separators=(",", ":")))
    elif args.fmt == "csv":
        _emit(asy.CSV_HEADER)
        for line in report.csv_rows():
            _emit(line)
        _emit(f"# case={verdict.case} h_tilde_dim={verdict.h_tilde_dim} "
              f"per_n_consistent={str(verdict.per_n_consistent).lower()} "
              f"remark44_applies={str(verdict.remark44_applies).lower()} "
              f"certified_n={';'.join(str(n) for n in verdict.certified_n)}")
        for n, observed, constraint in verdict.violations:
            _emit(f"# violation: n={n} observed={observed} expected={constraint}")
    else:
        _emit(f"# i={report.i} char={report.char} "
              f"saturated={str(report.saturated).lower()}")
        for r in report.rows:
            _emit(f"n={r.n} indeg={r.indeg} topdeg={r.topdeg} "
                  f"finite_length={str(r.finite_length).lower()} reg={r.reg}")
        _emit(f"case: {verdict.case} (dim H~_(i-1) of the full complex = "
              f"{verdict.h_tilde_dim})")
        _emit(f"per-power consistency: {str(verdict.per_n_consistent).lower()}")
        if verdict.certified_n:
            _emit("certified powers: "
                  + ", ".join(str(n) for n in verdict.certified_n))
        else:
            _emit("warning: no computed power has finite length; "
                  "the verdict is vacuous")
        for n, observed, constraint in verdict.violations:
            _emit(f"violation at n={n}: observed {observed}, expected {constraint}")
        _emit(f"remark44_applies: {str(verdict.remark44_applies).lower()}")
    return 0


def _cmd_reg(args: argparse.Namespace) -> int:
    I, lo, hi = _checked_inputs(args)
    if lo != 1:
        raise ValueError("reg needs a contiguous range from 1, e.g. '1..6'")
    if args.saturated:
        raise ValueError("reg works on the powers themselves; drop --saturated")
    regs = []
    if args.fmt == "csv":
        _emit("n,reg")
    for n in range(1, hi + 1):
        r = tk.regularity(mc.power(I, n), args.char, pattern_cap=args.pattern_cap)
        regs.append(r)
        if args.fmt == "csv":
            _emit(f"{n},{r}")
        elif args.fmt == "text":
            _emit(f"n={n} reg={r}")
    fit = None
    if hi >= 4:
        fit = asy.regularity_linear_fit(
            I, hi, char=args.char, pattern_cap=args.pattern_cap
        )
    if args.fmt == "json":
        _emit(json.dumps(
            {
                "rows": [{"n": n + 1, "reg": r} for n, r in enumerate(regs)],
                "fit": None if fit is None else
                {"slope": fit[0], "intercept": fit[1], "stable_from": fit[2]},
            },
            separators=(",", ":")))
    elif fit is not None:
        _emit(f"# fit: slope={fit[0]} intercept={fit[1]} stable_from={fit[2]}")
    else:
        _emit("# fit: none")
    return 0


_DISPATCH = {
    "delta": _cmd_delta,
    "cohomology": _cmd_cohomology,
    "indeg": _cmd_indeg,
    "dichotomy": _cmd_dichotomy,
    "reg": _cmd_reg,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except (IdealSyntaxError, UnitIdealError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
