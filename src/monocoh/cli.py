"""Command-line surface: batch computation with text, JSON, and CSV output.

CSV output streams each power's rows as that power is computed, and so
does ``cohomology``'s text; JSON output, and the text of the sequence
commands, is buffered and emitted once at the end. For a fixed command
line the output is byte-identical across runs.

Exit status: 0 success, 2 usage or parse error, 3 resource cap exceeded,
4 internal consistency violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import monomial_core as mc
from . import takayama as tk
from .errors import InternalConsistencyError, ResourceCapError, UnitIdealError
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


def _validate_pattern_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"--pattern-cap must be at least 1, got {cap}")


def _require_complex(I: mc.MonomialIdeal) -> None:
    if I.is_unit:
        raise UnitIdealError(
            "the complex Delta(I) of the unit ideal is void; it has no faces")


def _checked_inputs(
    args: argparse.Namespace, require=tk._require_module
) -> tuple[mc.MonomialIdeal, int, int]:
    """The ideal and the power range, with the ideal (by ``require``), the
    characteristic and the pattern cap validated, so a rejected command
    writes no output."""
    I = _load_ideal(args)
    require(I)
    lo, hi = _parse_powers(args.powers)
    _validate_char(args.char)
    _validate_pattern_cap(args.pattern_cap)
    return I, lo, hi


def _sequence_inputs(args: argparse.Namespace) -> tuple[mc.MonomialIdeal, int]:
    """The validated ideal and the top power of a sequence command."""
    I, lo, hi = _checked_inputs(args)
    if lo != 1:
        raise ValueError(
            "sequence commands need a contiguous range from 1, e.g. '1..4'"
        )
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
        help=(
            "abort if a power's box (prod(n*rho_j+1) cells), a saturation's "
            "box (prod(rho_j+1) cells) or a single table's clamped pattern "
            "boxes (prod(rho_j+1) over j outside G, summed over its negative "
            "supports G; G empty gives the scanned box) exceed this many cells"
        ),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call. It is built once: a parser is
    a web of reference cycles, and one built per call would leave hundreds
    of objects for the cyclic garbage collector each time."""
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
    I, _, _ = _checked_inputs(args, require=_require_complex)
    K = stanley_reisner_complex(I)
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


def _zero_table(i: int, char: int) -> tk.CohomologyTable:
    """The table of H^i_m(R/J) when J is the unit ideal: the saturation of
    an irrelevant-primary power, whose quotient is the zero module."""
    no_rows = np.zeros(0, dtype=np.int64)
    return tk.CohomologyTable(
        i=i, char=char, a_plus=no_rows.reshape(0, 0), g_masks=no_rows,
        dims=no_rows, rho=())


def _cmd_cohomology(args: argparse.Namespace) -> int:
    require = tk._require_module if args.at is None else tk._require_not_unit
    I, lo, hi = _checked_inputs(args, require=require)
    i_list = _requested_is(args, args.d)
    if args.at is not None:
        a = _parse_degree_vector(args.at, args.d)
        row = (f"%d,%d,{args.char},{';'.join(map(str, a))},%d" if args.fmt == "csv"
               else f"n=%d i=%d a=({','.join(map(str, a))}) dim=%d")
        results = []
        for n in range(lo, hi + 1):
            J = asy._power_ideal(I, n, args.saturated, args.pattern_cap, args.i)
            dims = [(i, 0 if J.is_unit else tk.cohomology_dim_at(J, i, a, args.char))
                    for i in i_list]
            if args.fmt == "json":
                results += [{"n": n, "i": i, "a": list(a), "dim": dim}
                            for i, dim in dims]
                continue
            if args.fmt == "csv" and n == lo:
                # after the first power, so a cap trip leaves stdout empty
                _emit("n,i,char,a,dim")
            _emit("\n".join(row % (n, i, dim) for i, dim in dims))
        if args.fmt == "json":
            _emit(json.dumps(results, separators=(",", ":")))
        return 0

    buffered = []
    for n in range(lo, hi + 1):
        J = asy._power_ideal(I, n, args.saturated, args.pattern_cap, args.i)
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
            raise exc.for_power(n) from exc
        if args.fmt == "csv" and n == lo:
            # after the first power, so a cap trip leaves stdout empty
            _emit("n,i,char,finite_length,G,a_plus,dim")
        for i, table in tables.items():
            fl = str(table.finite_length).lower()
            if args.fmt == "json":
                buffered.append('{"n":%d,"table":%s}' % (n, table.to_json()))
            elif args.fmt == "csv":
                rows = table._write_rows(
                    f"{n},{i},{args.char},{fl},%s,%s,%s", ";", "\n")
                if rows:
                    _emit(rows)
            else:
                head = (f"# n={n} i={i} char={args.char} finite_length={fl} "
                        f"entries={table.dims.size}")
                rows = table._write_rows("G={%s} a+=(%s) dim=%s", ",", "\n")
                _emit(f"{head}\n{rows}" if rows else head)
    if args.fmt == "json":
        _emit("[" + ",".join(buffered) + "]")
    return 0


def _emit_rows_text(report: asy.PowerSequenceReport) -> None:
    _emit(f"# i={report.i} char={report.char} "
          f"saturated={str(report.saturated).lower()}")
    for r in report.rows:
        _emit(r.text_line())


def _power_rows(
    args: argparse.Namespace, I: mc.MonomialIdeal, hi: int
) -> asy.PowerSequenceReport:
    """The rows of powers 1..hi; CSV streams each row as its power
    finishes, the header after the first one."""
    rows = []
    for n in range(1, hi + 1):
        rows.append(asy._row_for_power(
            I, n, args.i, args.saturated, args.char, args.pattern_cap))
        if args.fmt == "csv":
            if n == 1:
                _emit(asy.CSV_HEADER)
            _emit(rows[-1].csv_line(args.i, args.char, args.saturated))
    return asy.PowerSequenceReport(
        ideal=I, i=args.i, char=args.char, saturated=args.saturated,
        rows=tuple(rows), n_max=hi,
    )


def _cmd_indeg(args: argparse.Namespace) -> int:
    I, hi = _sequence_inputs(args)
    tk._validate_i(args.d, args.i)
    report = _power_rows(args, I, hi)
    if args.fmt == "json":
        _emit(json.dumps(report.to_dict(), separators=(",", ":")))
        return 0
    if args.fmt == "text":
        _emit_rows_text(report)
    try:
        lo_est, last = asy.ratio_summary(report)
    except ValueError:
        return 0
    _emit(f"# indeg/n estimates: min={lo_est} last={last} (finite-sample only)")
    return 0


def _cmd_dichotomy(args: argparse.Namespace) -> int:
    I, hi = _sequence_inputs(args)
    asy._require_dichotomy_i(I, args.i)
    report = _power_rows(args, I, hi)
    verdict = asy._dichotomy_verdict(report, args.pattern_cap)
    if args.fmt == "json":
        _emit(json.dumps(
            {"verdict": verdict.to_dict(), "report": report.to_dict()},
            separators=(",", ":")))
    elif args.fmt == "csv":
        _emit(f"# case={verdict.case} h_tilde_dim={verdict.h_tilde_dim} "
              f"per_n_consistent={str(verdict.per_n_consistent).lower()} "
              f"remark44_applies={str(verdict.remark44_applies).lower()} "
              f"certified_n={';'.join(str(n) for n in verdict.certified_n)}")
        for n, observed, constraint in verdict.violations:
            _emit(f"# violation: n={n} observed={observed} expected={constraint}")
    else:
        _emit_rows_text(report)
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
    I, hi = _sequence_inputs(args)
    if args.saturated:
        raise ValueError("reg works on the powers themselves; drop --saturated")
    regs = []
    for n in range(1, hi + 1):
        r = asy._power_regularity(I, n, args.char, args.pattern_cap)
        regs.append(r)
        if args.fmt == "csv":
            if n == 1:
                _emit("n,reg")
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
