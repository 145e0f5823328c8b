"""Invariant sequences over powers I^n and dichotomy certification.

Each row of a power sequence is computed from ``power(I, n)`` directly
(saturated first when requested), never from the previous row, so any
single row can be reproduced in isolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError
from .monomial_core import (
    MonomialIdeal,
    krull_dimension,
    power,
    radical,
    saturate_irrelevant,
)
from .takayama import (
    DEFAULT_PATTERN_CAP,
    ExtendedDegree,
    _require_module,
    _validate_i,
    cohomology_dim_at,
    cohomology_table,
    regularity,
    table_indeg,
    table_topdeg,
)

CSV_HEADER = "n,i,char,saturated,finite_length,indeg,topdeg,reg"


@dataclass(frozen=True)
class PowerRow:
    """One computed power: invariants of R/J where J = I^n (or its saturation)."""

    n: int
    indeg: ExtendedDegree
    topdeg: ExtendedDegree
    finite_length: bool
    reg: ExtendedDegree

    def csv_line(self, i: int, char: int, saturated: bool) -> str:
        """The row under CSV_HEADER."""
        return (
            f"{self.n},{i},{char},{str(saturated).lower()},"
            f"{str(self.finite_length).lower()},{self.indeg},{self.topdeg},{self.reg}"
        )

    def text_line(self) -> str:
        return (
            f"n={self.n} indeg={self.indeg} topdeg={self.topdeg} "
            f"finite_length={str(self.finite_length).lower()} reg={self.reg}"
        )


@dataclass(frozen=True)
class PowerSequenceReport:
    ideal: MonomialIdeal
    i: int
    char: int
    saturated: bool
    rows: tuple[PowerRow, ...]
    n_max: int

    def row(self, n: int) -> PowerRow:
        if not 1 <= n <= self.n_max:
            raise KeyError(n)
        return self.rows[n - 1]

    def to_dict(self) -> dict:
        return {
            "ideal": self.ideal.generators_str(),
            "i": self.i,
            "char": self.char,
            "saturated": self.saturated,
            "n_max": self.n_max,
            "rows": [
                {
                    "n": r.n,
                    "indeg": str(r.indeg),
                    "topdeg": str(r.topdeg),
                    "finite_length": r.finite_length,
                    "reg": str(r.reg),
                }
                for r in self.rows
            ],
        }


@dataclass(frozen=True)
class DichotomyVerdict:
    """Per-n consistency record against the two-case indeg behaviour.

    ``case`` is CASE1 when the reduced homology of the full complex in
    dimension i-1 is nonzero (then every finite-length power must attain
    indeg exactly 0), and CASE2 when it vanishes (then indeg >= n).
    """

    h_tilde_dim: int
    case: str
    per_n_consistent: bool
    violations: tuple[tuple[int, str, str], ...]
    certified_n: tuple[int, ...]
    remark44_applies: bool

    def to_dict(self) -> dict:
        return {
            "h_tilde_dim": self.h_tilde_dim,
            "case": self.case,
            "per_n_consistent": self.per_n_consistent,
            "violations": [list(v) for v in self.violations],
            "certified_n": list(self.certified_n),
            "remark44_applies": self.remark44_applies,
        }


def _power_ideal(
    I: MonomialIdeal, n: int, saturated: bool, pattern_cap: int, i=None
) -> MonomialIdeal:
    """I^n, or its saturation when ``saturated``; a cap trip names n and i."""
    try:
        J = power(I, n, pattern_cap)
        return saturate_irrelevant(J, pattern_cap) if saturated else J
    except ResourceCapError as exc:
        raise exc.for_power(n, i) from exc


def _row_for_power(
    I: MonomialIdeal,
    n: int,
    i: int,
    saturated: bool,
    char: int,
    pattern_cap: int,
) -> PowerRow:
    J = _power_ideal(I, n, saturated, pattern_cap, i)
    if J.is_unit:
        # the power was irrelevant-primary: its saturation is the whole
        # ring and every module invariant degenerates
        return PowerRow(
            n=n,
            indeg=ExtendedDegree.pos_inf(),
            topdeg=ExtendedDegree.neg_inf(),
            finite_length=True,
            reg=ExtendedDegree.neg_inf(),
        )
    try:
        table = cohomology_table(J, i, char, pattern_cap=pattern_cap)
        reg_val = regularity(J, char, pattern_cap=pattern_cap)
    except ResourceCapError as exc:
        raise exc.for_power(n) from exc
    return PowerRow(
        n=n,
        indeg=table_indeg(table),
        topdeg=table_topdeg(table),
        finite_length=table.finite_length,
        reg=ExtendedDegree.finite(reg_val),
    )


def _power_regularity(
    I: MonomialIdeal, n: int, char: int, pattern_cap: int
) -> int:
    """reg(R/I^n), a cap trip naming the power."""
    J = _power_ideal(I, n, False, pattern_cap)
    try:
        return regularity(J, char, pattern_cap=pattern_cap)
    except ResourceCapError as exc:
        raise exc.for_power(n) from exc


def power_sequence(
    I: MonomialIdeal,
    i: int,
    n_max: int,
    saturated: bool = False,
    char: int = 0,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
) -> PowerSequenceReport:
    """Invariants of H^i_m(R/I^n) for n = 1..n_max, one row per power."""
    _require_module(I)
    _validate_i(I.d, i)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = tuple(
        _row_for_power(I, n, i, saturated, char, pattern_cap)
        for n in range(1, n_max + 1)
    )
    return PowerSequenceReport(
        ideal=I, i=i, char=char, saturated=saturated, rows=rows, n_max=n_max
    )


def dichotomy_report(
    I: MonomialIdeal,
    i: int,
    n_max: int,
    char: int = 0,
    saturated: bool = False,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
) -> tuple[DichotomyVerdict, PowerSequenceReport]:
    """Check each computed power against the indeg dichotomy.

    CASE1 (nonzero reduced homology of the full complex in dimension i-1):
    a finite-length power must have indeg exactly 0, forced by the degree-0
    piece. CASE2 (vanishing homology): indeg >= n. Only rows with
    finite_length are certifiable; rows that are not finite length carry a
    -inf indeg and no constraint. Verdicts are per computed n, never a
    claim about all n.
    """
    _require_dichotomy_i(I, i)
    report = power_sequence(
        I, i, n_max, saturated=saturated, char=char, pattern_cap=pattern_cap
    )
    return _dichotomy_verdict(report, pattern_cap), report


def _require_dichotomy_i(I: MonomialIdeal, i: int) -> None:
    """Raise ValueError unless R/I is a module and 1 <= i <= dim R/I."""
    _require_module(I)
    dim = krull_dimension(I)
    if not 1 <= i <= dim:
        raise ValueError(
            f"i must be between 1 and dim R/I = {dim}, got {i}"
        )


def _dichotomy_verdict(
    report: PowerSequenceReport, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> DichotomyVerdict:
    """The verdict of ``dichotomy_report`` on a computed report's rows."""
    I, i, char = report.ideal, report.i, report.char
    # H^i_m(R/I)_0 = H~_{i-1}(Δ_0(I)), and Δ_0(I) is the full complex
    h_tilde_dim = cohomology_dim_at(I, i, (0,) * I.d, char)
    case = "CASE1" if h_tilde_dim > 0 else "CASE2"
    violations = []
    certified = []
    for r in report.rows:
        if not r.finite_length:
            continue
        certified.append(r.n)
        if case == "CASE1":
            if not (r.indeg.is_finite and r.indeg.value == 0):
                violations.append((r.n, str(r.indeg), "indeg = 0"))
        else:
            if r.indeg.is_finite and r.indeg.value < r.n:
                violations.append((r.n, str(r.indeg), f"indeg >= {r.n}"))
    if not certified:
        warnings.warn(
            "no power in the computed range has finite length; "
            "the verdict is vacuous",
            stacklevel=3,
        )
    rad_table = cohomology_table(radical(I), i, char, pattern_cap=pattern_cap)
    remark44 = bool(certified) and rad_table.dims.size > 0
    return DichotomyVerdict(
        h_tilde_dim=h_tilde_dim,
        case=case,
        per_n_consistent=not violations,
        violations=tuple(violations),
        certified_n=tuple(certified),
        remark44_applies=remark44,
    )


def regularity_linear_fit(
    I: MonomialIdeal,
    n_max: int,
    char: int = 0,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
) -> tuple[int, int, int] | None:
    """Linear asymptote of n -> reg(R/I^n) from the terminal run.

    Computes the regularity sequence for n = 1..n_max and scans for the
    longest terminal run of equal first differences. A run of length >= 3
    determines (slope, intercept, stable_from) with
    reg(R/I^n) = slope*n + intercept for all n >= stable_from in the
    computed range; returns None when no such run exists. The fit is a
    finite-sample observation, not a certificate of the limit behaviour.
    """
    _require_module(I)
    if n_max < 4:
        raise ValueError("n_max must be at least 4 to detect a run")
    regs = [
        _power_regularity(I, n, char, pattern_cap) for n in range(1, n_max + 1)
    ]
    diffs = [regs[k + 1] - regs[k] for k in range(len(regs) - 1)]
    # longest terminal block of constant differences
    start = len(diffs) - 1
    while start > 0 and diffs[start - 1] == diffs[-1]:
        start -= 1
    run_len = len(diffs) - start
    if run_len < 3:
        return None
    slope = diffs[-1]
    stable_from = start + 1  # diffs[start] = regs[start+1] - regs[start], 1-based n
    intercept = regs[stable_from - 1] - slope * stable_from
    if slope < 0:
        warnings.warn(
            f"negative regularity slope {slope}; "
            "monomial powers should grow linearly with nonnegative slope",
            stacklevel=2,
        )
    return slope, intercept, stable_from


def ratio_summary(report: PowerSequenceReport) -> tuple[Fraction, Fraction]:
    """(min over n of indeg/n, indeg(n_max)/n_max) as exact rationals.

    Both are finite-sample estimates of the limiting ratio; they certify
    nothing beyond the computed range. Every row must be finite length
    with finite indeg.
    """
    for r in report.rows:
        if not r.finite_length or not r.indeg.is_finite:
            raise ValueError(
                f"row n={r.n} has indeg {r.indeg}; "
                "ratios need finite indeg on every row"
            )
    ratios = [Fraction(r.indeg.value, r.n) for r in report.rows]
    return min(ratios), ratios[-1]
