"""Power sequences, dichotomy verdicts, and the regularity asymptote."""

from fractions import Fraction

import pytest

from monocoh.errors import ResourceCapError
from monocoh.monomial_core import (
    krull_dimension,
    parse_ideal,
    power,
    saturate_irrelevant,
)
from monocoh.takayama import ExtendedDegree, cohomology_table, regularity
from monocoh.asymptotics import (
    PowerRow,
    PowerSequenceReport,
    dichotomy_report,
    power_sequence,
    ratio_summary,
    regularity_linear_fit,
)

from conftest import cycle_ideal


class TestPowerSequence:
    def test_edge_ideal_never_finite(self):
        rep = power_sequence(parse_ideal("x1*x2", 2), 1, 3)
        assert rep.n_max == 3 and [r.n for r in rep.rows] == [1, 2, 3]
        for r in rep.rows:
            assert not r.finite_length
            assert r.indeg == ExtendedDegree.neg_inf()

    def test_max_ideal_empty_modules(self):
        rep = power_sequence(parse_ideal("x1, x2", 2), 1, 3)
        for r in rep.rows:
            assert r.finite_length
            assert r.indeg == ExtendedDegree.pos_inf()
            assert r.reg == ExtendedDegree.finite(r.n - 1)

    def test_saturated_cycle_rows(self):
        rep = power_sequence(cycle_ideal(5), 1, 4, saturated=True)
        for r in rep.rows:
            assert r.finite_length
        # powers below d-2 vanish outright; beyond that indeg = n+1 here
        assert rep.row(3).indeg == ExtendedDegree.finite(4)
        assert rep.row(4).indeg == ExtendedDegree.finite(5)
        assert rep.row(1).indeg == ExtendedDegree.pos_inf()
        assert rep.row(2).indeg == ExtendedDegree.pos_inf()

    def test_rows_match_single_power_calls(self):
        I = parse_ideal("x1*x2, x2*x3", 3)
        rep = power_sequence(I, 1, 3)
        for r in rep.rows:
            t = cohomology_table(power(I, r.n), 1, 0)
            assert r.finite_length == t.finite_length
            assert r.reg == ExtendedDegree.finite(regularity(power(I, r.n), 0))

    def test_saturated_unit_power_degenerates(self):
        rep = power_sequence(parse_ideal("x1, x2", 2), 1, 2, saturated=True)
        for r in rep.rows:
            assert r.indeg == ExtendedDegree.pos_inf()
            assert r.topdeg == ExtendedDegree.neg_inf()
            assert r.finite_length
            assert r.reg == ExtendedDegree.neg_inf()

    def test_cap_names_power(self):
        # 2000 clears the n=1 and n=2 scans but trips on the n=3 box
        with pytest.raises(ResourceCapError, match="n=3"):
            power_sequence(cycle_ideal(5), 1, 3, pattern_cap=2000)

    def test_validation(self):
        I = parse_ideal("x1*x2", 2)
        with pytest.raises(ValueError):
            power_sequence(I, 1, 0)
        with pytest.raises(ValueError):
            power_sequence(parse_ideal("0", 2), 1, 2)

    def test_csv_rows_schema(self):
        rep = power_sequence(parse_ideal("x1*x2", 2), 1, 2)
        assert [r.csv_line(rep.i, rep.char, rep.saturated) for r in rep.rows] == [
            "1,1,0,false,false,-inf,0,1",
            "2,1,0,false,false,-inf,2,3",
        ]


class TestDichotomy:
    def test_cycle_case2(self):
        v, rep = dichotomy_report(cycle_ideal(5), 1, 4, saturated=True)
        assert v.case == "CASE2" and v.h_tilde_dim == 0
        assert v.per_n_consistent and v.violations == ()
        assert v.certified_n == (1, 2, 3, 4)
        assert not v.remark44_applies

    def test_disjoint_edges_case1(self):
        I = parse_ideal("x1*x3, x1*x4, x2*x3, x2*x4", 4)
        v, rep = dichotomy_report(I, 1, 3)
        assert v.case == "CASE1" and v.h_tilde_dim == 1
        assert v.per_n_consistent
        for r in rep.rows:
            assert r.finite_length
            assert r.indeg == ExtendedDegree.finite(0)
        assert v.remark44_applies

    def test_vacuous_case2_warns(self):
        # top cohomology of the disjoint-edges quotient is never finite
        # length, and H~_1 of the complex vanishes: CASE2 with nothing
        # certifiable
        I = parse_ideal("x1*x3, x1*x4, x2*x3, x2*x4", 4)
        with pytest.warns(UserWarning, match="vacuous"):
            v, rep = dichotomy_report(I, 2, 2)
        assert v.case == "CASE2"
        assert v.per_n_consistent and v.certified_n == ()

    def test_i_range_enforced(self):
        I = parse_ideal("x1*x2", 2)  # dim R/I = 1
        with pytest.raises(ValueError):
            dichotomy_report(I, 2, 2)
        with pytest.raises(ValueError):
            dichotomy_report(I, 0, 2)

    def test_corpus_consistency(self, small_corpus):
        from monocoh.simplicial import homology_dim_single, stanley_reisner_complex
        checked = 0
        for I in small_corpus:
            dim_r = krull_dimension(I)
            K = stanley_reisner_complex(I)
            for i in range(1, dim_r + 1):
                h = homology_dim_single(K.face_masks(), i - 1, 0)
                for n in (1, 2, 3):
                    t = cohomology_table(power(I, n), i, 0)
                    if not t.finite_length:
                        continue
                    from monocoh.takayama import table_indeg
                    v = table_indeg(t)
                    if h > 0:
                        assert v.is_finite and v.value == 0, (I.generators_str(), i, n)
                    elif v.is_finite:
                        assert v.value >= n, (I.generators_str(), i, n)
                    checked += 1
        assert checked >= 30


class TestRegularityFit:
    def test_edge_ideal_fit(self):
        assert regularity_linear_fit(parse_ideal("x1*x2", 2), 6) == (2, -1, 1)

    def test_max_ideal_fit(self):
        assert regularity_linear_fit(parse_ideal("x1, x2, x3", 3), 5) == (1, -1, 1)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            regularity_linear_fit(parse_ideal("0", 2), 5)

    def test_n_max_minimum(self):
        with pytest.raises(ValueError):
            regularity_linear_fit(parse_ideal("x1*x2", 2), 3)

    def test_cap_names_power(self):
        # C_5^3 needs 2304 patterns at i=1, the first power over the cap
        with pytest.raises(ResourceCapError, match="power n=3: "):
            regularity_linear_fit(cycle_ideal(5), 4, pattern_cap=2000)

    def test_stable_from_skips_initial_irregularity(self):
        # x1^2, x1*x2: reg sequence starts differently than its tail
        I = parse_ideal("x1^2, x1*x2^2", 2)
        fit = regularity_linear_fit(I, 6)
        assert fit is not None
        slope, intercept, stable_from = fit
        regs = [regularity(power(I, n), 0) for n in range(1, 7)]
        for n in range(stable_from, 7):
            assert regs[n - 1] == slope * n + intercept
        if stable_from > 1:
            assert regs[stable_from - 2] != slope * (stable_from - 1) + intercept


class TestRatioSummary:
    def test_indeg_zero(self):
        I = parse_ideal("x1*x3, x1*x4, x2*x3, x2*x4", 4)
        rep = power_sequence(I, 1, 3)
        assert ratio_summary(rep) == (Fraction(0), Fraction(0))

    def test_indeg_equals_n(self):
        rows = tuple(
            PowerRow(n, ExtendedDegree.finite(n), ExtendedDegree.finite(n),
                     True, ExtendedDegree.finite(n))
            for n in (1, 2, 3))
        rep = PowerSequenceReport(
            ideal=parse_ideal("x1", 1), i=1, char=0, saturated=False,
            rows=rows, n_max=3)
        assert ratio_summary(rep) == (Fraction(1), Fraction(1))

    def test_rejects_non_finite(self):
        rep = power_sequence(parse_ideal("x1*x2", 2), 1, 2)
        with pytest.raises(ValueError):
            ratio_summary(rep)
