"""Power sequences, dichotomy verdicts, and the regularity asymptote."""

import random
import re
from fractions import Fraction

import pytest

import monocoh.cli as cli
from monocoh.errors import ResourceCapError
from monocoh.monomial_core import (
    _check_power,
    krull_dimension,
    parse_ideal,
    power,
    saturate_irrelevant,
)
from monocoh.takayama import ExtendedDegree, cohomology_table, regularity
from monocoh.asymptotics import (
    PowerRow,
    PowerSequenceReport,
    _check_powers,
    dichotomy_report,
    power_sequence,
    ratio_summary,
    regularity_linear_fit,
)

from conftest import cycle_ideal, within_alarm


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
        # the range is refused first: C_5^4's power box of 5^5 = 3125 cells
        # is the first over the cap, before C_5^3's 2304 patterns at i=1
        with pytest.raises(ResourceCapError, match="power n=4: power box of "
                           "3125 cells exceeds the cap 2000"):
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


class TestPowerRangeCheck:
    """``_check_powers`` raises what ``power`` would raise at the smallest
    refused n of the range, found by bisection."""

    @staticmethod
    def refusal(rho, n, cap, i):
        """(type, message) of what ``power`` raises at n, or None."""
        try:
            _check_power(rho, n, cap)
        except ResourceCapError as exc:
            return ResourceCapError, str(exc.for_power(n, i))
        except ValueError as exc:
            return ValueError, str(exc)
        return None

    def test_bisection_finds_the_first_refused_power(self):
        rng = random.Random(20261021)
        kinds = set()
        for _ in range(300):
            d = rng.randint(1, 4)
            exps = [rng.choice([0, 1, 2, 3, 2**40, 2**61]) for _ in range(d)]
            if not any(exps):
                exps[0] = 1
            I = parse_ideal("*".join(f"x{j + 1}^{e}" for j, e in
                                     enumerate(exps) if e), d)
            n_max = rng.choice([1, 2, 3, 7, 40, 10**6, 2**62])
            cap = rng.choice([1, 10, 400, 10**7, 2**200])
            i = rng.choice([None, 1])
            try:
                _check_powers(I, n_max, cap, i)
                got = None
            except (ValueError, ResourceCapError) as exc:
                got = type(exc), str(exc)
            if n_max <= 40:
                # the linear reference: every n from 2 up, as power sees them
                want = next(filter(None, (self.refusal(exps, n, cap, i)
                                          for n in range(2, n_max + 1))), None)
            elif got is None:
                want = self.refusal(exps, n_max, cap, i)
            else:
                # the refused n is named in the message, and n - 1 passes
                n = int(re.search(r"power n=(\d+)|I\^(\d+),", got[1])
                        .group(1, 2)[got[0] is ValueError])
                assert 2 <= n <= n_max
                assert n == 2 or self.refusal(exps, n - 1, cap, i) is None
                want = self.refusal(exps, n, cap, i)
            assert got == want, (exps, n_max, cap)
            kinds.add(got and got[0])
        assert kinds == {None, ValueError, ResourceCapError}

    def test_a_range_from_above_two_against_a_linear_scan(self):
        # n_min..n_max reports the first refused n of that range, even when
        # a smaller n below it is refused too
        rng = random.Random(20261022)
        kinds, refused_below = set(), 0
        for _ in range(400):
            d = rng.randint(1, 3)
            exps = [rng.choice([0, 1, 2, 3, 2**40, 2**61]) for _ in range(d)]
            if not any(exps):
                exps[0] = 1
            I = parse_ideal("*".join(f"x{j + 1}^{e}" for j, e in
                                     enumerate(exps) if e), d)
            n_min = rng.randint(2, 30)
            n_max = rng.randint(n_min - 1, 40)
            cap = rng.choice([1, 10, 400, 10**7])
            i = rng.choice([None, 1])
            try:
                _check_powers(I, n_max, cap, i, n_min)
                got = None
            except (ValueError, ResourceCapError) as exc:
                got = type(exc), str(exc)
            want = next(filter(None, (self.refusal(exps, n, cap, i)
                                      for n in range(n_min, n_max + 1))), None)
            assert got == want, (exps, n_min, n_max, cap)
            kinds.add(got and got[0])
            if got and n_min > 2 and self.refusal(exps, n_min - 1, cap, i):
                refused_below += 1
        assert kinds == {None, ValueError, ResourceCapError}
        assert refused_below >= 20, refused_below

    def test_power_one_and_trivial_ideals_are_never_refused(self):
        _check_powers(parse_ideal("x1^9", 1), 1, 1)
        _check_powers(parse_ideal("0", 2), 2**62, 1)
        _check_powers(parse_ideal("1", 2), 2**62, 1)

    @pytest.mark.parametrize("ideal, sequence, argv", [
        ("x1^2", lambda I, n: power_sequence(I, 0, n, saturated=True),
         ["indeg", "--i", "0", "--saturated"]),
        ("x1^2*x2", lambda I, n: dichotomy_report(I, 1, n),
         ["dichotomy", "--i", "1"]),
        ("x1^2", regularity_linear_fit, ["reg"]),
    ], ids=["power_sequence", "dichotomy_report", "regularity_linear_fit"])
    def test_library_sequences_refuse_the_range_first(
            self, capsys, ideal, sequence, argv):
        # four billion powers: the command line refuses the range at once,
        # and the library refuses it with the same message
        argv = argv + ["--ideal", ideal, "--d", "4", "--powers",
                       "1..4000000000", "--format", "text"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: power n=")
        with within_alarm(5, f"{argv[0]} ran the powers before the check"):
            with pytest.raises(ResourceCapError) as exc:
                sequence(parse_ideal(ideal, 4), 4_000_000_000)
        assert f"error: {exc.value}\n" == err
