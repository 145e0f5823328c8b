"""Parsing, ideal arithmetic, saturation, dimension."""

import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from monocoh import _kernels, monomial_core, takayama
from monocoh.errors import IdealSyntaxError, ResourceCapError
from monocoh.monomial_core import (
    MonomialIdeal,
    contains,
    krull_dimension,
    membership_box,
    parse_ideal,
    power,
    project,
    radical,
    saturate_irrelevant,
    var_degree_bounds,
)

import oracles
from conftest import corpus, cycle_ideal


class TestParse:
    def test_basic(self):
        I = parse_ideal("x1*x2, x2^3", 2)
        assert I.num_gens == 2
        assert I.exponent_matrix.tolist() == [[0, 3], [1, 1]]

    def test_whitespace_and_newlines(self):
        I = parse_ideal(" x1 * x2 \n x2 ^ 3 ", 2)
        assert I.num_gens == 2

    def test_one_is_unit(self):
        assert parse_ideal("1", 3).is_unit

    def test_zero_and_empty(self):
        assert parse_ideal("0", 3).is_zero
        assert parse_ideal("", 3).is_zero
        assert parse_ideal("   ", 3).is_zero

    def test_minimalizes_on_parse(self):
        # {x1, x1*x2} -> {x1}
        I = parse_ideal("x1, x1*x2", 2)
        assert I.generators_str() == "x1"

    def test_repeated_variable_multiplies(self):
        I = parse_ideal("x1*x1", 2)
        assert I.exponent_matrix.tolist() == [[2, 0]]

    def test_syntax_error_position(self):
        with pytest.raises(IdealSyntaxError) as exc:
            parse_ideal("x1*", 2)
        assert exc.value.position == 3

    def test_bad_index(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x3", 2)
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x0", 2)

    def test_zero_exponent_rejected(self):
        with pytest.raises(IdealSyntaxError, match="positive"):
            parse_ideal("x1^0", 2)

    def test_exponent_beyond_int64_rejected(self):
        with pytest.raises(IdealSyntaxError, match="exceeds") as exc:
            parse_ideal("x1^99999999999999999999", 2)
        assert exc.value.position == 3
        top = 2**63 - 1
        assert parse_ideal(f"x1^{top}", 1).exponent_matrix.tolist() == [[top]]
        # checked after the exponents of a repeated variable are summed
        with pytest.raises(IdealSyntaxError, match="exceeds") as exc:
            parse_ideal(f"x2 * x1^{top} * x1", 2)
        assert exc.value.position == len(f"x2 * x1^{top} * x")

    def test_trailing_comma(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x1,", 2)

    def test_garbage(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x1 + x2", 2)


def _minimal(rows):
    """Exponent tuples of the minimal generators MonomialIdeal keeps."""
    return {m.exponents for m in MonomialIdeal(len(rows[0]), rows).gens}


def count_closed_boxes(monkeypatch):
    """Shapes of the boxes passed to ``upward_close`` from now on."""
    closed = []
    upward_close = _kernels.upward_close

    def counting(box):
        closed.append(box.shape)
        upward_close(box)

    monkeypatch.setattr(_kernels, "upward_close", counting)
    return closed


class TestMinimalize:
    def test_spec_pairs(self):
        assert _minimal([(1, 0), (1, 1)]) == {(1, 0)}
        anti = {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
        assert _minimal(list(anti)) == anti

    def test_against_brute(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            rows = [tuple(int(x) for x in rng.integers(0, 4, size=d))
                    for _ in range(int(rng.integers(1, 10)))]
            assert _minimal(rows) == oracles.brute_minimalize(rows)

    def test_large_set_box_route(self):
        # enough generators to trigger the box-assisted path
        rng = np.random.default_rng(99)
        rows = [tuple(int(x) for x in rng.integers(0, 5, size=3))
                for _ in range(60)]
        assert _minimal(rows) == oracles.brute_minimalize(rows)

    def test_sparse_rows_take_the_pairwise_route(self, monkeypatch):
        # 16 rows spanning a box of millions of cells: 256 comparisons are
        # cheaper than closing the box
        closed = count_closed_boxes(monkeypatch)
        rng = np.random.default_rng(16)
        rows = [tuple(int(x) for x in rng.integers(0, 3000, size=2))
                for _ in range(16)]
        assert _minimal(rows) == oracles.brute_minimalize(rows)
        assert closed == []

    def test_pairwise_route_leaves_numpy_ma_unloaded(self, monkeypatch):
        # a repeated generator on the pairwise route: np.unique(axis=0)
        # without return_index would import numpy.ma, about 10 ms in a
        # fresh interpreter
        ideal = "x1^9*x2, x1*x2^9, x1^9*x2"
        closed = count_closed_boxes(monkeypatch)
        assert parse_ideal(ideal, 2).exponent_matrix.tolist() == [[1, 9], [9, 1]]
        assert closed == []
        src = str(Path(monomial_core.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = (
            "import sys, monocoh.cli\n"
            "from monocoh.monomial_core import parse_ideal\n"
            f"I = parse_ideal({ideal!r}, 2)\n"
            "print(I.exponent_matrix.tolist(), 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[[1, 9], [9, 1]] False\n"

    def test_dense_rows_close_one_box(self, monkeypatch):
        # every cell of a 3x3x3 box: 27 cells against 27**2 comparisons
        closed = count_closed_boxes(monkeypatch)
        rows = list(product(range(3), repeat=3))
        assert _minimal(rows) == {(0, 0, 0)}
        assert closed == [(3, 3, 3)]


class TestPowerContains:
    def test_power_spec(self):
        I = parse_ideal("x1, x2", 2)
        sq = power(I, 2)
        assert {tuple(r) for r in sq.exponent_matrix.tolist()} == {
            (2, 0), (1, 1), (0, 2)}
        P = parse_ideal("x1*x2", 2)
        assert power(P, 3).exponent_matrix.tolist() == [[3, 3]]

    def test_power_rejects_nonpositive(self):
        I = parse_ideal("x1", 1)
        with pytest.raises(ValueError):
            power(I, 0)

    def test_power_against_brute(self, small_corpus):
        for I in small_corpus[:12]:
            for n in (2, 3):
                got = {tuple(r) for r in power(I, n).exponent_matrix.tolist()}
                assert got == oracles.brute_power(I, n)

    def test_power_exponent_overflow_named(self):
        I = parse_ideal("x1^4611686018427387904*x2", 2)
        with pytest.raises(ValueError, match="exponent overflow: x1"):
            power(I, 2)
        # the bound is exact: 2 * (2**62 - 1) still fits in int64, so the
        # power box's cell count refuses it, not the overflow
        J = parse_ideal("x1^4611686018427387903*x2", 2)
        with pytest.raises(ResourceCapError, match="power box of "):
            power(J, 2)

    def test_contains_spec(self):
        I = parse_ideal("x1*x2", 2)
        assert contains(I, (2, 1))
        assert not contains(I, (2, 0))

    def test_contains_against_brute(self, small_corpus):
        rng = np.random.default_rng(11)
        for I in small_corpus[:20]:
            for _ in range(20):
                e = tuple(int(x) for x in rng.integers(0, 5, size=I.d))
                assert contains(I, e) == oracles.brute_membership(I, e)


class TestProjectSaturate:
    def test_project_spec(self):
        I = parse_ideal("x1*x2", 2)
        assert project(I, (1, 2)).is_unit
        # killing one variable of the edge leaves the other
        assert project(I, (1,)).generators_str() == "x2"

    def test_saturate_principal_fixpoint(self):
        I = parse_ideal("x1*x2", 2)
        assert saturate_irrelevant(I) == I

    @staticmethod
    def _check_against_colon_oracles(ideals):
        for I in ideals:
            got = saturate_irrelevant(I)
            want = oracles.saturation_by_colon_chain(I)
            assert {tuple(r) for r in got.exponent_matrix.tolist()} == want
            assert oracles.saturate_by_colon_fixpoint(I) == got

    def test_colon_fixpoint_oracle_agrees(self, small_corpus):
        self._check_against_colon_oracles(small_corpus[:15])

    def test_cycle_saturation_prime_powers(self):
        for d in (5, 6):
            I = cycle_ideal(d)
            primes = oracles.cycle_edge_primes(d)
            for n in (1, 2, 3):
                got = saturate_irrelevant(power(I, n))
                want = oracles.brute_intersection(
                    [oracles.brute_minimalize(list(oracles.prime_power(p, n)))
                     for p in primes])
                assert {tuple(r) for r in got.exponent_matrix.tolist()} == want

    def test_cycle_power_generator_count_frozen(self):
        # regression value computed once from the brute power oracle
        assert power(cycle_ideal(5), 2).num_gens == 15

    def test_saturate_m_primary_is_unit(self):
        m2 = power(parse_ideal("x1, x2", 2), 2)
        assert saturate_irrelevant(m2).is_unit


class TestPowerBox:
    """power and saturate_irrelevant build one box and hand it on."""

    @pytest.mark.parametrize("stage, build, cells", [
        # C_5^3 spans (3 * 1 + 1)^5 cells
        ("power", lambda cap: power(cycle_ideal(5), 3, cap), 4**5),
        # a generator-backed ideal with rho = (3, 4, 2)
        ("saturation", lambda cap: saturate_irrelevant(
            parse_ideal("x1^3*x2, x2^4*x3^2", 3), cap), 4 * 5 * 3),
    ], ids=["power", "saturation"])
    def test_cap_bounds_the_box(self, stage, build, cells):
        # a cap equal to the box's cells passes, one below refuses it
        assert build(cells) == build(takayama.DEFAULT_PATTERN_CAP)
        with pytest.raises(ResourceCapError) as exc:
            build(cells - 1)
        assert (exc.value.required, exc.value.cap) == (cells, cells - 1)
        assert str(exc.value) == (
            f"{stage} box of {cells} cells exceeds the cap {cells - 1}")

    def test_carried_boxes_equal_fresh_boxes(self, small_corpus):
        for I in small_corpus:
            for n in (1, 2, 3, 4):
                P = power(I, n)
                for J in (P, saturate_irrelevant(P)):
                    box = membership_box(J)
                    fresh = membership_box(MonomialIdeal(J.d, J.exponent_matrix))
                    assert box.dtype == fresh.dtype == np.uint8
                    assert box.shape == fresh.shape
                    assert np.array_equal(box, fresh)
                    if n > 1 or J is not P:
                        # carried: the same array on every call
                        assert membership_box(J) is box
        # an ideal built from generators is never given a box to keep
        I = small_corpus[0]
        assert membership_box(I) is not membership_box(I)

    def test_membership_box_is_read_only(self):
        I = cycle_ideal(5)
        for box in (membership_box(I), membership_box(power(I, 2)),
                    membership_box(saturate_irrelevant(power(I, 2)))):
            assert not box.flags.writeable
            with pytest.raises(ValueError):
                box[(0,) * 5] = 1

    def test_power_saturate_table_close_one_box(self, monkeypatch):
        I = cycle_ideal(6)
        closed = count_closed_boxes(monkeypatch)
        S = saturate_irrelevant(power(I, 4))
        takayama.cohomology_table(S, 1)
        assert closed == [(5,) * 6]

    def test_a_table_builds_at_most_one_box(self, monkeypatch):
        # the scan's box also gives the candidate faces: one box for a
        # generator-backed ideal (with d or fewer generators, and with more;
        # with an absent variable), none for a box-backed one
        built = []
        closed_box = monomial_core._closed_box

        def counting(rows, shape):
            built.append(shape)
            return closed_box(rows, shape)

        I = cycle_ideal(6)
        ideals = [
            (I, False),
            (parse_ideal("x1^2*x2, x2^3*x4, x1*x4^2", 4), False),
            (parse_ideal("x1*x2, x2*x3, x1*x3, x1^3, x2^3, x3^3", 3), False),
            (power(I, 2), True),
            (saturate_irrelevant(power(I, 3)), True),
        ]
        monkeypatch.setattr(monomial_core, "_closed_box", counting)
        for J, boxed in ideals:
            built.clear()
            tables = takayama.cohomology_tables(J, range(J.d + 1))
            shape = tuple(r + 1 for r in var_degree_bounds(J).rho)
            assert built == ([] if boxed else [shape])
            assert any(t.dims.size for t in tables.values())

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_closed_box_fills_or_closes_to_the_orthants(self, m):
        # up to d = 3 rows fill their orthants, more are marked and closed
        rng = np.random.default_rng(m)
        shape = (4, 3, 5)
        for _ in range(10):
            rows = rng.integers(0, 3, size=(m, 3))
            want = np.zeros(shape, dtype=np.uint8)
            for row in rows:
                want[tuple(slice(x, None) for x in row)] = 1
            box = monomial_core._closed_box(rows, shape)
            assert box.dtype == np.uint8 and np.array_equal(box, want)

    def test_box_backed_ideals_agree_with_generator_backed(self):
        ideals = corpus(20261019, 40, (2, 3, 4, 5)) + [
            # rho(I^2) = (3, 3, 2) < 2 * rho(I): x1^4*x2^2*x3^2 is a multiple
            # of (x1*x2^2)(x1*x3^2), so the power's box is cropped
            parse_ideal("x1^2*x2*x3, x1*x2^2, x1*x3^2", 3),
            # m-primary powers saturate to the unit ideal
            parse_ideal("x1, x2^2", 2),
            parse_ideal("x1^2, x2^2, x3, x1*x2", 3),
        ]
        cropped = units = 0
        for I in ideals:
            for n in (2, 3):
                P = power(I, n)
                ref_P = MonomialIdeal(I.d, sorted(oracles.brute_power(I, n)))
                S = saturate_irrelevant(P)
                ref_S = oracles.saturate_by_colon_fixpoint(ref_P)
                rho_I = var_degree_bounds(I).rho
                cropped += var_degree_bounds(ref_P).rho != tuple(
                    n * r for r in rho_I)
                units += ref_S.is_unit
                for J, ref in ((P, ref_P), (S, ref_S)):
                    rho = var_degree_bounds(ref).rho
                    assert var_degree_bounds(J).rho == rho
                    assert membership_box(J).shape == tuple(r + 1 for r in rho)
                    assert np.array_equal(membership_box(J), membership_box(ref))
                    assert (J.is_unit, J.is_zero) == (ref.is_unit, ref.is_zero)
                    assert np.array_equal(
                        monomial_core._corner_flags(J, (0,) * J.d),
                        monomial_core._corner_flags(ref, (0,) * ref.d))
                    if not ref.is_unit:
                        assert krull_dimension(J) == krull_dimension(ref)
                    # none of the reads above extracts generators
                    assert J._rows is None
                    assert J.num_gens == ref.num_gens and J.gens == ref.gens
                    assert J == ref and hash(J) == hash(ref)
                    assert J.generators_str() == ref.generators_str()
        assert cropped >= 3 and units >= 4, (cropped, units)

    def test_power_saturate_table_read_no_generators(self, monkeypatch):
        # the box is the ideal from power to table: no generator extraction
        I = cycle_ideal(7)
        extracted = []
        box_generators = monomial_core._box_generators

        def counting(box):
            extracted.append(box.shape)
            return box_generators(box)

        monkeypatch.setattr(monomial_core, "_box_generators", counting)
        J = saturate_irrelevant(power(I, 4))
        table = takayama.cohomology_table(J, 1)
        # the single-degree path reads the same box: the C_7 witness degree
        a = (1, 0, 1, 1, 1, 1, 0)
        K = takayama.degree_complex(J, a)
        assert set(K.facets) == {(3, 4), (4, 5), (5, 6)}
        assert takayama.cohomology_dim_at(J, 1, a) == 0
        assert table.dims.size and extracted == []

    def test_cycle_c7_power_8_on_the_box_route(self, monkeypatch):
        # 9^7 = 4.78M cells: one box, no pairwise minimalization
        def refuse(*args):
            raise AssertionError("pairwise route taken")

        I = cycle_ideal(7)
        monkeypatch.setattr(_kernels, "pairwise_minimal", refuse)
        P = power(I, 8)
        assert P.num_gens == 31185
        box = membership_box(saturate_irrelevant(P))
        assert np.array_equal(box, oracles.cycle_saturated_power_box(7, 8, box.shape))

    def test_cycle_c9_power_5_above_the_default_cap(self):
        # 6^9 = 10,077,696 power-box cells: refused at the default cap,
        # built as one box under a larger one
        with pytest.raises(ResourceCapError, match="power box of 10077696 "):
            power(cycle_ideal(9), 5)
        cap = 40_000_000
        box = membership_box(saturate_irrelevant(power(cycle_ideal(9), 5, cap), cap))
        assert np.array_equal(box, oracles.cycle_saturated_power_box(9, 5, box.shape))


class TestBoxMemory:
    def test_peak_is_at_most_4_bytes_per_power_box_cell(self):
        # C_7^6 spans 7^7 = 823,543 power-box cells; its saturation reads
        # the cropped box, no larger
        cells = 7**7
        saturate_irrelevant(power(cycle_ideal(5), 2))

        def peak_of(build):
            tracemalloc.start()
            try:
                result = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * cells, (peak, cells)
            return result

        P = peak_of(lambda: power(cycle_ideal(7), 6))
        peak_of(lambda: saturate_irrelevant(P))


class TestRadicalBounds:
    def test_radical_spec(self):
        assert radical(parse_ideal("x1^2*x2", 2)).generators_str() == "x1*x2"

    def test_radical_of_power_is_radical(self, small_corpus):
        for I in small_corpus[:15]:
            r = radical(I)
            for n in (2, 3, 4):
                assert radical(power(I, n)) == r

    def test_bounds_spec(self):
        I = parse_ideal("x1^2, x1*x2^3", 2)
        assert var_degree_bounds(I).rho == (2, 3)


class TestHilbertKrull:
    def test_krull_spec(self):
        assert krull_dimension(parse_ideal("x1*x2", 2)) == 1

    def test_krull_cases(self):
        assert krull_dimension(parse_ideal("x1, x2", 2)) == 0
        assert krull_dimension(parse_ideal("0", 3)) == 3
        assert krull_dimension(cycle_ideal(5)) == 2

    def test_krull_refuses_more_than_max_variables(self):
        # the face box has 2^d cells
        with pytest.raises(ValueError, match="capped at d <= 20"):
            krull_dimension(parse_ideal("x1*x21", 21))

    def test_krull_against_brute(self, small_corpus):
        for I in small_corpus + corpus(4242, 20, (5, 6), max_gens=8):
            supports = [
                {j for j, e in enumerate(row) if e}
                for row in I.exponent_matrix.tolist()
            ]
            want = max(
                k
                for k in range(I.d + 1)
                for S in combinations(range(I.d), k)
                if not any(s <= set(S) for s in supports)
            )
            assert krull_dimension(I) == want


class TestIdealObject:
    def test_equality_and_hash(self):
        a = parse_ideal("x1*x2, x2^3", 2)
        b = parse_ideal("x2^3, x1*x2", 2)
        assert a == b and hash(a) == hash(b)

    def test_exponent_matrix_immutable(self):
        I = parse_ideal("x1*x2", 2)
        with pytest.raises(ValueError):
            I.exponent_matrix[0, 0] = 9

    def test_membership_operator(self):
        I = parse_ideal("x1*x2", 2)
        assert (1, 1) in I and (1, 0) not in I

    def test_ndarray_input_validated_like_lists(self):
        for gens in ([[1, 2, 3]], np.array([[1, 2, 3]])):
            with pytest.raises(ValueError, match="3 exponents, expected 2"):
                MonomialIdeal(2, gens)
        for gens in ([[1, -1]], np.array([[1, -1]])):
            with pytest.raises(ValueError, match="non-negative"):
                MonomialIdeal(2, gens)
        rows = [[0, 3], [1, 1], [2, 1], [1, 1]]
        I = MonomialIdeal(2, np.array(rows, dtype=np.int32))
        assert I == MonomialIdeal(2, rows)
        assert I.exponent_matrix.dtype == np.int64
        assert MonomialIdeal(2, np.zeros((0, 5), dtype=np.int64)).is_zero

    def test_list_exponent_beyond_int64_is_value_error(self):
        with pytest.raises(ValueError, match="int64"):
            MonomialIdeal(1, [[2**63]])

    def test_generators_str_round_trip(self, small_corpus):
        for I in small_corpus[:20]:
            assert parse_ideal(I.generators_str(), I.d) == I
