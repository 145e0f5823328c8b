"""Degree complexes, cohomology tables, and the degree invariants."""

import math
import tracemalloc
import types

import numpy as np
import pytest

from monocoh import _kernels
from monocoh import takayama as tk
from monocoh.errors import ResourceCapError, UnitIdealError
from monocoh.monomial_core import (
    MonomialIdeal,
    krull_dimension,
    membership_box,
    parse_ideal,
    power,
    saturate_irrelevant,
    var_degree_bounds,
)
from monocoh.simplicial import (
    from_facets,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from monocoh.takayama import (
    DEFAULT_PATTERN_CAP,
    CohomologyTable,
    DegreePattern,
    ExtendedDegree,
    cohomology_dim_at,
    cohomology_table,
    cohomology_tables,
    degree_complex,
    indeg,
    is_finite_length,
    regularity,
    table_indeg,
    table_topdeg,
    topdeg,
)

import oracles
from conftest import (
    boundary_degree,
    corpus,
    cycle_ideal,
    rows_permuted,
    text_lines,
)


def entry_map(table: CohomologyTable) -> dict:
    return {(p.G, p.a_plus): dim for p, dim in table.entries.items()}


class TestDegreeComplex:
    def test_at_zero_is_full_complex_over_powers(self, small_corpus):
        for I in small_corpus[:15]:
            K = stanley_reisner_complex(I)
            for n in (1, 2, 3, 4):
                J = power(I, n)
                assert degree_complex(J, (0,) * I.d) == K

    def test_small_positive_degree_keeps_full_complex(self):
        # generators of I^n have degree >= n, so x^a with |a| < n avoids
        # every projection of I^n
        rng = np.random.default_rng(21)
        for I in corpus(77, 8, (2, 3)):
            K = stanley_reisner_complex(I)
            for n in (2, 3, 4):
                J = power(I, n)
                for _ in range(5):
                    a = rng.multinomial(n - 1, [1 / I.d] * I.d)
                    assert degree_complex(J, tuple(int(x) for x in a)) == K

    def test_cycle_witness_complex(self):
        # witness degree (n-d+4, 0, 1, ..., 1, 0); its complex drops exactly
        # the two edges {2,3} and {d-1,d} from n = d-2 on, and one step
        # earlier {1,2} and {d,1} are missing too, leaving the path 3..d-1
        for d in (5, 6, 7):
            I = cycle_ideal(d)
            for n in (d - 2, d - 3):
                J = saturate_irrelevant(power(I, n))
                a = (n - d + 4, 0) + (1,) * (d - 3) + (0,)
                K = degree_complex(J, a)
                if n == d - 2:
                    expected = {
                        tuple(sorted(((i - 1) % d + 1, i % d + 1)))
                        for i in range(1, d + 1)
                        if i not in (2, d - 1)
                    }
                    assert cohomology_dim_at(J, 1, a, 0) == 1
                else:
                    expected = {(k, k + 1) for k in range(3, d - 1)}
                    assert cohomology_dim_at(J, 1, a, 0) == 0
                assert set(K.facets) == expected

    def test_against_the_definition(self, small_corpus):
        # ideals, their squares (box-backed) and saturated squares, at
        # negative, interior and boundary degrees: facets and every
        # cohomology_dim_at value against the definition of Δ_a(I)
        rng = np.random.default_rng(20261020)
        seen = {"pairs": 0, "box": 0, "negative": 0, "boundary": 0, "nonzero": 0}
        for I in small_corpus[:30]:
            P = power(I, 2)
            for J in (I, P, saturate_irrelevant(P)):
                if J.is_unit:
                    continue
                rho = var_degree_bounds(J).rho
                degrees = [boundary_degree(rng, rho)[0]]
                for _ in range(3):
                    a = [int(rng.integers(0, r + 1)) for r in rho]
                    for j in range(J.d):
                        if rng.random() < 0.3:
                            a[j] = -int(rng.integers(1, 3))
                    degrees.append(a)
                for a in degrees:
                    faces = oracles.brute_degree_complex(J, a)
                    K = degree_complex(J, a)
                    assert {frozenset(f) for f in K.facets} == oracles.brute_facets(
                        J.d, faces), (J, a)
                    g_size = sum(x < 0 for x in a)
                    for char in (0, 2):
                        for i in range(J.d + 1):
                            q = i - g_size - 1
                            want = oracles.reduced_homology_oracle(
                                faces, q, char) if q >= -1 else 0
                            got = cohomology_dim_at(J, i, a, char)
                            assert got == want, (J, a, i, char)
                            seen["nonzero"] += got != 0
                    seen["pairs"] += 1
                    seen["box"] += J._box is not None
                    seen["negative"] += g_size > 0
                    seen["boundary"] += any(
                        x >= r for x, r in zip(a, rho))
        assert seen["pairs"] >= 300 and seen["box"] >= 150, seen
        assert min(seen.values()) >= 50, seen

    def test_void_when_a_plus_inside(self):
        I = parse_ideal("x1*x2", 2)
        assert degree_complex(I, (1, 1)).is_void

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            degree_complex(parse_ideal("1", 2), (0, 0))

    def test_downward_closed_and_subcomplex(self, small_corpus):
        rng = np.random.default_rng(22)
        for I in small_corpus[:20]:
            full = stanley_reisner_complex(I).face_masks()
            for _ in range(10):
                a = tuple(int(x) for x in rng.integers(-3, 5, size=I.d))
                K = degree_complex(I, a)
                masks = K.face_masks()
                for m in masks:
                    sub = m
                    while sub:
                        sub = (sub - 1) & m
                        assert sub in masks
                assert masks <= full

    def test_pattern_independence(self, small_corpus):
        rng = np.random.default_rng(23)
        pairs = 0
        for I in small_corpus:
            rho = var_degree_bounds(I).rho
            for _ in range(20):
                a = [int(x) for x in rng.integers(-3, 6, size=I.d)]
                b = list(a)
                for j in range(I.d):
                    if a[j] < 0:
                        b[j] = -int(rng.integers(1, 9))
                    elif a[j] >= rho[j]:
                        b[j] = rho[j] + int(rng.integers(0, 7))
                assert degree_complex(I, tuple(a)) == degree_complex(I, tuple(b))
                pairs += 1
        assert pairs >= 1000


class TestDimAt:
    def test_edge_ideal_examples(self):
        I = parse_ideal("x1*x2", 2)
        assert cohomology_dim_at(I, 1, (0, 0), 0) == 1
        for t in (1, 2, 7):
            assert cohomology_dim_at(I, 1, (-t, 0), 0) == 1

    def test_i0_with_negative_support_is_zero(self, small_corpus):
        rng = np.random.default_rng(24)
        for I in small_corpus[:10]:
            a = [int(x) for x in rng.integers(0, 3, size=I.d)]
            a[int(rng.integers(0, I.d))] = -1
            assert cohomology_dim_at(I, 0, tuple(a), 0) == 0

    def test_i_out_of_range(self):
        I = parse_ideal("x1*x2", 2)
        with pytest.raises(ValueError):
            cohomology_dim_at(I, 3, (0, 0), 0)
        with pytest.raises(ValueError):
            cohomology_dim_at(I, -1, (0, 0), 0)

    def test_composite_char_rejected(self):
        I = parse_ideal("x1*x2", 2)
        with pytest.raises(ValueError):
            cohomology_dim_at(I, 1, (0, 0), 4)

    def test_huge_coordinates_equal_the_clamped_vector(self, small_corpus):
        # beyond int64 either way: a⁺_j clamps at rho_j, a negative
        # coordinate only marks membership in G
        rng = np.random.default_rng(20261019)
        huge = 10**20
        for I in small_corpus[:15]:
            rho = var_degree_bounds(I).rho
            for _ in range(3):
                kinds = rng.integers(0, 3, size=I.d).tolist()
                a = [(-huge, huge, int(rng.integers(0, 3)))[k] for k in kinds]
                clamped = [-1 if x < 0 else min(x, r) for x, r in zip(a, rho)]
                assert degree_complex(I, a) == degree_complex(I, clamped)
                for i in range(I.d + 1):
                    assert cohomology_dim_at(I, i, a, 0) == cohomology_dim_at(
                        I, i, clamped, 0), (I, a, i)


class TestTable:
    def test_m_squared_empty(self):
        t = cohomology_table(parse_ideal("x1^2, x1*x2, x2^2", 2), 1, 0)
        assert t.entries == {} and t.finite_length

    def test_edge_ideal_three_entries(self):
        t = cohomology_table(parse_ideal("x1*x2", 2), 1, 0)
        assert entry_map(t) == {
            ((), (0, 0)): 1,
            ((1,), (0, 0)): 1,
            ((2,), (0, 0)): 1,
        }
        assert not t.finite_length

    def test_cycle_powers_finite_length(self):
        I = cycle_ideal(5)
        for n in (1, 2, 3):
            J = saturate_irrelevant(power(I, n))
            assert cohomology_table(J, 1, 0).finite_length

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            cohomology_table(parse_ideal("0", 2), 1, 0)
        with pytest.raises(UnitIdealError):
            cohomology_table(parse_ideal("1", 2), 1, 0)

    def test_agrees_with_dim_at_on_representatives(self, small_corpus):
        # the table must equal pointwise evaluation at one representative
        # per pattern: -1 on G, the clamped a_plus elsewhere
        for I in small_corpus[:8]:
            dim_r = krull_dimension(I)
            for i in range(0, dim_r + 1):
                t = cohomology_table(I, i, 0)
                for pat, dim in t.entries.items():
                    a = list(pat.a_plus)
                    for g in pat.G:
                        a[g - 1] = -1
                    assert cohomology_dim_at(I, i, tuple(a), 0) == dim

    def test_entries_positive_and_consistent_fl(self, small_corpus):
        for I in small_corpus[:20]:
            for i in range(0, I.d + 1):
                t = cohomology_table(I, i, 0)
                assert all(dim > 0 for dim in t.entries.values())
                assert t.finite_length == all(
                    p.G == () for p in t.entries)

    def test_vanishes_above_dimension(self, small_corpus):
        for I in small_corpus[:15]:
            dim_r = krull_dimension(I)
            for i in range(dim_r + 1, I.d + 1):
                assert cohomology_table(I, i, 0).entries == {}

    def test_artinian_bound_holds_on_corpus(self, small_corpus):
        # the scan visits only a⁺_j < rho_j; TestOneScan's boundary oracle
        # checks that the degrees it skips vanish
        for I in small_corpus:
            rho = var_degree_bounds(I).rho
            for i in range(0, I.d + 1):
                t = cohomology_table(I, i, 0)
                for p in t.entries:
                    for j in range(I.d):
                        if (j + 1) not in p.G and rho[j] >= 1:
                            assert p.a_plus[j] < rho[j]

    def test_saturation_invariance_above_zero(self, small_corpus):
        for I in small_corpus[:12]:
            for n in (1, 2):
                J = power(I, n)
                Js = saturate_irrelevant(J)
                if Js.is_unit:
                    continue
                for i in range(1, I.d + 1):
                    assert cohomology_table(J, i, 0) == cohomology_table(Js, i, 0)

    def test_resource_cap(self):
        I = cycle_ideal(5)
        with pytest.raises(ResourceCapError) as exc:
            cohomology_table(power(I, 3), 1, 0, pattern_cap=100)
        assert exc.value.cap == 100
        assert exc.value.required > 100
        assert "i=1" in str(exc.value)

    def test_json_round_trip(self, small_corpus):
        for I in small_corpus[:10]:
            for i in (0, 1, 2):
                t = cohomology_table(I, i, 0)
                assert CohomologyTable.from_json(t.to_json()) == t

    def test_char_matters_for_projective_plane_ideal(self):
        # Stanley-Reisner ideal of the 6-vertex projective plane: its
        # quotient has depth (hence cohomology) depending on char
        from monocoh.simplicial import from_facets, stanley_reisner_ideal
        rp2 = from_facets(6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6),
                              (1, 2, 6), (2, 3, 5), (3, 4, 6), (2, 4, 5),
                              (3, 5, 6), (2, 4, 6)])
        I = stanley_reisner_ideal(rp2)
        t0 = cohomology_table(I, 2, 0)
        t2 = cohomology_table(I, 2, 2)
        assert entry_map(t0) == {}
        assert entry_map(t2) == {((), (0,) * 6): 1}


class TestHochsterOracle:
    @pytest.mark.parametrize("char", [0, 2])
    def test_squarefree_tables_match_links(self, squarefree_corpus, char):
        for I in squarefree_corpus:
            for i in range(0, I.d + 1):
                t = cohomology_table(I, i, char)
                assert entry_map(t) == oracles.hochster_table_oracle(I, i, char)

    @pytest.mark.parametrize("char", [0, 2])
    @pytest.mark.parametrize("tri", [(1, 2, 3), (8, 9, 10)], ids=["low", "high"])
    def test_multiword_face_masks(self, tri, char):
        # hollow triangle on `tri` plus a disjoint 6-simplex on the other 7
        # vertices: at i=2, G=∅ there are 70 candidate faces, two mask words
        # per row. With tri = (8, 9, 10) the simplex's 64 small faces fill
        # the first word and the triangle's faces, which carry the
        # homology, sit in the second.
        rest = [b for b in range(1, 11) if b not in tri]
        gens = [f"x{a}*x{b}" for a in tri for b in rest]
        gens.append("*".join(f"x{a}" for a in tri))
        I = parse_ideal(", ".join(gens), 10)
        faces = stanley_reisner_complex(I).face_masks()
        assert sum(1 for f in faces if f.bit_count() <= 3) == 70
        for i in (1, 2):
            want = oracles.hochster_table_oracle(I, i, char)
            assert entry_map(cohomology_table(I, i, char)) == want
        assert len(want) == 7


class TestEulerCharacteristic:
    def test_grothendieck_serre(self):
        # sum_i (-1)^i dim H^i_m(R/I)_t = HF(t) - HP(t) checks every i of a
        # non-squarefree table at once; the ring side is a brute-force box
        ideals = [I for I in corpus(20261019, 60, (2, 3, 4))
                  if I.exponent_matrix.max() >= 2][:40]
        cycles = [power(cycle_ideal(5), n) for n in (1, 2, 3)]
        ideals += cycles + [saturate_irrelevant(J) for J in cycles]
        assert len(ideals) == 46
        nonzero = 0
        for I in ideals:
            tables = cohomology_tables(I, range(I.d + 1), 0)
            top = max(sum(var_degree_bounds(I).rho) + 2, 6)
            ring = oracles.euler_characteristic_oracle(I, range(-8, top + 1))
            for t, (hf, chi) in ring.items():
                assert oracles.table_euler_characteristic(tables, t) == chi, (I, t)
                nonzero += chi != 0
                if 0 <= t <= 4:
                    assert hf == oracles.brute_hilbert(I, t), (I, t)
        assert nonzero >= 100


class TestOneScan:
    """cohomology_tables: one scan of the degree patterns for every i."""

    @pytest.mark.parametrize("char", [0, 2])
    def test_all_degrees_match_links(self, squarefree_corpus, char):
        for I in squarefree_corpus:
            tables = cohomology_tables(I, range(I.d + 1), char)
            assert sorted(tables) == list(range(I.d + 1))
            for i, t in tables.items():
                assert t.i == i and t.char == char
                assert entry_map(t) == oracles.hochster_table_oracle(I, i, char)

    @pytest.mark.parametrize("d,n", [(5, 2), (5, 3), (6, 2)])
    def test_all_degrees_match_cycle_oracle(self, d, n):
        J = saturate_irrelevant(power(cycle_ideal(d), n))
        tables = cohomology_tables(J, range(d + 1), 0)
        for i, t in tables.items():
            assert entry_map(t) == oracles.cycle_table_oracle(d, n, i, 0), i

    def test_single_degree_views(self, small_corpus):
        for I in small_corpus[:30]:
            every = cohomology_tables(I, range(I.d + 1), 0)
            some = cohomology_tables(I, [I.d, 0], 0)
            assert sorted(some) == [0, I.d]
            for i, t in every.items():
                one = cohomology_table(I, i, 0)
                assert one == t and one.finite_length == t.finite_length
                if i in some:
                    assert some[i] == t

    def test_regularity_scans_each_g_once(self, small_corpus, monkeypatch):
        # one scan per cohomology_tables call: its box holds every G once,
        # as the cells on the top slabs of G's axes
        calls = []
        scan = _kernels.scan_face_masks

        def recording(box, faces, max_i):
            keys = scan(box, faces, max_i)
            calls.append((box.shape, faces, max_i, keys.shape[0]))
            return keys

        monkeypatch.setattr(_kernels, "scan_face_masks", recording)
        # x1*x2 in d = 3: x3 is absent (rho_3 = 0), so no face may hold it
        absent = parse_ideal("x1*x2", 3)
        for J in small_corpus[:20] + [cycle_ideal(6), absent]:
            calls.clear()
            regularity(J, 0)
            rho = var_degree_bounds(J).rho
            [(shape, faces, max_i, cells)] = calls
            # the whole box, which is the G = ∅ term of the pattern cap
            assert shape == tuple(r + 1 for r in rho)
            assert cells == math.prod(shape) == tk._pattern_counts(rho, J.d)[0]
            assert max_i == krull_dimension(J)
            assert all(0 < len(f) <= max_i + 1 for f in faces)
            assert all(rho[j] for f in faces for j in f)
        assert faces == [(0,), (1,)]

    def test_absent_variables_shift_every_degree(self, small_corpus):
        # R' = R[y_1..y_k]: H^{i+k}(R'/IR') is H^i(R/I) tensored with the top
        # local cohomology of k[y], one dimension in each degree negative on
        # every y. So each row gains the y's in G and zeros in a⁺. The cap
        # charges every G its own box, about 2^k of them, while the scanned
        # box stays that of I, so it is lifted here.
        rng = np.random.default_rng(20261020)
        nonempty = 0
        for I in small_corpus[:20]:
            d, k = I.d, 20 - I.d
            at = sorted(rng.choice(20, size=d, replace=False).tolist())
            wide = np.zeros((I.num_gens, 20), dtype=np.int64)
            wide[:, at] = I.exponent_matrix
            absent = [j + 1 for j in range(20) if j not in at]
            for n in (1, 2):
                J, J20 = power(I, n), power(MonomialIdeal(20, wide), n)
                tables = cohomology_tables(
                    J20, [i + k for i in range(d + 1)], pattern_cap=2**40)
                for i, table in cohomology_tables(J, range(d + 1)).items():
                    want = set()
                    for G, a, dim in table.sorted_rows():
                        a20 = [0] * 20
                        for j, e in zip(at, a):
                            a20[j] = e
                        G20 = sorted(absent + [at[g - 1] + 1 for g in G])
                        want.add((tuple(G20), tuple(a20), dim))
                    got = tables[i + k].sorted_rows()
                    assert {(G, tuple(a), dim) for G, a, dim in got} == want
                    nonempty += bool(want)
        assert nonempty >= 40, nonempty

    def test_cap_names_first_degree_over_it(self, monkeypatch):
        I = cycle_ideal(5)  # rho = 1: 32 patterns at i=0, 112 at i=1
        scanned = []
        monkeypatch.setattr(
            _kernels, "scan_face_masks", lambda *a, **k: scanned.append(a))
        with pytest.raises(ResourceCapError, match="i=1 exceeds the cap 100"):
            cohomology_tables(I, range(6), 0, pattern_cap=100)
        assert scanned == []

    def test_default_cap_counts_the_wide_faces(self, monkeypatch):
        # x1*...*x20 has a box of 2^20 cells, under the default cap, but
        # sum_{|G| <= 5} C(20, |G|) 2^(20 - |G|) patterns at i = 5; a cap on
        # cells alone would scan 60,459 candidate faces, one key bit each
        I = MonomialIdeal(20, np.ones((1, 20), dtype=np.int64))
        required = sum(math.comb(20, g) << (20 - g) for g in range(6))
        assert 1 << 20 < DEFAULT_PATTERN_CAP < required == 1_036_320_768
        scanned = []
        monkeypatch.setattr(
            _kernels, "scan_face_masks", lambda *a, **k: scanned.append(a))
        with pytest.raises(ResourceCapError) as exc:
            cohomology_tables(I, [5])
        assert exc.value.required == required
        assert exc.value.cap == DEFAULT_PATTERN_CAP
        assert "i=5" in str(exc.value) and scanned == []

    def test_boundary_degrees_vanish(self, small_corpus):
        # the scan skips every degree with a_j >= rho_j for some j outside
        # G (vertex j is a cone point of Δ_a); degree_complex knows no such
        # shortcut, so cohomology_dim_at checks the skip independently
        rng = np.random.default_rng(20261018)
        cycles = [power(cycle_ideal(5), n) for n in (2, 3)]
        ideals = small_corpus + cycles + [saturate_irrelevant(J) for J in cycles]
        draws = absent_axes = with_g = 0
        for I in ideals:
            rho = var_degree_bounds(I).rho
            for _ in range(1 if I.d < 5 else 4):
                a, G, edge = boundary_degree(rng, rho)
                for char in (0, 2):
                    for i in range(I.d + 1):
                        assert cohomology_dim_at(I, i, a, char) == 0, (I, a, i)
                draws += 1
                absent_axes += rho[edge] == 0
                with_g += len(G) >= 1
        assert draws == 76 and absent_axes >= 5 and with_g >= 20

    def test_rejects_bad_degree_and_empty_request(self):
        I = parse_ideal("x1*x2", 2)
        with pytest.raises(ValueError):
            cohomology_tables(I, [0, 3], 0)
        assert cohomology_tables(I, [], 0) == {}


def recording_unique(monkeypatch) -> list[int]:
    """Key counts of every ``np.unique`` call made through takayama's ``np``,
    seen by a stand-in module that monkeypatch restores."""
    sizes: list[int] = []
    proxy = types.ModuleType(np.__name__)
    proxy.__dict__.update(np.__dict__)

    def unique(ar, *args, **kwargs):
        sizes.append(int(np.asarray(ar).size))
        return np.unique(ar, *args, **kwargs)

    proxy.unique = unique
    monkeypatch.setattr(tk, "np", proxy)
    return sizes


class TestMaskDedup:
    """``_unique_rows`` against the sort it replaces: the same distinct
    rows in the same order and the same partition of the patterns, on both
    sides of the presence-table thresholds."""

    MIN = _kernels._DENSE_DEDUP_MIN_KEYS
    SPAN = _kernels._DENSE_DEDUP_SPAN

    @staticmethod
    def check(masks):
        rows, inverse = tk._unique_rows(masks)
        _, first, want = np.unique(
            tk._row_keys(masks), return_index=True, return_inverse=True)
        assert rows.dtype == masks.dtype
        assert np.array_equal(rows, masks[first])
        assert np.array_equal(inverse, want)
        assert np.array_equal(rows[inverse], masks)

    # keys below SPAN * max(n, MIN) take the presence table, at any count
    @pytest.mark.parametrize("n, top, dense", [
        (7, SPAN * MIN - 1, True),
        (7, SPAN * MIN, False),
        (MIN - 1, 3 * (MIN - 1), True),
        (MIN, 3 * MIN, True),
        (MIN, SPAN * MIN - 1, True),
        (MIN, SPAN * MIN, False),
        (5 * MIN, SPAN * 5 * MIN - 1, True),
        (5 * MIN, SPAN * 5 * MIN, False),
    ])
    def test_thresholds(self, monkeypatch, n, top, dense):
        sorted_sizes = recording_unique(monkeypatch)
        rng = np.random.default_rng(n + top)
        keys = rng.integers(0, top + 1, size=n)
        keys[rng.integers(0, n)] = top
        self.check(keys.astype(np.uint32).reshape(-1, 1))
        assert sorted_sizes == ([] if dense else [n])

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    @pytest.mark.parametrize("value", [0, 5])
    def test_all_equal_keys(self, monkeypatch, dtype, value):
        sorted_sizes = recording_unique(monkeypatch)
        masks = np.full((2 * self.MIN, 1), value, dtype=dtype)
        rows, inverse = tk._unique_rows(masks)
        assert rows.tolist() == [[value]] and not inverse.any()
        self.check(masks)
        assert sorted_sizes == []

    @pytest.mark.parametrize("n", [7, 2 * MIN])
    def test_multiword_masks_sort(self, monkeypatch, n):
        sorted_sizes = recording_unique(monkeypatch)
        rng = np.random.default_rng(n)
        masks = rng.integers(0, 3, size=(n, 2)).astype(np.uint64)
        masks[:, 1] <<= np.uint64(62)
        self.check(masks)
        assert sorted_sizes == [n]

    def test_cycle_grid_tables_take_the_presence_table(self, monkeypatch):
        # a cycle-grid-shaped table, whose one scan keeps at least MIN cells
        # outside the ideal, and a small table of a few dozen: both dedup
        # their keys without a sort, into a narrow inverse. With the span
        # lowered until the largest key reaches SPAN * max(count, MIN), the
        # same keys take the sort and give the same table.
        sorted_sizes = recording_unique(monkeypatch)
        deduped = []
        unique_rows = tk._unique_rows

        def recording(masks):
            rows, inverse = unique_rows(masks)
            deduped.append((masks.shape[0], int(masks.max()), rows.shape[0],
                            inverse.dtype))
            return rows, inverse

        monkeypatch.setattr(tk, "_unique_rows", recording)
        grid = saturate_irrelevant(power(cycle_ideal(6), 5))
        small = parse_ideal("x1^2*x2, x2^3*x3, x1*x3^2", 3)
        for J, many in ((grid, True), (small, False)):
            deduped.clear()
            dense = cohomology_table(J, 1)
            [(keys, top, rows, dtype)] = deduped
            assert (keys >= self.MIN) == many and sorted_sizes == []
            assert dtype == np.min_scalar_type(rows)
            assert dense.dims.size > 0
            with monkeypatch.context() as m:
                m.setattr(_kernels, "_DENSE_DEDUP_SPAN",
                          top // max(keys, self.MIN))
                assert cohomology_table(J, 1) == dense
            assert sorted_sizes == [keys]
            sorted_sizes.clear()
        J = saturate_irrelevant(power(cycle_ideal(6), 4))
        want = oracles.cycle_table_oracle(6, 4, 1)
        assert entry_map(cohomology_table(J, 1)) == want


class TestExtendedDegreeInvariants:
    def test_finite_length_examples(self):
        assert not is_finite_length(parse_ideal("x1*x2", 2), 1, 0)
        assert is_finite_length(parse_ideal("x1^2, x1*x2, x2^3", 2), 1, 0)
        assert is_finite_length(
            parse_ideal("x1*x3, x1*x4, x2*x3, x2*x4", 4), 1, 0)

    def test_indeg_examples(self):
        assert indeg(parse_ideal("x1*x2", 2), 1, 0) == ExtendedDegree.neg_inf()
        assert indeg(parse_ideal("x1, x2", 2), 0, 0) == ExtendedDegree.finite(0)
        for n in (3, 4):
            J = saturate_irrelevant(power(cycle_ideal(5), n))
            v = indeg(J, 1, 0)
            assert v.is_finite and n <= v.value <= n + 1

    def test_topdeg_examples(self):
        assert topdeg(parse_ideal("x1*x2", 2), 1, 0) == ExtendedDegree.finite(0)
        assert topdeg(parse_ideal("x1, x2", 2), 1, 0) == ExtendedDegree.neg_inf()
        assert topdeg(parse_ideal("x1, x2", 2), 0, 0) == ExtendedDegree.finite(0)

    def test_regularity_examples(self):
        assert regularity(parse_ideal("x1, x2", 2), 0) == 0
        assert regularity(parse_ideal("x1*x2", 2), 0) == 1
        # frozen regression for the 5-cycle ideal
        assert regularity(cycle_ideal(5), 0) == 2

    def test_principal_resolution_oracle(self):
        # R(-|a|) -> R resolves R/(x^a): reg = |a| - 1
        rng = np.random.default_rng(25)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            a = [int(x) for x in rng.integers(0, 4, size=d)]
            if sum(a) == 0:
                a[0] = 1
            gens = "*".join(
                f"x{j+1}^{e}" for j, e in enumerate(a) if e) or "x1"
            I = parse_ideal(gens, d)
            assert regularity(I, 0) == sum(a) - 1

    def test_indeg_le_topdeg_and_reg_bound(self, small_corpus):
        for I in small_corpus[:20]:
            r = regularity(I, 0)
            for i in range(0, I.d + 1):
                t = cohomology_table(I, i, 0)
                lo, hi = table_indeg(t), table_topdeg(t)
                if lo.is_finite and hi.is_finite:
                    assert lo.value <= hi.value
                if hi.is_finite:
                    assert hi.value + i <= r


class TestRegularityOracle:
    """``regularity`` reads its answer off the cells the tables decode; the
    oracle reads it off every table, as max_i (topdeg + i)."""

    @staticmethod
    def artinian_ideals() -> list[MonomialIdeal]:
        """Ideals with R/I of finite length: a pure power of every variable,
        plus a few seeded mixed generators."""
        rng = np.random.default_rng(20261021)
        out = [parse_ideal("x1^2, x2^3", 2), parse_ideal("x1, x2, x3", 3)]
        for _ in range(12):
            d = int(rng.integers(1, 5))
            gens = [f"x{j + 1}^{int(rng.integers(1, 5))}" for j in range(d)]
            for _ in range(int(rng.integers(0, 4))):
                gens.append("*".join(f"x{j + 1}^{int(rng.integers(1, 3))}"
                                     for j in range(d) if rng.random() < 0.6)
                            or "x1^3")
            out.append(parse_ideal(", ".join(gens), d))
        return out

    @pytest.mark.parametrize("char", [0, 32003])
    def test_reader_equals_tables(self, small_corpus, char):
        cases = list(small_corpus) + self.artinian_ideals()
        # x3 is absent from x1*x2 in d = 3, so it is in every G
        cases.append(parse_ideal("x1*x2", 3))
        # Δ is a hollow triangle and a point, nonzero at i = 1 and i = 2 in
        # degree 0, where the regularity is attained at the larger i
        hollow = parse_ideal("x1*x2*x3, x1*x4, x2*x4, x3*x4", 4)
        cases += [hollow, power(hollow, 2), power(hollow, 3)]
        for d in (5, 6):
            for n in range(1, 5):
                J = power(cycle_ideal(d), n)
                cases += [J, saturate_irrelevant(J)]
        finite = 0
        for I in cases:
            assert regularity(I, char) == oracles.regularity_from_tables(
                I, char), (I, char)
            finite += krull_dimension(I) == 0
        assert finite >= 14

    def test_reader_follows_the_field(self):
        # the Stanley-Reisner ring of the projective plane has H~_1 over F_2
        # only, which raises its regularity there
        I = stanley_reisner_ideal(from_facets(6, [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]))
        regs = {char: regularity(I, char) for char in (0, 2)}
        assert regs == {char: oracles.regularity_from_tables(I, char)
                        for char in (0, 2)}
        assert regs[0] != regs[2]


class TestDegreePatternType:
    def test_invariant_zero_on_g(self):
        with pytest.raises(ValueError):
            DegreePattern(a_plus=(1, 0), G=(1,))

    def test_total_degree(self):
        p = DegreePattern(a_plus=(0, 2, 0), G=(1,))
        assert p.total_degree == 1  # 2 - |G|


def columnar_tables() -> list[CohomologyTable]:
    """Every table of seeded corpus ideals and of cycle powers, over Q and
    F_32003."""
    ideals = corpus(20261019, 25, (2, 3, 4, 5)) + [
        J
        for d in (5, 6)
        for n in (1, 2, 3)
        for J in (power(cycle_ideal(d), n),
                  saturate_irrelevant(power(cycle_ideal(d), n)))
        if not J.is_unit
    ]
    return [
        t
        for I in ideals
        for char in (0, 32003)
        for t in cohomology_tables(I, range(krull_dimension(I) + 1), char).values()
    ]


def pattern_key(item):
    p, _ = item
    return (len(p.G), p.G, p.a_plus)


class TestColumnarTable:
    """The table's arrays against formulas over its ``entries`` dict."""

    @pytest.fixture(scope="class")
    def tables(self) -> list[CohomologyTable]:
        return columnar_tables()

    def test_invariants_equal_the_entry_formulas(self, tables):
        for t in tables:
            fl, lo, hi = t.finite_length, table_indeg(t), table_topdeg(t)
            e = t.entries
            assert fl == all(not p.G for p in e)
            if not fl:
                assert lo == ExtendedDegree.neg_inf()
            elif not e:
                assert lo == ExtendedDegree.pos_inf()
            else:
                assert lo.value == min(sum(p.a_plus) for p in e)
            if e:
                assert hi.value == max(p.total_degree for p in e)
            else:
                assert hi == ExtendedDegree.neg_inf()
            # a view over sorted_rows: a fresh dict on every access
            assert t.entries == e and t.entries is not e
            assert len(e) == t.dims.size
            assert all(dim > 0 for dim in e.values())

    def test_order_is_the_pattern_key(self, tables):
        wide = 0
        for t in tables:
            want = sorted(t.entries.items(), key=pattern_key)
            assert t.sorted_entries() == want
            assert [
                (tuple(e["G"]), tuple(e["a_plus"]), e["dim"])
                for e in t.to_dict()["entries"]
            ] == [(p.G, p.a_plus, dim) for p, dim in want]
            wide += any(len(p.G) >= 2 for p in t.entries)
        assert wide >= 10

    def test_scan_writes_rows_in_key_order(self, tables):
        # the scan leaves its rows in flat-index order and sorted_rows puts
        # the same rows in key order; x4 and x2 are absent below
        absent = [(parse_ideal("x1*x2^2, x2*x3", 4), 3),
                  (parse_ideal("x1^2*x3, x3^3", 3), 1)]
        extra = [
            (j, t)
            for I, j in absent
            for t in cohomology_tables(I, range(I.d + 1), 0).values()
        ]
        assert any(t.dims.size for _, t in extra)
        for j, t in extra:
            assert all(g >> j & 1 for g in t.g_masks.tolist())
        wide = 0
        for t in tables + [t for _, t in extra]:
            G = tk._g_tuples(t.g_masks.tolist(), t.a_plus.shape[1])
            rows = list(zip(G, t.a_plus.tolist(), t.dims.tolist()))
            assert sorted(rows) == sorted(t.sorted_rows())
            wide += any(len(g) >= 2 for g in G)
        assert wide >= 10

    def test_json_round_trip_with_two_element_g(self, tables):
        wide = [t for t in tables if any(len(p.G) >= 2 for p in t.entries)]
        assert len(wide) >= 10
        for t in wide:
            back = CohomologyTable.from_json(t.to_json())
            assert back == t and back.entries == t.entries

    @pytest.mark.parametrize("i, char", [
        (-5, 0), (1, 4), (1.7, 0), (True, 0), (1, 2.5),
    ], ids=["negative-i", "composite-char", "float-i", "bool-i", "float-char"])
    def test_from_dict_rejects_a_bad_degree_or_field(self, i, char):
        data = {"i": i, "char": char, "finite_length": True, "entries": []}
        with pytest.raises(ValueError, match="must be|composite"):
            CohomologyTable.from_dict(data)

    def test_from_dict_rejects_a_repeated_pattern(self):
        row = {"G": [1], "a_plus": [0, 0], "dim": 1}
        data = {"i": 1, "char": 0, "finite_length": False, "entries": [row, row]}
        with pytest.raises(ValueError, match="listed twice"):
            CohomologyTable.from_dict(data)

    @pytest.mark.parametrize("rows", [
        [{"G": [5], "a_plus": [0, 0], "dim": 1}],
        [{"G": [0], "a_plus": [0, 0], "dim": 1}],
        [{"G": [], "a_plus": [0, 0], "dim": 0}],
        [{"G": [], "a_plus": [0, 0], "dim": -2}],
        [{"G": [], "a_plus": [-3, 0], "dim": 1}],
        [{"G": [], "a_plus": [1, 0], "dim": 1},
         {"G": [], "a_plus": [1], "dim": 1}],
    ], ids=["g-above-d", "g-zero", "dim-zero", "dim-negative",
            "a-plus-negative", "ragged"])
    def test_from_dict_rejects_a_malformed_row(self, rows):
        data = {"i": 1, "char": 0, "finite_length": True, "entries": rows}
        with pytest.raises(ValueError, match="malformed table row|one width"):
            CohomologyTable.from_dict(data)

    def test_equality_ignores_row_order(self, tables):
        t = max(tables, key=lambda t: t.dims.size)
        flip = slice(None, None, -1)
        reordered = CohomologyTable(
            i=t.i, char=t.char, a_plus=t.a_plus[flip], g_masks=t.g_masks[flip],
            dims=t.dims[flip], rho=t.rho)
        assert reordered == t and reordered.sorted_rows() == t.sorted_rows()
        changed = t.dims.copy()
        changed[0] += 1
        assert CohomologyTable(
            i=t.i, char=t.char, a_plus=t.a_plus, g_masks=t.g_masks,
            dims=changed, rho=t.rho) != t

    def test_invariants_build_no_entries(self, monkeypatch, capsys):
        from monocoh import asymptotics as asy
        from monocoh import cli

        built = []
        scan = tk.cohomology_tables

        def recording(*args, **kwargs):
            out = scan(*args, **kwargs)
            built.extend(out.values())
            return out

        def no_entries(self):
            raise AssertionError("a table's rows were built as patterns")

        monkeypatch.setattr(tk, "cohomology_tables", recording)
        # ``entries`` is built by ``sorted_entries`` on every access
        monkeypatch.setattr(CohomologyTable, "sorted_entries", no_entries)
        with pytest.raises(AssertionError, match="built as patterns"):
            cohomology_table(cycle_ideal(5), 1).entries
        built.clear()
        J = saturate_irrelevant(power(cycle_ideal(5), 3))
        indeg(J, 1, 0)
        topdeg(J, 1, 0)
        regularity(J, 0)
        asy._row_for_power(cycle_ideal(5), 3, 1, True, 0, tk.DEFAULT_PATTERN_CAP)
        # regularity reads the decoded cells and builds no table: indeg,
        # topdeg and the row's one table
        assert len(built) == 2 + 1
        assert sum(t.dims.size for t in built) > 0
        for t in built:
            t.to_json()
            t.sorted_rows()
            assert t == rows_permuted(t, slice(None, None, -1))
        # the command writes its JSON, CSV and text from the arrays too
        for fmt in ("json", "csv", "text"):
            built.clear()
            c5 = "x1*x3, x1*x4, x2*x4, x2*x5, x3*x5"
            assert cli.main(["cohomology", "--ideal", c5, "--d", "5", "--i", "all",
                             "--powers", "2..3", "--format", fmt]) == 0
            assert capsys.readouterr().out
            assert len(built) == 2 * 6 and sum(t.dims.size for t in built) > 0


class TestTableWriter:
    """``to_json`` and ``sorted_rows`` against the reference writer of
    ``oracles``: rows read off the arrays, sorted in Python, written by
    ``json.dumps``."""

    def test_the_mix_covers_every_kind(self, writer_tables):
        tables = writer_tables
        assert len(tables) >= 200
        assert any(t.char == 2 and t.dims.size for t in tables)
        assert any(g >> 9 for t in tables for g in t.g_masks.tolist())
        assert any(int(t.a_plus.max(initial=0)) >= 1 << 61 for t in tables)
        assert sum(not t.dims.size for t in tables) >= 10

    def test_json_and_rows_equal_the_reference(self, writer_tables):
        for t in writer_tables:
            assert text_lines(t.to_json()) == text_lines(oracles.reference_json(t))
            assert [(G, tuple(a), dim) for G, a, dim in t.sorted_rows()] == (
                oracles.reference_rows(t))
            assert t.to_dict() == oracles.reference_table_dict(t)

    def test_any_row_order_writes_the_same_bytes(self, writer_tables):
        rng = np.random.default_rng(7)
        for t in writer_tables:
            shuffled = rows_permuted(t, rng.permutation(t.dims.size))
            text = text_lines(t.to_json())
            assert shuffled == t and text_lines(shuffled.to_json()) == text
            back = CohomologyTable.from_json(t.to_json())
            assert back == t and text_lines(back.to_json()) == text


class TestScanMemory:
    def test_peak_is_at_most_8_bytes_per_box_cell(self):
        # every per-cell array of the scan, the dedup and the decode keeps a
        # narrow type: sat(C_7^6) spans 7^7 = 823,543 box cells, read by a
        # table at i = 1, by the regularity and by the tables of every i
        J = saturate_irrelevant(power(cycle_ideal(7), 6))
        cells = membership_box(J).size
        assert cells == 7**7
        warm = saturate_irrelevant(power(cycle_ideal(5), 2))
        for reader in (
            lambda J: cohomology_table(J, 1),
            regularity,
            lambda J: cohomology_tables(J, range(krull_dimension(J) + 1)),
        ):
            reader(warm)
            tracemalloc.start()
            try:
                reader(J)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * cells, (reader, peak / cells)
