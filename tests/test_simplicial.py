"""Complexes, the squarefree correspondence, and the homology engine."""

from itertools import combinations

import numpy as np
import pytest

from monocoh import _kernels, simplicial
from monocoh.monomial_core import parse_ideal, power, saturate_irrelevant
from monocoh.simplicial import (
    MAX_CHAR,
    SimplicialComplex,
    _boundary_matrix,
    _component_count,
    _reduced_homology,
    _validate_char,
    from_facets,
    homology_dim_single,
    homology_dims_from_masks,
    reduced_homology_dims,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from monocoh.takayama import cohomology_table, regularity

import oracles
from conftest import corpus, cycle_ideal

RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
# boundary of the triangle on vertices 1, 2, 3, as face bitmasks
HOLLOW_TRIANGLE = {0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110}
# boundary of the 3-simplex on vertices 1..4: every face but the whole set
TETRAHEDRON_BOUNDARY = set(range(0b1111))


def random_complex(rng, d):
    nf = int(rng.integers(1, 6))
    facets = []
    for _ in range(nf):
        k = int(rng.integers(1, d + 1))
        facets.append(tuple(sorted(
            int(v) for v in rng.choice(d, size=k, replace=False) + 1)))
    return from_facets(d, facets)


class TestComplexObject:
    def test_kinds(self):
        void = SimplicialComplex(3, ())
        irr = SimplicialComplex(3, (0,))
        assert void.is_void and void.dim == -2
        assert irr.is_irrelevant and irr.dim == -1
        assert void.text_form() == "void"
        assert irr.text_form() == "{}"

    def test_facets_are_canonical_antichain(self):
        K = from_facets(4, [(1, 2), (2,), (3, 4), (1, 2)])
        assert K.facets == ((1, 2), (3, 4))

    def test_face_masks_downward_closed(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            K = random_complex(rng, int(rng.integers(2, 7)))
            masks = K.face_masks()
            for m in masks:
                sub = m
                while sub:
                    sub = (sub - 1) & m
                    assert sub in masks

    def test_contains_face(self):
        K = from_facets(3, [(1, 2)])
        assert K.contains_face((1,)) and K.contains_face((1, 2))
        assert not K.contains_face((1, 3))

    def test_from_facets_conventions(self):
        assert from_facets(3, [(1, 2), (2, 3), (1,)]).facets == ((1, 2), (2, 3))
        assert from_facets(2, []).is_void
        assert from_facets(2, [()]).is_irrelevant


class TestStanleyReisner:
    def test_edge_ideal_two_points(self):
        K = stanley_reisner_complex(parse_ideal("x1*x2", 2))
        assert K.facets == ((1,), (2,))

    def test_cycle(self):
        K = stanley_reisner_complex(cycle_ideal(5))
        assert K.facets == ((1, 2), (2, 3), (3, 4), (1, 5), (4, 5))

    def test_radicalizes_first(self):
        K1 = stanley_reisner_complex(parse_ideal("x1^2*x2", 2))
        K2 = stanley_reisner_complex(parse_ideal("x1*x2", 2))
        assert K1 == K2

    def test_unit_warns_void(self):
        with pytest.warns(UserWarning):
            K = stanley_reisner_complex(parse_ideal("1", 2))
        assert K.is_void

    def test_zero_gives_full_simplex(self):
        K = stanley_reisner_complex(parse_ideal("0", 3))
        assert K.facets == ((1, 2, 3),)

    def test_irrelevant_from_max_ideal(self):
        assert stanley_reisner_complex(parse_ideal("x1, x2, x3", 3)).is_irrelevant

    def test_ideal_of_named_complexes(self):
        five_cycle = from_facets(
            5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert stanley_reisner_ideal(five_cycle) == parse_ideal(
            "x1*x3, x1*x4, x2*x4, x2*x5, x3*x5", 5)
        assert stanley_reisner_ideal(from_facets(3, [(1, 2, 3)])).is_zero
        irr = SimplicialComplex(2, (0,))
        assert stanley_reisner_ideal(irr) == parse_ideal("x1, x2", 2)

    def test_round_trip_squarefree(self, squarefree_corpus):
        for I in squarefree_corpus:
            K = stanley_reisner_complex(I)
            if K.is_void:
                continue
            assert stanley_reisner_ideal(K) == I

    def test_round_trip_from_complex(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            K = random_complex(rng, int(rng.integers(2, 6)))
            J = stanley_reisner_ideal(K)
            assert stanley_reisner_complex(J) == K

    def test_void_has_no_ideal(self):
        with pytest.raises(ValueError):
            stanley_reisner_ideal(SimplicialComplex(2, ()))


class TestHomologyFixtures:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_spheres(self, k):
        nv = k + 2
        K = from_facets(nv, list(combinations(range(1, nv + 1), nv - 1)))
        prof = reduced_homology_dims(K, 0)
        for q in range(-1, k + 2):
            assert prof.dim(q) == (1 if q == k else 0)

    def test_full_simplex_acyclic(self):
        K = from_facets(4, [(1, 2, 3, 4)])
        prof = reduced_homology_dims(K, 0)
        assert all(prof.dim(q) == 0 for q in range(-1, 4))

    def test_irrelevant_has_h_minus_one(self):
        K = SimplicialComplex(3, (0,))
        assert reduced_homology_dims(K, 0).dim(-1) == 1

    def test_void_all_zero(self):
        K = SimplicialComplex(3, ())
        prof = reduced_homology_dims(K, 0)
        assert all(prof.dim(q) == 0 for q in range(-2, 4))

    def test_two_points(self):
        K = from_facets(2, [(1,), (2,)])
        assert reduced_homology_dims(K, 0).dim(0) == 1

    def test_five_cycle_loop(self):
        K = from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        prof = reduced_homology_dims(K, 0)
        assert prof.dim(0) == 0 and prof.dim(1) == 1

    def test_triangle_boundary(self):
        K = from_facets(3, [(1, 2), (1, 3), (2, 3)])
        assert reduced_homology_dims(K, 0).dim(1) == 1

    def test_char_independent_below_torsion(self):
        # complexes on at most 5 vertices carry no torsion visible in dims
        rng = np.random.default_rng(17)
        for _ in range(20):
            K = random_complex(rng, 5)
            profs = [reduced_homology_dims(K, ch) for ch in (0, 2, 3, 5)]
            for q in range(-1, 5):
                assert len({p.dim(q) for p in profs}) == 1

    @pytest.mark.parametrize("char,h1,h2", [(0, 0, 0), (2, 1, 1), (3, 0, 0)])
    def test_projective_plane(self, char, h1, h2):
        K = from_facets(6, RP2_FACETS)
        prof = reduced_homology_dims(K, char)
        assert prof.dim(0) == 0
        assert prof.dim(1) == h1
        assert prof.dim(2) == h2

    def test_cone_acyclicity(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            K = random_complex(rng, d)
            apex = d + 1
            coned = from_facets(
                d + 1, [f + (apex,) for f in K.facets])
            prof = reduced_homology_dims(coned, 0)
            assert all(prof.dim(q) == 0 for q in range(-1, d + 1))

    def test_cones_make_no_rank_calls(self, monkeypatch):
        calls = []
        real_rank = simplicial._matrix_rank

        def counting_rank(mat, char):
            calls.append(mat.shape)
            return real_rank(mat, char)

        monkeypatch.setattr(simplicial, "_matrix_rank", counting_rank)
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            K = random_complex(rng, d)
            apex = d + 1
            coned = from_facets(d + 1, [f + (apex,) for f in K.facets])
            assert reduced_homology_dims(coned, 0).dims == {}
            masks = coned.face_masks()
            for q in range(-1, d + 1):
                truncated = {m for m in masks if m.bit_count() <= q + 2}
                assert homology_dims_from_masks(truncated, 3, (q,)) == {}
        assert calls == []
        # a complex with no cone point through degree 2 still needs ∂_2's
        # matrix
        assert homology_dims_from_masks(TETRAHEDRON_BOUNDARY, 0, (2,)) == {2: 1}
        assert calls


class TestHomologyAgainstOracle:
    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_random_complexes(self, char):
        rng = np.random.default_rng(15)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            K = random_complex(rng, d)
            faces = oracles.downward_closure(list(K.facets))
            for q in range(-1, d):
                want = oracles.reduced_homology_oracle(faces, q, char)
                got = homology_dim_single(K.face_masks(), q, char)
                assert got == want, (K.facets, q, char)

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_degree_subsets(self, char):
        # only the requested degrees are computed, sharing adjacent ranks
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            K = random_complex(rng, d)
            faces = oracles.downward_closure(list(K.facets))
            want = {q: oracles.reduced_homology_oracle(faces, q, char)
                    for q in range(-1, d)}
            for _ in range(4):
                k = int(rng.integers(1, d + 3))
                degs = [int(q) for q in rng.choice(
                    np.arange(-2, d + 1), size=k, replace=False)]
                expected = {q: want[q] for q in degs if want.get(q)}
                assert _reduced_homology(K.face_masks(), degs, char) == expected
                assert homology_dims_from_masks(
                    K.face_masks(), char, degs) == expected
            everything = {q: v for q, v in want.items() if v}
            assert _reduced_homology(K.face_masks(), None, char) == everything
            assert homology_dims_from_masks(K.face_masks(), char) == everything

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_truncated_face_sets(self, char):
        # the homology routine is handed only the faces with |F| <= q_max + 2
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            K = random_complex(rng, d)
            if rng.integers(2):
                # a cone over K plus one face off the apex: coned only in
                # the degrees below that face unless K already holds it
                size = int(rng.integers(1, d + 1))
                extra = tuple(sorted(
                    int(v) for v in rng.choice(d, size=size, replace=False) + 1))
                K = from_facets(d + 1, [f + (d + 1,) for f in K.facets] + [extra])
            faces = oracles.downward_closure(list(K.facets))
            want = {q: oracles.reduced_homology_oracle(faces, q, char)
                    for q in range(-1, K.d)}
            masks = K.face_masks()
            for q in range(-1, K.d):
                truncated = {m for m in masks if m.bit_count() <= q + 2}
                for lo in range(-1, q + 1):
                    degs = range(lo, q + 1)
                    expected = {k: want[k] for k in degs if want[k]}
                    got = homology_dims_from_masks(truncated, char, degs)
                    assert got == expected, (K.facets, degs, char)
                assert homology_dim_single(truncated, q, char) == want[q]

    def test_hollow_triangle_truncated(self):
        # coned through degree 0 (every vertex sees the other two) but not 1
        assert homology_dims_from_masks(HOLLOW_TRIANGLE, 0, (0,)) == {}
        assert homology_dims_from_masks(HOLLOW_TRIANGLE, 0, (1,)) == {1: 1}
        assert homology_dims_from_masks(HOLLOW_TRIANGLE, 0, (0, 1)) == {1: 1}
        assert homology_dims_from_masks(HOLLOW_TRIANGLE, 0, (-1, 0)) == {}

    def test_empty_face_required(self):
        assert _reduced_homology(set(), (0, 1), 0) == {}
        with pytest.raises(ValueError, match="empty face"):
            homology_dims_from_masks({1, 2}, 0, (0,))

    def test_euler_characteristic(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            K = random_complex(rng, d)
            masks = K.face_masks()
            chi_faces = sum((-1) ** (bin(m).count("1") - 1) for m in masks)
            prof = reduced_homology_dims(K, 0)
            chi_hom = sum(
                (-1) ** q * prof.dim(q) for q in range(-1, d + 1))
            assert chi_faces == chi_hom


class TestGraphRank:
    def test_components_give_the_rank_of_the_incidence_matrix(self):
        # rank ∂_1 = V - c over Q, F_2 and the largest accepted F_p
        rng = np.random.default_rng(41)
        seen = {"no edges": 0, "isolated": 0, "several": 0}
        for _ in range(120):
            nv = int(rng.integers(1, 21))
            vertices = sorted(
                1 << int(v) for v in rng.choice(20, size=nv, replace=False))
            pairs = list(combinations(vertices, 2))
            keep = rng.random(len(pairs)) < rng.choice([0.0, 0.05, 0.15, 0.5])
            edges = sorted(u | v for (u, v), k in zip(pairs, keep) if k)
            c = _component_count(vertices, edges)
            mat = _boundary_matrix(vertices, edges)
            for rank in (_kernels.rank_char0(mat), _kernels.gf_rank(mat, 2),
                         _kernels.gf_rank(mat, 2**31 - 1)):
                assert rank == nv - c, (vertices, edges)
            touched = 0
            for e in edges:
                touched |= e
            seen["no edges"] += not edges
            seen["isolated"] += touched != sum(vertices)
            seen["several"] += c > 1
        assert min(seen.values()) >= 5, seen

    def test_component_examples(self):
        assert _component_count([1], []) == 1
        assert _component_count([1, 2, 4, 8], []) == 4
        assert _component_count([1, 2, 4, 8], [0b0011, 0b1100]) == 2
        assert _component_count([1, 2, 4, 8], [0b0011, 0b0110, 0b1100]) == 1


class TestWhereMatricesAreBuilt:
    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        real_rank = simplicial._matrix_rank

        def counting_rank(mat, char):
            calls.append(mat.shape)
            return real_rank(mat, char)

        monkeypatch.setattr(simplicial, "_matrix_rank", counting_rank)
        return calls

    def test_cycle_powers_build_no_matrix(self, rank_calls, monkeypatch):
        # Δ(C_6) is the 6-cycle, a graph: every degree complex is at most
        # 1-dimensional, so no homology needs a matrix, nor the cone test
        # that only skips matrix work
        cone_tests = []
        real_cone = simplicial._has_cone_point

        def counting_cone(*args):
            cone_tests.append(args)
            return real_cone(*args)

        monkeypatch.setattr(simplicial, "_has_cone_point", counting_cone)
        J = saturate_irrelevant(power(cycle_ideal(6), 4))
        table = cohomology_table(J, 1)
        entries = {(p.G, p.a_plus): dim for p, dim in table.entries.items()}
        assert entries == oracles.cycle_table_oracle(6, 4, 1)
        # I^s has a linear resolution for s >= 2 when I is the edge ideal
        # of a cycle's complement (Banerjee 2015), so reg R/I^3 = 2*3 - 1
        assert regularity(power(cycle_ideal(6), 3)) == 5
        assert rank_calls == [] and cone_tests == []

    @pytest.mark.parametrize("char,h1", [(0, 0), (2, 1)])
    def test_projective_plane_still_builds_matrices(self, rank_calls, char, h1):
        dims = reduced_homology_dims(from_facets(6, RP2_FACETS), char).dims
        assert dims.get(1, 0) == h1
        assert rank_calls


class TestValidation:
    def test_char_must_be_prime_or_zero(self):
        K = from_facets(2, [(1, 2)])
        for bad in (-1, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                reduced_homology_dims(K, bad)
        for ok in (0, 2, 3, 5, 7, 97):
            reduced_homology_dims(K, ok)

    def test_char_bound(self):
        assert MAX_CHAR == 2**31 - 1 and _validate_char(MAX_CHAR) == MAX_CHAR
        # rejected by size before any primality work, so large primes fail fast
        for big in (4294967311, 2**61 - 1):
            with pytest.raises(ValueError, match="2\\*\\*31 - 1"):
                _validate_char(big)

    def test_largest_char_matches_rationals(self):
        # complexes on at most 5 vertices are torsion-free
        rng = np.random.default_rng(29)
        for _ in range(40):
            K = random_complex(rng, 5)
            assert (reduced_homology_dims(K, MAX_CHAR).dims
                    == reduced_homology_dims(K, 0).dims)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            from_facets(2, [(1, 3)])
