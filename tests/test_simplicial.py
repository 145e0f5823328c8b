"""Complexes, the squarefree correspondence, and the homology engine."""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from monocoh import _kernels, monomial_core, simplicial, takayama
from monocoh.monomial_core import (
    MonomialIdeal,
    krull_dimension,
    parse_ideal,
    power,
    radical,
    saturate_irrelevant,
)
from monocoh.simplicial import (
    MAX_CHAR,
    SimplicialComplex,
    _boundary_matrix,
    _FaceFrame,
    _forest_size,
    _validate_char,
    _word_homology,
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
        # seeded candidate lists, with repeats and non-maximal candidates,
        # against a brute downward closure; from d = 10 on the (2,)*d face
        # indicator holds 512 cells per step, so ``upward_close`` closes it
        # by slice maxima
        rng = np.random.default_rng(12)
        wide = 0
        for _ in range(60):
            d = int(rng.integers(1, 13))
            cands = [
                tuple(sorted(int(v) + 1 for v in rng.choice(
                    d, size=int(rng.integers(0, d + 1)), replace=False)))
                for _ in range(int(rng.integers(0, 6)))
            ]
            cands += [c[1:] for c in cands if c] + cands[:2]
            faces = {frozenset(sub) for c in cands
                     for r in range(len(c) + 1) for sub in combinations(c, r)}
            masks = {sum(1 << (v - 1) for v in f) for f in faces}
            K = from_facets(d, cands)
            assert K.face_masks() == masks
            assert {frozenset(f) for f in K.facets} == oracles.brute_facets(d, faces)
            facet_masks = [sum(1 << (v - 1) for v in f) for f in K.facets]
            assert facet_masks == sorted(facet_masks)
            assert K.dim == max((len(f) - 1 for f in faces), default=-2)
            for m in range(1 << d):
                vertices = [j + 1 for j in range(d) if m >> j & 1]
                assert K.contains_face(vertices) == (m in masks)
            wide += d >= 10
        assert wide >= 10, wide

    def test_contains_face(self):
        K = from_facets(3, [(1, 2)])
        assert K.contains_face((1,)) and K.contains_face((1, 2))
        assert not K.contains_face((1, 3))

    def test_from_facets_conventions(self):
        assert from_facets(3, [(1, 2), (2, 3), (1,)]).facets == ((1, 2), (2, 3))
        # ascending mask order, not lexicographic: {2} is 0b010, {1,3} 0b101
        assert from_facets(3, [(1, 3), (2,)]).facets == ((2,), (1, 3))
        assert from_facets(2, []).is_void
        assert from_facets(2, [()]).is_irrelevant

    @pytest.mark.parametrize("mask", [8, -1, 1 << 64])
    def test_mask_outside_the_box_is_rejected(self, mask):
        with pytest.raises(ValueError):
            SimplicialComplex(3, [mask])

    def test_constructor_closes_downward(self):
        K = SimplicialComplex(3, [1, 3])
        assert K == SimplicialComplex(3, [3]) and K.facets == ((1, 2),)
        assert hash(K) == hash(SimplicialComplex(3, [3]))
        assert K != SimplicialComplex(4, [3]) and K != SimplicialComplex(3, [5])

    def test_face_indicator_is_read_only(self):
        for K in (SimplicialComplex(3, [3]), stanley_reisner_complex(cycle_ideal(5)),
                  takayama.degree_complex(cycle_ideal(5), (-1, 0, 0, 0, 0))):
            with pytest.raises(ValueError):
                K._flags[0] = False


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


def lattice_corpus(seed: int, count: int) -> list[MonomialIdeal]:
    """The zero ideal and the maximal ideal in 1..12 variables, then seeded
    ideals in 1..12 variables, each variable absent from all generators
    with probability 1/4. Exponents stay at most 1 from d = 7 on, so that
    squares of the wide ideals are still built as one box."""
    rng = np.random.default_rng(seed)
    out = []
    for d in range(1, 13):
        out += [MonomialIdeal(d), MonomialIdeal(d, np.eye(d, dtype=np.int64))]
    while len(out) < 24 + count:
        d = int(rng.integers(1, 13))
        rows = rng.integers(0, 4 if d <= 6 else 2, size=(int(rng.integers(1, 7)), d))
        rows[:, rng.random(d) < 0.25] = 0
        out.append(MonomialIdeal(d, rows[rows.any(axis=1)]))
    return out


class TestSubsetLattice:
    """Faces, facets, non-faces and Krull dimension, read off {0,1}^d boxes,
    against frozenset oracles. Square-free boxes of d >= 10 variables hold
    at least 512 cells per step on every axis, so ``upward_close`` closes
    them by slice maxima, also on the flipped view of a complex's face indicator;
    smaller ones by accumulation."""

    def test_against_frozenset_oracles(self):
        seen = {"box": 0, "absent": 0, "wide": 0, "full": 0, "irrelevant": 0}
        for I in lattice_corpus(20261020, 100):
            d = I.d
            seen["absent"] += not I.is_zero and not I.exponent_matrix.max(axis=0).all()
            forms = [I]
            if not I.is_zero:
                P = power(I, 2)
                forms += [P, saturate_irrelevant(P)]
            for J in forms:
                flags = monomial_core._corner_flags(J, (0,) * J.d)
                faces = oracles.brute_radical_faces(J)
                assert flags.shape == (1 << d,)
                assert {
                    frozenset(j + 1 for j in range(d) if m >> j & 1)
                    for m in np.flatnonzero(flags).tolist()
                } == faces, J
                seen["box"] += J._box is not None
                if J.is_unit:
                    continue
                seen["wide"] += d >= 10
                assert krull_dimension(J) == max(len(f) for f in faces)
                K = stanley_reisner_complex(J)
                assert {frozenset(f) for f in K.facets} == oracles.brute_facets(
                    d, faces)
                seen["full"] += K.facets == (tuple(range(1, d + 1)),)
                seen["irrelevant"] += K.is_irrelevant
                SR = stanley_reisner_ideal(K)
                assert {
                    frozenset(j + 1 for j, e in enumerate(row) if e)
                    for row in SR.exponent_matrix.tolist()
                } == oracles.brute_minimal_nonfaces(d, faces)
                assert SR == radical(J)
        assert seen["box"] >= 150 and seen["absent"] >= 50, seen
        assert seen["wide"] >= 50 and seen["full"] >= 12, seen
        assert seen["irrelevant"] >= 12, seen


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
        # the hollow tetrahedron has no cone point through degree 2, but on
        # n = 4 vertices q = 2 = n - 2 is read by Alexander duality
        assert homology_dims_from_masks(TETRAHEDRON_BOUNDARY, 0, (2,)) == {2: 1}
        assert calls == []
        # a middle degree, 1 <= q <= n - 4, with no cone point still needs
        # the matrices around it: RP² on n = 6 vertices at q = 1 over F_2
        rp2 = from_facets(6, RP2_FACETS).face_masks()
        assert homology_dims_from_masks(rp2, 2, (1,)) == {1: 1}
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
                assert homology_dims_from_masks(
                    K.face_masks(), char, degs) == expected
            everything = {q: v for q, v in want.items() if v}
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
        assert homology_dims_from_masks(set(), 0, (0, 1)) == {}
        with pytest.raises(ValueError, match="empty face"):
            homology_dims_from_masks({1, 2}, 0, (0,))

    @pytest.mark.parametrize("faces", [
        {0, 3},                         # an edge without its vertices
        {0, 1, 2, 4, 7},                # a triangle without its edges
        {0, -1},                        # a negative mask
        {0, 1 << monomial_core.MAX_VARIABLES},  # a vertex past the last
    ])
    def test_face_sets_must_be_complexes(self, faces):
        with pytest.raises(ValueError):
            homology_dims_from_masks(faces, 0)
        with pytest.raises(ValueError):
            homology_dim_single(faces, 0, 0)

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


def component_count(vertices, edges):
    """Connected components of a graph given by vertex and edge masks, read
    through a face frame of its faces ordered by size."""
    frame = _FaceFrame(sorted(vertices) + sorted(edges))
    edge_bits = (1 << len(edges)) - 1
    return len(vertices) - _forest_size(edge_bits, frame.ends)


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
            c = component_count(vertices, edges)
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
        assert component_count([1], []) == 1
        assert component_count([1, 2, 4, 8], []) == 4
        assert component_count([1, 2, 4, 8], [0b0011, 0b1100]) == 2
        assert component_count([1, 2, 4, 8], [0b0011, 0b0110, 0b1100]) == 1


def face_set_cases():
    """(d, face masks) of {∅}, isolated vertices, a filled triangle, a
    filled triangle beside a vertex, then seeded random downward-closed face
    sets on at most six vertices."""
    cases = [(1, {0}), (3, {0, 1, 2, 4}), (3, set(range(8))),
             (4, set(range(8)) | {8})]
    rng = np.random.default_rng(53)
    for _ in range(24):
        d = int(rng.integers(2, 7))
        faces = set()
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, d + 1))
            facet = sum(1 << int(v) for v in rng.choice(d, size=size, replace=False))
            sub = facet
            while True:
                faces.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & facet
        cases.append((d, faces))
    return cases


# sha256 of the results of the routine this one replaced (which built a face
# set, a by-dimension dict and an adjacency dict per complex), over
# ``face_set_cases`` x (Q, F_2, F_32003) x every subset of the degrees
# -1..d-1, the empty one included; 2,556 results
FACE_SET_RESULTS_SHA256 = (
    "c2d9d0e736ec368240759f1a05f2279f118dd0c7232d0fcc1308e7af2d764c76"
)


class TestFaceWords:
    """``_word_homology`` reads a complex as a word over a frame of faces."""

    def test_words_against_oracle_and_stored_results(self):
        results = []
        for d, faces in face_set_cases():
            oracle_faces = {
                frozenset(v for v in range(d) if m >> v & 1) for m in faces}
            # a frame of every nonempty subset of [d], so the complex's bits
            # are scattered over it, as a table's keys are
            frame = _FaceFrame(sorted(range(1, 1 << d), key=int.bit_count))
            word = sum(1 << k for k, f in enumerate(frame.faces) if f in faces)
            for char in (0, 2, 32003):
                want = {q: oracles.reduced_homology_oracle(oracle_faces, q, char)
                        for q in range(-1, d)}
                for k in range(d + 2):
                    for degs in combinations(range(-1, d), k):
                        got = homology_dims_from_masks(faces, char, degs)
                        assert got == {q: want[q] for q in degs if want[q]}
                        if degs:
                            assert _word_homology(word, frame, degs, char) == got
                        results.append(sorted(got.items()))
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        assert len(results) == 2556 and digest == FACE_SET_RESULTS_SHA256

    def test_words_longer_than_one_machine_word(self):
        # the 3-skeleton and the boundary of the 6-simplex: 98 and 126 bits
        # of a frame of every nonempty subset of [7], so the face list is
        # read across several 64-bit chunks of the word
        frame = _FaceFrame(sorted(range(1, 1 << 7), key=int.bit_count))
        for top, want in ((4, {3: 15}), (6, {5: 1})):
            faces = [f for f in frame.faces if f.bit_count() <= top]
            oracle_faces = {frozenset(v for v in range(7) if m >> v & 1)
                            for m in faces + [0]}
            for char in (0, 2):
                assert {q: oracles.reduced_homology_oracle(oracle_faces, q, char)
                        for q in want} == want
                got = _word_homology((1 << len(faces)) - 1, frame,
                                     list(range(-1, 7)), char)
                assert got == want

    def test_low_degrees_of_a_filled_triangle_build_no_face_list(
            self, monkeypatch):
        # asked only about q <= 0, a word with a triangle is read from V, E
        # and c: no boundary matrix and no cone test
        def refuse(*args):
            raise AssertionError("face list expanded")

        monkeypatch.setattr(simplicial, "_has_cone_point", refuse)
        monkeypatch.setattr(simplicial, "_boundary_matrix", refuse)
        for faces, dims in ((set(range(8)), {}),
                            (set(range(8)) | {8}, {0: 1})):
            for degs in ((-1,), (0,), (-1, 0)):
                want = {q: v for q, v in dims.items() if q in degs}
                assert homology_dims_from_masks(faces, 0, degs) == want


def random_graphs(rng, count):
    """(d, face masks) of seeded graphs on at most 7 vertices, the empty
    face included: each of d <= 7 vertices is present with probability
    0.8 and each pair of present ones an edge with a random density, so
    that the irrelevant complex, isolated vertices, forests and cycles all
    occur."""
    out = []
    for _ in range(count):
        d = int(rng.integers(1, 8))
        verts = [1 << v for v in range(d) if rng.random() < 0.8]
        density = rng.random()
        edges = [a | b for a, b in combinations(verts, 2)
                 if rng.random() < density]
        out.append((d, {0, *verts, *edges}))
    return out


class TestGraphWords:
    """``_word_homology`` answers a graph word (no bit above the edge
    range) from V, E and the forest size r_1, without ``_chain_dims``."""

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        calls = []
        real = simplicial._chain_dims

        def counting(word, frame, qs, char):
            n = (word & ((1 << frame.nv) - 1)).bit_count()
            calls.append((word >> frame.graph_end, n, list(qs)))
            return real(word, frame, qs, char)

        monkeypatch.setattr(simplicial, "_chain_dims", counting)
        return calls

    def test_graphs_against_the_oracle(self, chain_calls, monkeypatch):
        forests = []
        real_forest = simplicial._forest_size

        def counting_forest(edges, ends):
            forests.append(edges)
            return real_forest(edges, ends)

        monkeypatch.setattr(simplicial, "_forest_size", counting_forest)
        rng = np.random.default_rng(20261021)
        kinds = set()
        # a hollow triangle and an isolated vertex: H~_0 and H~_1 both 1
        cases = random_graphs(rng, 80) + [(4, {0, 1, 2, 4, 8, 3, 5, 6})]
        for d, faces in cases:
            oracle_faces = {
                frozenset(v for v in range(d) if m >> v & 1) for m in faces}
            # a frame of every subset of at most top vertices: with top = 3
            # the frame reaches above the edge range, the word does not
            top = int(rng.integers(2, 4))
            frame = _FaceFrame(sorted((m for m in range(1, 1 << d)
                                       if m.bit_count() <= top),
                                      key=int.bit_count))
            word = sum(1 << k for k, f in enumerate(frame.faces) if f in faces)
            assert not word >> frame.graph_end
            for char in (0, 2, 32003):
                want = {q: oracles.reduced_homology_oracle(oracle_faces, q, char)
                        for q in range(-1, 3)}
                kinds.add(tuple(bool(want[q]) for q in range(-1, 2)))
                for k in range(1, 5):
                    for degs in combinations(range(-1, 3), k):
                        forests.clear()
                        got = _word_homology(word, frame, list(degs), char)
                        assert got == {q: want[q] for q in degs if want[q]}, (
                            d, sorted(faces), degs, char)
                        # r_1 only when some degree reads it
                        if not {0, 1} & set(degs):
                            assert forests == []
        assert chain_calls == []
        # the irrelevant complex, H~_0 alone, H~_1 alone and both occur
        assert {(True, False, False), (False, True, False),
                (False, False, True), (False, True, True)} <= kinds, kinds

    def test_tables_send_only_wider_words_to_the_chain_complex(
            self, chain_calls, small_corpus):
        # C_d tables read graph words only. Of the words with a face of three
        # vertices, on n vertices, the formula answers q <= 0 and duality
        # q >= max(1, n - 3), so only the middle degrees reach _chain_dims;
        # the table of RP²'s ideal at i = 2 asks for H~_1 on its 6 vertices
        for d, n in ((5, 3), (6, 2), (7, 4)):
            J = saturate_irrelevant(power(cycle_ideal(d), n))
            takayama.cohomology_tables(J, range(4))
        assert chain_calls == []
        rp2 = stanley_reisner_ideal(from_facets(6, RP2_FACETS))
        for I in [rp2, *small_corpus[:30]]:
            takayama.cohomology_tables(I, range(I.d + 1))
        assert chain_calls
        for wide, n, qs in chain_calls:
            assert wide and qs and all(1 <= q <= n - 4 for q in qs), (n, qs)


def complexes_on_four_vertices():
    """Every nonvoid complex on at most 4 vertices, as the face masks of a
    downward-closed family of subsets of [4] that holds the empty face."""
    out = []
    for pick in range(1 << 15):
        faces = {0} | {m for m in range(1, 16) if pick >> (m - 1) & 1}
        if all(f & ~(1 << v) in faces for f in faces for v in range(4)):
            out.append(faces)
    return out


def sampled_complexes(rng, count):
    """(d, face masks) of seeded complexes on 5..8 vertices, each generated
    by a few random non-faces (every mask holding none of them is a face),
    most of them wide, so that the top degrees carry homology."""
    out = []
    for _ in range(count):
        d = int(rng.integers(5, 9))
        nonfaces = [
            sum(1 << int(v) for v in rng.choice(
                d, size=int(rng.integers(max(2, d - 3), d + 1)), replace=False))
            for _ in range(int(rng.integers(1, 5)))
        ]
        out.append((d, {m for m in range(1 << d)
                        if not any(m & g == g for g in nonfaces)}))
    return out


class TestAlexanderDuality:
    """``_word_homology`` answers a word with a face of three or more
    vertices, on n vertices, by Alexander duality at q >= max(1, n - 3)."""

    def test_duality_degrees_against_the_oracle(self):
        # every degree -1..n over Q, F_2 and F_3; the sampled frames stop
        # at a random face size, so a wider mask is outside the frame and
        # the word's complex is the truncated one
        rng = np.random.default_rng(2909)
        cases = [(4, faces, 4) for faces in complexes_on_four_vertices()]
        # on 7 and 8 vertices the oracle's exact ranks of wide boundary
        # matrices dominate the run time, so those frames stop at 4 vertices
        cases += [(d, faces, int(rng.integers(3, (d if d <= 6 else 4) + 1)))
                  for d, faces in sampled_complexes(rng, 24)]
        # H~_{n-2} is nonzero only on the boundary of the simplex on V
        cases += [(d, set(range((1 << d) - 1)), d) for d in (5, 6)]
        hits = {"n-1": 0, "n-2": 0, "n-3": 0}
        nonzero = {"n-2": 0, "n-3": 0}
        for d, faces, top in cases:
            frame = _FaceFrame(sorted((m for m in range(1, 1 << d)
                                       if m.bit_count() <= top), key=int.bit_count))
            kept = {m for m in faces if m.bit_count() <= top}
            word = sum(1 << k for k, f in enumerate(frame.faces) if f in kept)
            oracle_faces = {frozenset(v for v in range(d) if m >> v & 1)
                            for m in kept}
            n = sum(1 for m in kept if m.bit_count() == 1)
            dual = any(m.bit_count() >= 3 for m in kept)
            qs = list(range(-1, n + 1))
            for char in (0, 2, 3):
                want = {q: oracles.reduced_homology_oracle(oracle_faces, q, char)
                        for q in qs}
                got = _word_homology(word, frame, qs, char)
                assert got == {q: v for q, v in want.items() if v}, (
                    d, sorted(kept), char)
                for q in qs:
                    if dual and q >= 1 and q >= n - 3:
                        branch = f"n-{max(n - q, 1)}"
                        hits[branch] += 1
                        if want[q] and branch in nonzero:
                            nonzero[branch] += 1
        assert min(hits.values()) >= 50, hits
        assert min(nonzero.values()) >= 9, nonzero


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

    def test_cycle_tables_read_only_graph_words(self, rank_calls, monkeypatch):
        # Δ(C_d) is the d-cycle, so every key of a C_d table is a graph word
        # (no bit above the edge range), answered without a face list
        def refuse(*args):
            raise AssertionError("face list expanded")

        words = []
        word_homology = takayama._word_homology

        def recording(word, frame, qs, char):
            words.append(word >> frame.graph_end)
            return word_homology(word, frame, qs, char)

        monkeypatch.setattr(takayama, "_word_homology", recording)
        monkeypatch.setattr(simplicial, "_has_cone_point", refuse)
        monkeypatch.setattr(simplicial, "_boundary_matrix", refuse)
        for d, n in ((5, 3), (6, 2), (7, 4)):
            J = saturate_irrelevant(power(cycle_ideal(d), n))
            takayama.cohomology_tables(J, range(3))
        assert words and not any(words)
        assert rank_calls == []

    def test_top_degree_tables_build_no_matrix(self, rank_calls, monkeypatch):
        # an ideal of the benchmark's random corpus in 5 variables: at
        # i >= 3 every degree q = i - |G| - 1 >= 1 of a complex on n <= 5 - |G|
        # vertices has q >= n - 3, so Alexander duality answers it with no
        # cone test and no matrix
        cone_tests = []
        real_cone = simplicial._has_cone_point

        def counting_cone(*args):
            cone_tests.append(args)
            return real_cone(*args)

        monkeypatch.setattr(simplicial, "_has_cone_point", counting_cone)
        I = MonomialIdeal(5, [[1, 1, 0, 0, 3], [3, 0, 4, 1, 1]])
        for char in (0, 32003):
            tables = takayama.cohomology_tables(I, (3, 4), char)
            for i, table in tables.items():
                entries = {(p.G, p.a_plus): dim
                           for p, dim in table.entries.items()}
                assert entries == oracles.degree_table_oracle(I, i, char)
                assert entries
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

    def test_face_set_routines_check_char(self):
        # the top degrees read by duality never consult char, so a bad one
        # must be refused before any homology is computed
        assert homology_dims_from_masks(HOLLOW_TRIANGLE, 2) == {1: 1}
        for bad in (4, -5, 1, 2**61 - 1):
            with pytest.raises(ValueError):
                homology_dims_from_masks(HOLLOW_TRIANGLE, bad)
            with pytest.raises(ValueError):
                homology_dim_single(HOLLOW_TRIANGLE, 1, bad)
            with pytest.raises(ValueError):
                homology_dims_from_masks(set(), bad)

    def test_char_bound(self):
        assert MAX_CHAR == 2**31 - 1 and _validate_char(MAX_CHAR) == MAX_CHAR
        # rejected by size before any primality work, so large primes fail fast
        for big in (4294967311, 2**61 - 1):
            with pytest.raises(ValueError, match="2\\*\\*31 - 1"):
                _validate_char(big)

    @pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
    def test_primes_are_accepted(self, p):
        assert _validate_char(p) == p

    @pytest.mark.parametrize("n", [4, 9, 25, 3 * 32003, 46337**2])
    def test_composites_are_rejected(self, n):
        # an even number, squares and a product of odd primes; 46337 is the
        # largest prime below isqrt(MAX_CHAR), so its square's one divisor
        # in range is the trial bound isqrt(n) itself
        with pytest.raises(ValueError, match=f"characteristic {n} is composite"):
            _validate_char(n)

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
