"""The numpy kernels against brute-force oracles and direct box probes,
on both sides of each measured crossover."""

import math
from itertools import combinations

import numpy as np
import pytest

from monocoh import _kernels as kr
from monocoh.monomial_core import MonomialIdeal, membership_box

import oracles


def random_box(rng, shape):
    return (rng.random(size=shape) < 0.2).astype(np.uint8)


class TestUpwardClose:
    def test_is_upward_closure(self):
        # the benchmark records this name in every run
        assert kr.BACKEND == "numpy"
        rng = np.random.default_rng(1)
        box = random_box(rng, (4, 4, 4))
        closed = box.copy()
        kr.upward_close(closed)
        # every marked cell is >= some original cell componentwise
        marked = np.argwhere(closed == 1)
        orig = np.argwhere(box == 1)
        for cell in marked:
            assert any((cell >= o).all() for o in orig)
        # and closure is idempotent
        again = closed.copy()
        kr.upward_close(again)
        assert np.array_equal(again, closed)

    # Axes on both sides of the per-axis rule: slice maxima on every axis
    # of (7,)*6 and on the length-9 axes of (1, 9, 1, 9, 9, 9), on axis 0
    # of (2, 1500), (600, 1, 4) and (600, 70); one accumulate call on every
    # other axis longer than 1, the last axis of (600, 70) because it is at
    # least 64 long although it has cells enough per step for slices.
    ROUTE_SHAPES = [(7,) * 6, (3, 5, 2, 4), (3000,), (2, 1500),
                    (1, 9, 1, 9, 9, 9), (600, 1, 4), (600, 70), (1, 1, 1)]

    def test_shapes_straddle_the_rule(self):
        routes = set()
        for shape in self.ROUTE_SHAPES:
            size = int(np.prod(shape))
            for ax, n in enumerate(shape):
                if n > 1:
                    routes.add((
                        size >= kr._SLICE_CLOSE_MIN_STEP_CELLS * n,
                        ax == len(shape) - 1
                        and n >= kr._ACCUMULATE_LAST_AXIS_MIN_LEN,
                    ))
        assert routes >= {(True, False), (False, False), (True, True)}

    @pytest.mark.parametrize("shape", ROUTE_SHAPES, ids=str)
    def test_matches_orthant_fill(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + int(np.prod(shape)))
        for marks in (1, 3, 12):
            box = np.zeros(shape, dtype=np.uint8)
            cells = [tuple(int(rng.integers(0, n)) for n in shape)
                     for _ in range(marks)]
            want = np.zeros(shape, dtype=np.uint8)
            for c in cells:
                box[c] = 1
                want[tuple(slice(v, None) for v in c)] = 1
            kr.upward_close(box)
            assert np.array_equal(box, want)
            kr.upward_close(box)
            assert np.array_equal(box, want)

    def test_wide_box_with_long_last_axis(self):
        # (2001, 2001): axis 0 by slice maxima, the last axis by accumulate
        box = membership_box(MonomialIdeal(2, [(2000, 0), (0, 2000)]))
        want = np.zeros((2001, 2001), dtype=np.uint8)
        want[2000, :] = 1
        want[:, 2000] = 1
        assert np.array_equal(box, want)
        box = np.zeros((2001, 2001), dtype=np.uint8)
        box[1000, 1500] = box[1999, 3] = 1
        want = np.zeros_like(box)
        want[1000:, 1500:] = want[1999:, 3:] = 1
        kr.upward_close(box)
        assert np.array_equal(box, want)

    def test_long_axis_box(self):
        box = membership_box(MonomialIdeal(1, [(10**6,)]))
        assert box.shape == (10**6 + 1,)
        assert box[-1] == 1 and int(box.sum()) == 1


class TestMinimalCells:
    def test_minimal_cells_match_brute(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            shape = tuple(int(x) for x in rng.integers(2, 5, size=3))
            box = random_box(rng, shape)
            kr.upward_close(box)
            mask = kr.minimal_cells(box)
            got = {tuple(int(v) for v in c) for c in np.argwhere(mask == 1)}
            cells = [tuple(int(v) for v in c) for c in np.argwhere(box == 1)]
            assert got == oracles.brute_minimalize(cells)


class TestPairwiseMinimal:
    def test_against_brute(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 40))
            d = int(rng.integers(1, 6))
            exps = rng.integers(0, 4, size=(m, d)).astype(np.int64)
            exps = np.unique(exps, axis=0)
            keep = kr.pairwise_minimal(exps)
            got = {tuple(r) for r in exps[keep].tolist()}
            want = oracles.brute_minimalize([tuple(r) for r in exps.tolist()])
            assert got == want


def scan_against_probes(rng, shape, nf, max_i):
    """Scan a random upward-closed box with ``nf`` random faces of at most
    ``max_i + 1`` axes against the oracle."""
    d = len(shape)
    box = np.zeros(shape, dtype=np.uint8)
    for _ in range(3):
        box[tuple(int(rng.integers(0, n)) for n in shape)] = 1
    kr.upward_close(box)
    pool = [f for k in range(1, max_i + 2) for f in combinations(range(d), k)]
    faces = [pool[k] for k in sorted(rng.choice(len(pool), nf, replace=False))]
    return scan_against_oracle(box, faces, max_i)


def scan_against_oracle(box, faces, max_i):
    """Scan the box; check every key against ``oracles.scan_keys_oracle``
    and return the keys as an array and as Python integers."""
    keys = kr.scan_face_masks(box, faces, max_i)
    assert isinstance(keys, np.ndarray) and keys.shape[0] == box.size
    got = [sum(int(w) << (64 * k) for k, w in enumerate(row))
           for row in keys.tolist()]
    assert got == oracles.scan_keys_oracle(box, faces, max_i)
    return keys, got


class TestScanAgainstProbes:
    @pytest.mark.parametrize("g_count", [0, 1, 3, 7])
    def test_bits_are_box_probes(self, g_count):
        # every bit of every cell against a direct probe of the box, with 80
        # faces so that faces land in the second word, and with cells on
        # top slabs (G != ∅). g_count axes have rho_j = 0, so they sit in
        # every G; at g_count = 7 the box is one cell.
        rng = np.random.default_rng(40 + g_count)
        d = 7
        shape = [int(x) for x in rng.integers(3, 5, size=d)]
        for j in rng.choice(d, size=g_count, replace=False):
            shape[j] = 1
        keys, got = scan_against_probes(rng, tuple(shape), 80, 3)
        assert keys.shape[1] == 2
        fields = {key >> 80 for key in got}
        assert (0 in fields) == (g_count == 0) and 4 in fields
        if g_count < 3:
            assert any(key >> 80 == 1 and key & ((1 << 80) - 1) for key in got)


class TestScanAgainstOracle:
    # (d, max_i, absent axes, word type): every word type, d = 1..8, and at
    # d = 8 all 92 faces of up to 3 axes, a key of two uint64 words
    CASES = [
        (1, 0, 0, "uint8"), (2, 1, 1, "uint8"), (3, 1, 0, "uint8"),
        (4, 1, 1, "uint16"), (4, 2, 0, "uint16"), (5, 1, 2, "uint32"),
        (7, 1, 0, "uint32"), (6, 2, 2, "uint64"), (8, 1, 3, "uint64"),
        (8, 2, 2, "uint64"),
    ]

    @pytest.mark.parametrize("grouping", ["whole", "slabs"])
    @pytest.mark.parametrize("d, max_i, absent, word", CASES)
    def test_every_face_of_seeded_boxes(self, monkeypatch, d, max_i, absent,
                                        word, grouping):
        # up-closed boxes from the orthants of a few seeded cells, with
        # ``absent`` axes of length 1 (rho_j = 0, in every G); the faces are
        # stacked over the whole box, or per last axis over its top slab
        limit = 1 << 62 if grouping == "whole" else 0
        monkeypatch.setattr(kr, "_SCAN_ONE_GROUP_MAX_CELLS", limit)
        rng = np.random.default_rng(100 * d + max_i)
        faces = [f for k in range(1, max_i + 2)
                 for f in combinations(range(d), k)]
        for _ in range(3):
            shape = [int(n) for n in rng.integers(2, 4 if d <= 5 else 3, size=d)]
            for j in rng.choice(d, size=absent, replace=False):
                shape[j] = 1
            box = np.zeros(shape, dtype=np.uint8)
            for _ in range(int(rng.integers(1, 4))):
                cell = [int(rng.integers(0, n)) for n in shape]
                box[tuple(slice(x, None) for x in cell)] = 1
            keys, got = scan_against_oracle(box, faces, max_i)
            nbits = len(faces) + (max_i + 1).bit_length()
            assert keys.dtype == np.dtype(word)
            assert keys.shape[1] == (nbits + 63) // 64
            # G = ∅ at cell 0 unless an axis is absent or the box is the
            # unit ideal's
            assert (min(key >> len(faces) for key in got) == 0) == (
                absent == 0 and not box.flat[0])


class TestScanWords:
    @pytest.mark.parametrize(
        "nf", [0, 1, 6, 8, 9, 14, 16, 17, 30, 32, 33, 62, 63, 64, 65])
    def test_narrow_words_hold_the_uint64_bits(self, nf):
        # the words are the narrowest unsigned type for the nf face bits and
        # the field above them, and hold the bits of the probes: nf = 6, 14,
        # 30, 62 fill 8, 16, 32, 64 bits exactly, and at nf = 63 the field
        # straddles the two uint64 words
        max_i = 1 if nf <= 28 else 2 if nf <= 63 else 3
        nbits = nf + (max_i + 1).bit_length()
        rng = np.random.default_rng(nf)
        shape = tuple(int(x) for x in rng.integers(2, 4, size=7))
        keys, _ = scan_against_probes(rng, shape, nf, max_i)
        width = next((w for w in (8, 16, 32) if nbits <= w), 64)
        assert keys.dtype == np.dtype(f"uint{width}")
        assert keys.shape[1] == (nbits + 63) // 64


class TestRanks:
    def test_gf_rank_against_oracle(self):
        rng = np.random.default_rng(6)
        for p in (2, 3, 5, 101):
            for _ in range(10):
                m = int(rng.integers(1, 9))
                n = int(rng.integers(1, 9))
                mat = rng.integers(-4, 5, size=(m, n)).astype(np.int64)
                got = kr.gf_rank(mat % p, p)
                want = oracles._rank_gfp(mat.tolist(), p)
                assert got == want

    def test_char0_rank_against_fraction_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            mat = rng.integers(-3, 4, size=(m, n)).astype(np.int64)
            got = kr.rank_char0(mat)
            want = oracles._rank_fraction(mat.tolist())
            assert got == want

    def test_gf_rank_large_prime_against_oracle(self):
        # residues near 2**31 make products near 2**62
        p = 2**31 - 1
        rng = np.random.default_rng(10)
        for t in range(40):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(1, 10))
            mat = rng.integers(-(2**40), 2**40, size=(m, n), dtype=np.int64)
            if t % 2:
                k = int(rng.integers(1, min(m, n) + 1))
                mat = (rng.integers(-3, 4, size=(m, k))
                       @ rng.integers(-3, 4, size=(k, n))).astype(np.int64)
                mat[:, 0] += p
            assert kr.gf_rank(mat, p) == oracles._rank_gfp(mat.tolist(), p)

    @staticmethod
    def assert_one_fallback(monkeypatch, n):
        # 2**20 plus a diagonal: no entry is a unit over Q, so the whole
        # matrix takes the big-integer fallback, once
        mat = np.full((n, n), 2**20, dtype=np.int64)
        mat += np.diag(np.arange(1, n + 1))
        calls = []
        exact = kr.bareiss_rank_exact

        def counted(rows):
            calls.append(1)
            return exact(rows)

        monkeypatch.setattr(kr, "bareiss_rank_exact", counted)
        want = oracles._rank_fraction(mat.tolist())
        assert want == n
        assert kr.rank_char0(mat) == want
        assert len(calls) == 1

    def test_bareiss_overflow_falls_back_exact(self, monkeypatch):
        self.assert_one_fallback(monkeypatch, 12)

    def test_char0_rank_of_thin_products(self):
        # half of the matrices are products of thin factors, so their rank
        # is below min(m, n)
        rng = np.random.default_rng(8)
        shapes = [(20, 20), (16, 32), (20, 26), (24, 24), (30, 30)]
        for m, n in shapes:
            for t in (m, int(rng.integers(2, min(m, n)))):
                left = rng.integers(-2, 3, size=(m, t))
                right = rng.integers(-2, 3, size=(t, n))
                mat = (left @ right).astype(np.int64)
                assert kr.rank_char0(mat) == oracles._rank_fraction(
                    mat.tolist())

    def test_large_overflow_falls_back_once(self, monkeypatch):
        self.assert_one_fallback(monkeypatch, 40)

    @pytest.mark.parametrize("n,k", [(7, 3), (8, 4), (10, 5)])
    def test_simplex_boundary_ranks(self, monkeypatch, n, k):
        # the full simplex on n vertices is acyclic over every field, so the
        # boundary from its (k+1)-vertex faces to its k-vertex faces has rank
        # C(n-1, k); unit pivots reach it with no fallback call
        lower = list(combinations(range(n), k))
        upper = list(combinations(range(n), k + 1))
        row = {f: i for i, f in enumerate(lower)}
        mat = np.zeros((len(lower), len(upper)), dtype=np.int64)
        for c, f in enumerate(upper):
            for t in range(k + 1):
                mat[row[f[:t] + f[t + 1:]], c] = (-1) ** t

        def no_fallback(rows):
            raise AssertionError("bareiss_rank_exact called")

        monkeypatch.setattr(kr, "bareiss_rank_exact", no_fallback)
        want = math.comb(n - 1, k)
        assert kr.rank_char0(mat) == want
        assert kr.gf_rank(mat, 2) == want
        assert kr.gf_rank(mat, 2**31 - 1) == want

    def test_empty_matrices(self):
        assert kr.rank_char0(np.zeros((0, 5), dtype=np.int64)) == 0
        assert kr.rank_char0(np.zeros((5, 0), dtype=np.int64)) == 0
        assert kr.gf_rank(np.zeros((0, 0), dtype=np.int64), 2) == 0
