"""Degree complexes and graded local cohomology tables for monomial quotients.

For a ∈ ℤ^d the graded piece H^i_m(R/I)_a has dimension
dim H~_{i-|G_a|-1}(Δ_a(I)), where G_a is the set of negative coordinates,
a⁺ zeroes them out, and Δ_a(I) consists of the faces F ⊆ [d]∖G_a with
x^{a⁺} outside the projection I_{F∪G_a}. The complex only depends on a
through (G_a, a⁺ clamped at the per-variable generator bounds rho), because
every membership test compares a⁺_j against generator exponents that never
exceed rho_j. That makes the whole module a finite table of degree patterns,
which is what this module computes.

Only the interior a⁺_j < rho_j can be nonzero: if a⁺_j >= rho_j for some j
outside G_a, no generator exceeds a⁺_j in coordinate j, so j is a cone point
of Δ_a and its reduced homology vanishes. The patterns that remain are
exactly the cells of the upward-closed membership box of shape rho + 1: cell
b is the pattern with G = {j : b_j = rho_j} and a⁺ = b off G. An axis with
rho_j = 0 (a variable absent from I) is in every G.

One pass over that box serves every G: a face F with F ∩ G = ∅ is present
at b iff the box is 0 at b ∨ rho·1_F, one array lookup. Candidate faces are
restricted to faces of Δ(I), since every degree complex is a subcomplex of
it.

Pattern evaluations share no mutable state and the assembled table is
independent of evaluation order; everything here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import InternalConsistencyError, ResourceCapError, UnitIdealError
from .monomial_core import (
    MonomialIdeal,
    _radical_face_flags,
    krull_dimension,
    membership_box,
    var_degree_bounds,
)
from .simplicial import (
    SimplicialComplex,
    _antichain_max,
    _FaceFrame,
    _validate_char,
    _validate_d,
    _word_homology,
    homology_dim_single,
)

DEFAULT_PATTERN_CAP = 10_000_000


@dataclass(frozen=True)
class ExtendedDegree:
    """An integer degree extended by +inf (zero module) and -inf (module
    with unbounded negative support, i.e. not finite length)."""

    value: int | float

    def __post_init__(self):
        v = self.value
        if isinstance(v, float) and not math.isinf(v):
            raise ValueError("non-integer finite degree")

    @classmethod
    def finite(cls, v: int) -> "ExtendedDegree":
        return cls(int(v))

    @classmethod
    def pos_inf(cls) -> "ExtendedDegree":
        return cls(math.inf)

    @classmethod
    def neg_inf(cls) -> "ExtendedDegree":
        return cls(-math.inf)

    @property
    def is_finite(self) -> bool:
        return not isinstance(self.value, float)

    def __str__(self) -> str:
        if self.is_finite:
            return str(self.value)
        return "inf" if self.value > 0 else "-inf"


@dataclass(frozen=True, slots=True)
class DegreePattern:
    """Canonical representative of a ℤ^d-degree class: clamped a⁺ plus the
    negative-support set G (1-based, sorted). a_plus is 0 on G."""

    a_plus: tuple[int, ...]
    G: tuple[int, ...] = ()

    def __post_init__(self):
        if any(self.a_plus[g - 1] != 0 for g in self.G):
            raise ValueError("a_plus must vanish on G")

    @classmethod
    def _from_scan(cls, a_plus: tuple, G: tuple) -> "DegreePattern":
        """Trusted constructor: a_plus already vanishes on G."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "a_plus", a_plus)
        object.__setattr__(obj, "G", G)
        return obj

    @property
    def total_degree(self) -> int:
        """Total degree |a| of the representative (coordinates -1 on G)."""
        return sum(self.a_plus) - len(self.G)


def _g_tuples(g_masks: Sequence[int], d: int) -> list[tuple[int, ...]]:
    """The 1-based sorted G of every bitmask (bit j-1 is x_j), each distinct
    mask decoded once."""
    decoded = {
        g: tuple(j + 1 for j in range(d) if g >> j & 1) for g in set(g_masks)
    }
    return [decoded[g] for g in g_masks]


def _popcount(words: np.ndarray) -> np.ndarray:
    """The number of set bits of every int64 word."""
    octets = np.ascontiguousarray(words).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class CohomologyTable:
    """All nonzero graded dimensions of H^i_m(R/I) over one field.

    The table is a list of rows (G, a⁺, dim), one per nonzero degree
    pattern, held as three arrays: ``a_plus`` of shape ``(rows, d)``, zero
    on G (the scan stores it in the narrowest unsigned type holding max
    rho); ``g_masks``, each G as a bitmask (bit j-1 is x_j); and ``dims``,
    the positive dimensions. A pattern with G != ∅ stands for infinitely
    many ℤ^d-degrees (any negative magnitudes on G), so ``finite_length``
    holds exactly when every G is empty. ``entries`` is the same table as a
    dict from ``DegreePattern`` to dimension, built on first access; the
    invariants, equality and serialisation read the arrays and never build
    it. ``rho`` records the clamping bounds the scan used; it is an
    annotation derived from the ideal, not part of table identity.
    """

    i: int
    char: int
    a_plus: np.ndarray
    g_masks: np.ndarray
    dims: np.ndarray
    rho: tuple[int, ...]

    @property
    def finite_length(self) -> bool:
        return not np.count_nonzero(self.g_masks)

    @cached_property
    def entries(self) -> dict[DegreePattern, int]:
        return dict(self.sorted_entries())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyTable)
            and self.i == other.i
            and self.char == other.char
            and self.dims.size == other.dims.size
            and self.sorted_rows() == other.sorted_rows()
        )

    def sorted_rows(self) -> list[tuple[tuple[int, ...], list[int], int]]:
        """Every row as ``(G, a⁺, dim)`` in Python integers, sorted by the
        key (|G|, G, a⁺). The scan writes its rows in that order already,
        and on sorted input the sort only checks it, in linear time."""
        rows = list(
            zip(
                _g_tuples(self.g_masks.tolist(), self.a_plus.shape[1]),
                self.a_plus.tolist(),
                self.dims.tolist(),
            )
        )
        rows.sort(key=lambda row: (len(row[0]), row[0], row[1]))
        return rows

    def sorted_entries(self) -> list[tuple[DegreePattern, int]]:
        return [
            (DegreePattern._from_scan(tuple(a), G), dim)
            for G, a, dim in self.sorted_rows()
        ]

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "char": self.char,
            "finite_length": self.finite_length,
            "entries": [
                {"G": list(G), "a_plus": a, "dim": dim}
                for G, a, dim in self.sorted_rows()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "CohomologyTable":
        patterns = [
            DegreePattern(
                a_plus=tuple(int(x) for x in e["a_plus"]),
                G=tuple(int(g) for g in e["G"]),
            )
            for e in data["entries"]
        ]
        if len(set(patterns)) < len(patterns):
            raise ValueError("a degree pattern is listed twice")
        d = len(patterns[0].a_plus) if patterns else 0
        return cls(
            i=int(data["i"]),
            char=int(data["char"]),
            a_plus=np.array([p.a_plus for p in patterns], dtype=np.int64).reshape(
                len(patterns), d
            ),
            g_masks=np.array(
                [sum(1 << (g - 1) for g in p.G) for p in patterns], dtype=np.int64
            ),
            dims=np.array([int(e["dim"]) for e in data["entries"]], dtype=np.int64),
            rho=(),
        )

    @classmethod
    def from_json(cls, text: str) -> "CohomologyTable":
        return cls.from_dict(json.loads(text))


def _require_not_unit(I: MonomialIdeal) -> None:
    if I.is_unit:
        raise UnitIdealError("R/I is the zero ring; no cohomology to compute")


def _require_module(I: MonomialIdeal) -> None:
    _require_not_unit(I)
    if I.is_zero:
        raise ValueError(
            "cohomology tables require a nonzero ideal (R/0 is the whole ring)"
        )


def _validate_i(d: int, i: int) -> int:
    i = int(i)
    if not 0 <= i <= d:
        raise ValueError(f"cohomological degree i={i} out of range 0..{d}")
    return i


def _split_degree(
    I: MonomialIdeal, a: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(a⁺ clamped at rho, G_a as 0-based axes) of a degree vector.

    Exact for any magnitude: Δ_a reads a only through G_a and through
    comparisons of a⁺_j with generator exponents, none above rho_j.
    """
    a = [int(x) for x in a]
    if len(a) != I.d:
        raise ValueError(f"degree vector must have length {I.d}")
    rho = var_degree_bounds(I).rho
    g_cols = [j for j, x in enumerate(a) if x < 0]
    return [min(max(x, 0), r) for x, r in zip(a, rho)], g_cols


def degree_complex(I: MonomialIdeal, a: Sequence[int]) -> SimplicialComplex:
    """Δ_a(I): faces F ⊆ [d]∖G_a with x^{a⁺} not in project(I, F ∪ G_a).

    The membership predicate only asks whether some generator divides
    x^{a⁺} away from F ∪ G_a, so each face test is a bitmask check against
    the per-generator set of coordinates where the generator exceeds a⁺.
    Void when the empty face itself fails.
    """
    _require_not_unit(I)
    d = _validate_d(I.d)
    a_plus, g_cols = _split_degree(I, a)
    gmask = 0
    for j in g_cols:
        gmask |= 1 << j
    free_mask = ((1 << d) - 1) ^ gmask
    # generator g rules out face sets S ⊇ {j : g_j > a⁺_j}
    bads = []
    for row in I.exponent_matrix:
        bad = 0
        for j in range(d):
            if row[j] > a_plus[j]:
                bad |= 1 << j
        bads.append(bad)
    faces = []
    s = free_mask
    while True:
        full = s | gmask
        if all(bad & ~full for bad in bads):
            faces.append(s)
        if s == 0:
            break
        s = (s - 1) & free_mask
    return SimplicialComplex(d, _antichain_max(faces))


def cohomology_dim_at(
    I: MonomialIdeal, i: int, a: Sequence[int], char: int = 0
) -> int:
    """dim_k H^i_m(R/I)_a = dim H~_{i-|G_a|-1}(Δ_a(I), k); 0 when the
    homology degree drops below -1."""
    _require_not_unit(I)
    d = _validate_d(I.d)
    i = _validate_i(d, i)
    char = _validate_char(char)
    _, g_cols = _split_degree(I, a)
    q = i - len(g_cols) - 1
    if q < -1:
        return 0
    K = degree_complex(I, a)
    if K.is_void:
        return 0
    return homology_dim_single(K.face_masks(), q, char)


def _pattern_count(rho: Sequence[int], d: int, max_g: int) -> int:
    """Patterns the cap counts: sum over |G| <= max_g of the clamped free box
    volume prod_{j not in G} (rho_j + 1), via a subset-size DP. Its G = ∅
    term prod (rho_j + 1) is the number of box cells the scan visits."""
    coeffs = [1]
    for j in range(d):
        nxt = [0] * (len(coeffs) + 1)
        for g, val in enumerate(coeffs):
            nxt[g] += val * (rho[j] + 1)
            nxt[g + 1] += val
        coeffs = nxt
    return sum(coeffs[: max_g + 1])


def _row_keys(masks: np.ndarray) -> np.ndarray:
    """One key per mask row, equal for equal rows: the row's single word,
    in the mask's own unsigned dtype (which the presence table of
    ``_unique_rows`` indexes by), or a void view of the whole row, which
    only a sort can deduplicate."""
    if masks.shape[1] == 1:
        return masks[:, 0]
    row = np.dtype((np.void, masks.dtype.itemsize * masks.shape[1]))
    return np.ascontiguousarray(masks).view(row).reshape(-1)


def _unique_rows(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique_rows, inverse)``: the distinct rows of ``masks`` in key
    order, and for every row the index of its distinct row.

    Single-word keys, at least ``_DENSE_DEDUP_MIN_KEYS`` of them and all
    below ``_DENSE_DEDUP_SPAN`` times their count, go through a presence
    table over the key range: flag every key and number the flagged keys in
    order. That inverse has one entry per key, so it takes the narrowest
    unsigned type that holds a row index. Any other call sorts, through
    ``np.unique``.
    """
    keys = _row_keys(masks)
    if masks.shape[1] == 1 and keys.size >= _kernels._DENSE_DEDUP_MIN_KEYS:
        top = int(keys.max())
        if top < _kernels._DENSE_DEDUP_SPAN * keys.size:
            flags = np.zeros(top + 1, dtype=bool)
            flags[keys] = True
            uniq = np.flatnonzero(flags)
            ids = np.zeros(top + 1, dtype=np.min_scalar_type(uniq.size))
            ids[uniq] = np.arange(uniq.size)
            return uniq.astype(masks.dtype).reshape(-1, 1), ids[keys]
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq.view(masks.dtype).reshape(-1, masks.shape[1]), inverse


def _row_word(row: Sequence[int]) -> int:
    """The bits of a mask row as one Python int (word w holds bits 64w..)."""
    return sum(w << (64 * k) for k, w in enumerate(row))


def cohomology_tables(
    I: MonomialIdeal,
    i_values: Iterable[int],
    char: int = 0,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
) -> dict[int, CohomologyTable]:
    """The tables of every requested i from one scan of the membership box.

    Each cell b of the ``rho + 1`` box is one degree pattern: G is the set of
    axes where b_j = rho_j, and a⁺ = b off G. One ``scan_face_masks`` call
    keys every cell by its face word and min(|G|, max i + 1). The candidate
    faces are the faces of Δ(I) that avoid the absent variables (rho_j = 0,
    so j is in every G) and have at most max i + 1 vertices: H~_q reads faces
    of up to q + 2 vertices, and q = i - |G| - 1 is widest at G = ∅. A size
    |G| > i contributes nothing to table i, since its homology degree is
    below -1, so cells with |G| > max i share the top field value and yield
    nothing.

    Cells inside the ideal carry the void complex (most of a power's box)
    and are dropped first. ``_unique_rows`` deduplicates the keys of the rest
    once: through a presence table when they are single words, many and
    dense (the usual case for powers), else by ``np.unique``'s sort. Each
    distinct complex yields H~_q for every requested q at its |G|, filed
    under i = q + |G| + 1. The candidate faces are ordered by size, so the
    vertices and edges are two bit ranges of the key, and one
    ``_FaceFrame`` over them lets ``_word_homology`` read every distinct
    face word: a graph needs no face list. Only the cells with a nonzero
    dimension are decoded, from their flat index, into (G, a⁺) rows, and a
    stable sort on (|G|, G) leaves them in the order (|G|, G, a⁺) of
    ``sorted_rows``: C order already sorts a⁺ within one G.

    Raises ResourceCapError, naming the first i over ``pattern_cap``, before
    anything is scanned.
    """
    _require_module(I)
    d = _validate_d(I.d)
    i_list = sorted({_validate_i(d, i) for i in i_values})
    char = _validate_char(char)
    if not i_list:
        return {}
    rho = var_degree_bounds(I).rho
    for i in i_list:
        npatterns = _pattern_count(rho, d, i)
        if npatterns > pattern_cap:
            raise ResourceCapError(
                f"degree-pattern count {npatterns} for i={i} exceeds the cap "
                f"{pattern_cap}",
                required=npatterns,
                cap=pattern_cap,
            )
    box = membership_box(I)
    top = i_list[-1] + 1
    absent = sum(1 << j for j in range(d) if not rho[j])
    faces = sorted(
        (
            f
            for f in np.flatnonzero(_radical_face_flags(I)).tolist()
            if f and not f & absent and f.bit_count() <= top
        ),
        key=int.bit_count,
    )
    keys = _kernels.scan_face_masks(
        box, [tuple(j for j in range(d) if f >> j & 1) for f in faces], top - 1
    )
    outside = np.flatnonzero(box.reshape(-1) == 0)
    rows, inverse = _unique_rows(keys[outside])
    nf = len(faces)
    frame = _FaceFrame(faces)
    k_of_i = {i: k for k, i in enumerate(i_list)}
    dims_u = np.zeros((len(i_list), rows.shape[0]), dtype=np.int64)
    for u, row in enumerate(rows.tolist()):
        key = _row_word(row)
        g_size = key >> nf
        if g_size == top:
            continue
        qs = [i - g_size - 1 for i in i_list if i >= g_size]
        word = key & ((1 << nf) - 1)
        for q, dim in _word_homology(word, frame, qs, char).items():
            dims_u[k_of_i[q + g_size + 1], u] = dim
    hits = np.flatnonzero(dims_u.any(axis=0)[inverse])
    cells, row_of = outside[hits], inverse[hits]
    coords = np.stack(np.unravel_index(cells, box.shape), axis=1)
    on_g = coords == np.array(rho)
    bits = 1 << np.arange(d, dtype=np.int64)
    g_masks = on_g @ bits
    # within one |G|, G ascends lexicographically as its bit-reversed mask
    # descends
    order = np.argsort(
        (on_g.sum(axis=1) << d) - on_g @ bits[::-1], kind="stable"
    )
    # a⁺_j < rho_j: the narrowest unsigned type holding max rho suffices
    a_plus = coords.astype(np.min_scalar_type(max(rho)))
    a_plus[on_g] = 0
    a_plus, g_masks, row_of = a_plus[order], g_masks[order], row_of[order]
    tables = {}
    for i in i_list:
        dims = dims_u[k_of_i[i]][row_of]
        hit = dims != 0
        tables[i] = CohomologyTable(
            i=i, char=char, a_plus=a_plus[hit], g_masks=g_masks[hit],
            dims=dims[hit], rho=tuple(rho),
        )
    return tables


def cohomology_table(
    I: MonomialIdeal,
    i: int,
    char: int = 0,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
) -> CohomologyTable:
    """H^i_m(R/I) as a table of degree patterns: ``cohomology_tables`` for
    the one degree i."""
    return cohomology_tables(I, (i,), char, pattern_cap)[int(i)]


def is_finite_length(
    I: MonomialIdeal, i: int, char: int = 0, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> bool:
    """True when H^i_m(R/I) has finite length (no pattern with G != empty)."""
    return cohomology_table(I, i, char, pattern_cap).finite_length


def table_indeg(table: CohomologyTable) -> ExtendedDegree:
    """Least total degree with a nonzero graded piece, from a computed table."""
    if not table.finite_length:
        return ExtendedDegree.neg_inf()
    if not table.dims.size:
        return ExtendedDegree.pos_inf()
    totals = table.a_plus.sum(axis=1, dtype=np.int64)
    return ExtendedDegree.finite(int(totals.min()))


def table_topdeg(table: CohomologyTable) -> ExtendedDegree:
    """Greatest total degree with a nonzero graded piece.

    Within a pattern class the total degree is maximized at coordinates -1
    on G, hence the |a⁺| - |G| formula; the Artinian bound keeps it finite.
    """
    if not table.dims.size:
        return ExtendedDegree.neg_inf()
    totals = table.a_plus.sum(axis=1, dtype=np.int64) - _popcount(table.g_masks)
    return ExtendedDegree.finite(int(totals.max()))


def indeg(
    I: MonomialIdeal, i: int, char: int = 0, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> ExtendedDegree:
    """indeg H^i_m(R/I): -inf when not finite length, +inf when the module
    is zero, else the least |a⁺| over patterns with empty G."""
    return table_indeg(cohomology_table(I, i, char, pattern_cap))


def topdeg(
    I: MonomialIdeal, i: int, char: int = 0, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> ExtendedDegree:
    """topdeg H^i_m(R/I): -inf for the zero module, else max |a⁺| - |G|."""
    return table_topdeg(cohomology_table(I, i, char, pattern_cap))


def regularity(
    I: MonomialIdeal, char: int = 0, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> int:
    """max_i (topdeg H^i_m(R/I) + i) over i with nonzero cohomology.

    Grothendieck vanishing empties every table beyond dim R/I, so the scan
    stops there; non-vanishing at dim R/I itself guarantees a finite answer.
    """
    _require_module(I)
    tables = cohomology_tables(I, range(krull_dimension(I) + 1), char, pattern_cap)
    best: int | None = None
    for i, table in tables.items():
        td = table_topdeg(table)
        if td.is_finite:
            cand = int(td.value) + i
            best = cand if best is None or cand > best else best
    if best is None:
        raise InternalConsistencyError(
            "no nonzero cohomology found for i <= dim R/I; nonvanishing at "
            "dim R/I should be guaranteed"
        )
    return best
