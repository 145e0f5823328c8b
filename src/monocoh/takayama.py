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
of Δ_a and its reduced homology vanishes. The scan visits only that interior;
an axis with rho_j = 0 (a variable absent from I) has none.

The pattern scan works on an upward-closed membership box: a face probe is
one array lookup at the point with coordinates rho_j on F ∪ G and a⁺_j
elsewhere. Candidate faces are restricted to faces of Δ(I), since every
degree complex is a subcomplex of it.

Pattern evaluations share no mutable state and the assembled table is
independent of evaluation order; everything here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
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
    _validate_char,
    _validate_d,
    homology_dim_single,
    homology_dims_from_masks,
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
    volume prod_{j not in G} (rho_j + 1), via a subset-size DP; an upper
    bound on the interiors prod_{j not in G} rho_j that are scanned."""
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
    table over the key range: flag every key, number the flags by a running
    sum. Any other call sorts, through ``np.unique``.
    """
    keys = _row_keys(masks)
    if masks.shape[1] == 1 and keys.size >= _kernels._DENSE_DEDUP_MIN_KEYS:
        top = int(keys.max())
        if top < _kernels._DENSE_DEDUP_SPAN * keys.size:
            flags = np.zeros(top + 1, dtype=bool)
            flags[keys] = True
            ids = np.cumsum(flags) - 1
            uniq = np.flatnonzero(flags).astype(masks.dtype)
            return uniq.reshape(-1, 1), ids[keys]
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
    """The tables of every requested i from one scan of the degree patterns.

    Δ_a(I) depends on (G, a⁺) only, so each G with |G| <= max i is scanned
    once. Subsets G are visited by increasing size then lexicographic order,
    and for each G the interior a⁺_j < rho_j of the free axes is swept in C
    order (a G with a free rho_j = 0 has none and is skipped). The candidate
    faces are those the widest requested homology degree at that G needs
    (|F| <= q + 2 with q = i - |G| - 1), and each unique complex yields
    H~_q for every requested q, filed under i = q + |G| + 1. Sizes |G| > i
    contribute nothing to table i: their homology degree is below -1.

    The scan's mask rows are deduplicated by ``_unique_rows``: through a
    presence table when the keys are single words, many and dense (the
    usual case for powers, whose key space at each G is small), else by
    ``np.unique``'s sort. Both give the distinct rows in key order and the
    same partition of the patterns.

    The nonzero patterns at one G and one i form a block of rows: their a⁺,
    decoded from the scan's flat indices by ``np.unravel_index``, and their
    dimensions. The blocks of each i are written once into the table's
    arrays; no per-pattern object is built.

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
    # every face of Δ(I) with its size and axes; the widest one any scan
    # needs (at G = ∅) bounds the size
    width = i_list[-1] + 1
    faces = [
        (f, f.bit_count(), tuple(j for j in range(d) if f >> j & 1))
        for f in np.flatnonzero(_radical_face_flags(I)).tolist()
        if f.bit_count() <= width
    ]
    blocks: dict[int, list] = {i: [] for i in i_list}
    memo: dict[tuple, dict[int, int]] = {}
    for g_size in range(0, i_list[-1] + 1):
        qs = tuple(i - g_size - 1 for i in i_list if i >= g_size)
        for g_combo in combinations(range(d), g_size):
            gmask = 0
            for j in g_combo:
                gmask |= 1 << j
            free_axes = [j for j in range(d) if not gmask >> j & 1]
            sub_shape = tuple(rho[j] for j in free_axes)
            if 0 in sub_shape:
                continue
            # cells beyond dimension q+1 cannot affect H~_q: the widest
            # requested q at this G decides
            cand = [
                (f, axes)
                for f, size, axes in faces
                if not f & gmask and size <= qs[-1] + 2
            ]
            cand_masks = [f for f, _ in cand]
            masks = _kernels.scan_face_masks(
                box, free_axes, list(g_combo), [axes for _, axes in cand]
            )
            rows, inverse = _unique_rows(masks)
            dims_u = np.zeros((len(qs), rows.shape[0]), dtype=np.int64)
            for u, row in enumerate(rows.tolist()):
                word = _row_word(row)
                present = tuple(
                    f for k, f in enumerate(cand_masks) if word >> k & 1
                )
                key = (qs, present)
                if key not in memo:
                    memo[key] = homology_dims_from_masks(present, char, qs)
                dims_u[:, u] = [memo[key].get(q, 0) for q in qs]
            for k, q in enumerate(qs):
                nonzero = dims_u[k] != 0
                if not nonzero.any():
                    continue
                hits = np.flatnonzero(nonzero[inverse])
                coords = np.unravel_index(hits, sub_shape) if free_axes else ()
                blocks[q + g_size + 1].append(
                    (gmask, free_axes, coords, dims_u[k][inverse[hits]])
                )
    return {i: _table_from_blocks(i, char, rho, blocks[i]) for i in i_list}


def _table_from_blocks(
    i: int, char: int, rho: Sequence[int], blocks: list[tuple]
) -> CohomologyTable:
    """One table from the scan's blocks ``(gmask, free_axes, coords, dims)``:
    each block's rows share G, and ``coords`` are their a⁺ on the free axes."""
    total = sum(block[3].size for block in blocks)
    # a⁺_j < rho_j: the narrowest unsigned type holding max rho suffices
    a_plus = np.zeros((total, len(rho)), dtype=np.min_scalar_type(max(rho)))
    g_masks = np.zeros(total, dtype=np.int64)
    dims = np.zeros(total, dtype=np.int64)
    start = 0
    for gmask, free_axes, coords, block_dims in blocks:
        stop = start + block_dims.size
        g_masks[start:stop] = gmask
        dims[start:stop] = block_dims
        for j, col in zip(free_axes, coords):
            a_plus[start:stop, j] = col
        start = stop
    return CohomologyTable(
        i=i, char=char, a_plus=a_plus, g_masks=g_masks, dims=dims, rho=tuple(rho)
    )


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
