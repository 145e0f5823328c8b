"""Degree complexes and graded local cohomology tables for monomial quotients.

For a ∈ ℤ^d the graded piece H^i_m(R/I)_a has dimension
dim H~_{i-|G_a|-1}(Δ_a(I)) (Takayama's formula), where G_a is the set of
negative coordinates, a⁺ zeroes them out, and Δ_a(I) consists of the faces
F ⊆ [d]∖G_a with x^{a⁺} outside the projection I_{F∪G_a}. No generator
exceeds the per-variable bound rho_j, so F is a face exactly when the
upward-closed membership box of shape rho + 1 is 0 at a⁺ ∨ rho·1_{F∪G_a}
(a⁺ clamped at rho). Every complex is therefore one (2,)*d corner of that
box: Δ_a(I) is the corner at a⁺ raised to rho on G_a, and Δ(√I) = Δ_0(I)
the corner at 0. ``degree_complex`` and ``cohomology_dim_at`` read one
corner each; a table reads Δ(√I) for its candidate faces and then the
whole box, one degree pattern per cell.

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

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import InternalConsistencyError, ResourceCapError, UnitIdealError
from .monomial_core import (
    DEFAULT_PATTERN_CAP,
    MonomialIdeal,
    _box_corner,
    _corner_flags,
    krull_dimension,
    membership_box,
    var_degree_bounds,
)
from .simplicial import (
    SimplicialComplex,
    _FaceFrame,
    _flags_homology,
    _frame_faces,
    _validate_char,
    _validate_d,
    _word_homology,
)


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
    """The 1-based sorted G of every bitmask (bit j-1 is x_j)."""
    return [tuple(j + 1 for j in range(d) if g >> j & 1) for g in g_masks]


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
    dict from ``DegreePattern`` to dimension, built from ``sorted_rows`` on
    every access and not kept; the invariants, equality and serialisation
    read the arrays and never build it. The arrays may hold the rows in any
    order: ``_ordered_rows`` puts them in the one order (|G|, G, a⁺) that
    equality, ``sorted_rows``, ``entries`` and every writer use, and
    ``_write_rows`` is the one writer behind ``to_json`` and the command
    line's JSON, CSV and text. ``rho`` records the clamping bounds the scan
    used; it is an annotation derived from the ideal, not part of table
    identity.
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

    @property
    def entries(self) -> dict[DegreePattern, int]:
        return dict(self.sorted_entries())

    def __eq__(self, other) -> bool:
        """Same i, char and rows, in whatever order the arrays hold them:
        the same canonical text."""
        return isinstance(other, CohomologyTable) and self.to_json() == other.to_json()

    def _ordered_rows(
        self,
    ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray]:
        """``(gs, g_of, a_plus, dims)``: the rows in the order (|G|, G, a⁺),
        whatever order the arrays hold them in. ``gs`` lists the distinct
        G's, each decoded once, and row r has G = ``gs[g_of[r]]``.

        The order is one ``np.lexsort``: |G| first, then G, which ascends
        lexicographically as its bit-reversed mask descends, then a⁺'s
        columns. The mask is reversed over 63 bits, the width of ``g_masks``.
        """
        masks = sorted(set(self.g_masks.tolist()))
        g_of = np.searchsorted(np.array(masks, dtype=np.int64), self.g_masks)
        gs = _g_tuples(masks, self.a_plus.shape[1])
        size = np.array([len(G) for G in gs], dtype=np.int64)
        rev = np.array([sum(1 << (63 - j) for j in G) for G in gs], dtype=np.int64)
        order = np.lexsort((*self.a_plus.T[::-1], -rev[g_of], size[g_of]))
        return gs, g_of[order], self.a_plus[order], self.dims[order]

    def sorted_rows(self) -> list[tuple[tuple[int, ...], list[int], int]]:
        """Every row as ``(G, a⁺, dim)`` in Python integers, in the order
        (|G|, G, a⁺) of ``_ordered_rows``."""
        gs, g_of, a_plus, dims = self._ordered_rows()
        return [
            (gs[u], a, dim)
            for u, a, dim in zip(g_of.tolist(), a_plus.tolist(), dims.tolist())
        ]

    def sorted_entries(self) -> list[tuple[DegreePattern, int]]:
        return [
            (DegreePattern._from_scan(tuple(a), G), dim)
            for G, a, dim in self.sorted_rows()
        ]

    def _write_rows(self, row: str, join: str, sep: str) -> str:
        """The rows in the order of ``_ordered_rows`` as text, joined by
        ``sep``; empty for a table without rows.

        ``row`` has three ``%s`` slots, for G, a⁺ and dim, and no other
        ``%``. G's indices and a⁺'s entries are joined by ``join``. The a⁺
        slot becomes d ``%d`` slots, each distinct G is written once, and
        the whole table is one ``%`` call over the ordered columns.
        """
        if not self.dims.size:
            return ""
        gs, g_of, a_plus, dims = self._ordered_rows()
        rows, d = a_plus.shape
        g_text = np.array([join.join(map(str, G)) for G in gs], dtype=object)
        cells = np.empty((rows, d + 2), dtype=object)
        cells[:, 0] = g_text[g_of]
        cells[:, 1:-1] = a_plus
        cells[:, -1] = dims
        template = row % ("%s", join.join(["%d"] * d), "%d")
        return sep.join([template] * rows) % tuple(cells.ravel().tolist())

    def to_dict(self) -> dict:
        """The table as ``{"i", "char", "finite_length", "entries"}``, each
        entry ``{"G", "a_plus", "dim"}``: ``to_json``, parsed."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The table as compact JSON, written straight from the columns."""
        return '{"i":%d,"char":%d,"finite_length":%s,"entries":[%s]}' % (
            self.i,
            self.char,
            "true" if self.finite_length else "false",
            self._write_rows('{"G":[%s],"a_plus":[%s],"dim":%s}', ",", ","),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CohomologyTable":
        """The table of a ``to_dict`` payload, its rows in the listed order.

        Raises ValueError unless every row has a⁺ of one width d <= 63,
        G inside 1..d, a⁺ >= 0 and zero on G, and dim >= 1, and no
        (G, a⁺) is listed twice.
        """
        entries = data["entries"]
        widths = {len(e["a_plus"]) for e in entries}
        d = widths.pop() if widths else 0
        if widths or d > 63:
            raise ValueError("every a_plus must have one width, at most 63")
        sizes = [len(e["G"]) for e in entries]
        try:
            a_plus = np.array([e["a_plus"] for e in entries], dtype=np.int64)
            dims = np.array([e["dim"] for e in entries], dtype=np.int64)
            g = np.array([j for e in entries for j in e["G"]], dtype=np.int64)
        except OverflowError:
            raise ValueError("a table entry does not fit in int64") from None
        a_plus = a_plus.reshape(len(entries), d)
        # column d collects the G indices outside 1..d
        on_g = np.zeros((len(entries), d + 1), dtype=bool)
        on_g[np.repeat(np.arange(len(entries)), sizes),
             np.where((g >= 1) & (g <= d), g - 1, d)] = True
        bad = on_g[:, d] | (dims < 1) | (a_plus < 0).any(axis=1)
        on_g = on_g[:, :d]
        bad |= (on_g & (a_plus != 0)).any(axis=1)
        if bad.any():
            raise ValueError(f"malformed table row {entries[int(bad.argmax())]}")
        g_masks = on_g @ (1 << np.arange(d, dtype=np.int64))
        rows = np.column_stack((g_masks, a_plus))
        if np.unique(rows, axis=0, return_index=True)[1].size < len(entries):
            raise ValueError("a degree pattern is listed twice")
        return cls(
            i=int(data["i"]),
            char=int(data["char"]),
            a_plus=a_plus,
            g_masks=g_masks,
            dims=dims,
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


def _degree_flags(I: MonomialIdeal, a: Sequence[int]) -> tuple[np.ndarray, int]:
    """(flags, G_a as a mask) of a degree vector: ``_corner_flags`` at a⁺
    clamped at rho and raised to rho on G_a. No generator exceeds rho, so
    the mask F ∪ G_a is set iff x^{a⁺} is outside project(I, F ∪ G_a): the
    flags are Δ_a(I), constant along G_a. Exact for any magnitude of a."""
    a = [int(x) for x in a]
    if len(a) != I.d:
        raise ValueError(f"degree vector must have length {I.d}")
    rho = var_degree_bounds(I).rho
    low = [r if x < 0 else min(x, r) for x, r in zip(a, rho)]
    return _corner_flags(I, low), sum(1 << j for j, x in enumerate(a) if x < 0)


def _cone_axis(flags: np.ndarray, d: int, avoid: int) -> bool:
    """True when some vertex v outside the mask ``avoid`` is a cone point of
    the complex whose face indicator over all 2^d masks is ``flags``: the
    flags agree at M and M ∪ {v} for every M, one comparison per axis. A
    nonvoid cone has no reduced homology in any degree."""
    for v in range(d):
        if not avoid >> v & 1:
            halves = flags.reshape(-1, 2, 1 << v)
            if np.array_equal(halves[:, 0], halves[:, 1]):
                return True
    return False


def degree_complex(I: MonomialIdeal, a: Sequence[int]) -> SimplicialComplex:
    """Δ_a(I): faces F ⊆ [d]∖G_a with x^{a⁺} not in project(I, F ∪ G_a).

    The corner flags are constant along G_a, so mask m is a face when it
    avoids G_a and the flags hold at m ∪ G_a. Void when the empty face
    itself fails.
    """
    _require_not_unit(I)
    d = _validate_d(I.d)
    flags, g = _degree_flags(I, a)
    m = np.arange(1 << d)
    return SimplicialComplex._from_flags(d, flags[m | g] & (m & g == 0))


def cohomology_dim_at(
    I: MonomialIdeal, i: int, a: Sequence[int], char: int = 0
) -> int:
    """dim_k H^i_m(R/I)_a = dim H~_{i-|G_a|-1}(Δ_a(I), k); 0 when the
    homology degree drops below -1 or Δ_a(I) is void (no empty face).

    A cone point of the corner flags gives 0 before any face is listed.
    Otherwise ``_flags_homology`` reads H~_q off the faces of Δ_a(I) with
    at most q + 2 vertices.
    """
    _require_not_unit(I)
    d = _validate_d(I.d)
    i = _validate_i(d, i)
    char = _validate_char(char)
    flags, g = _degree_flags(I, a)
    q = i - g.bit_count() - 1
    if q < -1 or not flags[0] or _cone_axis(flags, d, g):
        return 0
    return _flags_homology(flags, d, [q], char, g).get(q, 0)


def _pattern_counts(rho: Sequence[int], d: int) -> list[int]:
    """Patterns the cap counts, for every max_g = 0..d: the sum over
    |G| <= max_g of the clamped free box volume prod_{j not in G}
    (rho_j + 1). One subset-size DP gives the coefficient of every |G|, and
    entry max_g is their prefix sum. Entry 0, prod (rho_j + 1), is the
    number of box cells the scan visits."""
    coeffs = [1]
    for j in range(d):
        nxt = [0] * (len(coeffs) + 1)
        for g, val in enumerate(coeffs):
            nxt[g] += val * (rho[j] + 1)
            nxt[g + 1] += val
        coeffs = nxt
    return list(itertools.accumulate(coeffs))


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

    Single-word keys all below ``_DENSE_DEDUP_SPAN`` times the larger of
    their count and ``_DENSE_DEDUP_MIN_KEYS`` go through a presence table
    over the key range: flag every key and number the flagged keys in
    order. That inverse has one entry per key, so it takes the narrowest
    unsigned type that holds a row index. Any other call sorts, through
    ``np.unique``.
    """
    keys = _row_keys(masks)
    if masks.shape[1] == 1:
        top = int(keys.max())
        if top < _kernels._DENSE_DEDUP_SPAN * max(
            keys.size, _kernels._DENSE_DEDUP_MIN_KEYS
        ):
            # numpy indexes by intp: converting once spares both lookups
            index = keys.astype(np.intp)
            flags = np.zeros(top + 1, dtype=bool)
            flags[index] = True
            uniq = np.flatnonzero(flags)
            ids = np.zeros(top + 1, dtype=np.min_scalar_type(uniq.size))
            ids[uniq] = np.arange(uniq.size)
            return uniq.astype(masks.dtype).reshape(-1, 1), ids[index]
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq.view(masks.dtype).reshape(-1, masks.shape[1]), inverse


def _row_word(row: Sequence[int]) -> int:
    """The bits of a mask row as one Python int (word w holds bits 64w..)."""
    return sum(w << (64 * k) for k, w in enumerate(row))


class _ScanStage(NamedTuple):
    """What one scan of the membership box leaves for its readers: the
    sorted requested degrees ``i_list`` and the validated ``char``; ``rho``,
    the box being of shape rho + 1; ``outside``, the flat indices of the
    cells outside the ideal, and ``inverse``, the distinct complex of each;
    and ``dims_u``, dim H^i of every distinct complex for every i of
    ``i_list`` (one row per i), or None when every one of them is 0."""

    i_list: list[int]
    char: int
    rho: tuple[int, ...]
    outside: np.ndarray | None
    inverse: np.ndarray | None
    dims_u: np.ndarray | None


def _scan_stage(
    I: MonomialIdeal, i_values: Iterable[int], char: int, pattern_cap: int
) -> _ScanStage:
    """The shared stage of ``cohomology_tables`` and ``regularity``: one
    scan of the membership box, one dedup of its keys, and the homology of
    every distinct complex at every requested i (see ``cohomology_tables``).
    An empty request scans nothing.

    Raises ResourceCapError, naming the first i over ``pattern_cap``, before
    anything is scanned.
    """
    _require_module(I)
    d = _validate_d(I.d)
    i_list = sorted({_validate_i(d, i) for i in i_values})
    char = _validate_char(char)
    rho = var_degree_bounds(I).rho
    if not i_list:
        return _ScanStage(i_list, char, rho, None, None, None)
    counts = _pattern_counts(rho, d)
    for i in i_list:
        if counts[i] > pattern_cap:
            raise ResourceCapError(
                f"degree-pattern count {counts[i]} for i={i} exceeds the cap "
                f"{pattern_cap}",
                required=counts[i],
                cap=pattern_cap,
            )
    box = membership_box(I)
    top = i_list[-1] + 1
    absent = sum(1 << j for j in range(d) if not rho[j])
    faces = _frame_faces(_box_corner(box, (0,) * d), d, top, absent)
    keys = _kernels.scan_face_masks(
        box, [tuple([j for j in range(d) if f >> j & 1]) for f in faces], top - 1
    )
    outside = np.flatnonzero(box.reshape(-1) == 0)
    rows, inverse = _unique_rows(keys[outside])
    nf = len(faces)
    frame = _FaceFrame(faces)
    k_of_i = {i: k for k, i in enumerate(i_list)}
    if rows.shape[1] == 1:
        row_keys = rows[:, 0].tolist()
    else:
        row_keys = [_row_word(row) for row in rows.tolist()]
    # the homology degrees each |G| below the top asks for
    qs_of = [[i - g - 1 for i in i_list if i >= g] for g in range(top)]
    face_bits = (1 << nf) - 1
    nonzero = []
    for u, key in enumerate(row_keys):
        g_size = key >> nf
        if g_size == top:
            continue
        for q, dim in _word_homology(key & face_bits, frame, qs_of[g_size],
                                     char).items():
            nonzero.append((k_of_i[q + g_size + 1], u, dim))
    dims_u = None
    if nonzero:
        dims_u = np.zeros((len(i_list), rows.shape[0]), dtype=np.int64)
        ks, us, vals = zip(*nonzero)
        dims_u[ks, us] = vals
    return _ScanStage(i_list, char, rho, outside, inverse, dims_u)


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
    of up to q + 2 vertices, and q = i - |G| - 1 is widest at G = ∅. They
    are read off the same box's corner at 0, so a table builds no box beyond
    the one it scans (none for a box-backed ideal). A size |G| > i
    contributes nothing to table i, since its homology degree is below -1,
    so cells with |G| > max i share the top field value and yield nothing.

    Cells inside the ideal carry the void complex (most of a power's box)
    and are dropped first. ``_unique_rows`` deduplicates the keys of the rest
    once: through a presence table when they are single words below
    ``_DENSE_DEDUP_SPAN`` times the larger of their count and
    ``_DENSE_DEDUP_MIN_KEYS`` (the keys of a table over few faces, and the
    dense keys of powers), else by ``np.unique``'s sort. Each distinct
    complex yields H~_q for every requested q at its |G|, filed
    under i = q + |G| + 1. The candidate faces are ordered by size, so the
    vertices and edges are two bit ranges of the key, and one
    ``_FaceFrame`` over them lets ``_word_homology`` read every distinct
    face word: a graph needs no face list. That much is ``_scan_stage``,
    which ``regularity`` reads too. When no distinct complex has a
    nonzero dimension, the tables come back empty with nothing decoded.
    Otherwise only the cells with a nonzero dimension are decoded, from
    their flat index, into (G, a⁺) rows, left in flat-index order: every
    reader orders them through ``_ordered_rows``.

    Raises ResourceCapError, naming the first i over ``pattern_cap``, before
    anything is scanned.
    """
    i_list, char, rho, outside, inverse, dims_u = _scan_stage(
        I, i_values, char, pattern_cap)
    d = len(rho)
    # a⁺_j < rho_j: the narrowest unsigned type holding max rho suffices
    a_type = np.min_scalar_type(max(rho))
    if dims_u is None:
        none = np.zeros(0, dtype=np.int64)
        a_plus = np.zeros((0, d), dtype=a_type)
        return {
            i: CohomologyTable(i=i, char=char, a_plus=a_plus, g_masks=none,
                               dims=none, rho=rho)
            for i in i_list
        }
    hits = np.flatnonzero(dims_u.any(axis=0)[inverse])
    cells, row_of = outside[hits], inverse[hits]
    coords = np.array(np.unravel_index(cells, [r + 1 for r in rho]),
                      dtype=a_type)
    on_g = coords == np.array(rho)[:, None]
    g_masks = (1 << np.arange(d, dtype=np.int64)) @ on_g
    coords[on_g] = 0
    a_plus = coords.T
    tables = {}
    for k, i in enumerate(i_list):
        dims = dims_u[k][row_of]
        # with one degree every decoded row has a nonzero dimension
        hit = slice(None) if len(i_list) == 1 else dims != 0
        tables[i] = CohomologyTable(
            i=i, char=char, a_plus=a_plus[hit], g_masks=g_masks[hit],
            dims=dims[hit], rho=rho,
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
    The answer is read off ``_scan_stage`` with no table built: a pattern's
    degrees reach at most |a⁺| - |G| (coordinates -1 on G), so each cell
    whose complex is nonzero at some i offers |a⁺| - |G| plus the largest
    such i, and the regularity is the largest offer.
    """
    _require_module(I)
    i_list, _, rho, outside, inverse, dims_u = _scan_stage(
        I, range(krull_dimension(I) + 1), char, pattern_cap)
    if dims_u is None:
        raise InternalConsistencyError(
            "no nonzero cohomology found for i <= dim R/I; nonvanishing at "
            "dim R/I should be guaranteed"
        )
    # every offer lies in [-d, d * max rho + d]: one narrow signed type holds
    # the coordinates, -1 on G, and their sums
    d = len(rho)
    w_type = np.min_scalar_type(-(d * max(rho) + d + 1))
    # i_list is 0..dim R/I: the largest nonzero i of every distinct complex,
    # -1 where there is none
    levels = np.arange(len(i_list), dtype=w_type)[:, None]
    top_i = np.where(dims_u != 0, levels, -1).max(axis=0)
    cell_top = top_i[inverse]
    hits = np.flatnonzero(cell_top >= 0)
    coords = np.array(np.unravel_index(outside[hits], [r + 1 for r in rho]),
                      dtype=w_type)
    coords[coords == np.array(rho)[:, None]] = -1
    return int((coords.sum(axis=0, dtype=w_type) + cell_top[hits]).max())
