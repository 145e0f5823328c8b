"""Simplicial complexes on vertex set [d] and their reduced homology.

Complexes are stored by facets (inclusion-maximal faces) as bitmasks, with
vertex j occupying bit j-1. Three kinds are distinguished: the void complex
(no faces at all), the irrelevant complex (only the empty face), and
ordinary complexes. The empty face is the unique (-1)-cell of reduced chain
complexes, so the irrelevant complex has H~_{-1} of dimension 1 and the
void complex has no homology in any degree.

Homology dimensions are exact. The rank of ∂_1 (edges to vertices) is
V - c, vertices minus connected components, over Q and over every F_p: ∂_1
is the oriented incidence matrix of the graph, which is totally unimodular.
Boundary matrices are built only from ∂_2 up; their ranks over the
rationals and over F_p come from one sparse elimination on unit pivots in
Python integers (``±1`` over Q, any nonzero residue over F_p); over Q, rows
left with no ``±1`` entry go to fraction-free big-integer elimination. A
cone point skips the homology outright, and is looked for only when a
matrix rank is still needed. Dimensions are all the cohomology formula
consumes, so no Smith normal form is computed.

Values are immutable and every function is pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import UnitIdealError
from .monomial_core import MAX_VARIABLES, MonomialIdeal, _radical_face_flags


# Largest accepted prime characteristic. Elimination is exact in Python
# integers for any p; the bound keeps the trial-division primality check to
# ~46k steps.
MAX_CHAR = 2**31 - 1


def _validate_char(char: int) -> int:
    char = int(char)
    if char == 0:
        return 0
    if char < 2:
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")
    if char > MAX_CHAR:
        raise ValueError(
            f"characteristic {char} exceeds the supported bound 2**31 - 1 "
            f"= {MAX_CHAR}"
        )
    k = 2
    while k * k <= char:
        if char % k == 0:
            raise ValueError(f"characteristic {char} is composite")
        k += 1
    return char


def _validate_d(d: int) -> int:
    d = int(d)
    if d < 1:
        raise ValueError("need at least one vertex")
    if d > MAX_VARIABLES:
        raise ValueError(f"vertex count is capped at {MAX_VARIABLES}")
    return d


class SimplicialComplex:
    """A simplicial complex on {1..d}, stored by facet bitmasks. Immutable.

    ``facet_masks == ()`` encodes the void complex and ``(0,)`` the
    irrelevant complex; anything else is ordinary. Faces are implicit by
    downward closure.
    """

    __slots__ = ("d", "_facets")

    def __init__(self, d: int, facet_masks: Iterable[int]):
        object.__setattr__(self, "d", _validate_d(d))
        object.__setattr__(self, "_facets", tuple(sorted(int(m) for m in facet_masks)))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def is_void(self) -> bool:
        return not self._facets

    @property
    def is_irrelevant(self) -> bool:
        return self._facets == (0,)

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Facets as sorted 1-based vertex tuples, lexicographically ordered."""
        return tuple(_mask_to_vertices(m) for m in self._facets)

    def face_masks(self) -> frozenset[int]:
        """All faces (downward closure of the facets) as bitmasks."""
        out: set[int] = set()
        for f in self._facets:
            s = f
            while True:
                out.add(s)
                if s == 0:
                    break
                s = (s - 1) & f
        return frozenset(out)

    def contains_face(self, vertices: Iterable[int]) -> bool:
        mask = _vertices_to_mask(self.d, vertices)
        return any((mask & f) == mask for f in self._facets)

    @property
    def dim(self) -> int:
        """Max facet size minus 1; -1 for irrelevant, -2 for void."""
        if self.is_void:
            return -2
        return max(m.bit_count() for m in self._facets) - 1

    def text_form(self) -> str:
        """CLI text rendering: one facet line of comma-separated vertices;
        ``void`` and ``{}`` mark the two degenerate kinds."""
        if self.is_void:
            return "void"
        if self.is_irrelevant:
            return "{}"
        return "\n".join(",".join(str(v) for v in f) for f in self.facets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.d == other.d
            and self._facets == other._facets
        )

    def __hash__(self) -> int:
        return hash((self.d, self._facets))

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(d={self.d}, void)"
        if self.is_irrelevant:
            return f"SimplicialComplex(d={self.d}, irrelevant)"
        return f"SimplicialComplex(d={self.d}, facets={list(self.facets)!r})"


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology dimensions over one field; absent degrees are 0."""

    char: int
    dims: dict[int, int]

    def dim(self, q: int) -> int:
        return self.dims.get(q, 0)


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def _vertices_to_mask(d: int, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        v = int(v)
        if not 1 <= v <= d:
            raise ValueError(f"vertex {v} out of range 1..{d}")
        mask |= 1 << (v - 1)
    return mask


def _antichain_max(masks: set[int]) -> list[int]:
    out = []
    for m in masks:
        if not any(m != f and (m & f) == m for f in masks):
            out.append(m)
    return sorted(out)


def from_facets(d: int, faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from candidate faces, keeping the maximal ones.

    No candidates at all give the void complex; a lone empty face gives the
    irrelevant complex.
    """
    d = _validate_d(d)
    masks = {_vertices_to_mask(d, f) for f in faces}
    if not masks:
        return SimplicialComplex(d, ())
    return SimplicialComplex(d, _antichain_max(masks))


def _face_flags(d: int, K: SimplicialComplex) -> np.ndarray:
    """Boolean face indicator over all 2^d bitmasks."""
    masks = np.arange(1 << d, dtype=np.int64)
    face = np.zeros(masks.shape, dtype=bool)
    for f in K._facets:
        face |= (masks & ~np.int64(f)) == 0
    return face


def stanley_reisner_complex(I: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces F satisfy prod_{j in F} x_j not in sqrt(I).

    The zero ideal gives the full simplex; the unit ideal forces even the
    empty face out, so the void complex is returned with a warning.
    """
    d = _validate_d(I.d)
    if I.is_unit:
        warnings.warn(
            "unit ideal: every squarefree monomial lies in it, so the "
            "complex is void",
            stacklevel=2,
        )
        return SimplicialComplex(d, ())
    face = _radical_face_flags(I)
    masks = np.arange(1 << d, dtype=np.int64)
    is_facet = face.copy()
    for v in range(d):
        bitv = 1 << v
        without = (masks & bitv) == 0
        is_facet &= ~(without & face[masks | bitv])
    return SimplicialComplex(d, [int(m) for m in masks[is_facet]])


def stanley_reisner_ideal(K: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal non-faces of K."""
    if K.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    d = K.d
    masks = np.arange(1 << d, dtype=np.int64)
    face = _face_flags(d, K)
    nonface = ~face
    is_min = nonface.copy()
    for v in range(d):
        bitv = 1 << v
        has_v = (masks & bitv) != 0
        is_min &= ~(has_v & nonface[masks & ~np.int64(bitv)])
    rows = []
    for m in masks[is_min]:
        rows.append([(int(m) >> j) & 1 for j in range(d)])
    return MonomialIdeal(d, rows)


def _boundary_matrix(lower: list[int], upper: list[int]) -> np.ndarray:
    """Signed boundary matrix from the cells ``upper`` to the cells ``lower``.

    Cells are face bitmasks; orientation comes from ascending vertex order,
    the t-th vertex removal carrying sign (-1)^t. The empty face (mask 0) is
    the unique cell one dimension below the vertices.
    """
    index = {m: r for r, m in enumerate(lower)}
    mat = np.zeros((len(lower), len(upper)), dtype=np.int64)
    for c, mask in enumerate(upper):
        t = 0
        v = 0
        rest = mask
        while rest:
            if rest & 1:
                mat[index[mask ^ (1 << v)], c] = 1 if t % 2 == 0 else -1
                t += 1
            rest >>= 1
            v += 1
    return mat


def _matrix_rank(mat: np.ndarray, char: int) -> int:
    if mat.size == 0:
        return 0
    if char == 0:
        return _kernels.rank_char0(mat)
    return _kernels.gf_rank(mat, char)


def _has_cone_point(
    by_dim: dict[int, list[int]], faces: set[int], size: int
) -> bool:
    """True when some vertex v has F | v in ``faces`` for every face F of at
    most ``size`` vertices (F = ∅ asks that v be a vertex)."""
    apex = 0
    for m in by_dim.get(0, ()):
        apex |= m
    for q in range(0, size):
        for f in by_dim.get(q, ()):
            rest = apex & ~f
            while rest:
                v = rest & -rest
                if f | v not in faces:
                    apex ^= v
                rest ^= v
            if not apex:
                return False
    return apex != 0


def _component_count(vertices: list[int], edges: list[int]) -> int:
    """Connected components of the graph with the given vertex and edge
    masks, found by growing each component as a bitmask."""
    adjacent: dict[int, int] = {}
    for e in edges:
        lo = e & -e
        hi = e ^ lo
        adjacent[lo] = adjacent.get(lo, 0) | hi
        adjacent[hi] = adjacent.get(hi, 0) | lo
    unseen = 0
    for v in vertices:
        unseen |= v
    count = 0
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reached = 0
            while frontier:
                v = frontier & -frontier
                reached |= adjacent.get(v, 0)
                frontier ^= v
            frontier = reached & ~component
            component |= frontier
        unseen &= ~component
        count += 1
    return count


def _reduced_homology(
    face_masks: Iterable[int], degrees: Iterable[int] | None, char: int
) -> dict[int, int]:
    """Nonzero dims of H~_q for q in ``degrees`` (every degree when None).

    Only the boundary ranks around the requested degrees are computed, each
    once, so adjacent degrees share the rank between them. A rank whose
    source or target has no cells is 0. The augmentation (vertices to the
    empty face) has rank 1 whenever there is a vertex. ∂_1 (edges to
    vertices) gives edge {u < v} the column e_v - e_u: it is the oriented
    incidence matrix of the graph, which is totally unimodular, so its rank
    over Q and over every F_p is V - c, with c the number of connected
    components. No matrix is built below ∂_2.

    Cone rule, tried only when some ∂_q with q >= 2 still needs a matrix:
    with q_max the largest requested degree, if some vertex v has F | v a
    face for every face F with |F| <= q_max + 1, then c(F) = [v, F]
    satisfies ∂c + c∂ = id on the augmented chains through degree q_max, so
    every requested H~_q vanishes and no boundary matrix is built. Only
    faces up to that size are asked about, so the rule holds for a face set
    truncated above |F| = q_max + 2 (a hollow triangle is coned through
    degree 0 but not degree 1).
    """
    faces = set(int(m) for m in face_masks)
    if not faces:
        return {}
    if 0 not in faces:
        raise ValueError("a nonvoid face set must contain the empty face")
    by_dim: dict[int, list[int]] = {}
    for m in sorted(faces):
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    wanted = sorted(by_dim if degrees is None else by_dim.keys() & set(degrees))
    if not wanted:
        return {}
    # ranks[q]: rank of the boundary map from the q-cells to the (q-1)-cells;
    # a missing q has no q-cells, or is ∂_{-1}, and its rank is 0
    ranks: dict[int, int] = {0: 1 if 0 in by_dim else 0}
    if 1 in by_dim and (0 in wanted or 1 in wanted):
        ranks[1] = len(by_dim[0]) - _component_count(by_dim[0], by_dim[1])
    matrices = sorted(
        {r for q in wanted for r in (q, q + 1) if r >= 2 and r in by_dim}
    )
    if matrices and _has_cone_point(by_dim, faces, wanted[-1] + 1):
        return {}
    for q in matrices:
        ranks[q] = _matrix_rank(_boundary_matrix(by_dim[q - 1], by_dim[q]), char)
    dims: dict[int, int] = {}
    for q in wanted:
        val = len(by_dim[q]) - ranks.get(q, 0) - ranks.get(q + 1, 0)
        if val:
            dims[q] = val
    return dims


def homology_dims_from_masks(
    face_masks: Iterable[int], char: int, degrees: Iterable[int] | None = None
) -> dict[int, int]:
    """Reduced homology dimensions of the complex with the given face set,
    in the given degrees (all when None); only nonzero degrees appear.

    The face set must be downward closed and include mask 0 (the empty face)
    unless it is empty, in which case the complex is void and everything
    vanishes.
    """
    return _reduced_homology(face_masks, degrees, char)


def homology_dim_single(face_masks: Iterable[int], q: int, char: int) -> int:
    """dim H~_q of the complex with the given downward-closed face set, from
    the two boundary ranks around q; 0 without a boundary matrix when the
    faces through dimension q are coned."""
    return _reduced_homology(face_masks, (q,), char).get(q, 0)


def reduced_homology_dims(K: SimplicialComplex, char: int) -> HomologyProfile:
    """Reduced homology dimensions of K over Q (char 0) or F_p (char p)."""
    char = _validate_char(char)
    if K.is_void:
        return HomologyProfile(char=char, dims={})
    return HomologyProfile(char=char, dims=homology_dims_from_masks(K.face_masks(), char))
