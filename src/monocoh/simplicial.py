"""Simplicial complexes on vertex set [d] and their reduced homology.

A complex is held as its face indicator over all 2^d bitmasks, vertex j
occupying bit j-1: the same {0,1}^d box as a corner of a membership box.
Its facets (inclusion-maximal faces) are read off that box. Three kinds
are distinguished: the void complex (no faces at all), the irrelevant
complex (only the empty face), and ordinary complexes. The empty face is
the unique (-1)-cell of reduced chain complexes, so the irrelevant complex
has H~_{-1} of dimension 1 and the void complex has no homology in any
degree.

Homology dimensions are exact, and one routine, ``_word_homology``,
computes them all. It reads a complex as a face word: an int whose set bits
pick faces from a frame, a list of candidate faces ordered by size. A
cohomology table builds one frame and asks about many words; a whole
complex is the full word of the frame of its own faces
(``_flags_homology``). Each degree has one of three rules:

- The formula dim H~_q = n_q - r_q - r_{q+1}, over the q-cells and the
  ranks of the boundary maps, answers every degree up to 0 and every
  degree of a graph. n_{-1} = 1, n_0 = V and n_1 = E are bit counts,
  r_0 = [V > 0], and r_1 = V - c over c connected components over every
  field: ∂_1 is the oriented incidence matrix of the graph, which is
  totally unimodular.
- On n vertices, a complex with a face of three or more vertices has its
  degrees q >= max(1, n - 3) from combinatorial Alexander duality: 0 from
  q = n - 1 up, and at q = n - 2 and q = n - 3 from looking up the subsets
  of n - 1 and n - 2 vertices in the frame, the same over every field.
- The middle degrees 1 <= q <= n - 4 take the formula with the ranks of
  ∂_q from q = 2 up, read off boundary matrices by one sparse elimination
  on unit pivots in Python integers (``±1`` over Q, any nonzero residue
  over F_p); over Q, rows left with no ``±1`` entry go to fraction-free
  big-integer elimination. A cone point skips these degrees outright, and
  is looked for only when a matrix rank is still needed.

Dimensions are all the cohomology formula consumes, so no Smith normal form
is computed.

Values are immutable and every function is pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .monomial_core import MAX_VARIABLES, MonomialIdeal, _corner_flags, _mask_sizes


# Largest accepted prime characteristic. Elimination is exact in Python
# integers for any p; the bound keeps the trial division of the primality
# check to 2 and the odd numbers up to isqrt(p), about 23k of them.
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
    if char % 2 == 0 and char != 2 or any(
        char % k == 0 for k in range(3, math.isqrt(char) + 1, 2)
    ):
        raise ValueError(f"characteristic {char} is composite")
    return char


def _validate_d(d: int) -> int:
    d = int(d)
    if d < 1:
        raise ValueError("need at least one vertex")
    if d > MAX_VARIABLES:
        raise ValueError(f"vertex count is capped at {MAX_VARIABLES}")
    return d


class SimplicialComplex:
    """A simplicial complex on {1..d}, held as its face indicator. Immutable.

    The indicator is a read-only bool array over all 2^d masks, down-closed:
    entry m is True iff the mask m is a face. No face at all is the void
    complex and the empty face alone the irrelevant complex; anything else
    is ordinary. The facets are read off the indicator when asked for.
    """

    __slots__ = ("d", "_flags")

    def __init__(self, d: int, masks: Iterable[int]):
        """The complex whose faces are the given masks and all their
        subsets; ValueError for a mask outside 0 .. 2^d - 1."""
        d = _validate_d(d)
        marks = [int(m) for m in masks]
        if marks and not (min(marks) >= 0 and max(marks) >> d == 0):
            raise ValueError(f"a face mask lies outside 0..{(1 << d) - 1}")
        face = np.zeros(1 << d, dtype=np.uint8)
        face[marks] = 1
        # reshaped to (2,)*d, vertex j is axis d - j; flipped along every
        # axis, the downward closure is the upward one
        _kernels.upward_close(np.flip(face.reshape((2,) * d)))
        self._set(d, face.view(bool))

    @classmethod
    def _from_flags(cls, d: int, flags: np.ndarray) -> "SimplicialComplex":
        """Trusted constructor: ``flags`` is already a down-closed bool
        indicator over all 2^d masks, and is kept as it is."""
        obj = object.__new__(cls)
        obj._set(d, flags)
        return obj

    def _set(self, d: int, flags: np.ndarray) -> None:
        flags.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_flags", flags)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def is_void(self) -> bool:
        return not self._flags[0]

    @property
    def is_irrelevant(self) -> bool:
        # down-closed, a lone face is the empty one
        return np.count_nonzero(self._flags) == 1

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Facets as sorted 1-based vertex tuples, in ascending mask order."""
        return tuple(_mask_to_vertices(m) for m in _flag_facets(self._flags, self.d))

    def face_masks(self) -> frozenset[int]:
        """All faces as bitmasks."""
        return frozenset(np.flatnonzero(self._flags).tolist())

    def contains_face(self, vertices: Iterable[int]) -> bool:
        return bool(self._flags[_vertices_to_mask(self.d, vertices)])

    @property
    def dim(self) -> int:
        """Max face size minus 1; -1 for irrelevant, -2 for void."""
        if self.is_void:
            return -2
        return int(_mask_sizes(self.d)[self._flags].max()) - 1

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
            and np.array_equal(self._flags, other._flags)
        )

    def __hash__(self) -> int:
        return hash((self.d, self._flags.tobytes()))

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


def from_facets(d: int, faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from candidate faces, as vertex tuples.

    No candidates at all give the void complex; a lone empty face gives the
    irrelevant complex.
    """
    d = _validate_d(d)
    return SimplicialComplex(d, [_vertices_to_mask(d, f) for f in faces])


def _flag_facets(flags: np.ndarray, d: int) -> list[int]:
    """The facet masks, ascending, of the complex whose faces are the set
    entries of a down-closed indicator over all 2^d masks. Reshaped to
    (2,)*d and flipped along every axis the indicator is up-closed, cell p
    standing for the mask (2^d - 1) ^ p, and its minimal cells are the
    facets; no face at all gives no facet."""
    top = (1 << d) - 1
    cells = np.flatnonzero(_kernels.minimal_cells(np.flip(flags.reshape((2,) * d))))
    return [top ^ p for p in cells[::-1].tolist()]


def stanley_reisner_complex(I: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces F satisfy prod_{j in F} x_j not in sqrt(I).

    Its face indicator is the corner of the membership box at 0 (see
    ``_corner_flags``). The zero ideal gives the full simplex; the unit
    ideal forces even the empty face out, so the complex is void, with a
    warning.
    """
    d = _validate_d(I.d)
    if I.is_unit:
        warnings.warn(
            "unit ideal: every squarefree monomial lies in it, so the "
            "complex is void",
            stacklevel=2,
        )
    return SimplicialComplex._from_flags(d, _corner_flags(I, (0,) * d))


def stanley_reisner_ideal(K: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal non-faces of K.

    The non-faces form an up-closed (2,)*d box; with its axes reversed, so
    that axis j-1 is x_j, it is the ideal's membership box, whose minimal
    cells are the minimal non-faces. Every subset of [d] a face gives the
    zero ideal.
    """
    if K.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    d = K.d
    nonface = ~K._flags
    if not nonface.any():
        return MonomialIdeal(d)
    return MonomialIdeal._from_box(nonface.view(np.uint8).reshape((2,) * d).T)


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


def _frame_faces(flags: np.ndarray, d: int, top: int, avoid: int) -> list[int]:
    """The nonempty faces of a face indicator over all 2^d masks that have
    at most ``top`` vertices and none in the mask ``avoid``, ordered by size
    (ties in mask order): the face list of a ``_FaceFrame``."""
    sizes = _mask_sizes(d)
    faces = np.flatnonzero(flags & (sizes <= top))
    faces = faces[(faces != 0) & ((faces & avoid) == 0)]
    return faces[np.argsort(sizes[faces], kind="stable")].tolist()


class _FaceFrame:
    """A list of nonempty candidate faces, ordered by size, that face words
    index: bit k of a word stands for ``faces[k]``, and the empty face,
    present in every nonvoid complex, has no bit.

    The order by size makes the vertices bits ``[0, nv)`` and the edges bits
    ``[nv, graph_end)``; ``ends[k]`` holds the two vertex bits of edge bit
    ``nv + k``. One frame serves every word over the same list.
    """

    __slots__ = ("faces", "nv", "graph_end", "ends", "_bit")

    def __init__(self, faces: list[int]):
        nv = 0
        while nv < len(faces) and faces[nv].bit_count() == 1:
            nv += 1
        graph_end = nv
        while graph_end < len(faces) and faces[graph_end].bit_count() == 2:
            graph_end += 1
        bit_of = {f: k for k, f in enumerate(faces[:nv])}
        self.faces = faces
        self.nv = nv
        self.graph_end = graph_end
        self.ends = [
            (bit_of[e & -e], bit_of[e & (e - 1)]) for e in faces[nv:graph_end]
        ]
        self._bit: dict[int, int] | None = None

    def bit_of(self) -> dict[int, int]:
        """The bit of every face mask of the frame, built on first use, so
        that the words of one table share it."""
        if self._bit is None:
            self._bit = {f: k for k, f in enumerate(self.faces)}
        return self._bit


def _forest_size(edges: int, ends: list[tuple[int, int]]) -> int:
    """Edges in a spanning forest of the graph whose edges are the set bits
    of ``edges`` (bit k joins the vertices ``ends[k]``): vertices minus
    connected components, found by union-find over the vertex bits."""
    root: dict[int, int] = {}
    size = 0
    while edges:
        low = edges & -edges
        u, v = ends[low.bit_length() - 1]
        while u in root:
            u = root[u]
        while v in root:
            v = root[v]
        if u != v:
            root[u] = v
            size += 1
        edges ^= low
    return size


def _word_homology(
    word: int, frame: _FaceFrame, qs: Sequence[int], char: int
) -> dict[int, int]:
    """Nonzero dims of H~_q, for q in the ascending nonempty ``qs``, of the
    complex whose faces are the empty face and ``frame.faces[k]`` for every
    set bit k of ``word``.

    On a word with V = n vertices, E edges and a cell above dimension 1,
    the degrees q >= max(1, n - 3) come from Alexander duality
    (``_dual_dim``). Every other degree, and every degree of a graph word,
    is n_q - r_q - r_{q+1}: n_{-1} = 1, n_0 = V, n_1 = E, r_0 = [V > 0],
    and r_1 = V - c over the c components, found by a union-find only when
    q = 0 or q = 1 is asked about and the word has an edge. A graph word
    has no cells or ranks above; for any other word ``_chain_dims`` gives
    those of the middle degrees 1 <= q <= n - 4, or finds them all 0.
    """
    nv = frame.nv
    vertices = word & ((1 << nv) - 1)
    edges = word >> nv & ((1 << (frame.graph_end - nv)) - 1)
    n = vertices.bit_count()
    cells = {-1: 1, 0: n, 1: edges.bit_count()}
    ranks = {0: 1 if n else 0}
    formula, dual = qs, ()
    if word >> frame.graph_end:
        low = max(1, n - 3)
        formula = [q for q in qs if q < low]
        dual = [q for q in qs if low <= q <= n - 2]
        middle = [q for q in formula if q >= 1]
        if middle:
            chain = _chain_dims(word, frame, middle, char)
            if chain is None:
                formula = [q for q in formula if q < 1]
            else:
                cells.update(chain[0])
                ranks.update(chain[1])
    if edges and (0 in formula or 1 in formula):
        ranks[1] = _forest_size(edges, frame.ends)
    dims = {}
    for q in formula:
        val = cells.get(q, 0) - ranks.get(q, 0) - ranks.get(q + 1, 0)
        if val:
            dims[q] = val
    if dual:
        verts = [frame.faces[k] for k in range(nv) if vertices >> k & 1]
        for q in dual:
            val = _dual_dim(word, frame, verts, q)
            if val:
                dims[q] = val
    return dims


def _dual_dim(word: int, frame: _FaceFrame, verts: list[int], q: int) -> int:
    """dim H~_q, for q = n - 2 or n - 3 with q >= 1, of the complex K of
    ``word`` on the n vertex masks ``verts``, with V their union.

    H~_q reads only the faces of at most q + 2 vertices, so K may be taken
    as its (q + 1)-skeleton. Unless that is the full simplex on V (then
    every answer below is 0), Alexander duality gives dim H~_q(K) =
    dim H~_{n-q-3}(K*) over every field, where K* = {V ∖ F : F ⊆ V not a
    face}. A mask that is not in the frame is a non-face, since every face
    of the word is a frame face.

    - q = n - 2: H~_{-1}(K*) is 1 exactly when K* = {∅}, i.e. V is not a
      face and every V ∖ {v} is.
    - q = n - 3: V itself lies above the skeleton, so ∅ ∈ K*; K* has the
      vertices v with V ∖ {v} not a face, joined when V ∖ {u, v} is not a
      face, and H~_0(K*) = max(c - 1, 0) over its c components.
    """
    bit = frame.bit_of()
    top = sum(verts)

    def absent(m: int) -> bool:
        k = bit.get(m)
        return k is None or not word >> k & 1

    if q == len(verts) - 2:
        return int(absent(top) and not any(absent(top ^ v) for v in verts))
    dual = [v for v in verts if absent(top ^ v)]
    ends = [(a, b) for b in range(len(dual)) for a in range(b)
            if absent(top ^ dual[a] ^ dual[b])]
    return max(len(dual) - _forest_size((1 << len(ends)) - 1, ends) - 1, 0)


def _chain_dims(
    word: int, frame: _FaceFrame, qs: Sequence[int], char: int
) -> tuple[dict[int, int], dict[int, int]] | None:
    """``(cells, ranks)`` of the chain complex of ``word`` around the
    ascending nonempty degrees ``qs``, each in 1..n - 4 on a word with a
    face of three or more vertices: n_q for every q >= 2 of ``qs``, and the
    rank of ∂_q for every q >= 2 with q or q - 1 in ``qs``, for the formula
    of ``_word_homology``. The word expands into face lists, and each
    boundary matrix is built once, so adjacent degrees share the rank
    between them. None when the cone rule says every H~_q of ``qs`` is 0.

    Cone rule, tried only when some ∂_q still needs a matrix: with q_max
    the largest requested degree that has cells, if some vertex v has F | v
    a face for every face F with |F| <= q_max + 1, then c(F) = [v, F]
    satisfies ∂c + c∂ = id on the augmented chains through degree q_max,
    so every requested H~_q vanishes and no boundary matrix is built. Only
    faces up to that size are asked about, so the rule holds for a face set
    truncated above |F| = q_max + 2 (a hollow triangle is coned through
    degree 0 but not degree 1).
    """
    by_dim: dict[int, list[int]] = {}
    # walked 64 bits at a time, so a long word costs linear time
    raw = word.to_bytes((word.bit_length() + 7) // 8, "little")
    for base in range(0, len(raw), 8):
        rest = int.from_bytes(raw[base : base + 8], "little")
        while rest:
            low = rest & -rest
            f = frame.faces[8 * base + low.bit_length() - 1]
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
            rest ^= low
    cells = {q: len(by_dim[q]) for q in qs if q >= 2 and q in by_dim}
    matrices = sorted({r for q in qs for r in (q, q + 1) if r >= 2 and r in by_dim})
    if matrices:
        q_max = max(q for q in qs if q in by_dim)
        present = {f for faces in by_dim.values() for f in faces}
        if _has_cone_point(by_dim, present, q_max + 1):
            return None
    ranks = {q: _matrix_rank(_boundary_matrix(by_dim[q - 1], by_dim[q]), char)
             for q in matrices}
    return cells, ranks


def _flags_homology(
    flags: np.ndarray, d: int, qs: Sequence[int], char: int, avoid: int = 0
) -> dict[int, int]:
    """Nonzero dims of H~_q, for q in the ascending nonempty ``qs``, of the
    nonvoid complex of the faces of a face indicator over all 2^d masks
    that have no vertex in the mask ``avoid``. H~_q reads only the faces of
    at most q + 2 vertices, so one frame holds those up to max qs + 2
    vertices, and the complex is its full word."""
    frame = _FaceFrame(_frame_faces(flags, d, qs[-1] + 2, avoid))
    return _word_homology((1 << len(frame.faces)) - 1, frame, qs, char)


def homology_dims_from_masks(
    face_masks: Iterable[int], char: int, degrees: Iterable[int] | None = None
) -> dict[int, int]:
    """Reduced homology dimensions of the complex with the given face set,
    in the given degrees (all when None); only nonzero degrees appear.

    An empty face set is the void complex, and everything vanishes. Any
    other must be a complex: ValueError for a negative mask, a mask of more
    than ``MAX_VARIABLES`` bits, or a set without the empty face or some
    subset of one of its faces. ValueError too for a ``char`` that is
    neither 0 nor a prime up to ``MAX_CHAR``.
    """
    char = _validate_char(char)
    faces = {int(m) for m in face_masks}
    if not faces:
        return {}
    K = SimplicialComplex(max(1, max(faces).bit_length()), faces)
    if np.count_nonzero(K._flags) != len(faces):
        raise ValueError(
            "a face set must hold the empty face and every subset of its faces")
    if degrees is None:
        qs = list(range(-1, K.dim + 1))
    else:
        qs = sorted({int(q) for q in degrees})
    return _flags_homology(K._flags, K.d, qs, char) if qs else {}


def homology_dim_single(face_masks: Iterable[int], q: int, char: int) -> int:
    """dim H~_q of the complex with the given face set:
    ``homology_dims_from_masks`` in the one degree q, with the same
    checks."""
    return homology_dims_from_masks(face_masks, char, (q,)).get(q, 0)


def reduced_homology_dims(K: SimplicialComplex, char: int) -> HomologyProfile:
    """Reduced homology dimensions of K over Q (char 0) or F_p (char p) in
    every degree from -1 to dim K."""
    char = _validate_char(char)
    if K.is_void:
        return HomologyProfile(char=char, dims={})
    qs = list(range(-1, K.dim + 1))
    return HomologyProfile(char=char, dims=_flags_homology(K._flags, K.d, qs, char))
