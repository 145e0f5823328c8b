"""Hot numeric kernels.

Everything here takes plain numpy arrays: boolean membership boxes
(d-dimensional 0/1 grids indexed by exponent vectors), exponent-row
matrices, and small integer matrices whose exact rank is computed in Python
integers, over Q and over F_p by the same unit-pivot elimination.
End-to-end and per-kernel timings come from the benchmark,
``python3 perfbench/run.py``.

All kernels are deterministic and allocation-light.
"""

from __future__ import annotations

import math

import numpy as np

# The benchmark records this name in every run.
BACKEND = "numpy"

# Crossovers of the kernels, measured on boxes and matrices of the
# shapes the package produces. An axis of length n is closed by n - 1 slice
# maxima once the box holds at least this many cells per step along it;
# below that one ``np.maximum.accumulate`` call is cheaper.
_SLICE_CLOSE_MIN_STEP_CELLS = 512
# The last axis is contiguous, so its hyperplanes are strided: from this
# length on one accumulate call closes it faster than the slice maxima,
# whatever the cells per step.
_ACCUMULATE_LAST_AXIS_MIN_LEN = 64
# Mask rows of one word are deduplicated through a presence table over the
# key range, not a sort, once there are at least this many keys and every
# key is below _DENSE_DEDUP_SPAN times their count: the table then costs a
# few linear passes, and the sort O(n log n).
_DENSE_DEDUP_MIN_KEYS = 4096
_DENSE_DEDUP_SPAN = 4


def upward_close(box: np.ndarray) -> None:
    """Close a 0/1 membership box upward, in place.

    After the call, ``box[b] == 1`` iff some originally marked cell divides
    (is coordinatewise <=) ``b``.

    One axis is closed at a time. An axis of length ``n`` on which the box
    holds at least ``_SLICE_CLOSE_MIN_STEP_CELLS`` cells per step
    (``box.size >= 512 * n``) is closed by ``n - 1`` in-place slice maxima,
    each hyperplane taking the maximum with the closed one below it, unless
    it is the last axis and at least ``_ACCUMULATE_LAST_AXIS_MIN_LEN`` (64)
    long; any other axis by one ``np.maximum.accumulate`` call. The choice
    depends only on the shape, so a 1-D box, however long, is one call.
    """
    if box.size == 0:
        return
    last = box.ndim - 1
    for ax, n in enumerate(box.shape):
        if n <= 1:
            continue
        if box.size >= _SLICE_CLOSE_MIN_STEP_CELLS * n and not (
            ax == last and n >= _ACCUMULATE_LAST_AXIS_MIN_LEN
        ):
            v = np.moveaxis(box, ax, 0)
            for k in range(1, n):
                np.maximum(v[k], v[k - 1], out=v[k])
        else:
            np.maximum.accumulate(box, axis=ax, out=box)


def minimal_cells(box: np.ndarray) -> np.ndarray:
    """Boolean mask of the cells of a 0/1 box that are set but have no set
    predecessor.

    For an upward-closed box these are exactly the minimal exponent vectors
    of the monomial set the box encodes.
    """
    out = box.astype(bool)
    for ax in range(box.ndim):
        if box.shape[ax] <= 1:
            continue
        hi = [slice(None)] * box.ndim
        lo = [slice(None)] * box.ndim
        hi[ax] = slice(1, None)
        lo[ax] = slice(None, -1)
        out[tuple(hi)] &= box[tuple(lo)] == 0
    return out


def pairwise_minimal(exps: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of divisibility-minimal rows.

    Rows must be distinct; a row is dropped when another row divides it
    coordinatewise.
    """
    m = exps.shape[0]
    if m <= 1:
        return np.ones(m, dtype=bool)
    keep = np.ones(m, dtype=bool)
    chunk = max(1, 4_000_000 // max(1, m))
    for s in range(0, m, chunk):
        e = exps[s : s + chunk]
        dom = (exps[None, :, :] <= e[:, None, :]).all(axis=2)
        dom[np.arange(e.shape[0]), s + np.arange(e.shape[0])] = False
        keep[s : s + chunk] = ~dom.any(axis=1)
    return keep


def scan_face_masks(
    box: np.ndarray,
    free_axes: list[int],
    g_axes: list[int],
    faces: list[tuple[int, ...]],
) -> np.ndarray:
    """Face-presence bitmasks of degree complexes, over a whole pattern box.

    ``box`` is an upward-closed membership box of shape ``rho + 1``. For each
    exponent pattern ``a`` ranging over the interior ``0 <= a_j < rho_j`` of
    the sub-box spanned by ``free_axes`` (C order, ascending axis index; axes
    in ``g_axes`` pinned to 0; no rows if some ``rho_j = 0``), and for each
    candidate face ``F`` (a tuple of free axes), face ``F`` is present iff
    the box is 0 at the probe point with coordinates ``rho_j`` on
    ``g_axes + F`` and ``a_j`` elsewhere.

    Returns a ``(npat, max(1, ceil(nf / 64)))`` array of mask words; bit
    ``f`` of row ``p`` (bit ``f % 64`` of word ``f // 64``) is set when face
    ``faces[f]`` is present in the complex of pattern ``p``. The words are
    the narrowest unsigned type that holds ``nf`` bits: uint8 up to 8 faces,
    uint16 up to 16, uint32 up to 32, else uint64.
    """
    shape = box.shape
    sub_dims = [shape[j] - 1 for j in free_axes]
    nf = len(faces)
    npat = math.prod(sub_dims)
    nw = max(1, (nf + 63) // 64)
    word = np.dtype(
        np.uint8 if nf <= 8 else np.uint16 if nf <= 16
        else np.uint32 if nf <= 32 else np.uint64
    )
    out = np.zeros((npat, nw), dtype=word)
    if nf == 0 or npat == 0:
        return out
    # out viewed over the pattern box; a face axis is probed at its top
    # cell and kept with length 1, so the probe broadcasts along it
    out_box = out.reshape(tuple(sub_dims) + (nw,))
    g_set = set(g_axes)
    for f_i, f in enumerate(faces):
        idx = tuple(
            shape[j] - 1 if j in g_set else slice(-1, None) if j in f
            else slice(0, -1)
            for j in range(len(shape))
        )
        presence = (box[idx] == 0).astype(word) << word.type(f_i & 63)
        out_box[..., f_i >> 6] |= presence
    return out


def gf_rank(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    return _unit_pivot_rank(mat, p)


def rank_char0(mat: np.ndarray) -> int:
    """Rank of an integer matrix over Q."""
    return _unit_pivot_rank(mat, 0)


def _unit_pivot_rank(mat: np.ndarray, p: int) -> int:
    """Rank over F_p, or over Q when ``p == 0``, by elimination on unit
    pivots in Python integers.

    Rows are kept sparse as ``{column: value}`` (reduced mod ``p`` when
    ``p > 0``). Each step takes the first unit entry it finds (over F_p any
    nonzero entry, over Q only ``±1``), clears its column from every other
    row and drops the pivot row. Over F_p this runs to the end; over Q the
    rows left once no ``±1`` entry remains go to ``bareiss_rank_exact``.
    """
    rows = [
        {j: v for j, v in enumerate(row) if v}
        for row in (np.mod(mat, p) if p else mat).tolist()
    ]
    rows = [row for row in rows if row]
    rank = 0
    while rows:
        pivot = next(
            (
                (i, j, v)
                for i, row in enumerate(rows)
                for j, v in row.items()
                if p or v == 1 or v == -1
            ),
            None,
        )
        if pivot is None:
            break
        i, c, u = pivot
        prow = rows.pop(i)
        del prow[c]
        inv = pow(u, -1, p) if p else u  # ±1 is its own inverse
        for row in rows:
            f = row.pop(c, 0)
            if not f:
                continue
            f *= inv
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if p:
                    w %= p
                if w:
                    row[j] = w
                else:
                    del row[j]
        rows = [row for row in rows if row]
        rank += 1
    if rows:
        cols = sorted({j for row in rows for j in row})
        rank += bareiss_rank_exact([[row.get(j, 0) for j in cols] for row in rows])
    return rank


def bareiss_rank_exact(rows: list[list[int]]) -> int:
    """Exact fraction-free rank over Q with Python integers.

    ``rank_char0`` calls this only on the rows that hold no ``±1`` entry
    after unit-pivot elimination, so its call count is the number of
    big-integer fallbacks.
    """
    a = [list(map(int, row)) for row in rows]
    r = len(a)
    c = len(a[0]) if r else 0
    prev = 1
    rank = 0
    for k in range(min(r, c)):
        pi = pj = -1
        for i in range(k, r):
            for j in range(k, c):
                if a[i][j] != 0:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            return rank
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
        pivot = a[k][k]
        for i in range(k + 1, r):
            aik = a[i][k]
            for j in range(k + 1, c):
                a[i][j] = (pivot * a[i][j] - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
        rank += 1
    return rank
