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
    box: np.ndarray, faces: list[tuple[int, ...]], max_i: int
) -> np.ndarray:
    """One key per cell of a membership box: the faces of the cell's degree
    complex and the size of its negative support.

    ``box`` is an upward-closed membership box of shape ``rho + 1``. Cell
    ``b`` is the degree pattern with negative support
    ``G = {j : b_j = rho_j}`` and ``a⁺ = b`` off ``G`` (an axis with
    ``rho_j = 0`` is in every ``G``). With ``nf = len(faces)``, its key holds:

    - bit ``f < nf``, set when face ``faces[f]`` (a nonempty ascending tuple
      of axes) is present at ``b``: ``F ∩ G = ∅`` and the box is 0 at
      ``b ∨ rho·1_F``. A face of ``max_i + 1`` axes is kept at ``G = ∅``
      only, the one support whose homology degrees reach it;
    - from bit ``nf`` up, ``min(|G|, max_i + 1)``, or ``max_i + 1`` when the
      box is 1 at ``b`` (the void complex). A cell with that top value
      belongs to no table of degree ``i <= max_i``.

    Returns a ``(box.size, words)`` array, one row per cell in C order of the
    box; bit ``k`` of a key is bit ``k % 64`` of word ``k // 64``. The words
    are the narrowest unsigned type that holds the key's bits: uint8 up to 8,
    uint16 up to 16, uint32 up to 32, else as many uint64 words as needed.

    Every face is written over the whole box, so that each write has a
    contiguous destination. The faces that share their last axis ``m`` are
    first gathered on the top slab of ``m`` and then written together along
    ``m``. Afterwards each top slab clears the faces that meet its axis, and
    every widest face.
    """
    top = max_i + 1
    nf = len(faces)
    nbits = nf + top.bit_length()
    word = np.dtype(
        np.uint8 if nbits <= 8 else np.uint16 if nbits <= 16
        else np.uint32 if nbits <= 32 else np.uint64
    )
    keys = np.zeros(box.shape + ((nbits + 63) // 64,), dtype=word)
    slabs = [(slice(None),) * j + (slice(-1, None),) for j in range(box.ndim)]
    # the field: |G| counted over the top slabs, cells of the ideal pushed
    # past the clamp; written first, so its low word takes it by assignment
    field = box * np.uint8(top)
    for slab in slabs:
        field[slab] += 1
    field[field > top] = top
    w, shift = divmod(nf, 64)
    keys[..., w] = field
    keys[..., w] <<= word.type(shift)
    if shift + top.bit_length() > 64:
        keys[..., w + 1] = field >> np.uint8(64 - shift)
    cleared = np.zeros((box.ndim, keys.shape[-1]), dtype=word)
    by_last: dict[int, list[int]] = {}
    for f_i, f in enumerate(faces):
        by_last.setdefault(f[-1], []).append(f_i)
    for m, group in by_last.items():
        acc = np.zeros(keys[slabs[m]].shape, dtype=word)
        for f_i in group:
            f = faces[f_i]
            w, shift = divmod(f_i, 64)
            for j in range(box.ndim) if len(f) == top else f:
                cleared[j, w] |= word.type(1) << word.type(shift)
            src = tuple(slice(-1, None) if j in f else slice(None)
                        for j in range(box.ndim))
            acc[..., w] |= (box[src] == 0).astype(word) << word.type(shift)
        keys |= acc
    for slab, bits in zip(slabs, cleared):
        if bits.any():
            keys[slab] &= ~bits
    return keys.reshape(-1, keys.shape[-1])


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
