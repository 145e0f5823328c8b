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
# key range, not a sort, when every key is below _DENSE_DEDUP_SPAN times
# the larger of their count and _DENSE_DEDUP_MIN_KEYS: the table then costs
# a few linear passes over at most that many entries, and the sort
# O(n log n) plus its fixed cost, which dominates for a few hundred keys.
_DENSE_DEDUP_MIN_KEYS = 4096
_DENSE_DEDUP_SPAN = 4
# The face scan stacks every face over the whole box, in one group, while
# faces times cells stays within this; above it the stacks of the faces
# sharing a last axis, over that axis's top slab, copy less.
_SCAN_ONE_GROUP_MAX_CELLS = 1 << 14


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

    The cells outside the ideal are found once, as a boolean box. The faces
    of one word form a group over the whole box while faces times cells is
    at most ``_SCAN_ONE_GROUP_MAX_CELLS`` (2^14); otherwise the faces that
    share their last axis ``m`` and their word form a group, worked on the
    top slab of ``m``. Each face's probes are copied from its group's box
    or slab, widened to the word type, into one zeroed stack, only where
    the face can be present: below the top of its axes, and for a widest
    face below the top of every axis. The stack is shifted into the faces'
    bit places at once, ORed down and written along ``m``; a slab group then
    clears its faces on the top slab of ``m`` by one scalar AND.
    """
    top = max_i + 1
    nf = len(faces)
    nbits = nf + top.bit_length()
    word = np.dtype(
        np.uint8 if nbits <= 8 else np.uint16 if nbits <= 16
        else np.uint32 if nbits <= 32 else np.uint64
    )
    d = box.ndim
    keys = np.zeros(box.shape + ((nbits + 63) // 64,), dtype=word)
    words = [keys[..., w] for w in range(keys.shape[-1])]
    slabs = [(slice(None),) * j + (slice(-1, None),) for j in range(d)]
    # the field: |G| counted over the top slabs, cells of the ideal pushed
    # past the clamp; written first, so its low word takes it by assignment
    field = box * np.uint8(top)
    for slab in slabs:
        field[slab] += 1
    np.minimum(field, top, out=field)
    w, shift = divmod(nf, 64)
    np.left_shift(field, shift, out=words[w], dtype=word)
    if shift + top.bit_length() > 64:
        words[w + 1][...] = field >> np.uint8(64 - shift)
    del field  # the face stacks below are the scan's largest temporaries
    live = box == 0
    # a group key: the word, and the last axis or -1 for the whole box
    whole = nf * box.size <= _SCAN_ONE_GROUP_MAX_CELLS
    groups: dict[tuple[int, int], list[int]] = {}
    for f_i, f in enumerate(faces):
        groups.setdefault((-1 if whole else f[-1], f_i >> 6), []).append(f_i)
    below = slice(None, -1)
    full = (1 << 8 * word.itemsize) - 1
    for (m, w), group in groups.items():
        base = live if m < 0 else live[slabs[m]]
        stack = np.zeros((len(group),) + base.shape, dtype=word)
        for k, f_i in enumerate(group):
            f = faces[f_i]
            # the face is copied below the top of its own axes (F ∩ G = ∅),
            # and a widest face below the top of every axis (G = ∅)
            dest = [below if len(f) == top else slice(None)] * d
            src = list(dest)
            for j in f:
                dest[j], src[j] = below, slice(-1, None)
            if m >= 0:
                # the slab's own axis has length 1: its top is cleared below
                dest[m] = src[m] = slice(None)
            stack[(k, *dest)] = base[tuple(src)]
        shifts = np.array([f_i & 63 for f_i in group], dtype=word)
        stack <<= shifts.reshape((-1,) + (1,) * d)
        words[w] |= np.bitwise_or.reduce(stack, axis=0)
        if m >= 0:
            # every face of the group meets m, so none is present on its top
            bits = sum(1 << (f_i & 63) for f_i in group)
            words[w][slabs[m]] &= word.type(~bits & full)
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
