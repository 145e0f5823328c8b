"""Hot numeric kernels with two interchangeable backends.

Everything here operates on plain numpy arrays: boolean membership boxes
(d-dimensional 0/1 grids indexed by exponent vectors), exponent-row
matrices, and small integer matrices for exact rank computations.

Backend selection: the ``MONOCOH_BACKEND`` environment variable may be set
to ``numba`` or ``numpy``. Unset (or ``auto``) picks numba when it imports,
falling back to pure numpy otherwise. Every public kernel also accepts a
``backend=`` override so the two implementations can be compared directly.
End-to-end and per-kernel timings come from the benchmark,
``python3 perfbench/run.py`` (it pins the numpy backend).

All kernels are deterministic and, numba compilation aside, allocation-light.
"""

from __future__ import annotations

import os

import numpy as np

_ENV_FLAG = "MONOCOH_BACKEND"
_requested = os.environ.get(_ENV_FLAG, "auto").strip().lower() or "auto"
if _requested not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"{_ENV_FLAG} must be 'numba' or 'numpy', got {_requested!r}"
    )

if _requested == "numpy":
    HAVE_NUMBA = False
else:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        if _requested == "numba":
            raise
        HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"

# Guard for fraction-free elimination: once any entry reaches this bound the
# next update could overflow int64, so the kernel bails and the caller
# reruns with Python integers.
_BAREISS_LIMIT = 1 << 31

# Crossovers of the numpy branches, measured on boxes and matrices of the
# shapes the package produces. An axis of length n is closed by n - 1 slice
# maxima once the box holds at least this many cells per step along it;
# below that one ``np.maximum.accumulate`` call is cheaper.
_SLICE_CLOSE_MIN_STEP_CELLS = 512
# A char-0 rank on at most this many cells runs the Python-integer
# elimination directly: below it the per-pivot numpy calls cost more than
# the arithmetic they vectorise.
_EXACT_RANK_MAX_CELLS = 512


def _resolve(backend: str | None) -> str:
    if backend is None:
        return BACKEND
    if backend not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is unavailable")
    return backend


def element_strides(shape: tuple[int, ...]) -> np.ndarray:
    """C-order element strides for a box of the given shape."""
    d = len(shape)
    strides = np.ones(d, dtype=np.int64)
    for ax in range(d - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    return strides


# ---------------------------------------------------------------------------
# loop bodies (compiled under numba when available)
# ---------------------------------------------------------------------------


def _upward_close_loops(flat, dims, strides):
    n = flat.size
    for ax in range(dims.size):
        s = strides[ax]
        dim = dims[ax]
        if dim <= 1:
            continue
        for i in range(n):
            if flat[i] == 0:
                if (i // s) % dim > 0 and flat[i - s] != 0:
                    flat[i] = 1


def _minimal_cells_loops(flat, dims, strides, out):
    n = flat.size
    d = dims.size
    for i in range(n):
        if flat[i] == 0:
            out[i] = 0
            continue
        ok = True
        for ax in range(d):
            s = strides[ax]
            if (i // s) % dims[ax] > 0 and flat[i - s] != 0:
                ok = False
                break
        out[i] = 1 if ok else 0


def _pairwise_minimal_loops(exps, keep):
    m, d = exps.shape
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            divides = True
            for t in range(d):
                if exps[j, t] > exps[i, t]:
                    divides = False
                    break
            if divides:
                keep[i] = False
                break


def _scan_face_masks_loops(
    flat, sub_dims, sub_strides, g_offset, face_base, face_vp, face_vi,
    face_word, face_bit, out,
):
    k = sub_dims.size
    npat = out.shape[0]
    nf = face_base.size
    a = np.zeros(k, dtype=np.int64)
    idx_a = 0
    p = 0
    while True:
        base = g_offset + idx_a
        for f in range(nf):
            idx = base + face_base[f]
            for t in range(face_vp[f], face_vp[f + 1]):
                v = face_vi[t]
                idx -= a[v] * sub_strides[v]
            if flat[idx] == 0:
                out[p, face_word[f]] |= face_bit[f]
        p += 1
        if p == npat:
            break
        ax = k - 1
        while True:
            a[ax] += 1
            idx_a += sub_strides[ax]
            if a[ax] < sub_dims[ax]:
                break
            idx_a -= a[ax] * sub_strides[ax]
            a[ax] = 0
            ax -= 1


def _gf_rank_loops(a, p):
    r, c = a.shape
    row = 0
    for col in range(c):
        if row == r:
            break
        piv = -1
        for i in range(row, r):
            if a[i, col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            for t in range(c):
                tmp = a[row, t]
                a[row, t] = a[piv, t]
                a[piv, t] = tmp
        f1 = a[row, col]
        for i in range(row + 1, r):
            f2 = a[i, col]
            if f2 != 0:
                for t in range(col, c):
                    a[i, t] = (f1 * a[i, t] - f2 * a[row, t]) % p
        row += 1
    return row


def _bareiss_rank_loops(a, limit):
    r, c = a.shape
    n = min(r, c)
    prev = np.int64(1)
    rank = 0
    for k in range(n):
        pi = -1
        pj = -1
        for i in range(k, r):
            for j in range(k, c):
                if a[i, j] != 0:
                    pi = i
                    pj = j
                    break
            if pi >= 0:
                break
        if pi < 0:
            return rank, True
        if pi != k:
            for t in range(c):
                tmp = a[k, t]
                a[k, t] = a[pi, t]
                a[pi, t] = tmp
        if pj != k:
            for t in range(r):
                tmp = a[t, k]
                a[t, k] = a[t, pj]
                a[t, pj] = tmp
        pivot = a[k, k]
        if pivot >= limit or pivot <= -limit:
            return rank, False
        for i in range(k + 1, r):
            aik = a[i, k]
            if aik >= limit or aik <= -limit:
                return rank, False
            for j in range(k + 1, c):
                akj = a[k, j]
                aij = a[i, j]
                if (
                    akj >= limit or akj <= -limit
                    or aij >= limit or aij <= -limit
                ):
                    return rank, False
                a[i, j] = (pivot * aij - aik * akj) // prev
            a[i, k] = 0
        prev = pivot
        rank += 1
    return rank, True


if HAVE_NUMBA:
    _upward_close_nb = njit(cache=True, nogil=True)(_upward_close_loops)
    _minimal_cells_nb = njit(cache=True, nogil=True)(_minimal_cells_loops)
    _pairwise_minimal_nb = njit(cache=True, nogil=True)(_pairwise_minimal_loops)
    _scan_face_masks_nb = njit(cache=True, nogil=True)(_scan_face_masks_loops)
    _gf_rank_nb = njit(cache=True, nogil=True)(_gf_rank_loops)
    _bareiss_rank_nb = njit(cache=True, nogil=True)(_bareiss_rank_loops)


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------


def upward_close(box: np.ndarray, backend: str | None = None) -> None:
    """Close a 0/1 membership box upward, in place.

    After the call, ``box[b] == 1`` iff some originally marked cell divides
    (is coordinatewise <=) ``b``.

    The numpy branch closes one axis at a time. An axis of length ``n`` on
    which the box holds at least ``_SLICE_CLOSE_MIN_STEP_CELLS`` cells per
    step (``box.size >= 512 * n``) is closed by ``n - 1`` in-place slice
    maxima, each hyperplane taking the maximum with the closed one below
    it; any other axis by one ``np.maximum.accumulate`` call. The choice
    depends only on the shape, so a 1-D box, however long, is one call.
    """
    if box.size == 0:
        return
    which = _resolve(backend)
    if which == "numba":
        dims = np.asarray(box.shape, dtype=np.int64)
        _upward_close_nb(box.reshape(-1), dims, element_strides(box.shape))
        return
    for ax, n in enumerate(box.shape):
        if n <= 1:
            continue
        if box.size >= _SLICE_CLOSE_MIN_STEP_CELLS * n:
            v = np.moveaxis(box, ax, 0)
            for k in range(1, n):
                np.maximum(v[k], v[k - 1], out=v[k])
        else:
            np.maximum.accumulate(box, axis=ax, out=box)


def minimal_cells(box: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Cells of a 0/1 box that are set but have no set predecessor.

    For an upward-closed box these are exactly the minimal exponent vectors
    of the monomial set the box encodes.
    """
    which = _resolve(backend)
    if which == "numba":
        out = np.empty(box.size, dtype=np.uint8)
        dims = np.asarray(box.shape, dtype=np.int64)
        _minimal_cells_nb(
            box.reshape(-1), dims, element_strides(box.shape), out
        )
        return out.reshape(box.shape)
    out = box.astype(bool)
    for ax in range(box.ndim):
        if box.shape[ax] <= 1:
            continue
        hi = [slice(None)] * box.ndim
        lo = [slice(None)] * box.ndim
        hi[ax] = slice(1, None)
        lo[ax] = slice(None, -1)
        out[tuple(hi)] &= box[tuple(lo)] == 0
    return out.astype(np.uint8)


def pairwise_minimal(exps: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Boolean keep-mask of divisibility-minimal rows.

    Rows must be distinct; a row is dropped when another row divides it
    coordinatewise.
    """
    m = exps.shape[0]
    if m <= 1:
        return np.ones(m, dtype=bool)
    which = _resolve(backend)
    if which == "numba":
        keep = np.ones(m, dtype=np.bool_)
        _pairwise_minimal_nb(np.ascontiguousarray(exps, dtype=np.int64), keep)
        return keep
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
    backend: str | None = None,
) -> np.ndarray:
    """Face-presence bitmasks of degree complexes, over a whole pattern box.

    ``box`` is an upward-closed membership box of shape ``rho + 1``. For each
    exponent pattern ``a`` ranging over the sub-box spanned by ``free_axes``
    (C order, ascending axis index; axes in ``g_axes`` pinned to 0), and for
    each candidate face ``F`` (a tuple of free axes), face ``F`` is present
    iff the box is 0 at the probe point with coordinates ``rho_j`` on
    ``g_axes + F`` and ``a_j`` elsewhere.

    Returns a ``(npat, ceil(nf / 64))`` uint64 array; bit ``f`` of row ``p``
    is set when face ``faces[f]`` is present in the complex of pattern ``p``.
    """
    shape = box.shape
    strides = element_strides(shape)
    sub_dims = np.asarray([shape[j] for j in free_axes], dtype=np.int64)
    sub_strides = np.asarray([strides[j] for j in free_axes], dtype=np.int64)
    g_offset = int(sum((shape[j] - 1) * strides[j] for j in g_axes))
    nf = len(faces)
    npat = int(np.prod(sub_dims)) if len(free_axes) else 1
    nw = max(1, (nf + 63) // 64)
    out = np.zeros((npat, nw), dtype=np.uint64)
    if nf == 0 or npat == 0:
        return out
    which = _resolve(backend)
    if which == "numba":
        pos = {j: t for t, j in enumerate(free_axes)}
        face_base = np.asarray(
            [sum((shape[j] - 1) * strides[j] for j in f) for f in faces],
            dtype=np.int64,
        )
        face_vp = np.zeros(nf + 1, dtype=np.int64)
        vi: list[int] = []
        for f_i, f in enumerate(faces):
            vi.extend(pos[j] for j in f)
            face_vp[f_i + 1] = len(vi)
        face_vi = np.asarray(vi, dtype=np.int64) if vi else np.zeros(0, np.int64)
        face_word = np.asarray([f >> 6 for f in range(nf)], dtype=np.int64)
        face_bit = np.asarray(
            [np.uint64(1) << np.uint64(f & 63) for f in range(nf)],
            dtype=np.uint64,
        )
        _scan_face_masks_nb(
            np.ascontiguousarray(box.reshape(-1)),
            sub_dims,
            sub_strides,
            np.int64(g_offset),
            face_base,
            face_vp,
            face_vi,
            face_word,
            face_bit,
            out,
        )
        return out
    # out viewed over the pattern box; a face axis is probed at its top
    # cell and kept with length 1, so the probe broadcasts along it
    out_box = out.reshape(tuple(int(x) for x in sub_dims) + (nw,))
    g_set = set(g_axes)
    for f_i, f in enumerate(faces):
        idx = tuple(
            shape[j] - 1 if j in g_set else slice(-1, None) if j in f
            else slice(None)
            for j in range(len(shape))
        )
        presence = (box[idx] == 0).astype(np.uint64) << np.uint64(f_i & 63)
        out_box[..., f_i >> 6] |= presence
    return out


def gf_rank(mat: np.ndarray, p: int, backend: str | None = None) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    if mat.size == 0:
        return 0
    a = np.mod(np.ascontiguousarray(mat, dtype=np.int64), p)
    which = _resolve(backend)
    if which == "numba":
        return int(_gf_rank_nb(a, p))
    r, c = a.shape
    row = 0
    for col in range(c):
        if row == r:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        f1 = int(a[row, col])
        a[row + 1 :] = (f1 * a[row + 1 :] - np.outer(a[row + 1 :, col], a[row])) % p
        row += 1
    return row


def bareiss_rank_int64(
    mat: np.ndarray, backend: str | None = None
) -> tuple[int, bool]:
    """Fraction-free rank over the integers (hence over Q), in int64.

    Returns ``(rank, ok)``. ``ok`` is False when intermediate values got
    close enough to the int64 boundary that continuing could overflow; the
    caller should rerun with exact Python integers in that case.
    """
    if mat.size == 0:
        return 0, True
    a = np.ascontiguousarray(mat, dtype=np.int64).copy()
    which = _resolve(backend)
    if which == "numba":
        rank, ok = _bareiss_rank_nb(a, np.int64(_BAREISS_LIMIT))
        return int(rank), bool(ok)
    r, c = a.shape
    prev = 1
    rank = 0
    for k in range(min(r, c)):
        sub = a[k:, k:]
        nz = np.argwhere(sub != 0)
        if nz.size == 0:
            return rank, True
        pi, pj = int(nz[0][0]) + k, int(nz[0][1]) + k
        if pi != k:
            a[[k, pi]] = a[[pi, k]]
        if pj != k:
            a[:, [k, pj]] = a[:, [pj, k]]
        if int(np.abs(a[k:, k:]).max()) >= _BAREISS_LIMIT:
            return rank, False
        pivot = int(a[k, k])
        a[k + 1 :, k + 1 :] = (
            pivot * a[k + 1 :, k + 1 :]
            - np.outer(a[k + 1 :, k], a[k, k + 1 :])
        ) // prev
        a[k + 1 :, k] = 0
        prev = pivot
        rank += 1
    return rank, True


def bareiss_rank_exact(rows: list[list[int]]) -> int:
    """Exact fraction-free rank with Python integers; no overflow possible.

    ``rank_char0`` calls this only when the int64 guard trips, so its call
    count is the number of big-integer fallbacks.
    """
    return _bareiss_rank_python(rows)


def _bareiss_rank_python(rows: list[list[int]]) -> int:
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


def rank_char0(mat: np.ndarray, backend: str | None = None) -> int:
    """Rank of an integer matrix over Q.

    On the numpy backend a matrix of at most ``_EXACT_RANK_MAX_CELLS``
    (512) cells is eliminated exactly in Python integers. A larger matrix,
    and every matrix on numba, runs the int64 elimination and falls back to
    ``bareiss_rank_exact`` when its overflow guard trips.
    """
    if _resolve(backend) == "numpy" and mat.size <= _EXACT_RANK_MAX_CELLS:
        return _bareiss_rank_python(mat.tolist())
    rank, ok = bareiss_rank_int64(mat, backend=backend)
    if ok:
        return rank
    return bareiss_rank_exact(mat.tolist())
