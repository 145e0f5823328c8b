"""Monomial ideals in k[x1..xd], stored as exponent-vector data.

A monomial is its exponent tuple. An ideal is held in one of two
equivalent forms: its minimal generators, kept divisibility-minimal and
lexicographically sorted so that equal ideals are structurally equal, or its
upward-closed membership box of shape rho + 1 (``power`` and
``saturate_irrelevant`` return that form). A box-backed ideal extracts its
generators on first use and keeps them. The zero ideal has no generators;
the unit ideal's single generator is 1 (the all-zero exponent vector).

Values are immutable once constructed; all operations return fresh objects
and are pure. The one lazy fill, a box-backed ideal's generators, is
idempotent (every thread computes the same rows), so everything here is
safe to share across threads.

Variable indices in the public API are 1-based (x1..xd), matching the text
grammar; column positions in exponent arrays are 0-based.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import IdealSyntaxError, ResourceCapError, UnitIdealError

# The default bound on the cells of every box a computation allocates: the
# power and saturation boxes here and the degree patterns of a table.
DEFAULT_PATTERN_CAP = 10_000_000
# Generator sums formed per step of the power box, at most: bounds the
# temporary index array whatever the number of generators.
_SUM_CHUNK = 1 << 20

_INT64_MAX = np.iinfo(np.int64).max

# Face enumeration (radical complexes, Krull dimension) works on the 2^d
# cells of a {0,1}^d box.
MAX_VARIABLES = 20


class Monomial:
    """A monomial x^a, stored as its exponent tuple. Immutable."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __str__(self) -> str:
        parts = []
        for j, e in enumerate(self.exponents, start=1):
            if e == 1:
                parts.append(f"x{j}")
            elif e > 1:
                parts.append(f"x{j}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.exponents!r})"


def _as_rows(d: int, gens) -> np.ndarray:
    if isinstance(gens, np.ndarray) and gens.ndim == 2 and gens.dtype.kind in "biu":
        if gens.shape[0] == 0:
            return np.zeros((0, d), dtype=np.int64)
        if gens.shape[1] != d:
            raise ValueError(f"generator has {gens.shape[1]} exponents, expected {d}")
        if gens.dtype.kind == "i" and (gens < 0).any():
            raise ValueError("exponents must be non-negative")
        if gens.dtype.kind == "u" and gens.max() > _INT64_MAX:
            raise ValueError("exponent does not fit in int64")
        return gens.astype(np.int64)
    rows = []
    for g in gens:
        exps = g.exponents if isinstance(g, Monomial) else tuple(int(e) for e in g)
        if len(exps) != d:
            raise ValueError(f"generator has {len(exps)} exponents, expected {d}")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        rows.append(exps)
    if not rows:
        return np.zeros((0, d), dtype=np.int64)
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError("exponent does not fit in int64") from None


def _minimal_rows(exps: np.ndarray) -> np.ndarray:
    """Divisibility-minimal rows, deduplicated, in ascending lex order.

    The route follows the cost: the membership box when it has at most
    ``m * m`` cells (and at most ``DEFAULT_PATTERN_CAP``), else the ``m * m``
    pairwise comparison. Repeated rows mark the same box cell, so only the
    pairwise route, which needs distinct rows, deduplicates.
    """
    m = exps.shape[0]
    if m <= 1:
        return exps
    maxs = exps.max(axis=0)
    if _box_cells(maxs) <= min(m * m, DEFAULT_PATTERN_CAP):
        return _box_generators(_closed_box(exps, tuple(maxs + 1)))
    # return_index keeps np.unique off np.ma.is_masked, whose lazy import
    # of numpy.ma would otherwise be paid by the first such call
    exps = np.unique(exps, axis=0, return_index=True)[0]
    return exps[_kernels.pairwise_minimal(exps)]


def _closed_box(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The 0/1 uint8 box of the given shape that is 1 exactly on the cells
    at or above some row (each row an integer cell index).

    At most d rows fill their orthants, one slice assignment each; more rows
    are marked and closed by ``upward_close``, one pass per axis. Either way
    the box is written at most d times over, and the fills make no more
    numpy calls than the closure.
    """
    box = np.zeros(shape, dtype=np.uint8)
    if rows.shape[0] <= box.ndim:
        for row in rows.tolist():
            box[tuple(slice(x, None) for x in row)] = 1
    else:
        box[tuple(rows.T)] = 1
        _kernels.upward_close(box)
    return box


def _box_cells(maxs) -> int:
    """Cells of the box spanned by 0..maxs, in exact integer arithmetic."""
    return math.prod(int(x) + 1 for x in maxs)


def _check_box(stage: str, maxs, cap: int) -> None:
    """Raise ResourceCapError, before the box is allocated, when the box
    spanned by 0..maxs has more than ``cap`` cells."""
    cells = _box_cells(maxs)
    if cells > cap:
        raise ResourceCapError(
            f"{stage} box of {cells} cells exceeds the cap {cap}", cells, cap)


def _box_generators(box: np.ndarray) -> np.ndarray:
    """Minimal exponent vectors of an upward-closed box, in lex order (the
    order of C-order flat indices)."""
    flat = np.flatnonzero(_kernels.minimal_cells(box))
    return np.stack(np.unravel_index(flat, box.shape), axis=1).astype(np.int64)


def _cropped_box(box: np.ndarray) -> np.ndarray:
    """An up-closed box cropped to shape rho + 1, contiguous and read-only.

    Past rho_j the box is constant along axis j, so rho_j is the last index
    whose slab differs from the one below it (0 when no two differ); the
    slabs are compared from the top down until two differ.
    """
    crop = []
    for j, n in enumerate(box.shape):
        head = (slice(None),) * j
        k = n - 1
        while k and np.array_equal(box[head + (k,)], box[head + (k - 1,)]):
            k -= 1
        crop.append(slice(0, k + 1))
    box = np.ascontiguousarray(box[tuple(crop)])
    box.setflags(write=False)
    return box


class MonomialIdeal:
    """A monomial ideal, canonically presented by its minimal generators.

    The generator matrix is frozen once built; equal ideals have
    byte-identical matrices, so equality and hashing are structural. An
    ideal made by ``_from_box`` holds only its membership box and extracts
    the matrix on first use.
    """

    __slots__ = ("d", "_rows", "_box")

    def __init__(self, d: int, gens: Iterable = ()):
        if d < 1:
            raise ValueError("need at least one variable")
        exps = _minimal_rows(_as_rows(d, gens))
        exps.setflags(write=False)
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "_rows", exps)
        object.__setattr__(self, "_box", None)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def _from_box(cls, box: np.ndarray) -> "MonomialIdeal":
        """Trusted constructor: the nonzero ideal of an up-closed 0/1 uint8
        box, kept cropped to rho + 1; ``membership_box`` returns that array."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "d", box.ndim)
        object.__setattr__(obj, "_rows", None)
        object.__setattr__(obj, "_box", _cropped_box(box))
        return obj

    @property
    def _exps(self) -> np.ndarray:
        """The (num_gens, d) int64 minimal generators in lex order; a
        box-backed ideal reads them off its box once and keeps them."""
        if self._rows is None:
            exps = _box_generators(self._box)
            exps.setflags(write=False)
            object.__setattr__(self, "_rows", exps)
        return self._rows

    @property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(row) for row in self._exps)

    @property
    def num_gens(self) -> int:
        return int(self._exps.shape[0])

    @property
    def exponent_matrix(self) -> np.ndarray:
        """Read-only (num_gens, d) int64 view of the minimal generators."""
        view = self._exps.view()
        view.setflags(write=False)
        return view

    @property
    def is_zero(self) -> bool:
        if self._box is not None:
            return not self._box.flat[-1]
        return self._rows.shape[0] == 0

    @property
    def is_unit(self) -> bool:
        if self._box is not None:
            return bool(self._box.flat[0])
        return self._rows.shape[0] == 1 and not self._rows.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.d == other.d
            and self._exps.shape == other._exps.shape
            and bool(np.array_equal(self._exps, other._exps))
        )

    def __hash__(self) -> int:
        return hash((self.d, self._exps.shape, self._exps.tobytes()))

    def __contains__(self, mono) -> bool:
        return contains(self, mono)

    def generators_str(self) -> str:
        """Generators in the text-grammar form; '0' and '1' for the extremes."""
        if self.is_zero:
            return "0"
        if self.is_unit:
            return "1"
        return ", ".join(str(g) for g in self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal(d={self.d}, <{self.generators_str()}>)"


@dataclass(frozen=True)
class VarDegreeBounds:
    """Per-variable maxima of the minimal generator exponents."""

    rho: tuple[int, ...]


def parse_ideal(text: str, d: int) -> MonomialIdeal:
    """Parse comma/newline-separated generators into an ideal.

    Each generator is a '*'-separated product of factors ``x<i>`` or
    ``x<i>^<e>`` with 1 <= i <= d and e >= 1. The whole input may instead be
    ``0`` (zero ideal), ``1`` (unit ideal), or empty (zero ideal). Spaces
    and tabs are ignored everywhere. Errors carry the offending position.
    """
    if d < 1:
        raise ValueError("need at least one variable")
    stripped = text.strip()
    if stripped in ("", "0"):
        return MonomialIdeal(d)
    if stripped == "1":
        return MonomialIdeal(d, [(0,) * d])

    n = len(text)
    pos = 0

    def skip_blank(include_newlines: bool) -> None:
        nonlocal pos
        chars = " \t\r\n" if include_newlines else " \t"
        while pos < n and text[pos] in chars:
            pos += 1

    def parse_int(kind: str) -> tuple[int, int]:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise IdealSyntaxError(f"expected {kind}", start)
        return int(text[start:pos]), start

    def parse_term() -> list[int]:
        nonlocal pos
        exps = [0] * d
        while True:
            skip_blank(False)
            if pos >= n or text[pos] != "x":
                raise IdealSyntaxError("expected a variable like x1", pos)
            pos += 1
            idx, at = parse_int("variable index")
            if not 1 <= idx <= d:
                raise IdealSyntaxError(
                    f"variable index {idx} out of range 1..{d}", at
                )
            e, at_e = 1, at
            skip_blank(False)
            if pos < n and text[pos] == "^":
                pos += 1
                skip_blank(False)
                e, at_e = parse_int("exponent")
                if e < 1:
                    raise IdealSyntaxError("exponent must be positive", at_e)
            exps[idx - 1] += e
            if exps[idx - 1] > _INT64_MAX:
                raise IdealSyntaxError(
                    f"exponent of x{idx} exceeds {_INT64_MAX}", at_e
                )
            skip_blank(False)
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            return exps

    gens = []
    while True:
        skip_blank(True)
        if pos >= n:
            break
        gens.append(parse_term())
        skip_blank(False)
        if pos >= n:
            break
        ch = text[pos]
        if ch == ",":
            pos += 1
            skip_blank(True)
            if pos >= n:
                raise IdealSyntaxError("expected a generator after ','", pos)
        elif ch not in "\r\n":
            raise IdealSyntaxError(f"unexpected character {ch!r}", pos)
    return MonomialIdeal(d, gens)


def contains(I: MonomialIdeal, mono) -> bool:
    """Whether x^a lies in I, i.e. some minimal generator divides it."""
    exps = mono.exponents if isinstance(mono, Monomial) else tuple(int(e) for e in mono)
    if len(exps) != I.d:
        raise ValueError("monomial from a different ring")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be non-negative")
    if I.is_zero:
        return False
    return bool(np.all(I._exps <= np.asarray(exps, dtype=np.int64), axis=1).any())


def project(I: MonomialIdeal, F: Iterable[int]) -> MonomialIdeal:
    """Image of I under x_j -> 1 for j in F (1-based), reminimalized.

    Monomial membership after projection tests divisibility away from F, so
    this is the localization-style restriction used by degree complexes.
    """
    cols = _validate_vars(I.d, F)
    if not cols or I.is_zero:
        return I
    exps = I._exps.copy()
    exps[:, cols] = 0
    return MonomialIdeal(I.d, exps)


def power(
    I: MonomialIdeal, n: int, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> MonomialIdeal:
    """I^n for n >= 1, built in one membership box of shape n*rho + 1.

    Every n-fold sum of generators lies in that box, and flat C-order
    indices add while the coordinates stay inside it, so the (k+1)-fold
    sums are the k-fold sums' flat indices plus each generator's. A presence
    table over the box deduplicates them at every step, which bounds the
    work by the box, not by m^n. The n-fold sums are then closed upward
    once, and the result is that box cropped to its own rho + 1, which can
    lie below n*rho: no generator list is built (see ``MonomialIdeal``).

    Raises what ``_check_power`` raises, before the box is allocated.
    """
    if n < 1:
        raise ValueError("power requires n >= 1")
    if n == 1 or I.is_zero or I.is_unit:
        return I
    rho = var_degree_bounds(I).rho
    _check_power(rho, n, pattern_cap)
    shape = tuple(r * n + 1 for r in rho)
    strides = np.array([math.prod(shape[j + 1 :]) for j in range(I.d)], dtype=np.int64)
    step = I._exps @ strides
    chunk = max(1, _SUM_CHUNK // step.size)
    flags = np.zeros(math.prod(shape), dtype=bool)
    sums = step
    for k in range(1, n):
        if k > 1:
            sums = np.flatnonzero(flags)
            flags[sums] = False
        for s in range(0, sums.size, chunk):
            flags[(sums[s : s + chunk, None] + step).ravel()] = True
    box = flags.view(np.uint8).reshape(shape)
    _kernels.upward_close(box)
    return MonomialIdeal._from_box(box)


def _check_power(rho: Sequence[int], n: int, pattern_cap: int) -> None:
    """The checks ``power`` makes on I^n, for an ideal I with bounds
    ``rho``: ValueError when an exponent of I^n would not fit in int64, and
    then ResourceCapError when the box of shape n*rho + 1 has more than
    ``pattern_cap`` cells. Once either fails at n, it fails at every larger
    n."""
    for j, r in enumerate(rho):
        if r * n > _INT64_MAX:
            raise ValueError(
                f"exponent overflow: x{j + 1} reaches exponent {r}*{n} = "
                f"{r * n} in I^{n}, beyond the int64 limit {_INT64_MAX}"
            )
    _check_box("power", (r * n for r in rho), pattern_cap)


def saturate_irrelevant(
    I: MonomialIdeal, pattern_cap: int = DEFAULT_PATTERN_CAP
) -> MonomialIdeal:
    """Saturation (I : m^infinity) with respect to m = (x1, ..., xd).

    A monomial x^b times every high power of m lands in I iff it does so
    along each variable direction separately, i.e. iff for every j the
    exponent b with b_j raised to rho_j is in I (no generator exceeds rho_j
    there). On the membership box that is an AND, over j, of the box's top
    slice along axis j broadcast back over the axis, and the result is that
    box cropped to its own rho + 1; no generator list is built, and a
    membership box over ``pattern_cap`` cells raises ResourceCapError.
    """
    if I.is_zero or I.is_unit:
        return I
    _check_box("saturation", var_degree_bounds(I).rho, pattern_cap)
    box = membership_box(I)
    sat = np.ones_like(box)
    for j in range(I.d):
        sat &= box[(slice(None),) * j + (slice(-1, None),)]
    return MonomialIdeal._from_box(sat)


def radical(I: MonomialIdeal) -> MonomialIdeal:
    """The radical: generators with every positive exponent lowered to 1."""
    if I.is_zero:
        return I
    return MonomialIdeal(I.d, (I._exps > 0).astype(np.int64))


def var_degree_bounds(I: MonomialIdeal) -> VarDegreeBounds:
    """Componentwise maxima rho of the minimal generator exponents; a
    box-backed ideal reads them off its box's shape, rho + 1."""
    if I._box is not None:
        return VarDegreeBounds(rho=tuple(n - 1 for n in I._box.shape))
    if I.is_zero:
        return VarDegreeBounds(rho=(0,) * I.d)
    return VarDegreeBounds(rho=tuple(int(x) for x in I._exps.max(axis=0)))


def _box_corner(box: np.ndarray, low: Sequence[int]) -> np.ndarray:
    """The indicator over all 2^d masks M (bit j for axis j) of the cell c
    of an up-closed box being 0, where c_j is the box's last index rho_j
    when bit j of M is set and low_j <= rho_j otherwise.

    The cells form the (2,)*d corner of the box at low: a strided view
    (indices low_j and rho_j on each axis), broadcast over the axes with
    low_j = rho_j. Reversing the axes and flattening in C order makes a
    cell's flat index its mask.
    """
    step = tuple(
        slice(lo, None, max(n - 1 - lo, 1)) for lo, n in zip(low, box.shape)
    )
    corners = box[step]
    if corners.size < 1 << box.ndim:
        corners = np.broadcast_to(corners, (2,) * box.ndim)
    return corners.T.reshape(-1) == 0


def _corner_flags(I: MonomialIdeal, low: Sequence[int]) -> np.ndarray:
    """The indicator over all 2^d masks M (bit j-1 for x_j) of x^c not in I,
    where c_j = rho_j when bit j-1 of M is set and c_j = low_j <= rho_j
    otherwise. At low = 0 it is the face indicator of Δ(√I).

    A box-backed ideal reads it as the ``_box_corner`` of its box at low;
    any other ideal closes upward, per generator g, the mask
    {j : g_j > low_j} in a (2,)*d box, since g divides x^c iff that mask
    lies inside M, and reads that whole box.
    """
    if I.d > MAX_VARIABLES:
        raise ValueError(f"face enumeration is capped at d <= {MAX_VARIABLES}")
    if I._box is not None:
        return _box_corner(I._box, low)
    rows = (I._exps > np.asarray(low)).astype(np.int64)
    return _box_corner(_closed_box(rows, (2,) * I.d), (0,) * I.d)


@functools.cache
def _mask_sizes(d: int) -> np.ndarray:
    """Read-only int8 bit counts of the masks 0 .. 2^d - 1, by doubling:
    setting bit k adds one to the count."""
    sizes = np.zeros(1, dtype=np.int8)
    for _ in range(d):
        sizes = np.concatenate((sizes, sizes + 1))
    sizes.setflags(write=False)
    return sizes


def krull_dimension(I: MonomialIdeal) -> int:
    """dim R/I: the size of the largest subset of variables supporting no
    generator of the radical (the largest face of the radical's complex)."""
    if I.is_unit:
        raise UnitIdealError("R/I is the zero ring; its dimension is undefined")
    faces = _corner_flags(I, (0,) * I.d)
    return int(_mask_sizes(I.d)[faces].max())


def membership_box(I: MonomialIdeal) -> np.ndarray:
    """Read-only up-closed 0/1 uint8 box of shape rho+1: box[b] == 1 iff
    x^b in I; axis j-1 carries the exponent of x_j.

    Membership of arbitrary exponent vectors reduces to this box by clamping
    each coordinate at rho_j, since no generator exceeds rho_j there. An
    ideal returned by ``power`` or ``saturate_irrelevant`` is held as its
    box, and this returns that very array; any other ideal's box is closed
    from its generators on every call and not kept.
    """
    if I._box is not None:
        return I._box
    box = _closed_box(I._exps, tuple(n + 1 for n in var_degree_bounds(I).rho))
    box.setflags(write=False)
    return box


def _validate_vars(d: int, F: Iterable[int]) -> list[int]:
    cols = []
    for j in F:
        j = int(j)
        if not 1 <= j <= d:
            raise ValueError(f"variable index {j} out of range 1..{d}")
        cols.append(j - 1)
    return sorted(set(cols))
