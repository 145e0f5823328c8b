"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: set arithmetic on explicit
monomial sets, Gaussian elimination over Fraction / GF(p) without any
of the package's kernels, and the link-homology route to graded local
cohomology of squarefree quotients. Slow but obviously correct on the
small inputs the tests feed in.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from monocoh.monomial_core import MonomialIdeal, krull_dimension
from monocoh.takayama import cohomology_table, table_topdeg


# ---------------------------------------------------------------------------
# monomial arithmetic on explicit exponent tuples


def brute_minimalize(rows: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Divisibility-minimal elements by all-pairs comparison."""
    rows = list(set(rows))
    out = set()
    for r in rows:
        if any(
            s != r and all(sj <= rj for sj, rj in zip(s, r)) for s in rows
        ):
            continue
        out.add(r)
    # drop duplicates dominated by an equal row handled above; keep antichain
    return out


def brute_membership(I: MonomialIdeal, expo: tuple[int, ...]) -> bool:
    return any(
        all(g[j] <= expo[j] for j in range(I.d)) for g in I.exponent_matrix.tolist()
    )


def brute_power(I: MonomialIdeal, n: int) -> set[tuple[int, ...]]:
    """Minimal generators of I^n via all n-fold products."""
    gens = [tuple(r) for r in I.exponent_matrix.tolist()]
    prods = set()
    for combo in itertools.combinations_with_replacement(gens, n):
        prods.add(tuple(sum(col) for col in zip(*combo)))
    return brute_minimalize(list(prods))


def brute_intersection(ideals: list[set[tuple[int, ...]]]) -> set[tuple[int, ...]]:
    """Intersection via pairwise lcms of generators."""
    cur = ideals[0]
    for nxt in ideals[1:]:
        lcms = {
            tuple(max(a, b) for a, b in zip(g, h)) for g in cur for h in nxt
        }
        cur = brute_minimalize(list(lcms))
    return cur


def colon_by_variable(
    gens: set[tuple[int, ...]], j: int, d: int
) -> set[tuple[int, ...]]:
    """(J : x_j) for a monomial ideal given by generators."""
    out = {tuple(g[t] - 1 if t == j and g[t] > 0 else g[t] for t in range(d))
           for g in gens}
    return brute_minimalize(list(out))


def saturation_by_colon_chain(I: MonomialIdeal) -> set[tuple[int, ...]]:
    """(J : m^infinity) as the fixpoint of J -> intersection_j (J : x_j)."""
    cur = {tuple(r) for r in I.exponent_matrix.tolist()}
    d = I.d
    while True:
        stepped = brute_intersection([colon_by_variable(cur, j, d) for j in range(d)])
        if stepped == cur:
            return cur
        cur = stepped


def saturate_by_colon_fixpoint(I: MonomialIdeal) -> MonomialIdeal:
    """(I : m^infinity) as the fixpoint of J -> (J : m), on 0/1 boxes.

    (J : x_j) lowers the j-th exponent of every generator by one (floored
    at 0), and (J : m) is the intersection of those colons over j: the AND
    of their up-closed boxes. Closure and minimal cells use plain numpy
    rather than the package's kernels.
    """
    if I.is_zero or I.is_unit:
        return I
    cur = I
    while True:
        exps = cur.exponent_matrix
        shape = tuple(exps.max(axis=0) + 1)
        acc = np.ones(shape, dtype=bool)
        for j in range(I.d):
            colon = exps.copy()
            colon[:, j] = np.maximum(colon[:, j] - 1, 0)
            box = np.zeros(shape, dtype=bool)
            box[tuple(colon.T)] = True
            for ax in range(box.ndim):
                np.logical_or.accumulate(box, axis=ax, out=box)
            acc &= box
        mins = acc.copy()
        for ax in range(acc.ndim):
            below = np.zeros_like(acc)
            below[(slice(None),) * ax + (slice(1, None),)] = acc[
                (slice(None),) * ax + (slice(None, -1),)
            ]
            mins &= ~below
        nxt = MonomialIdeal(I.d, np.argwhere(mins))
        if nxt == cur:
            return cur
        cur = nxt


def cycle_edge_primes(d: int) -> list[list[tuple[int, ...]]]:
    """For each cycle edge {i, i+1}: generators of the prime on the other
    d-2 variables (exponent rows)."""
    primes = []
    for i in range(1, d + 1):
        edge = {i, i % d + 1}
        prime = []
        for v in range(1, d + 1):
            if v not in edge:
                prime.append(tuple(1 if t == v - 1 else 0 for t in range(d)))
        primes.append(prime)
    return primes


def prime_power(prime_rows: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """n-th power of a prime generated by distinct variables: all exponent
    vectors on those variables with total degree n."""
    support = [next(j for j, e in enumerate(row) if e) for row in prime_rows]
    d = len(prime_rows[0])
    out = set()
    for combo in itertools.combinations_with_replacement(support, n):
        row = [0] * d
        for j in combo:
            row[j] += 1
        out.add(tuple(row))
    return out


def cycle_saturated_power_box(d: int, n: int, shape: tuple[int, ...]) -> np.ndarray:
    """Membership of every cell b of a box of the given shape in the
    intersection of the n-th powers of the cycle-edge primes: b lies in
    P_e^n iff the exponents off the edge e sum to at least n."""
    axes = [
        np.arange(k, dtype=np.int16).reshape((1,) * j + (k,) + (1,) * (d - j - 1))
        for j, k in enumerate(shape)
    ]
    total = sum(axes, np.zeros(shape, dtype=np.int16))
    member = np.ones(shape, dtype=bool)
    for i in range(d):
        member &= total - axes[i] - axes[(i + 1) % d] >= n
    return member


def cycle_degree_complex_oracle(
    d: int, n: int, a: tuple[int, ...]
) -> set[frozenset[int]]:
    """Δ_a(J) for J = sat(I^n), I the edge ideal of the complement of the
    d-cycle, in closed form: the full face set (frozensets of 1-based
    vertices, frozenset() for the empty face; the void complex is empty).

    Derivation. J = ∩_e P_e^n over the cycle edges e = {k, k+1}, where P_e
    is the prime on the d-2 variables off e (cycle_edge_primes). A face F
    lies in Δ_a(J) iff F ∩ G_a = ∅ and x^{a⁺} is outside the localisation
    J_S at S = F ∪ G_a (every x_j, j ∈ S, set to 1). Localisation commutes
    with the intersection, and (P_e^n)_S is the unit ideal unless S ⊆ e, in
    which case it is P_e^n itself. So J_S = ∩_{e ⊇ S} P_e^n, and x^{a⁺}
    misses it iff some edge e ⊇ S has x^{a⁺} ∉ P_e^n, i.e.
    Σ_{j∉e} a⁺_j < n. Hence Δ_a(J) is the union, over the edges e ⊇ G_a
    with Σ_{j∉e} a⁺_j < n, of all subsets of e ∖ G_a.
    """
    G = {j + 1 for j in range(d) if a[j] < 0}
    a_plus = [max(int(x), 0) for x in a]
    faces: set[frozenset[int]] = set()
    for k in range(1, d + 1):
        e = {k, k % d + 1}
        if G <= e and sum(x for j, x in enumerate(a_plus, 1) if j not in e) < n:
            faces |= downward_closure([tuple(e - G)])
    return faces


def cycle_cohomology_dim_oracle(
    d: int, n: int, i: int, a: tuple[int, ...], char: int = 0
) -> int:
    """dim H^i_m(R/J)_a for the J of cycle_degree_complex_oracle, by
    Takayama's formula: H~_{i-|G_a|-1} of the closed-form complex, 0 when
    that homology degree is below -1."""
    q = i - sum(1 for x in a if x < 0) - 1
    if q < -1:
        return 0
    return reduced_homology_oracle(cycle_degree_complex_oracle(d, n, a), q, char)


def cycle_table_oracle(d: int, n: int, i: int, char: int = 0) -> dict:
    """Entries {(G, a_plus): dim} of H^i_m(R/J), J as above, by a full box
    scan: -1 on G, every a⁺_j in 0..n elsewhere. The scan is complete since
    the closed form only sees min(a⁺_j, n) and the sign pattern of a, and
    |G| > i contributes nothing."""
    entries = {}
    for g_size in range(min(i, d) + 1):
        for G in itertools.combinations(range(1, d + 1), g_size):
            free = [j for j in range(1, d + 1) if j not in G]
            for vals in itertools.product(range(n + 1), repeat=len(free)):
                a = [-1] * d
                for j, v in zip(free, vals):
                    a[j - 1] = v
                dim = cycle_cohomology_dim_oracle(d, n, i, tuple(a), char)
                if dim:
                    entries[(G, tuple(max(x, 0) for x in a))] = dim
    return entries


def brute_hilbert(I: MonomialIdeal, t: int) -> int:
    """Count degree-t standard monomials by direct enumeration."""
    if t < 0:
        return 0
    d = I.d
    count = 0
    for combo in itertools.combinations(range(t + d - 1), d - 1):
        expo = []
        prev = -1
        for c in combo:
            expo.append(c - prev - 1)
            prev = c
        expo.append(t + d - 2 - prev)
        if not brute_membership(I, tuple(expo)):
            count += 1
    return count


def _binomial_poly(n: int, r: int) -> int:
    """C(n, r) = n(n-1)...(n-r+1) / r! as a polynomial in n, for any integer n."""
    num = 1
    for k in range(r):
        num *= n - k
    return num // math.factorial(r)


def euler_characteristic_oracle(
    I: MonomialIdeal, ts
) -> dict[int, tuple[int, int]]:
    """{t: (HF(t), HF(t) - HP(t))} for R/I, from a brute-force membership box.

    Every cell c of the box 0..rho outside I stands for the standard
    monomials b that clamp to it: b_j = c_j where c_j < rho_j, b_j >= rho_j
    where c_j = rho_j. With s = |c| and k the number of axes at rho_j, C(t -
    s + k - 1, k - 1) of them have degree t, or [t = s] when k = 0. HP is the
    same sum with each binomial read as a polynomial in t and the k = 0
    cells left out. By Grothendieck-Serre (Bruns-Herzog, Cohen-Macaulay
    Rings, Thm 4.4.3), HF(t) - HP(t) = sum_i (-1)^i dim H^i_m(R/I)_t, which
    ``table_euler_characteristic`` reads off the computed tables.
    """
    rho = [max(col) for col in zip(*I.exponent_matrix.tolist())]
    cells: Counter = Counter()
    for c in itertools.product(*(range(r + 1) for r in rho)):
        if not brute_membership(I, c):
            cells[sum(c), sum(cj == rj for cj, rj in zip(c, rho))] += 1
    out = {}
    for t in ts:
        hf = hp = 0
        for (s, k), count in cells.items():
            if k == 0:
                hf += count * (t == s)
                continue
            poly = count * _binomial_poly(t - s + k - 1, k - 1)
            hp += poly
            if t >= s:
                hf += poly
        out[t] = (hf, hf - hp)
    return out


def table_euler_characteristic(tables: dict, t: int) -> int:
    """sum_i (-1)^i dim H^i_m(R/I)_t from tables {i: CohomologyTable}.

    An entry (a⁺, G) with g = |G| >= 1 stands for every degree with
    a_j <= -1 on G and a⁺ elsewhere; C(|a⁺| - t - 1, g - 1) of them have
    total degree t. An entry with g = 0 is the single degree a⁺.
    """
    total = 0
    for i, table in tables.items():
        for p, dim in table.entries.items():
            n, g = sum(p.a_plus) - t, len(p.G)
            if g == 0:
                count = int(n == 0)
            else:
                count = math.comb(n - 1, g - 1) if n >= 1 else 0
            total += (-1) ** i * dim * count
    return total


# ---------------------------------------------------------------------------
# homology over Fraction / GF(p), no package code


def _rank_fraction(mat: list[list[int]]) -> int:
    m = [[Fraction(x) for x in row] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if m[k][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for k in range(rows):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _rank_gfp(mat: list[list[int]], p: int) -> int:
    m = [[x % p for x in row] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if m[k][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for k in range(rows):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(a - f * b) % p for a, b in zip(m[k], m[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _rank(mat: list[list[int]], char: int) -> int:
    if not mat or not mat[0]:
        return 0
    return _rank_fraction(mat) if char == 0 else _rank_gfp(mat, char)


def reduced_homology_oracle(
    faces: set[frozenset[int]], q: int, char: int
) -> int:
    """dim of reduced simplicial homology in dimension q.

    ``faces`` must be the full downward-closed face set, with frozenset()
    standing for the empty face. The void complex is the empty set.
    """
    if not faces:
        return 0
    by_dim: dict[int, list[frozenset[int]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort(key=lambda f: tuple(sorted(f)))

    def boundary(upper_dim: int) -> list[list[int]]:
        uppers = by_dim.get(upper_dim, [])
        lowers = by_dim.get(upper_dim - 1, [])
        idx = {f: r for r, f in enumerate(lowers)}
        mat = [[0] * len(uppers) for _ in lowers]
        for c, f in enumerate(uppers):
            verts = sorted(f)
            for t, v in enumerate(verts):
                sub = frozenset(f - {v})
                mat[idx[sub]][c] = (-1) ** t
        return mat

    n_q = len(by_dim.get(q, []))
    if n_q == 0:
        return 0
    rank_q = _rank(boundary(q), char)
    rank_q1 = _rank(boundary(q + 1), char)
    return n_q - rank_q - rank_q1


def downward_closure(facets: list[tuple[int, ...]]) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for f in facets:
        fs = frozenset(f)
        for k in range(len(fs) + 1):
            for sub in itertools.combinations(sorted(fs), k):
                out.add(frozenset(sub))
    return out


# ---------------------------------------------------------------------------
# the subset lattice of [d]: faces, facets and minimal non-faces


def brute_radical_faces(I: MonomialIdeal) -> set[frozenset[int]]:
    """Faces of Δ(√I), as sets of 1-based vertices: the subsets of [d] that
    contain no generator's support."""
    supports = [
        frozenset(j + 1 for j, e in enumerate(row) if e)
        for row in I.exponent_matrix.tolist()
    ]
    return {
        frozenset(c)
        for k in range(I.d + 1)
        for c in itertools.combinations(range(1, I.d + 1), k)
        if not any(s <= frozenset(c) for s in supports)
    }


def brute_degree_complex(I: MonomialIdeal, a) -> set[frozenset[int]]:
    """Δ_a(I) by its definition: the faces F ⊆ [d]∖G_a (sets of 1-based
    vertices, frozenset() for the empty face; the void complex is empty)
    with x^{a⁺} outside project(I, F ∪ G_a). Setting x_j = 1 for j in
    S = F ∪ G_a lets every generator's x_j-exponent through, so x^{a⁺} lies
    in the projection iff x^c lies in I, with c_j raised past every
    generator exponent on S and c_j = a⁺_j elsewhere."""
    d = I.d
    G = {j + 1 for j in range(d) if a[j] < 0}
    a_plus = [max(int(x), 0) for x in a]
    past = 1 + max((max(row) for row in I.exponent_matrix.tolist()), default=0)
    free = [j for j in range(1, d + 1) if j not in G]
    faces = set()
    for k in range(len(free) + 1):
        for F in itertools.combinations(free, k):
            S = G | set(F)
            c = tuple(past if j + 1 in S else a_plus[j] for j in range(d))
            if not brute_membership(I, c):
                faces.add(frozenset(F))
    return faces


def brute_facets(d: int, faces: set[frozenset[int]]) -> set[frozenset[int]]:
    """The faces that no vertex of [d] extends to a larger face."""
    return {
        f for f in faces
        if not any(f | {v} in faces for v in range(1, d + 1) if v not in f)
    }


def brute_minimal_nonfaces(
    d: int, faces: set[frozenset[int]]
) -> set[frozenset[int]]:
    """The subsets of [d] outside the face set all of whose proper subsets
    lie in it."""
    return {
        frozenset(c)
        for k in range(d + 1)
        for c in itertools.combinations(range(1, d + 1), k)
        if frozenset(c) not in faces
        and all(frozenset(c) - {v} in faces for v in c)
    }


# ---------------------------------------------------------------------------
# the keys of the face scan


def scan_keys_oracle(box: np.ndarray, faces, max_i: int) -> list[int]:
    """The key ``_kernels.scan_face_masks`` documents for every cell of an
    up-closed box, in C order, as a Python int, probe by probe.

    Cell b has G = {j : b_j = rho_j}, with rho_j the box's last index. Bit f
    is set when faces[f] (a tuple of axes) avoids G, has at most max_i
    axes or G is empty, and the box is 0 at b raised to rho on faces[f].
    Above the face bits sits min(|G|, max_i + 1), or max_i + 1 on a cell
    of the ideal."""
    top = max_i + 1
    rho = [n - 1 for n in box.shape]
    keys = []
    for b in itertools.product(*(range(n) for n in box.shape)):
        G = {j for j, x in enumerate(b) if x == rho[j]}
        key = (top if box[b] else min(len(G), top)) << len(faces)
        for f, F in enumerate(faces):
            if G & set(F) or (G and len(F) == top):
                continue
            probe = tuple(rho[j] if j in F else x for j, x in enumerate(b))
            if not box[probe]:
                key |= 1 << f
        keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# graded local cohomology of a squarefree quotient via links


def degree_table_oracle(I: MonomialIdeal, i: int, char: int) -> dict:
    """Entries {(G, a_plus): dim} for H^i_m(R/I), any monomial I, by
    Takayama's formula at one degree per pattern: for every b with
    0 <= b_j <= rho_j (rho_j the largest x_j-exponent of a generator),
    G = {j : b_j = rho_j}, the degree a is -1 on G and b elsewhere, and the
    dimension is that of H~_{i-|G|-1} of ``brute_degree_complex(I, a)``."""
    d = I.d
    rows = I.exponent_matrix.tolist()
    rho = [max((r[j] for r in rows), default=0) for j in range(d)]
    entries = {}
    for b in itertools.product(*(range(r + 1) for r in rho)):
        G = tuple(j + 1 for j in range(d) if b[j] == rho[j])
        q = i - len(G) - 1
        if q < -1:
            continue
        a = [-1 if j + 1 in G else b[j] for j in range(d)]
        dim = reduced_homology_oracle(brute_degree_complex(I, a), q, char)
        if dim:
            entries[(G, tuple(0 if j + 1 in G else b[j] for j in range(d)))] = dim
    return entries


def hochster_table_oracle(I: MonomialIdeal, i: int, char: int) -> dict:
    """Entries {(G, zero_aplus): dim} for H^i_m(R/I), I squarefree.

    Nonzero graded pieces live only in degrees a <= 0; the piece at a
    depends only on G = supp(a) and equals the reduced homology of the
    link of G in the full complex, in dimension i - |G| - 1. G must be a
    face for a nonzero contribution.
    """
    d = I.d
    gens = [tuple(r) for r in I.exponent_matrix.tolist()]
    assert all(max(g) <= 1 for g in gens), "oracle needs a squarefree ideal"
    supports = [frozenset(j + 1 for j, e in enumerate(g) if e) for g in gens]

    def is_face(S: frozenset[int]) -> bool:
        return not any(sup <= S for sup in supports)

    all_faces = {
        frozenset(c)
        for k in range(d + 1)
        for c in itertools.combinations(range(1, d + 1), k)
        if is_face(frozenset(c))
    }
    entries = {}
    for G in sorted(all_faces, key=lambda s: (len(s), tuple(sorted(s)))):
        link = {f - G for f in all_faces if G <= f}
        dim = reduced_homology_oracle(link, i - len(G) - 1, char)
        if dim:
            a_plus = (0,) * d
            entries[(tuple(sorted(G)), a_plus)] = dim
    return entries


def regularity_from_tables(I: MonomialIdeal, char: int) -> int:
    """reg(R/I) by its definition, max_i (topdeg H^i_m(R/I) + i) over
    i <= dim R/I, each topdeg read off a whole table of the package by
    ``table_topdeg``: the decode and the per-degree tables that
    ``regularity`` skips."""
    tops = []
    for i in range(krull_dimension(I) + 1):
        top = table_topdeg(cohomology_table(I, i, char))
        if top.is_finite:
            tops.append(top.value + i)
    return max(tops)


# ---------------------------------------------------------------------------
# table text: every row decoded bit by bit, sorted in Python, written by
# json.dumps and f-strings


def reference_rows(table) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every row of a table as (G, a⁺, dim), read off its arrays and sorted
    by (|G|, G, a⁺)."""
    d = table.a_plus.shape[1]
    rows = [
        (tuple(j + 1 for j in range(d) if g >> j & 1), tuple(a), dim)
        for g, a, dim in zip(
            table.g_masks.tolist(), table.a_plus.tolist(), table.dims.tolist()
        )
    ]
    return sorted(rows, key=lambda row: (len(row[0]), row[0], row[1]))


def reference_table_dict(table) -> dict:
    rows = reference_rows(table)
    return {
        "i": table.i,
        "char": table.char,
        "finite_length": all(not G for G, _, _ in rows),
        "entries": [
            {"G": list(G), "a_plus": list(a), "dim": dim} for G, a, dim in rows
        ],
    }


def reference_json(table) -> str:
    return json.dumps(reference_table_dict(table), separators=(",", ":"))


def reference_cohomology_output(tables, fmt: str, char: int) -> str:
    """The stdout of ``monocoh cohomology`` (no ``--at``) for its tables,
    given as ``(n, i, table)`` in the order the command computes them."""
    if fmt == "json":
        doc = [{"n": n, "table": reference_table_dict(t)} for n, _, t in tables]
        return json.dumps(doc, separators=(",", ":")) + "\n"
    lines = ["n,i,char,finite_length,G,a_plus,dim"] if fmt == "csv" else []
    for n, i, t in tables:
        rows = reference_rows(t)
        fl = str(all(not G for G, _, _ in rows)).lower()
        if fmt == "text":
            lines.append(f"# n={n} i={i} char={char} finite_length={fl} "
                         f"entries={len(rows)}")
        for G, a, dim in rows:
            if fmt == "csv":
                g, ap = ";".join(map(str, G)), ";".join(map(str, a))
                lines.append(f"{n},{i},{char},{fl},{g},{ap},{dim}")
            else:
                g, ap = ",".join(map(str, G)), ",".join(map(str, a))
                lines.append(f"G={{{g}}} a+=({ap}) dim={dim}")
    return "".join(line + "\n" for line in lines)
