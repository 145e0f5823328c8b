"""Acceptance criteria: each test prints a single PASS/FAIL line.

Criterion 1 reproduces the cycle family on its whole grid. Its witness to
sharpness only appears once n >= d - 2; on the earlier cells it asserts the
exact values instead (path witness complex, witness dimension 0, and at
(d=5, n=2) the zero module), and on every cell it checks the witness
against the closed-form oracle in tests/oracles.py. The analysis is in
docs/criterion1.md.
"""

import time
from itertools import combinations

import numpy as np
import pytest

import oracles
from conftest import boundary_degree, corpus, cycle_ideal, record_acceptance

from monocoh.monomial_core import (
    krull_dimension,
    parse_ideal,
    power,
    saturate_irrelevant,
    var_degree_bounds,
)
from monocoh.simplicial import (
    from_facets,
    homology_dim_single,
    reduced_homology_dims,
    stanley_reisner_complex,
)
from monocoh.takayama import (
    cohomology_dim_at,
    cohomology_table,
    degree_complex,
    table_indeg,
)
from monocoh.asymptotics import regularity_linear_fit


def verdict(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    record_acceptance(f"CRITERION {num}: {status} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def face_sets(K) -> set[frozenset[int]]:
    return {frozenset(j + 1 for j in range(K.d) if m >> j & 1)
            for m in K.face_masks()}


class TestCriterion1:
    def test_cycle_quantitative_reproduction(self):
        t0 = time.time()
        failures = []
        for d in (5, 6, 7):
            I = cycle_ideal(d)
            for n in range(2, 7):
                cell = f"(d={d},n={n})"
                J = saturate_irrelevant(power(I, n))
                table = cohomology_table(J, 1, 0)
                ind = table_indeg(table)
                if not table.finite_length:
                    failures.append(f"{cell} not finite length")
                a = (n - d + 4, 0) + (1,) * (d - 3) + (0,)
                dim_w = cohomology_dim_at(J, 1, a, 0)
                K = degree_complex(J, a)
                if n >= d - 2:
                    # the witness: the cycle minus {2,3} and {d-1,d}
                    if not (ind.is_finite and n <= ind.value <= n + 1):
                        failures.append(f"{cell} indeg={ind} not in [{n},{n+1}]")
                    if dim_w < 1:
                        failures.append(f"{cell} witness dim {dim_w} < 1")
                    expected = {
                        tuple(sorted(((k - 1) % d + 1, k % d + 1)))
                        for k in range(1, d + 1) if k not in (2, d - 1)}
                else:
                    # {1,2} and {d,1} have not appeared yet: only the path
                    # 3..d-1 is left, or nothing once a_1 < 0
                    if ind.value < n or (table.entries and ind.value > n + 1):
                        failures.append(f"{cell} indeg={ind} not in [{n},{n+1}]")
                    if dim_w != 0:
                        failures.append(f"{cell} witness dim {dim_w} != 0")
                    expected = (set() if n - d + 4 < 0
                                else {(k, k + 1) for k in range(3, d - 1)})
                if set(K.facets) != expected:
                    failures.append(f"{cell} witness facets {K.facets}")
                if face_sets(K) != oracles.cycle_degree_complex_oracle(d, n, a):
                    failures.append(f"{cell} witness complex differs from the oracle")
                if dim_w != oracles.cycle_cohomology_dim_oracle(d, n, 1, a):
                    failures.append(f"{cell} witness dim differs from the oracle")
                if (d, n) == (5, 2) and (
                        table.entries or oracles.cycle_table_oracle(d, n, 1)):
                    failures.append(f"{cell} H^1 is not the zero module")
        elapsed = time.time() - t0
        detail = (
            f"cycle grid d=5..7, n=2..6 in {elapsed:.1f}s; "
            + (f"{len(failures)} failing cells (witness for n >= d-2, exact "
               f"values below; see docs/criterion1.md): " + "; ".join(failures)
               if failures else "all 15 cells within bounds")
        )
        verdict(1, not failures and elapsed < 300, detail)


class TestCriterion2:
    def test_dichotomy_corpus(self):
        ideals = corpus(424242, 200, (2, 3, 4), max_gens=5, max_exp=3)
        checked = 0
        violations = []
        for I in ideals:
            dim_r = krull_dimension(I)
            K = stanley_reisner_complex(I)
            for i in range(1, dim_r + 1):
                h = homology_dim_single(K.face_masks(), i - 1, 0)
                for n in (1, 2, 3, 4):
                    t = cohomology_table(power(I, n), i, 0)
                    if not t.finite_length:
                        continue
                    v = table_indeg(t)
                    checked += 1
                    if h > 0:
                        if not (v.is_finite and v.value == 0):
                            violations.append((I.generators_str(), i, n, str(v)))
                    elif v.is_finite and v.value < n:
                        violations.append((I.generators_str(), i, n, str(v)))
        verdict(
            2,
            len(ideals) >= 200 and checked > 0 and not violations,
            f"{len(ideals)} ideals, {checked} finite-length cells, "
            f"{len(violations)} violations",
        )


class TestCriterion3:
    def test_pattern_clamping(self):
        rng = np.random.default_rng(31415)
        ideals = corpus(161616, 60, (2, 3, 4))
        pairs = 0
        bad = 0
        subv = 0
        for I in ideals:
            rho = var_degree_bounds(I).rho
            full = stanley_reisner_complex(I).face_masks()
            for _ in range(20):
                a = [int(x) for x in rng.integers(-3, 6, size=I.d)]
                b = list(a)
                for j in range(I.d):
                    if a[j] < 0:
                        b[j] = -int(rng.integers(1, 9))
                    elif a[j] >= rho[j]:
                        b[j] = rho[j] + int(rng.integers(0, 7))
                Ka = degree_complex(I, tuple(a))
                if Ka != degree_complex(I, tuple(b)):
                    bad += 1
                if not (Ka.face_masks() <= full):
                    subv += 1
                pairs += 1
        verdict(
            3,
            pairs >= 1000 and bad == 0 and subv == 0,
            f"{pairs} clamp-agreeing pairs, {bad} complex mismatches, "
            f"{subv} subcomplex violations",
        )


class TestCriterion4:
    def test_hochster_agreement(self):
        ideals = corpus(272727, 52, (2, 3, 4, 5), squarefree=True)
        tables = 0
        mismatches = 0
        for I in ideals:
            for i in range(0, I.d + 1):
                t = cohomology_table(I, i, 0)
                got = {(p.G, p.a_plus): dim for p, dim in t.entries.items()}
                want = oracles.hochster_table_oracle(I, i, 0)
                tables += 1
                if got != want:
                    mismatches += 1
        verdict(
            4,
            tables >= 200 and mismatches == 0,
            f"{tables} squarefree tables against the link oracle, "
            f"{mismatches} mismatches",
        )


class TestCriterion5:
    def test_artinian_bound_and_exit_path(self, capsys):
        # the scan never visits a degree with a free a_j >= rho_j (vertex j
        # cones Δ_a); cohomology_dim_at has no such shortcut, so a seeded
        # draw of such boundary degrees checks that they vanish
        rng = np.random.default_rng(5)
        checked = with_g = nonzero = 0
        for I in corpus(88, 80, (2, 3, 4)):
            rho = var_degree_bounds(I).rho
            for _ in range(2):
                a, G, _ = boundary_degree(rng, rho)
                nonzero += sum(
                    cohomology_dim_at(I, i, a, 0) != 0 for i in range(I.d + 1)
                )
                checked += 1
                with_g += len(G) >= 1
        # the exit-4 plumbing: a forced violation must surface as status 4
        import monocoh.cli as cli
        from monocoh.errors import InternalConsistencyError

        real = cli.tk.cohomology_table
        try:
            def boom(*a, **k):
                raise InternalConsistencyError("forced")
            cli.tk.cohomology_table = boom
            code = cli.main(["cohomology", "--ideal", "x1*x2", "--d", "2",
                             "--i", "1"])
        finally:
            cli.tk.cohomology_table = real
        capsys.readouterr()
        verdict(
            5,
            nonzero == 0 and checked == 160 and with_g >= 40 and code == 4,
            f"{checked} boundary degrees checked ({with_g} with G nonempty), "
            f"{nonzero} nonzero pieces, forced violation exits {code}",
        )


class TestCriterion6:
    def test_degree_zero_complex_stability(self):
        ideals = corpus(515151, 60, (2, 3, 4))
        cells = 0
        bad = 0
        for I in ideals:
            K = stanley_reisner_complex(I)
            for n in (1, 2, 3, 4):
                cells += 1
                if degree_complex(power(I, n), (0,) * I.d) != K:
                    bad += 1
        verdict(6, cells == 240 and bad == 0,
                f"{cells} power complexes at degree 0, {bad} differ from the full complex")


class TestCriterion7:
    def test_regularity_linearity(self):
        ideals = corpus(9090, 20, (2, 3), max_gens=4, max_exp=3)
        missing = [I.generators_str() for I in ideals
                   if regularity_linear_fit(I, 8) is None]
        edge_fit = regularity_linear_fit(parse_ideal("x1*x2", 2), 8)
        verdict(
            7,
            not missing and edge_fit == (2, -1, 1),
            f"terminal runs found for {20 - len(missing)}/20 ideals; "
            f"principal edge fit {edge_fit}",
        )


class TestCriterion8:
    def test_homology_engine_fixtures(self):
        ok = True
        notes = []
        for k in range(4):
            nv = k + 2
            K = from_facets(nv, list(combinations(range(1, nv + 1), nv - 1)))
            prof = reduced_homology_dims(K, 0)
            good = all(
                prof.dim(q) == (1 if q == k else 0) for q in range(-1, k + 2))
            ok &= good
            notes.append(f"S^{k}:{'ok' if good else 'BAD'}")
        rp2 = from_facets(6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6),
                              (1, 2, 6), (2, 3, 5), (3, 4, 6), (2, 4, 5),
                              (3, 5, 6), (2, 4, 6)])
        q0 = reduced_homology_dims(rp2, 0).dim(1)
        q2 = reduced_homology_dims(rp2, 2).dim(1)
        ok &= (q0 == 0 and q2 == 1)
        notes.append(f"projective plane dims[1]: char0={q0} char2={q2}")
        verdict(8, ok, ", ".join(notes))


class TestCriterion9:
    def test_exclusions_documented(self):
        from pathlib import Path
        readme = Path(__file__).parent.parent / "README.md"
        text = readme.read_text() if readme.exists() else ""
        documented = "not reproduced here" in text
        verdict(
            9,
            documented,
            "excluded analytic results are listed in README 'Scope and "
            "exclusions'" if documented else "README missing the exclusions section",
        )
