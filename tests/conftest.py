"""Shared fixtures: seeded random ideal corpora and the cycle family."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from monocoh.monomial_core import MonomialIdeal, parse_ideal


def cycle_ideal(d: int) -> MonomialIdeal:
    """Edge ideal of the complement of the d-cycle: generators x_i x_j for
    every non-adjacent pair, so the full complex is the d-cycle itself."""
    gens = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if j - i != 1 and not (i == 1 and j == d):
                gens.append(f"x{i}*x{j}")
    return parse_ideal(", ".join(gens), d)


def random_ideal(
    rng: np.random.Generator,
    d: int,
    max_gens: int = 5,
    max_exp: int = 3,
    squarefree: bool = False,
) -> MonomialIdeal:
    """A proper nonzero monomial ideal with at least one generator."""
    while True:
        g = int(rng.integers(1, max_gens + 1))
        if squarefree:
            rows = rng.integers(0, 2, size=(g, d))
        else:
            rows = rng.integers(0, max_exp + 1, size=(g, d))
        rows = rows[rows.sum(axis=1) > 0]
        if len(rows) == 0:
            continue
        I = MonomialIdeal(d, rows.tolist())
        if not I.is_zero and not I.is_unit:
            return I


def corpus(seed: int, count: int, dims, **kw) -> list[MonomialIdeal]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.choice(dims))
        out.append(random_ideal(rng, d, **kw))
    return out


def boundary_degree(
    rng: np.random.Generator, rho: tuple[int, ...]
) -> tuple[list[int], list[int], int]:
    """(a, G, edge) for an ideal with generator bounds rho: a random degree
    whose free coordinate ``edge`` sits at rho_edge or rho_edge + 1, so that
    vertex edge cones Δ_a(I) and every H^i_m(R/I)_a vanishes. G (0-based)
    holds the negative coordinates, each -1 or -2; the other free
    coordinates lie in 0..rho_j."""
    d = len(rho)
    g_size = int(rng.integers(0, d))
    G = rng.choice(d, size=g_size, replace=False).tolist()
    free = [j for j in range(d) if j not in G]
    edge = free[int(rng.integers(0, len(free)))]
    a = [int(rng.integers(0, r + 1)) for r in rho]
    a[edge] = rho[edge] + int(rng.integers(0, 2))
    for j in G:
        a[j] = -int(rng.integers(1, 3))
    return a, G, edge


@pytest.fixture(scope="session")
def small_corpus() -> list[MonomialIdeal]:
    """Mixed ideals in 2..4 variables, generator degree at most 3."""
    return corpus(20260816, 60, (2, 3, 4))


@pytest.fixture(scope="session")
def squarefree_corpus() -> list[MonomialIdeal]:
    return corpus(7151, 40, (2, 3, 4, 5), squarefree=True)


# ---------------------------------------------------------------------------
# acceptance summary: one visible line per criterion, even for passing tests

ACCEPTANCE_RESULTS: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)
