"""Shared fixtures: seeded random ideal corpora, the cycle family, the
tables the table-text tests write, and an alarm for tests that must end in
time."""

from __future__ import annotations

import contextlib
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from monocoh.monomial_core import MonomialIdeal, krull_dimension, parse_ideal
from monocoh.takayama import CohomologyTable, cohomology_tables


class _Hang(Exception):
    pass


@contextlib.contextmanager
def within_alarm(seconds: int, message: str):
    """Fail the test with ``message`` when the block runs past ``seconds``."""

    def hang(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    except _Hang:
        pytest.fail(message)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


PATH_D11 = ", ".join(f"x{j}^2*x{j + 1}" for j in range(1, 11))


def rows_permuted(t: CohomologyTable, order) -> CohomologyTable:
    return CohomologyTable(
        i=t.i, char=t.char, a_plus=t.a_plus[order], g_masks=t.g_masks[order],
        dims=t.dims[order], rho=t.rho)


def text_lines(text: str) -> list[str]:
    """Writer output cut after every JSON row and at every newline: a failed
    comparison of two such lists names the first differing row, where
    pytest would diff two long strings character by character."""
    return text.replace("},{", "},\n{").split("\n")


@pytest.fixture(scope="session")
def writer_tables() -> list[CohomologyTable]:
    """Scan tables over Q and F_2 (corpus ideals and an 11-variable ideal,
    whose G's have two-digit indices), the same rows reversed and shuffled
    through the constructor, ``from_dict`` tables listed out of order with
    a⁺ near 2^62, and empty tables of every shape."""
    rng = np.random.default_rng(20261020)
    ideals = corpus(20261020, 12, (2, 3, 4, 5)) + [parse_ideal(PATH_D11, 11)]
    scanned = [
        t
        for I in ideals
        for char in (0, 2)
        for t in cohomology_tables(I, range(krull_dimension(I) + 1), char).values()
    ]
    reordered = [
        rows_permuted(t, order)
        for t in scanned
        if t.dims.size
        for order in (slice(None, None, -1), rng.permutation(t.dims.size))
    ]
    big = 1 << 62
    loaded = []
    for k in range(6):
        d = 3 + k
        seen = {}
        while len(seen) < 8 + k:
            G = tuple(sorted(rng.choice(np.arange(1, d + 1), rng.integers(0, 3),
                                        replace=False).tolist()))
            a = tuple(0 if j + 1 in G else big - int(rng.integers(0, 4))
                      if rng.random() < 0.3 else int(rng.integers(0, 12))
                      for j in range(d))
            seen[(G, a)] = int(rng.integers(1, big))
        entries = [{"G": list(G), "a_plus": list(a), "dim": dim}
                   for (G, a), dim in seen.items()]
        loaded.append(CohomologyTable.from_dict(
            {"i": k, "char": 0, "finite_length": False, "entries": entries}))
    empty = [
        CohomologyTable.from_dict({"i": 1, "char": 0, "entries": []}),
        CohomologyTable(i=2, char=2, a_plus=np.zeros((0, 0), dtype=np.int64),
                        g_masks=np.zeros(0, dtype=np.int64),
                        dims=np.zeros(0, dtype=np.int64), rho=()),
    ]
    return scanned + reordered + loaded + empty


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
