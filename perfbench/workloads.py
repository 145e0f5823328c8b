"""Workload definitions: inputs built from a seed, and the ops that run on them.

An op is one call the benchmark times: one ``cohomology_table`` (with the
power and saturation that feed it, on ``cycle_grid``) or one in-process
``monocoh.cli.main(argv)`` with its output captured. Each op reduces its
output to a digest, so that passes, traced runs and the stored reference can
be compared byte for byte.

Only public functions of the package are called, through its modules'
attributes, so that the wrappers ``tracer.py`` installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("cycle_grid", "random_corpus", "power_sweep_cli")

# random_corpus is built from the run seed. DEFAULT_SEED is the one used
# while developing a change; HELDOUT_SEED is kept back to confirm a claim
# on inputs the change was not tuned on. Both have stored reference digests.
DEFAULT_SEED = 20261017
HELDOUT_SEED = 7919

FIELD_CHARS = (0, 32003)


def import_monocoh():
    """Import ``monocoh`` from this checkout's ``src/`` and nowhere else.

    Raises ImportError when the checkout holds no source tree, or when an
    installed copy of the package would shadow it.
    """
    if not (SRC / "monocoh" / "__init__.py").is_file():
        raise ImportError(f"no monocoh source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import monocoh
    import monocoh.cli  # noqa: F401  (every workload loads every module)

    if Path(monocoh.__file__).resolve().parent != (SRC / "monocoh").resolve():
        raise ImportError(f"monocoh imported from {monocoh.__file__}, not {SRC}")
    return monocoh


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Op:
    """One timed call. ``run`` returns ``(ok, digest, payload)``: ``ok`` is
    False for a nonzero CLI exit code, and ``payload`` is what the
    post-run checks inspect (a table, or the CLI stdout). ``inputs`` holds
    the ``(ideal, i, char)`` of a random_corpus table."""

    name: str
    run: Callable[[], tuple[bool, str, object]]
    inputs: tuple | None = None


@dataclass
class Workload:
    """``ops`` are the ops of one pass; every pass runs the same ops."""

    name: str
    seed: int
    ops: list[Op]
    warmup: Callable[[], object]


def cycle_generators(d: int) -> str:
    """Edge ideal of the complement of the d-cycle, as generator text: its
    Stanley-Reisner complex is the d-cycle itself."""
    gens = [
        f"x{i}*x{j}"
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
        if j - i != 1 and not (i == 1 and j == d)
    ]
    return ", ".join(gens)


def _table_result(table) -> tuple[bool, str, object]:
    return True, digest(table.to_json()), table


def _table_op(name: str, compute: Callable[[], object]) -> Op:
    return Op(name, lambda: _table_result(compute()))


def _cycle_grid(seed: int) -> Workload:
    mc = import_monocoh()
    tk = sys.modules["monocoh.takayama"]
    cycles = {d: mc.parse_ideal(cycle_generators(d), d) for d in (5, 6, 7)}

    def grid_cell(d: int, n: int):
        return lambda: tk.cohomology_table(
            mc.saturate_irrelevant(mc.power(cycles[d], n)), 1, 0
        )

    ops = [
        _table_op(f"C{d}^{n}", grid_cell(d, n)) for d in (5, 6, 7) for n in range(2, 7)
    ]
    # The grid is fixed; the seed only fixes the order of the ops in a pass.
    random.Random(seed).shuffle(ops)
    return Workload("cycle_grid", seed, ops, warmup=grid_cell(5, 2))


def random_ideals(seed: int, count: int = 60):
    """The seed's corpus: ``count`` random ideals in 3..5 variables that are
    not squarefree.

    Each has at most 6 generators with exponents at most 4. The variable
    count and the drawn generator count are stratified (they cycle through
    their ranges) so that the corpus cost varies less from seed to seed;
    the exponents are random.
    """
    import numpy as np

    mc = import_monocoh()
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = len(out)
        d = 3 + n % 3
        g = 1 + (n // 3) % 6
        rows = rng.integers(0, 5, size=(g, d))
        rows = rows[rows.sum(axis=1) > 0]
        if len(rows) == 0:
            continue
        ideal = mc.MonomialIdeal(d, rows.tolist())
        if ideal.is_unit or ideal.is_zero or int(ideal.exponent_matrix.max()) < 2:
            continue
        out.append(ideal)
    return out


def _random_corpus(seed: int) -> Workload:
    mc = import_monocoh()
    tk = sys.modules["monocoh.takayama"]
    ops = []
    for n, ideal in enumerate(random_ideals(seed)):
        for i in range(mc.krull_dimension(ideal) + 1):
            for char in FIELD_CHARS:
                a = (ideal, i, char)
                ops.append(Op(
                    f"{n}:i{i}:c{char}",
                    lambda a=a: _table_result(tk.cohomology_table(*a)),
                    inputs=a,
                ))
    warm = ops[0].inputs
    return Workload(
        "random_corpus", seed, ops, warmup=lambda: tk.cohomology_table(*warm)
    )


def cli_commands() -> dict[str, list[str]]:
    c5, c6, c7 = (cycle_generators(d) for d in (5, 6, 7))
    return {
        "indeg_C6": ["indeg", "--ideal", c6, "--d", "6", "--i", "1",
                     "--powers", "1..5", "--saturated", "--format", "csv"],
        "reg_C6": ["reg", "--ideal", c6, "--d", "6", "--powers", "1..6"],
        "cohomology_all_C5": ["cohomology", "--ideal", c5, "--d", "5",
                              "--i", "all", "--powers", "1..4", "--format", "json"],
        "dichotomy_C6": ["dichotomy", "--ideal", c6, "--d", "6", "--i", "1",
                         "--powers", "1..5", "--format", "csv"],
        "delta_C7": ["delta", "--ideal", c7, "--d", "7"],
        "cohomology_p_C5": ["cohomology", "--ideal", c5, "--d", "5", "--i", "1",
                            "--char", "32003", "--saturated", "--powers", "1..6",
                            "--format", "csv"],
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``monocoh.cli.main(argv)`` with stdout and stderr captured."""
    cli = sys.modules["monocoh.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(name: str, argv: list[str]) -> Op:
    def run():
        code, text = run_cli(argv)
        return code == 0, digest(f"{code}\n{text}"), text

    return Op(name, run)


def _power_sweep_cli(seed: int) -> Workload:
    import_monocoh()
    commands = cli_commands()
    ops = [_cli_op(name, argv) for name, argv in commands.items()]
    random.Random(seed).shuffle(ops)
    delta = commands["delta_C7"]
    return Workload("power_sweep_cli", seed, ops, warmup=lambda: run_cli(delta))


_BUILDERS = {
    "cycle_grid": _cycle_grid,
    "random_corpus": _random_corpus,
    "power_sweep_cli": _power_sweep_cli,
}


def build(name: str, seed: int) -> Workload:
    """Import the package, build the workload's inputs and its ops."""
    return _BUILDERS[name](seed)


def expected_digests(name: str, seed: int) -> dict[str, str] | None:
    """The stored digest of each op, or None when none is stored.

    cycle_grid and power_sweep_cli have the same ops at every seed.
    random_corpus is stored for DEFAULT_SEED and HELDOUT_SEED.
    """
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    if name == "random_corpus":
        return ref.get(str(seed))
    return ref
