"""One workload in one fresh interpreter: set up, run timed passes, check.

Started by ``run.py``; prints one JSON object as its last stdout line.
Ops run one at a time in a single thread (a closed loop with one client).

With ``--setup-only`` it stops after set-up and reports only ``setup_s``.
With ``--trace 1`` it alternates untraced and traced passes: the traced ones
give the per-layer metrics, and the difference of the two kinds' best-op
sums is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

import workloads
from tracer import LAYER_METRICS, Installation, Tracer

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# zero-dimension patterns sampled per table for the random_corpus cross-check
ZERO_SAMPLES = 4
# the per-layer values that count work; these must repeat exactly
COUNTED_UNITS = ("count", "ratio")


def run_pass(ops: list[workloads.Op]) -> dict:
    """Run every op once; time each op and the whole pass."""
    clock = time.perf_counter
    latencies, digests, errors, payloads = [], {}, {}, {}
    stdout_bytes = 0
    start = clock()
    for op in ops:
        t = clock()
        try:
            good, dg, payload = op.run()
            error = None if good else "nonzero exit code"
        # an op that raises is a failed op; the run measures the rest
        except Exception as exc:  # noqa: BLE001
            dg, payload, error = "", None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        digests[op.name], errors[op.name], payloads[op.name] = dg, error, payload
        if isinstance(payload, str):
            stdout_bytes += len(payload.encode())
    return {
        "wall": clock() - start,
        "latencies": latencies,
        "digests": digests,
        "errors": errors,
        "payloads": payloads,
        "stdout_bytes": stdout_bytes,
    }


def random_corpus_checks(
    ops: list[workloads.Op], payloads: dict, seed: int
) -> dict[str, str]:
    """Failures found by checks that need no stored reference.

    - The tables over Q and over F_32003 agree: every degree complex has at
      most 5 vertices, and homology on at most 5 vertices has no torsion.
    - H^i with i = dim R/I is nonzero (Grothendieck nonvanishing).
    - Each nonzero entry of a char-0 table, and a few seeded patterns the
      table leaves at zero, agree with ``cohomology_dim_at``, which builds
      the single degree complex directly instead of scanning the box.
    """
    mc = workloads.import_monocoh()
    tk = sys.modules["monocoh.takayama"]
    rng = random.Random(seed)
    bad: dict[str, str] = {}
    for op in ops:
        ideal, i, char = op.inputs
        table = payloads.get(op.name)
        if table is None or char != 0:
            continue
        twin = payloads.get(op.name.replace(":c0", f":c{workloads.FIELD_CHARS[1]}"))
        if twin is not None and (
            twin.entries != table.entries or twin.finite_length != table.finite_length
        ):
            bad[op.name] = "tables over Q and F_32003 differ"
            continue
        if i == mc.krull_dimension(ideal) and not table.entries:
            bad[op.name] = "H^i vanishes at i = dim R/I"
            continue
        d = ideal.d
        probes = dict(table.entries)
        for _ in range(ZERO_SAMPLES):
            g = sorted(rng.sample(range(1, d + 1), rng.randint(0, min(i, d))))
            a_plus = tuple(
                0 if j + 1 in g else rng.randint(0, table.rho[j]) for j in range(d)
            )
            probes.setdefault(tk.DegreePattern(a_plus=a_plus, G=tuple(g)), 0)
        for pat, dim in probes.items():
            a = [-1 if j + 1 in pat.G else pat.a_plus[j] for j in range(d)]
            got = tk.cohomology_dim_at(ideal, i, a, char)
            if got != dim:
                bad[op.name] = f"table gives {dim} at {a}, cohomology_dim_at gives {got}"
                break
    return bad


class Checker:
    """Counts failed ops, pass by pass, and keeps the first few problems.

    An op fails when it raises, exits nonzero, gives another digest than
    the stored one (or, with none stored, than the first pass of the run),
    or fails a random_corpus check. Those checks run on the first pass; a
    later pass with the same digests has the same outputs.
    """

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}
        self.expected = workloads.expected_digests(wl.name, wl.seed)
        self.reference_checked = self.expected is not None
        self.flagged: dict[str, str] | None = None

    def note(self, key: str, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.setdefault(key, text)

    def check(self, label: str, result: dict) -> None:
        wl = self.wl
        if self.expected is None:
            self.expected = result["digests"]
        if self.flagged is None:
            self.flagged = {}
            if wl.name == "random_corpus":
                self.flagged = random_corpus_checks(wl.ops, result["payloads"], wl.seed)
        for op in wl.ops:
            dg = result["digests"][op.name]
            want = self.expected.get(op.name, "missing from the reference")
            self.attempted += 1
            problem = result["errors"][op.name]
            if problem is None and dg != want:
                problem = f"digest {dg}, expected {want}"
            if problem is None:
                problem = self.flagged.get(op.name)
            if problem is not None:
                self.failed += 1
                self.note(f"{label} {op.name}", problem)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    kernels = sys.modules["monocoh._kernels"]
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": kernels.BACKEND,
        "numba_imports": numba_imports,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    clock = time.perf_counter
    t0 = clock()
    wl = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": clock() - t0}))
        return 0
    wl.warmup()

    # Passes run until the time spent in them reaches --seconds; output
    # checks happen between passes, untimed.
    checker = Checker(wl)
    tracer = Tracer() if args.trace else None
    untraced, layers = [], []
    # each op's fastest latency over the untraced, and the traced, passes
    op_best = traced_best = None
    spent = 0.0
    k = 0
    while True:
        plain = run_pass(wl.ops)
        untraced.append(plain["wall"])
        lat = plain["latencies"]
        op_best = lat if op_best is None else list(map(min, op_best, lat))
        checker.check(f"pass {k}", plain)
        spent += plain["wall"]
        round_s = plain["wall"]
        if tracer is not None:
            installed = Installation(tracer)
            try:
                result = run_pass(wl.ops)
            finally:
                installed.restore()
            lat = result["latencies"]
            traced_best = lat if traced_best is None else list(map(min, traced_best, lat))
            layers.append(tracer.layer_metrics(result["stdout_bytes"]))
            tracer.reset()
            checker.check(f"traced pass {k}", result)
            spent += result["wall"]
            round_s += result["wall"]
        del plain
        k += 1
        enough = k >= (MIN_TRACED_PAIRS if tracer is not None else MIN_PASSES)
        if enough and spent + round_s > args.seconds:
            break

    result = {
        "pass_walls": untraced,
        "op_best": op_best,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "reference_checked": checker.reference_checked,
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(),
    }
    if tracer is not None:
        result["traced_best"] = traced_best
        result["traced_passes"] = len(layers)
        # every traced pass must repeat the counts of the first exactly
        counted = [m for m, unit, _ in LAYER_METRICS if unit in COUNTED_UNITS]
        if any(lay[m] != layers[0][m] for lay in layers for m in counted):
            checker.note("counts", "traced counts differ between passes")
        result["layers"] = {
            m: layers[0][m] if m in counted else statistics.median(
                lay[m] for lay in layers
            )
            for m, _, _ in LAYER_METRICS
        }
    result["correct"] = not checker.problems
    result["problems"] = checker.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
