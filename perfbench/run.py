"""monocoh benchmark: end-to-end and per-layer metrics for fixed workloads.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload cycle_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh interpreters started by this script, one op at
a time. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and its overhead; ``--workload all`` runs
every workload both ways. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Before it come a
readable summary and, on a line starting ``record``, each run's full record
as JSON: environment, pass and sample counts, and any problems found. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_PROBES = 15
# a run must end within this many seconds, whatever its workload does
RUN_LIMIT_S = 170

# Every process the benchmark starts runs the numpy kernels single-threaded,
# so a machine with numba or a threaded BLAS runs the same program.
PINNED_ENV = {
    "MONOCOH_BACKEND": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run of one workload: its metrics, checks and environment."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    out = run_worker(base + ["--trace", str(trace)], deadline)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": out["problems"],
        "reference_checked": out["reference_checked"],
        "env": {
            **out["env"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "pinned": PINNED_ENV,
        },
    }
    walls = out["pass_walls"]
    if trace:
        layers = dict(out["layers"])
        # wall_s of the traced passes, and it minus wall_s of the untraced
        layers["trace.wall_s"] = sum(out["traced_best"])
        layers["trace.overhead_s"] = sum(out["traced_best"]) - sum(out["op_best"])
        record["metrics"] = layers
        record["passes"] = {"untraced": len(walls), "traced": out["traced_passes"]}
        return record
    probes = [
        run_worker(base + ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    # The timings take each op at its fastest over the run's passes: on a
    # shared host the speed can swing by a third over seconds to minutes,
    # and an op's fastest run varies far less than a pass's median.
    best_ms = [x * 1000.0 for x in out["op_best"]]
    p90 = percentile(best_ms, 90)
    record["metrics"] = {
        "wall_s": sum(out["op_best"]),
        "op_p50_ms": statistics.median(best_ms),
        "op_p90_ms": p90,
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(probes),
    }
    record["failed_frac"] = out["failed"] / out["attempted"]
    record["passes"] = len(walls)
    record["pass_wall_median_s"] = statistics.median(walls)
    record["ops"] = len(best_ms)
    record["beyond_p90"] = sum(1 for x in best_ms if x > p90)
    return record


def units() -> dict[str, str]:
    table = dict(END_TO_END)
    table.update((m, unit) for m, unit, _ in LAYER_METRICS)
    table["trace.wall_s"] = "s"
    table["trace.overhead_s"] = "s"
    return table


def summary_lines(rec: dict) -> list[str]:
    unit = units()
    head = (
        f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
        f"correct={str(rec['correct']).lower()} "
        f"attempted={rec['attempted']} failed={rec['failed']}"
    )
    if rec["trace"]:
        head += f" passes={rec['passes']}"
    else:
        head += (
            f" failed_frac={rec['failed_frac']:.4g} passes={rec['passes']} "
            f"ops={rec['ops']} beyond_p90={rec['beyond_p90']}"
        )
    lines = [head]
    lines += [f"  {m:<34} {v:>14.6g} {unit[m]}" for m, v in rec["metrics"].items()]
    lines += [f"  problem {k}: {v}" for k, v in rec["problems"].items()]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (workloads.SRC / "monocoh" / "__init__.py").is_file():
        print(f"error: no monocoh source tree under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    records = []
    try:
        for name, trace in plan:
            deadline = time.monotonic() + RUN_LIMIT_S
            records.append(measure(name, args.seed, args.seconds, trace, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for rec in records:
        print("\n".join(summary_lines(rec)))
    for rec in records:
        print("record " + json.dumps(rec, sort_keys=True))
    unit = units()
    prefix = len(records) > 1
    metrics = {
        (f"{rec['workload']}.{m}" if prefix else m): {"value": v, "unit": unit[m]}
        for rec in records
        for m, v in rec["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
