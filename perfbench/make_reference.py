"""Write reference.json: the digest of every op's output.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good (the test suite and
its brute-force oracles pass), and only when a workload's definition
changes: the stored digests are what every later run is checked against.
random_corpus is recorded for its default and held-out seeds, after the
same reference-free checks a benchmark run makes.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import random_corpus_checks, run_pass


def digests(name: str, seed: int) -> dict[str, str]:
    wl = workloads.build(name, seed)
    result = run_pass(wl.ops)
    bad = {op: error for op, error in result["errors"].items() if error}
    if name == "random_corpus":
        bad.update(random_corpus_checks(wl.ops, result["payloads"], seed))
    if bad:
        raise SystemExit(f"{name} seed {seed}: not recording failed ops {bad}")
    return dict(sorted(result["digests"].items()))


def main() -> int:
    reference = {
        "cycle_grid": digests("cycle_grid", workloads.DEFAULT_SEED),
        "random_corpus": {
            str(seed): digests("random_corpus", seed)
            for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED)
        },
        "power_sweep_cli": digests("power_sweep_cli", workloads.DEFAULT_SEED),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
