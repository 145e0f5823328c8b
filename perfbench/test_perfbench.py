"""Checks of the benchmark itself. Run from the root of the repository:

    python3 -m pytest perfbench

They take about half a minute: each runs whole passes of a workload.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Installation, Tracer  # noqa: E402
from worker import random_corpus_checks, run_pass  # noqa: E402

SEED = workloads.DEFAULT_SEED


def traced_pass(wl):
    tracer = Tracer()
    installed = Installation(tracer)
    try:
        result = run_pass(wl.ops)
    finally:
        installed.restore()
    return result, tracer


def test_wrappers_sit_at_every_binding_site_and_come_off():
    workloads.build("power_sweep_cli", SEED)  # loads every module
    mods = sys.modules
    sites = {
        ("monocoh.takayama", "membership_box"): mods["monocoh.monomial_core"].membership_box,
        ("monocoh.asymptotics", "power"): mods["monocoh.monomial_core"].power,
        ("monocoh.asymptotics", "cohomology_table"): mods["monocoh.takayama"].cohomology_table,
        ("monocoh.asymptotics", "regularity"): mods["monocoh.takayama"].regularity,
    }
    for (mod, name), original in sites.items():
        assert getattr(mods[mod], name) is original
    installed = Installation(Tracer())
    try:
        for (mod, name), original in sites.items():
            wrapper = getattr(mods[mod], name)
            assert wrapper is not original and wrapper.__wrapped__ is original
            assert f"{mod}.{name}" in installed.sites
    finally:
        installed.restore()
    for (mod, name), original in sites.items():
        assert getattr(mods[mod], name) is original
    assert mods["monocoh.takayama"].np is sys.modules["numpy"]


def test_cycle_grid_counts_repeat_and_digests_match_reference():
    wl = workloads.build("cycle_grid", SEED)
    (first, t1), (second, t2) = traced_pass(wl), traced_pass(wl)
    calls1, calls2 = t1.summary()[1], t2.summary()[1]
    assert calls1 == calls2
    assert t1.counts == t2.counts and t1.maxima == t2.maxima
    assert calls1["monomial_core.power"] == 15
    assert calls1["monomial_core.saturate_irrelevant"] == 15
    assert calls1["takayama.cohomology_table"] == 15
    reference = workloads.expected_digests("cycle_grid", SEED)
    assert first["digests"] == second["digests"] == reference


def test_cli_traced_output_equals_untraced_and_reference():
    wl = workloads.build("power_sweep_cli", SEED)
    untraced = run_pass(wl.ops)
    traced, tracer = traced_pass(wl)
    assert not any(untraced["errors"].values())
    assert untraced["digests"] == traced["digests"]
    assert traced["digests"] == workloads.expected_digests("power_sweep_cli", SEED)
    calls = tracer.summary()[1]
    # reg computes each power's regularity in the CLI and again in the fit,
    # through the names asymptotics imported; those calls must be seen too
    assert calls["monomial_core.power"] == 32
    assert calls["takayama.regularity"] == 22
    layers = tracer.layer_metrics(traced["stdout_bytes"])
    assert layers["cli.stdout_bytes"] == untraced["stdout_bytes"] > 0
    assert 0 < layers["cli.self_s"] < layers["cli.main_s"]


def test_random_corpus_inputs_and_outputs():
    ideals = workloads.random_ideals(SEED)
    assert len(ideals) == 60
    for ideal in ideals:
        exps = ideal.exponent_matrix
        assert 3 <= ideal.d <= 5 and 1 <= ideal.num_gens <= 6
        assert 2 <= exps.max() <= 4
    text = [i.generators_str() for i in ideals]
    assert [i.generators_str() for i in workloads.random_ideals(SEED)] == text
    held_out = workloads.random_ideals(workloads.HELDOUT_SEED)
    assert [i.generators_str() for i in held_out] != text

    wl = workloads.build("random_corpus", workloads.HELDOUT_SEED)
    result = run_pass(wl.ops)
    expected = workloads.expected_digests("random_corpus", workloads.HELDOUT_SEED)
    assert result["digests"] == expected
    checks = random_corpus_checks(wl.ops, result["payloads"], wl.seed)
    assert checks == {}
