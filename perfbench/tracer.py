"""Spans and counters recorded around calls into the package's layers.

The tracer wraps public functions from outside the package. A function
imported by name (``from .monomial_core import power``) is bound in more than
one module, so ``Installation`` replaces the function object at every binding
site in every loaded ``monocoh`` module, not only where it is defined; a
wrapper at the defining module alone would miss the calls that go through
the other names.

Spans are kept in memory as ``[name, start, end, parent]`` with ``parent``
the index of the enclosing span (-1 at the top). A span's self time is its
duration minus the durations of its direct children, which nest inside it.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

# (module, function, span name). Every span name is "<module>.<function>".
TRACED_FUNCTIONS = (
    ("monocoh.monomial_core", "power", "monomial_core.power"),
    ("monocoh.monomial_core", "saturate_irrelevant", "monomial_core.saturate_irrelevant"),
    ("monocoh.monomial_core", "membership_box", "monomial_core.membership_box"),
    ("monocoh.monomial_core", "krull_dimension", "monomial_core.krull_dimension"),
    ("monocoh._kernels", "scan_face_masks", "_kernels.scan_face_masks"),
    ("monocoh._kernels", "upward_close", "_kernels.upward_close"),
    ("monocoh._kernels", "rank_char0", "_kernels.rank_char0"),
    ("monocoh._kernels", "gf_rank", "_kernels.gf_rank"),
    ("monocoh._kernels", "bareiss_rank_exact", "_kernels.bareiss_rank_exact"),
    ("monocoh.simplicial", "homology_dim_single", "simplicial.homology_dim_single"),
    ("monocoh.simplicial", "homology_dims_from_masks", "simplicial.homology_dims_from_masks"),
    ("monocoh.simplicial", "stanley_reisner_complex", "simplicial.stanley_reisner_complex"),
    ("monocoh.takayama", "cohomology_table", "takayama.cohomology_table"),
    ("monocoh.takayama", "regularity", "takayama.regularity"),
    # spans only, reported by no metric: they keep sequence work out of cli.self_s
    ("monocoh.asymptotics", "power_sequence", "asymptotics.power_sequence"),
    ("monocoh.asymptotics", "dichotomy_report", "asymptotics.dichotomy_report"),
    ("monocoh.asymptotics", "regularity_linear_fit", "asymptotics.regularity_linear_fit"),
    ("monocoh.cli", "main", "cli.main"),
)

# numpy.unique is traced only where takayama calls it (mask deduplication),
# through a stand-in for takayama's ``np`` binding.
DEDUP_SPAN = "takayama.np.unique"

# (metric name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("monomial_core.power_s", "s", "lower"),
    ("monomial_core.power_gens", "count", "lower"),
    ("monomial_core.saturate_s", "s", "lower"),
    ("monomial_core.membership_box_s", "s", "lower"),
    ("monomial_core.box_cells", "count", "lower"),
    ("monomial_core.krull_s", "s", "lower"),
    ("kernels.scan_s", "s", "lower"),
    ("kernels.scan_patterns", "count", "lower"),
    ("kernels.upward_close_s", "s", "lower"),
    ("kernels.rank_char0_s", "s", "lower"),
    ("kernels.gf_rank_s", "s", "lower"),
    ("kernels.rank_calls", "count", "lower"),
    ("kernels.bigint_fallbacks", "count", "lower"),
    ("kernels.max_matrix_cells", "count", "lower"),
    ("simplicial.homology_s", "s", "lower"),
    ("simplicial.homology_calls", "count", "lower"),
    ("simplicial.sr_complex_s", "s", "lower"),
    ("takayama.table_s", "s", "lower"),
    ("takayama.table_self_s", "s", "lower"),
    ("takayama.table_calls", "count", "lower"),
    ("takayama.patterns", "count", "lower"),
    ("takayama.unique_complexes", "count", "lower"),
    ("takayama.unique_ratio", "ratio", "higher"),
    ("takayama.dedup_s", "s", "lower"),
    ("asymptotics.regularity_s", "s", "lower"),
    ("asymptotics.regularity_calls", "count", "lower"),
    ("asymptotics.tables_per_power", "ratio", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "count", "lower"),
)


class Tracer:
    """In-memory spans plus counters taken from the traced calls' values."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total time and call count of the outermost spans
        (those with no enclosing span of the same name), and self time."""
        spans = self.spans
        total, calls, self_t = Counter(), Counter(), Counter()
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for k, (name, start, end, parent) in enumerate(spans):
            self_t[name] += end - start - child[k]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += end - start
                calls[name] += 1
        return total, calls, self_t

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer values of one pass; see LAYER_METRICS."""
        c = self.counts
        total, calls, self_t = self.summary()
        tables = calls["takayama.cohomology_table"]
        powers = calls["monomial_core.power"]
        patterns = c["dedup_rows"]
        return {
            "monomial_core.power_s": total["monomial_core.power"],
            "monomial_core.power_gens": c["power_gens"],
            "monomial_core.saturate_s": total["monomial_core.saturate_irrelevant"],
            "monomial_core.membership_box_s": total["monomial_core.membership_box"],
            "monomial_core.box_cells": c["box_cells"],
            "monomial_core.krull_s": total["monomial_core.krull_dimension"],
            "kernels.scan_s": total["_kernels.scan_face_masks"],
            "kernels.scan_patterns": c["scan_patterns"],
            "kernels.upward_close_s": total["_kernels.upward_close"],
            "kernels.rank_char0_s": total["_kernels.rank_char0"],
            "kernels.gf_rank_s": total["_kernels.gf_rank"],
            "kernels.rank_calls": calls["_kernels.rank_char0"]
            + calls["_kernels.gf_rank"],
            "kernels.bigint_fallbacks": calls["_kernels.bareiss_rank_exact"],
            "kernels.max_matrix_cells": self.maxima["matrix_cells"],
            "simplicial.homology_s": total["simplicial.homology_dim_single"]
            + total["simplicial.homology_dims_from_masks"],
            "simplicial.homology_calls": calls["simplicial.homology_dim_single"]
            + calls["simplicial.homology_dims_from_masks"],
            "simplicial.sr_complex_s": total["simplicial.stanley_reisner_complex"],
            "takayama.table_s": total["takayama.cohomology_table"],
            "takayama.table_self_s": self_t["takayama.cohomology_table"],
            "takayama.table_calls": tables,
            "takayama.patterns": patterns,
            "takayama.unique_complexes": c["unique_rows"],
            "takayama.unique_ratio": c["unique_rows"] / patterns if patterns else 0.0,
            "takayama.dedup_s": total[DEDUP_SPAN],
            "asymptotics.regularity_s": total["takayama.regularity"],
            "asymptotics.regularity_calls": calls["takayama.regularity"],
            "asymptotics.tables_per_power": tables / powers if powers else 0.0,
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_t["cli.main"],
            "cli.stdout_bytes": stdout_bytes,
        }


def _observe_power(t: Tracer, args, result) -> None:
    t.counts["power_gens"] += result.num_gens


def _observe_box(t: Tracer, args, result) -> None:
    t.counts["box_cells"] += int(result.size)


def _observe_scan(t: Tracer, args, result) -> None:
    t.counts["scan_patterns"] += int(result.shape[0])


def _observe_rank(t: Tracer, args, result) -> None:
    t.maxima["matrix_cells"] = max(t.maxima["matrix_cells"], int(args[0].size))


def _observe_unique(t: Tracer, args, result) -> None:
    t.counts["dedup_rows"] += int(args[0].shape[0])
    uniq = result[0] if isinstance(result, tuple) else result
    t.counts["unique_rows"] += int(uniq.shape[0])


_OBSERVERS = {
    "monomial_core.power": _observe_power,
    "monomial_core.membership_box": _observe_box,
    "_kernels.scan_face_masks": _observe_scan,
    "_kernels.rank_char0": _observe_rank,
    "_kernels.gf_rank": _observe_rank,
    DEDUP_SPAN: _observe_unique,
}


def _numpy_with_traced_unique(np_module, unique):
    proxy = types.ModuleType(np_module.__name__)
    proxy.__dict__.update(np_module.__dict__)
    proxy.unique = unique
    return proxy


class Installation:
    """Wrappers installed at every binding site; ``restore`` undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.sites: dict[str, str] = {}  # "module.attr" -> span name
        self._saved: list[tuple[object, str, object]] = []
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "monocoh" or k.startswith("monocoh."))
        ]
        for mod_name, attr, span in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = tracer.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                        self.sites[f"{mod.__name__}.{key}"] = span
        tk = sys.modules["monocoh.takayama"]
        unique = tracer.wrap(DEDUP_SPAN, tk.np.unique)
        self._set(tk, "np", _numpy_with_traced_unique(tk.np, unique))
        self.sites["monocoh.takayama.np.unique"] = DEDUP_SPAN

    def _set(self, mod, key, value) -> None:
        self._saved.append((mod, key, getattr(mod, key)))
        setattr(mod, key, value)

    def restore(self) -> None:
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()
