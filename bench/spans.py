"""Tracing from outside the program: wrap public functions, record spans.

`installed(tracer)` rebinds every name under which a traced function is
reachable inside the `partial_search` package (the defining module's
attribute, `from .x import f` copies in sibling modules, and the
package re-exports) to a wrapper, and restores the originals on exit.
Nothing under `src/` changes.

Each span is [name, start, end, parent], parent being the index of the
enclosing span or -1. Spans are kept in memory; `write_spans` saves
them when the run ends. Counts are derived only from the arguments seen
at the boundary. Wrapped functions are assumed to be entered from one
thread (enumeration workers call none of them).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("dynamics", "scans", "enumeration", "bounds", "parallel", "statevec", "cli")
ROOT_SPAN = "pass"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.leave(idx)

    def wrap(self, name: str | None, fn: Callable, count: Callable | None) -> Callable:
        """Wrapper recording a span named `name` (None: counts only) and
        calling count(counter, *args, **kwargs) on entry."""
        counts = self.counts

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                count(counts, *args, **kwargs)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counts, *args, **kwargs)
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(idx)

        return traced


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (children of one thread never
    overlap, so their sum is the part of the interval they cover)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child):
        out[name] += (end - start) - covered
    return dict(out)


def write_spans(path: Path, header: dict, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({**header, "fields": ["name", "start", "end", "parent"]}, fh)
        fh.write("\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- what gets traced -------------------------------------------------------------


def _args(fn: Callable, args, kwargs) -> dict:
    # signature() follows __wrapped__, so this also works on a wrapper
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_apply_sequence(c, space, seq):
    c["dynamics.apply_sequence.calls"] += 1
    c["dynamics.global_steps"] += sum(n for kind, n in seq.runs if kind.value == "g")


def _count_scan(c, *args, **kwargs):
    from partial_search import scans

    a = _args(scans.grk_scan_min, args, kwargs)
    space = a["space"]
    budget = a["budget"] if a["budget"] is not None else scans.default_budget(space)
    if not a["allow_k2"]:
        k2_hi = 0
    elif a["k2_cap"] is not None:
        k2_hi = a["k2_cap"]
    else:
        k2_hi = scans.default_k2_cap(space)
    c["scans.grk_scan_min.calls"] += 1
    c["scans.rows"] += max(budget, 0)
    c["scans.cells"] += sum(min(k2_hi, budget - 1 - k1) + 1 for k1 in range(budget))


def _count_enumerate(c, space, k_tot, workers=None):
    c["enumeration.enumerate_max_probability.calls"] += 1
    c["enumeration.leaves"] += 1 << k_tot


def _count_inner(c, N, l):
    c["parallel.k_evals"] += math.ceil(math.pi * math.sqrt(N / l) / 4.0) + 2


def _count_outer(c, N, l):
    c["parallel.k_evals"] += math.ceil(math.pi * math.sqrt(N) / 4.0)


def _count_oracle(c, state):
    c["statevec.queries"] += 1
    c["statevec.amp_updates"] += 1 << state.n


def _count_verify(c, *args, **kwargs):
    c["statevec.verify_subspace.calls"] += 1


def _count_cli_run(c, *args, **kwargs):
    c["cli.run.calls"] += 1


# (module, function, span name or None for count-only, counter)
TARGETS = (
    ("dynamics", "apply_sequence", "dynamics.apply_sequence", _count_apply_sequence),
    ("scans", "grk_scan_min", "scans.grk_scan_min", _count_scan),
    ("scans", "grk_max_block_probability", "scans.grk_max_block_probability", None),
    ("enumeration", "enumerate_max_probability", "enumeration.enumerate_max_probability", _count_enumerate),
    ("enumeration", "table_sweep", "enumeration.table_sweep", None),
    ("bounds", "min_expected_sweep", "bounds.min_expected_sweep", None),
    ("bounds", "pr_bound_comparison", "bounds.pr_bound_comparison", None),
    ("parallel", "compare_schemes", "parallel.compare_schemes", None),
    ("parallel", "hybrid_min", "parallel.hybrid_min", None),
    ("parallel", "grk_parallel_min", "parallel.grk_parallel_min", None),
    ("parallel", "inner_min", "parallel.inner_min", _count_inner),
    ("parallel", "outer_min", "parallel.outer_min", _count_outer),
    ("statevec", "verify_subspace", "statevec.verify_subspace", _count_verify),
    # a counter only: a span per oracle call would cost more than the call
    ("statevec", "apply_oracle", None, _count_oracle),
    ("cli", "run", "cli.run", _count_cli_run),
    ("cli", "render_csv", "cli.render", None),
    ("cli", "render_json", "cli.render", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every reference to each target inside the package."""
    import partial_search  # noqa: F401  (loads every module below)
    import partial_search.cli  # noqa: F401

    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "partial_search" or name.startswith("partial_search.")
    ]
    saved: list[tuple[object, str, object]] = []
    try:
        for mod_name, fn_name, span_name, count in TARGETS:
            orig = getattr(sys.modules[f"partial_search.{mod_name}"], fn_name)
            wrapper = tracer.wrap(span_name, orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


# -- per-layer metrics --------------------------------------------------------------

COUNT_METRICS = (
    "dynamics.apply_sequence.calls",
    "dynamics.global_steps",
    "scans.grk_scan_min.calls",
    "scans.rows",
    "scans.cells",
    "enumeration.enumerate_max_probability.calls",
    "enumeration.leaves",
    "parallel.k_evals",
    "statevec.verify_subspace.calls",
    "statevec.queries",
    "statevec.amp_updates",
    "cli.run.calls",
)
SELF_METRICS = (
    "dynamics.apply_sequence",
    "scans.grk_scan_min",
    "scans.grk_max_block_probability",
    "enumeration.enumerate_max_probability",
    "enumeration.table_sweep",
    "bounds.min_expected_sweep",
    "bounds.pr_bound_comparison",
    "parallel.compare_schemes",
    "parallel.hybrid_min",
    "parallel.grk_parallel_min",
    "parallel.inner_min",
    "parallel.outer_min",
    "statevec.verify_subspace",
    "cli.run",
    "cli.render",
)
# (metric, unit, numerator self time, denominator count, scale)
RATE_METRICS = (
    ("dynamics.ns_per_global_step", "ns", "dynamics.apply_sequence", "dynamics.global_steps", 1e9),
    ("dynamics.us_per_call", "us", "dynamics.apply_sequence", "dynamics.apply_sequence.calls", 1e6),
    ("scans.us_per_row", "us", "scans.grk_scan_min", "scans.rows", 1e6),
    ("enumeration.ns_per_leaf", "ns", "enumeration.enumerate_max_probability", "enumeration.leaves", 1e9),
    ("enumeration.us_per_call", "us", "enumeration.enumerate_max_probability", "enumeration.enumerate_max_probability.calls", 1e6),
    ("statevec.ns_per_amp_update", "ns", "statevec.verify_subspace", "statevec.amp_updates", 1e9),
)


def layer_metrics(spans: list[list], counts: Counter, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans and counts of `passes`
    traced passes, each under one root span named ROOT_SPAN.

    Rates whose count is zero (the workload never reaches that layer)
    are reported as 0. The layer self times plus trace.outside_s add up
    to trace.wall_s.
    """
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in COUNT_METRICS:
        out[name] = (counts[name] / passes, "count")
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (selfs.get(name, 0.0) / passes, "s")
    for metric, unit, num, den, scale in RATE_METRICS:
        total = counts[den]
        out[metric] = (selfs.get(num, 0.0) * scale / total if total else 0.0, unit)
    for layer in LAYERS:
        total = sum(t for name, t in selfs.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total / passes, "s")
    out["trace.outside_s"] = (selfs.get(ROOT_SPAN, 0.0) / passes, "s")
    wall = sum(end - start for name, start, end, _ in spans if name == ROOT_SPAN)
    out["trace.wall_s"] = (wall / passes, "s")
    return out
