"""Benchmark of partial-search: three closed-loop workloads, one process each.

    python3 bench/run.py --workload enum-deep --seed 1 --seconds 30 --trace 0

Runs from the repository root against the sources in src/ (nothing to
build or install). One caller makes each call after the previous one
returns. All inputs come from --seed. After set-up (a warm-up pass
included), whole passes over the workload's calls repeat for about
--seconds seconds; every output of every pass is checked. Each call is
timed on its own, and right after it the same call into
bench/partial_search_ref, a frozen copy of the program as it was when
the benchmark was defined. wall_s is the program's fastest pass (each
call's fastest time, added up) scaled by the copy's: its fastest pass
in this run against its fastest pass on the baseline machine. setup_s
is scaled the same way, from fresh interpreters that import the program
or the copy between the passes. A shared host has slow phases of
seconds to minutes that move raw times far more than the bounds allow;
the program and the copy, timed side by side, see the same phase.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(half the time untraced, half traced, for trace.overhead_ratio). The
last stdout line is one JSON object: correct, attempted, failed,
metrics. Before it come a line per metric and the run record. A traced
run also writes its spans to .bench_out/trace-<workload>.jsonl.
See bench/README.md for the metrics and the baseline.
"""

from __future__ import annotations

import os
import sys

# fixed before numpy loads: two enumeration workers on a two-core box,
# and no OpenBLAS threads on top of them
PINS = {"PARTIAL_SEARCH_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 11  # fresh interpreters per package per run, spread over the passes
ERROR_FLOOR = 1e-16  # accuracy_digits tops out at 16

# fastest pass (per workload) and fastest set-up of the frozen copy on
# the baseline machine, rounded (bench/README.md): the host speed that
# wall_s and setup_s are scaled to
REF_WALL_S = {"enum-deep": 1.3, "sqrtn-scan": 1.3, "desk-session": 3.7}
REF_SETUP_S = 0.15

# a fresh interpreter pays the import and the lazy constant cache; the
# probe prints when it is done (perf_counter is system-wide monotonic)
# and how long the first bound_constants() call took
PROBE = (
    "import time, {0}; t0 = time.perf_counter(); "
    "{0}.bound_constants(); t1 = time.perf_counter(); print(t1, t1 - t0)"
)


def probe_setup(package: str = "partial_search") -> tuple[float, float]:
    """(set-up, first bound_constants() call) of a fresh interpreter
    importing `package`: the program, or the frozen copy."""
    path = SRC if package == "partial_search" else BENCH_DIR
    env = {**os.environ, "PYTHONPATH": str(path)}
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(package)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    done, first_call = map(float, out.stdout.split())
    return done - t0, first_call


class SetupProbes:
    """(set-up, first bound_constants() call) times of `total` fresh
    interpreters per package, launched between passes in step with the
    share of the run budget used, so that they sample the whole run.
    With `with_ref`, each program probe is paired with one of the copy,
    the two taking turns at going first."""

    def __init__(self, total: int, with_ref: bool) -> None:
        self.total = total
        self.with_ref = with_ref
        self.times: list[tuple[float, float]] = []
        self.ref_times: list[tuple[float, float]] = []

    def __call__(self, share: float) -> None:
        while len(self.times) < min(self.total, math.ceil(self.total * share)):
            ref_first = self.with_ref and len(self.times) % 2 == 1
            if ref_first:
                self.ref_times.append(probe_setup("partial_search_ref"))
            self.times.append(probe_setup())
            if self.with_ref and not ref_first:
                self.ref_times.append(probe_setup("partial_search_ref"))


class Tally:
    """Checked calls, wrong ones, and the worst probability error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.worst_error = 0.0

    def check(self, calls, outputs) -> None:
        for call, out in zip(calls, outputs):
            self.attempted += 1
            try:
                outcome = None if isinstance(out, Exception) else call.check(out)
            except Exception as exc:  # a malformed output is a wrong output
                outcome, out = None, exc
            if outcome is None or not outcome.ok:
                self.failed.append(f"{call.label}: {out!r}" if outcome is None else call.label)
            if outcome is not None and outcome.errors:
                self.worst_error = max(self.worst_error, *outcome.errors)


def run_pass(calls, with_ref: bool, ref_first: bool = False) -> tuple[list[float], list[float], list]:
    """Wall time and output of each call, in order, and with `with_ref`
    the wall time of the same call into the frozen copy, made right
    after the program's call (or right before it, with `ref_first`)."""
    times, ref_times, outputs = [], [], []

    def timed_ref() -> None:
        t0 = time.perf_counter()
        call.ref()
        ref_times.append(time.perf_counter() - t0)

    for call in calls:
        if with_ref and ref_first:
            timed_ref()
        t0 = time.perf_counter()
        try:
            outputs.append(call.run())
        except Exception as exc:  # recorded, and counted as a wrong output
            outputs.append(exc)
        times.append(time.perf_counter() - t0)
        if with_ref and not ref_first:
            timed_ref()
    return times, ref_times, outputs


def measure(
    calls, seconds: float, tally: Tally, tracer=None, between=None, with_ref: bool = False
) -> tuple[list[list[float]], list[list[float]]]:
    """Call times of back-to-back passes for about `seconds`, and of the
    frozen copy's calls with `with_ref`, the two taking turns at going
    first (at least one pass; no pass is started that would end past
    the budget by the median pass time).
    `between(share)` runs after each pass, outside the budget, with the
    share of the budget used so far."""
    passes: list[list[float]] = []
    ref_passes: list[list[float]] = []
    start = time.perf_counter()
    aside = 0.0  # time spent in `between`
    while True:
        ref_first = len(passes) % 2 == 1
        if tracer is None:
            times, ref_times, outputs = run_pass(calls, with_ref, ref_first)
        else:
            with tracer.span(spans.ROOT_SPAN):
                times, ref_times, outputs = run_pass(calls, with_ref, ref_first)
        passes.append(times)
        ref_passes.append(ref_times)
        tally.check(calls, outputs)
        used = time.perf_counter() - start - aside
        if between is not None:
            t0 = time.perf_counter()
            between(used / seconds)
            aside += time.perf_counter() - t0
        lengths = [sum(a) + sum(b) for a, b in zip(passes, ref_passes)]
        if used + statistics.median(lengths) > seconds:
            return passes, ref_passes


def fastest_pass(passes: list[list[float]]) -> float:
    """Sum over the calls of each call's fastest time in the passes."""
    return sum(map(min, zip(*passes)))


def scaling_efficiency(scale: str) -> float:
    """t(1 worker) / (2 t(2 workers)) for one fixed enumeration."""
    import partial_search as ps
    import workloads

    space = ps.new_search_space(*workloads.ENUM_FIXED)
    k = workloads.ENUM_K[scale][-1]
    elapsed = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        ps.enumerate_max_probability(space, k, workers=workers)
        elapsed[workers] = time.perf_counter() - t0
    return elapsed[1] / (2.0 * elapsed[2])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object plus a `summary`
    (lines for humans) and the run `record`."""
    import workloads

    calls = workloads.build(workload, seed, scale, ROOT)
    tally = Tally()
    tally.check(calls, run_pass(calls, with_ref=False)[2])  # warm-up
    probes = SetupProbes(SETUP_PROBES, with_ref=not trace)

    record = run_record(workload, seed, seconds, trace)
    metrics: dict[str, tuple[float, str]] = {}
    summary: list[str] = []
    if not trace:
        passes, ref_passes = measure(calls, seconds, tally, between=probes, with_ref=True)
        probes(1.0)
        wall, ref_wall = fastest_pass(passes), fastest_pass(ref_passes)
        metrics["wall_s"] = (wall * REF_WALL_S[workload] / ref_wall, "s")
        q1, med, q3 = quartiles([sum(p) for p in passes])
        summary.append(
            f"wall_s: fastest pass {wall:.4f} s (each of {len(calls)} calls' fastest time in "
            f"{len(passes)} passes), frozen copy's {ref_wall:.4f} s; "
            f"raw pass median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s"
        )
        setup = min(p[0] for p in probes.times)
        ref_setup = min(p[0] for p in probes.ref_times)
        metrics["setup_s"] = (setup * REF_SETUP_S / ref_setup, "s")
        summary.append(
            f"setup_s: fastest of {len(probes.times)} fresh interpreters {setup:.4f} s, "
            f"frozen copy's {ref_setup:.4f} s"
        )
        usage = resource.getrusage(resource.RUSAGE_SELF)
        metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
        digits = -math.log10(max(tally.worst_error, ERROR_FLOOR))
        metrics["accuracy_digits"] = (digits, "digits")
        summary.append(f"accuracy_digits: worst probability error {tally.worst_error:.3g}")
    else:
        plain = measure(calls, seconds / 2.0, tally, between=probes)[0]
        probes(1.0)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = measure(calls, seconds / 2.0, tally, tracer)[0]
        metrics.update(spans.layer_metrics(tracer.spans, tracer.counts, len(traced)))
        ratio = fastest_pass(traced) / fastest_pass(plain)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        summary.append(f"trace: {len(plain)} untraced and {len(traced)} traced passes")
        eff = scaling_efficiency(scale) if workload == "enum-deep" else 0.0
        metrics["enumeration.scaling_eff_w2"] = (eff, "ratio")
        first = statistics.median(p[1] for p in probes.times)
        metrics["bounds.bound_constants.first_call_s"] = (first, "s")
        spans_path = OUT_DIR / f"trace-{workload}.jsonl"
        spans.write_spans(spans_path, {"record": record}, tracer.spans)
        summary.append(f"trace: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    failed = len(tally.failed)
    ratio = failed / tally.attempted
    summary.append(f"error_ratio: {ratio:.6g} fraction ({failed} of {tally.attempted} checked calls wrong)")
    summary += [f"wrong: {label}" for label in tally.failed[:20]]
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "summary": summary,
        "record": record,
    }


# -- run record ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    import numpy

    try:
        return str(numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"])
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit() -> str:
    """HEAD from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas_version(),
        **{name: os.environ.get(name) for name in PINS},
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "partial_search" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for line in result.pop("summary"):
        print(line)
    print("run_record " + json.dumps(result.pop("record")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
