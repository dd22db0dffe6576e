"""Self-check of the benchmark: self-time arithmetic, the rebinding of
traced functions, and a tiny-size smoke pass of every workload.

    python3 -m pytest bench/test_selfcheck.py -q
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402  (sets the thread pins before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402

import partial_search as ps  # noqa: E402
import partial_search_ref  # noqa: E402
from partial_search import bounds, parallel, scans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["pass", 0.0, 10.0, -1],
        ["a.f", 1.0, 4.0, 0],
        ["b.g", 2.0, 3.0, 1],
        ["a.f", 5.0, 9.0, 0],
        ["b.g", 5.5, 6.0, 3],
        ["b.g", 7.0, 8.5, 3],
    ]
    assert spans.self_times(tree) == pytest.approx(
        {"pass": 3.0, "a.f": 3.0 - 1.0 + 4.0 - 2.0, "b.g": 1.0 + 0.5 + 1.5}
    )
    assert sum(spans.self_times(tree).values()) == pytest.approx(10.0)


def test_layer_metrics_add_up_to_the_traced_wall_time():
    tree = [
        ["pass", 0.0, 4.0, -1],
        ["cli.run", 0.5, 3.5, 0],
        ["statevec.verify_subspace", 1.0, 3.0, 1],
        ["dynamics.apply_sequence", 1.5, 2.0, 2],
        ["pass", 10.0, 12.0, -1],
        ["cli.run", 10.0, 11.0, 4],
    ]
    counts = Counter({"dynamics.apply_sequence.calls": 2, "dynamics.global_steps": 10})
    m = spans.layer_metrics(tree, counts, passes=2)
    layers = sum(m[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert m["trace.wall_s"][0] == pytest.approx(3.0)
    assert layers + m["trace.outside_s"][0] == pytest.approx(m["trace.wall_s"][0])
    assert m["cli.self_s"][0] == pytest.approx((3.0 - 2.0 + 1.0) / 2)
    assert m["dynamics.ns_per_global_step"][0] == pytest.approx(0.5 * 1e9 / 10)
    assert m["scans.us_per_row"][0] == 0.0  # layer never reached


def test_installed_rebinds_every_copy_and_restores():
    original = scans.grk_scan_min
    assert bounds.grk_scan_min is original and parallel.grk_scan_min is original
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert scans.grk_scan_min is not original
        assert bounds.grk_scan_min is scans.grk_scan_min is parallel.grk_scan_min
        assert ps.hybrid_min is parallel.hybrid_min
        parallel.hybrid_min(parallel.space_for_parallelism(6, 3), 3)
        assert partial_search_ref.scans.grk_scan_min is not scans.grk_scan_min  # copy untraced
    assert scans.grk_scan_min is original and bounds.grk_scan_min is original
    names = [s[0] for s in tracer.spans]
    assert names == ["parallel.hybrid_min", "scans.grk_scan_min"]
    assert tracer.spans[1][3] == 0  # the scan ran inside the hybrid call
    assert tracer.counts["scans.grk_scan_min.calls"] == 1
    space = parallel.space_for_parallelism(6, 3)
    assert tracer.counts["scans.rows"] == scans.default_budget(space)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_pass_reports_every_metric(workload):
    plain = run.run(workload, seed=3, seconds=0.01, trace=False, scale="tiny")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = plain["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

    traced = run.run(workload, seed=3, seconds=0.01, trace=True, scale="tiny")
    assert traced["correct"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v in metrics.values())
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["trace.outside_s"] == pytest.approx(metrics["trace.wall_s"])

    again = run.run(workload, seed=3, seconds=0.01, trace=True, scale="tiny")
    for name in spans.COUNT_METRICS:
        assert again["metrics"][name] == traced["metrics"][name]


def test_missing_sources_fail_without_a_result(tmp_path, capsys):
    missing = tmp_path / "src"
    saved = run.SRC
    run.SRC = missing
    try:
        code = run.main(["--workload", "enum-deep", "--seed", "1", "--seconds", "1"])
    finally:
        run.SRC = saved
    assert code == 2
    assert capsys.readouterr().out == ""
