"""Write expected.json: the discrete outputs the benchmark checks.

Tie sets, canonical sequences and (k1, k2) argmins are taken from the
program as it stands, for every call either scale of a workload can
make (the whole seed-drawn geometry range included). The README
enumerate example rows are read from README.md. Run from the repository
root:

    python3 bench/freeze.py

Regenerate only when a change is meant to alter these outputs; a speed
change that needs a new expected.json has changed the results.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import partial_search as ps  # noqa: E402

import workloads as w  # noqa: E402


def readme_enumerate_rows() -> list[dict]:
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("$ partial-search enumerate --n 8 --m 3 --ktot 4..5")
    body = []
    for line in lines[start + 1 :]:
        if line.startswith("```"):
            break
        if not line.startswith("#"):
            body.append(line)
    return list(csv.DictReader(body))


def cli_rows(argv) -> list[dict]:
    code, text = w.run_cli(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return w.parse_output(text, "csv")


def dump(out: dict) -> None:
    """One entry per line, sorted, so a diff shows which outputs moved."""
    lines = [f"{json.dumps(k)}: {json.dumps(out[k])}" for k in sorted(out)]
    w.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> None:
    out: dict = {}
    for scale in ("full", "tiny"):
        for n, m in (w.ENUM_FIXED,) + w.ENUM_DRAWN:
            space = ps.new_search_space(n, m)
            for k in w.ENUM_K[scale]:
                res = ps.enumerate_max_probability(space, k)
                out[w.enum_key(n, m, k)] = [s.token_spec() for s in res.optimal_sequences]

        size = w.SQRTN[scale]
        n = size["sweep_n"]
        out[w.sweep_key(n)] = [[r.m, r.k1, r.k2] for r in ps.min_expected_sweep(n)]
        n = size["compare_n"]
        results, skipped = ps.compare_schemes(1 << n, w.COMPARE_LS)
        out[w.compare_key(n)] = {
            "results": [[r.kind, r.l, r.k1, r.k2, r.queries] for r in results],
            "skipped": [[s.kind, s.l, s.reason] for s in skipped],
        }
        for n in size["hybrid_ns"]:
            space = ps.space_for_parallelism(n, w.HYBRID_L)
            for allow_k2 in (False, True):
                res = ps.hybrid_min(space, w.HYBRID_L, allow_k2=allow_k2)
                out[w.hybrid_key(n, allow_k2)] = [res.k1, res.k2]
        for n in size["pr_bound_ns"]:
            m, k_tot = w.pr_bound_point(n)
            (rec,) = ps.pr_bound_comparison(ps.new_search_space(n, m), [k_tot])
            out[w.pr_bound_key(n)] = [rec.k1, rec.k2]

    out["cli readme enumerate rows"] = readme_enumerate_rows()
    bounds, per_budget, compare, hybrid = w.README_EXAMPLES[5:9]
    out[w.cli_key(bounds)] = [[int(r[c]) for c in ("m", "k1", "k2")] for r in cli_rows(bounds)]
    out[w.cli_key(per_budget)] = [
        [int(r[c]) for c in ("k_tot", "k1", "k2")] for r in cli_rows(per_budget)
    ]
    out[w.cli_key(compare)] = [
        [r["scheme"], int(r["l"]), r["admissible"] == "true", w.as_int(r["k1"]), w.as_int(r["k2"])]
        for r in cli_rows(compare)
    ]
    (row,) = cli_rows(hybrid)
    out[w.cli_key(hybrid)] = [int(row["k1"]), int(row["k2"])]

    dump(out)
    longest = max(len(v) for k, v in out.items() if k.startswith("enumerate"))
    print(f"wrote {len(out)} entries to {w.EXPECTED_PATH} (largest tie set: {longest})")


if __name__ == "__main__":
    main()
