"""The three benchmark workloads, their inputs, and their output checks.

A workload is a list of Calls. Each call is made for two packages: a
thunk that calls into the program through `partial_search` module
attributes (looked up at call time, so a traced run sees the wrapped
functions), and the same thunk on `partial_search_ref`, the frozen copy
of the program that untraced runs time beside it. A check compares the
program's output with values frozen from the program (expected.json)
and with 50-digit references computed here, at set-up, outside the
timed region.

Each workload has two scales: "full" is what the benchmark measures,
"tiny" runs the same calls on small arguments for the self-check.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import partial_search as ps
import partial_search.cli  # noqa: F401  (ps.cli)
import partial_search_ref
import partial_search_ref.cli  # noqa: F401
import reference as ref

WORKLOADS = ("enum-deep", "sqrtn-scan", "desk-session")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# a checked probability counts as wrong beyond this distance from its
# 50-digit reference (the program's own tie tolerance)
PROB_TOL = 1e-9

# -- sizes -------------------------------------------------------------------------

ENUM_FIXED = (16, 8)
# the seed picks one more geometry from here; every cell is frozen
ENUM_DRAWN = tuple((n, m) for n in range(12, 21) for m in range(n // 2 - 2, n // 2 + 3))
ENUM_K = {"full": (22, 23, 24), "tiny": (8, 9, 10)}

SQRTN = {
    "full": {
        "sweep_n": 20,
        "compare_n": 22,
        "hybrid_ns": (18, 21, 24),
        "pr_bound_ns": (16, 20, 24, 28),
        "block_ns": (24, 30, 36),
    },
    "tiny": {
        "sweep_n": 10,
        "compare_n": 10,
        "hybrid_ns": (6, 9, 12),
        "pr_bound_ns": (8, 10, 12, 14),
        "block_ns": (8, 10, 12),
    },
}
COMPARE_LS = range(1, 7)
HYBRID_L = 3

DESK_CROSSCHECK_MAX_N = {"full": 10, "tiny": 4}
DESK_LARGE_VERIFY = {"full": (14, 7), "tiny": (6, 3)}
DESK_SEQUENCES = 200

# every CLI example of the README, in order; the verify seed is drawn
README_EXAMPLES = (
    ("angles", "--n", "8", "--m", "2"),
    ("simulate", "--n", "8", "--m", "2", "--seq", "l:1,g:1"),
    ("enumerate", "--n", "8", "--m", "3", "--ktot", "4..5"),
    ("tables", "--n", "8", "--which", "pr"),
    ("tables", "--n", "8", "--which", "e"),
    ("bounds", "--n", "20"),
    ("bounds", "--n", "20", "--m", "10", "--ktot-range", "380..420"),
    ("parallel", "--scheme", "compare", "--n", "6", "--l-range", "1..4"),
    ("parallel", "--scheme", "hybrid", "--n", "18", "--l", "3", "--no-k2"),
    ("verify", "--n", "10", "--m", "4"),
)
JSON_FORMS = ("enumerate", "tables", "verify")


def pr_bound_point(n: int) -> tuple[int, int]:
    """(m, k_tot) of the half-block point at alpha = pi/8."""
    return n // 2, round(math.pi * math.sqrt(2.0**n) / 8) + 1


# -- frozen values -------------------------------------------------------------------


def enum_key(n: int, m: int, k: int) -> str:
    return f"enumerate n={n} m={m} k={k}"


def sweep_key(n: int) -> str:
    return f"min_expected_sweep n={n}"


def compare_key(n: int) -> str:
    return f"compare_schemes n={n} l=1..6"


def hybrid_key(n: int, allow_k2: bool) -> str:
    return f"hybrid_min n={n} l={HYBRID_L} allow_k2={allow_k2}"


def pr_bound_key(n: int) -> str:
    m, k_tot = pr_bound_point(n)
    return f"pr_bound_comparison n={n} m={m} k={k_tot}"


def cli_key(argv: tuple[str, ...]) -> str:
    return "cli " + " ".join(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def load_reference_tables(root: Path):
    """The n = 8 grids of tests/reference_tables.py (FileNotFoundError
    when the tests are not there)."""
    path = root / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- calls and checks ------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    errors: list[float]  # absolute errors of checked probabilities


@dataclass
class Call:
    """`make(package)` returns the thunk that makes this call into the
    package: `run` for the program, `ref` for the frozen copy."""

    label: str
    make: Callable[[Any], Callable[[], Any]]
    check: Callable[[Any], Outcome]

    def __post_init__(self) -> None:
        self.run = self.make(ps)
        self.ref = self.make(partial_search_ref)


def _prob_outcome(ok: bool, pairs) -> Outcome:
    """pairs: (program value, 50-digit reference)."""
    errors = [ref.abs_error(v, r) for v, r in pairs]
    return Outcome(ok and all(e <= PROB_TOL for e in errors), errors)


def _grk_runs(k1: int, k2: int) -> ref.Runs:
    return (("g", k1), ("l", k2), ("g", 1))


# -- enum-deep -----------------------------------------------------------------------------


def _enum_call(n: int, m: int, k: int, expected: dict) -> Call:
    ties = expected[enum_key(n, m, k)]
    pr_ref = ref.block_probability(n, m, ref.parse_tokens(ties[0]))

    def check(res) -> Outcome:
        got = [s.token_spec() for s in res.optimal_sequences]
        ok = got == ties and res.k_tot == k
        ok &= math.isclose(res.expected_iterations, k / res.pr_max, rel_tol=1e-12)
        return _prob_outcome(ok, [(res.pr_max, pr_ref)])

    def make(p):
        space = p.new_search_space(n, m)
        return lambda: p.enumerate_max_probability(space, k)

    return Call(enum_key(n, m, k), make, check)


def enum_deep(rng: np.random.Generator, scale: str, expected: dict, root: Path) -> list[Call]:
    drawn = ENUM_DRAWN[int(rng.integers(len(ENUM_DRAWN)))]
    return [
        _enum_call(n, m, k, expected)
        for n, m in (ENUM_FIXED, drawn)
        for k in ENUM_K[scale]
    ]


# -- sqrtn-scan -----------------------------------------------------------------------------


def _sweep_call(n: int, expected: dict) -> Call:
    want = [tuple(r) for r in expected[sweep_key(n)]]
    refs = {m: ref.grk_probabilities(n, m, k1, k2)[0] for m, k1, k2 in want}

    def check(recs) -> Outcome:
        ok = [(r.m, r.k1, r.k2) for r in recs] == want
        pairs = [(r.k_tot / r.e_min, refs[r.m]) for r in recs]
        return _prob_outcome(ok, pairs)

    return Call(sweep_key(n), lambda p: lambda: p.min_expected_sweep(n), check)


def _scheme_refs(n: int, rows) -> dict:
    """50-digit pr_at_opt per (kind, l) from frozen (kind, l, k1, k2, ...) rows."""
    out = {}
    for kind, l, k1, k2 in rows:
        m = n - n // l if kind in ("grk", "hybrid") else None
        out[(kind, l)] = ref.scheme_probability(kind, n, m, l, k1, k2)
    return out


def _compare_call(n: int, expected: dict) -> Call:
    want = expected[compare_key(n)]
    want_results = [tuple(r) for r in want["results"]]
    want_skipped = [tuple(s) for s in want["skipped"]]
    refs = _scheme_refs(n, [r[:4] for r in want_results])

    def check(out) -> Outcome:
        results, skipped = out
        got = [(r.kind, r.l, r.k1, r.k2, r.queries) for r in results]
        ok = got == want_results
        ok &= [(s.kind, s.l, s.reason) for s in skipped] == want_skipped
        pairs = [(r.pr_at_opt, refs[(r.kind, r.l)]) for r in results]
        return _prob_outcome(ok, pairs)

    N = 1 << n
    return Call(compare_key(n), lambda p: lambda: p.compare_schemes(N, COMPARE_LS), check)


def _hybrid_call(n: int, allow_k2: bool, expected: dict) -> Call:
    k1, k2 = expected[hybrid_key(n, allow_k2)]
    m = ps.space_for_parallelism(n, HYBRID_L).m
    pr_ref = ref.scheme_probability("hybrid", n, m, HYBRID_L, k1, k2)

    def check(res) -> Outcome:
        return _prob_outcome((res.k1, res.k2) == (k1, k2), [(res.pr_at_opt, pr_ref)])

    def make(p):
        space = p.space_for_parallelism(n, HYBRID_L)
        return lambda: p.hybrid_min(space, HYBRID_L, allow_k2=allow_k2)

    return Call(hybrid_key(n, allow_k2), make, check)


def _pr_bound_call(n: int, expected: dict) -> Call:
    m, k_tot = pr_bound_point(n)
    k1, k2 = expected[pr_bound_key(n)]
    pr_ref = ref.block_probability(n, m, _grk_runs(k1, k2))

    def check(recs) -> Outcome:
        (rec,) = recs
        return _prob_outcome((rec.k1, rec.k2) == (k1, k2), [(rec.pr_numeric, pr_ref)])

    def make(p):
        space = p.new_search_space(n, m)
        return lambda: p.pr_bound_comparison(space, range(k_tot, k_tot + 1))

    return Call(pr_bound_key(n), make, check)


def _block_call(n: int, rng: np.random.Generator) -> Call:
    """g:k1,l:k2,g:1 a few steps from the closed-form unit-probability
    point (k1 = pi sqrt(N)/4 - eta sqrt(b), k2 = alpha sqrt(b))."""
    m = n // 2
    K, sqrt_b = 2.0 ** (n - m), math.sqrt(2.0**m)
    eta = 0.5 * math.sqrt(K) * math.atan(math.sqrt(3.0 * K - 4.0) / (K - 2.0))
    alpha = 0.5 * math.acos((K - 2.0) / (2.0 * (K - 1.0)))
    k1 = round(math.pi * math.sqrt(2.0**n) / 4.0 - eta * sqrt_b) + int(rng.integers(-8, 9))
    k2 = max(0, round(alpha * sqrt_b) + int(rng.integers(-2, 3)))
    tokens = f"g:{k1},l:{k2},g:1"
    pr_ref = ref.block_probability(n, m, _grk_runs(k1, k2))

    def check(pr) -> Outcome:
        return _prob_outcome(True, [(pr, pr_ref)])

    def make(p):
        space = p.new_search_space(n, m)
        seq = p.OperatorSequence.from_token_spec(tokens)
        return lambda: p.block_success_probability(space, seq)

    return Call(f"block_success_probability n={n} m={m} {tokens}", make, check)


def sqrtn_scan(rng: np.random.Generator, scale: str, expected: dict, root: Path) -> list[Call]:
    size = SQRTN[scale]
    calls = [_sweep_call(size["sweep_n"], expected), _compare_call(size["compare_n"], expected)]
    calls += [
        _hybrid_call(n, allow_k2, expected)
        for n in size["hybrid_ns"]
        for allow_k2 in (False, True)
    ]
    calls += [_pr_bound_call(n, expected) for n in size["pr_bound_ns"]]
    calls += [_block_call(n, rng) for n in size["block_ns"]]
    return calls


# -- desk-session --------------------------------------------------------------------------


def run_cli(argv: tuple[str, ...], package=ps) -> tuple[int, str]:
    """The package's cli.run in-process with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = package.cli.run(list(argv))
    return code, out.getvalue()


def parse_output(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def as_bool(value) -> bool:
    return value is True or value == "true"


def as_int(value) -> int | None:
    return None if value in (None, "") else int(value)


class _CliChecks:
    """Per-command checks of parsed CLI rows; each returns (ok, pairs)."""

    def __init__(self, expected: dict, tables):
        self.expected = expected
        self.grids = {"pr": tables.REFERENCE_PR, "e": tables.REFERENCE_E}
        self.render_exceptions = tables.RENDER_EXCEPTIONS
        self.m_columns = tables.M_COLUMNS
        self.k_rows = tables.K_ROWS
        self.refs: dict[str, Any] = {}
        readme = expected["cli readme enumerate rows"]
        self.refs["enumerate"] = {
            int(r["k_tot"]): ref.block_probability(8, 3, ref.parse_tokens(r["tokens"]))
            for r in readme
        }
        self.refs["simulate"] = ref.final_state(8, 2, ref.parse_tokens("l:1,g:1"))
        sweep = expected[cli_key(README_EXAMPLES[5])]
        self.refs["bounds"] = {m: ref.grk_probabilities(20, m, k1, k2)[0] for m, k1, k2 in sweep}
        per_budget = expected[cli_key(README_EXAMPLES[6])]
        self.refs["bounds_ktot"] = {
            k: ref.block_probability(20, 10, _grk_runs(k1, k2)) for k, k1, k2 in per_budget
        }
        compare = expected[cli_key(README_EXAMPLES[7])]
        self.refs["compare"] = _scheme_refs(6, [(r[0], r[1], r[3], r[4]) for r in compare if r[2]])
        k1, k2 = expected[cli_key(README_EXAMPLES[8])]
        self.refs["hybrid"] = ref.scheme_probability("hybrid", 18, 12, 3, k1, k2)

    def angles(self, argv, rows):
        (row,) = rows
        ok = [as_int(row[c]) for c in ("n", "m", "N", "b", "K")] == [8, 2, 256, 4, 64]
        return ok, []

    def simulate(self, argv, rows):
        (row,) = rows
        t, _, bbar = self.refs["simulate"]
        pairs = [
            (float(row["block_probability"]), 1 - bbar**2),
            (float(row["target_probability"]), t**2),
        ]
        return row["tokens"] == "l:1,g:1", pairs

    def enumerate(self, argv, rows):
        readme = self.expected["cli readme enumerate rows"]
        fields = ("k_tot", "pr_percent", "e_rendered", "sequence", "tokens", "is_grk", "num_ties")
        got = [{f: str(r[f]).lower() for f in fields} for r in rows]
        want = [{f: r[f].lower() for f in fields} for r in readme]
        pairs = [(float(r["pr_max"]), self.refs["enumerate"][int(r["k_tot"])]) for r in rows]
        return got == want, pairs

    def tables(self, argv, rows):
        which = argv[argv.index("--which") + 1]
        grid = self.grids[which]
        cells = {(int(r["m"]), int(r["k_tot"])): str(r["value"]) for r in rows}
        ok = len(cells) == len(self.m_columns) * len(self.k_rows)
        for k in self.k_rows:
            for j, m in enumerate(self.m_columns):
                got = cells.get((m, k))
                allowed = {grid[k][j]}
                if which == "pr" and (m, k) in self.render_exceptions:
                    allowed.add(self.render_exceptions[(m, k)])
                ok &= got in allowed
        return ok, []

    def bounds(self, argv, rows):
        want = self.expected[cli_key(argv)]
        if "--ktot-range" in argv:
            got = [[int(r["k_tot"]), int(r["k1"]), int(r["k2"])] for r in rows]
            refs = self.refs["bounds_ktot"]
            pairs = [(float(r["pr_numeric"]), refs[int(r["k_tot"])]) for r in rows]
        else:
            got = [[int(r["m"]), int(r["k1"]), int(r["k2"])] for r in rows]
            refs = self.refs["bounds"]
            pairs = [(int(r["k_tot"]) / float(r["e_min"]), refs[int(r["m"])]) for r in rows]
        return got == want, pairs

    def parallel(self, argv, rows):
        want = self.expected[cli_key(argv)]
        if "--no-k2" in argv:
            (row,) = rows
            pairs = [(float(row["pr_at_opt"]), self.refs["hybrid"])]
            return [int(row["k1"]), int(row["k2"])] == want, pairs
        got = [
            [r["scheme"], int(r["l"]), as_bool(r["admissible"]), as_int(r["k1"]), as_int(r["k2"])]
            for r in rows
        ]
        refs = self.refs["compare"]
        pairs = [
            (float(r["pr_at_opt"]), refs[(r["scheme"], int(r["l"]))])
            for r in rows
            if as_bool(r["admissible"])
        ]
        return got == want, pairs

    def verify(self, argv, rows):
        (row,) = rows
        return as_bool(row["passed"]), []


def _cli_call(argv: tuple[str, ...], fmt: str, checks: _CliChecks) -> Call:
    full = argv + (("--format", "json") if fmt == "json" else ())

    def check(out) -> Outcome:
        code, text = out
        if code != 0:
            return Outcome(False, [])
        ok, pairs = getattr(checks, argv[0])(argv, parse_output(text, fmt))
        return _prob_outcome(ok, pairs)

    return Call(cli_key(full), lambda p: lambda: run_cli(full, p), check)


def _verify_call(n: int, m: int, seed: int) -> Call:
    def check(rep) -> Outcome:
        return Outcome(rep["passed"] and not rep["failures"], [])

    return Call(
        f"verify_subspace n={n} m={m} seed={seed}",
        lambda p: lambda: p.verify_subspace(n, m, num_random_sequences=DESK_SEQUENCES, seed=seed),
        check,
    )


def desk_session(rng: np.random.Generator, scale: str, expected: dict, root: Path) -> list[Call]:
    verify_seed = int(rng.integers(1 << 31))
    checks = _CliChecks(expected, load_reference_tables(root))
    examples = [
        argv + ("--seed", str(verify_seed)) if argv[0] == "verify" else argv
        for argv in README_EXAMPLES
    ]
    calls = [_cli_call(argv, "csv", checks) for argv in examples]
    calls += [_cli_call(argv, "json", checks) for argv in examples if argv[0] in JSON_FORMS]
    max_n = DESK_CROSSCHECK_MAX_N[scale]
    calls += [
        _verify_call(n, m, int(rng.integers(1 << 31)))
        for n in range(1, max_n + 1)
        for m in range(n)
    ]
    calls.append(_verify_call(*DESK_LARGE_VERIFY[scale], int(rng.integers(1 << 31))))
    return calls


BUILDERS = {"enum-deep": enum_deep, "sqrtn-scan": sqrtn_scan, "desk-session": desk_session}


def build(workload: str, seed: int, scale: str, root: Path) -> list[Call]:
    """The workload's calls for this seed; all inputs come from the seed."""
    rng = np.random.default_rng(seed)
    return BUILDERS[workload](rng, scale, load_expected(), root)
