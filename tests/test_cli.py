"""End-to-end checks of the command-line interface.

Commands run in-process through run() so that exit codes, stdout, and
stderr are all observable; one subprocess test covers the installed
entry point.
"""

import contextlib
import csv
import io
import json
import math
import re
import shutil
import subprocess
import time
from dataclasses import asdict
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partial_search import (
    OperatorSequence,
    ParameterError,
    apply_sequence,
    block_success_probability,
    grk_parallel_expected,
    grk_parallel_min,
    hybrid_expected,
    hybrid_min,
    inner_min,
    new_search_space,
    outer_min,
    space_for_parallelism,
)
from partial_search.cli import build_parser, parse_range, run


def run_cli(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    """Split a CSV emission into (comment dict, list of row dicts)."""
    comments = {}
    body_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        else:
            body_lines.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body_lines))))
    return comments, rows


# -- argument plumbing ---------------------------------------------------------


def test_parse_range():
    assert parse_range("3..7") == range(3, 8)
    assert parse_range("5") == range(5, 6)
    assert list(parse_range("2..2")) == [2]
    with pytest.raises(ParameterError):
        parse_range("7..3")
    with pytest.raises(ValueError):
        parse_range("x..y")


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["tofu"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    argv = ("enumerate", "--n", "8", "--m", "3", "--ktot", "4..5", "--format", "json")
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first[0] == 0 and first[1]
    assert second == first
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0 and out.startswith("usage: partial-search")
    rc, out, err = run_cli(capsys, "angles", "--n", "8", "--m", "2", "--bogus")
    assert (rc, out) == (2, "") and "--bogus" in err
    assert run_cli(capsys, "angles", "--n", "8", "--m", "2")[0] == 0


def test_usage_errors_return_2(capsys):
    rc, _, err = run_cli(capsys, "nonsense")
    assert rc == 2
    rc, _, err = run_cli(capsys, "angles", "--n", "8")  # missing --m
    assert rc == 2
    assert "required" in err


def test_domain_errors_return_1(capsys):
    rc, out, err = run_cli(capsys, "angles", "--n", "70", "--m", "2")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")

    rc, _, err = run_cli(capsys, "simulate", "--n", "8", "--m", "2", "--seq", "q:1")
    assert rc == 1
    assert err.startswith("error:")

    rc, _, err = run_cli(capsys, "enumerate", "--n", "8", "--m", "2", "--ktot", "31")
    assert rc == 1

    rc, _, err = run_cli(capsys, "bounds", "--n", "8", "--ktot-range", "2..4")
    assert rc == 2  # a missing companion flag is a usage error
    assert "--m" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("parallel", "--scheme", "compare", "--n", "-1"),
        ("parallel", "--scheme", "inner", "--n", "-1", "--l", "1"),
        ("parallel", "--scheme", "outer", "--n", "1100", "--l", "1"),
        ("parallel", "--scheme", "outer", "--n", "100", "--l", "1"),
        ("parallel", "--scheme", "inner", "--n", "0", "--l", "1"),
        ("bounds", "--n", "0"),
        ("bounds", "--n", "-4"),
        ("tables", "--n", "0", "--which", "pr"),
        ("tables", "--n", "-3", "--which", "e"),
    ],
)
def test_n_outside_1_to_62_is_a_domain_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "n must be in [1, 62]" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "--n", "1", "--which", "pr"),
        ("tables", "--n", "2", "--which", "e"),
        ("bounds", "--n", "1"),
    ],
)
def test_empty_default_m_range_is_a_domain_error(capsys, argv):
    # tables defaults to m = 2..n-1 and bounds to m = 1..n-1
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: empty m") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "8", "--m", "2", "--ktot", "x"),
        ("enumerate", "--n", "8", "--m", "2", "--ktot", "3..x"),
        ("enumerate", "--n", "8", "--m", "2", "--ktot", "5..3"),
        ("tables", "--which", "pr", "--m-range", "2..y"),
        ("tables", "--which", "e", "--k-range", "2.5..4"),
        ("bounds", "--n", "8", "--m", "4", "--ktot-range", "2..."),
        ("parallel", "--scheme", "compare", "--n", "6", "--l-range", "one..4"),
    ],
)
def test_bad_range_text_is_a_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "range" in err


@pytest.mark.parametrize("flag", ["--sequences", "--max-k"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_counts_below_one_are_usage_errors(capsys, flag, count):
    rc, out, err = run_cli(capsys, "verify", "--n", "6", "--m", "2", flag, count)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_tol_not_finite_and_nonnegative_is_a_usage_error(capsys, tol):
    rc, out, err = run_cli(capsys, "verify", "--n", "6", "--m", "2", "--tol", tol)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_negative_seed_is_a_usage_error(capsys):
    # numpy's default_rng refuses a negative seed with a ValueError
    rc, out, err = run_cli(capsys, "verify", "--n", "4", "--m", "2", "--seed", "-1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--scheme", "compare", "--n", "18", "--l-range", "3..3", "--no-k2"),
        ("--scheme", "grk", "--n", "18", "--l", "3", "--no-k2"),
        ("--scheme", "compare", "--n", "6", "--l", "2"),
        ("--scheme", "outer", "--n", "6", "--l", "2", "--l-range", "1..4"),
    ],
)
def test_parallel_flags_that_do_not_apply_are_usage_errors(capsys, argv):
    # --no-k2 is hybrid-only, --l single-scheme-only, --l-range compare-only
    rc, out, err = run_cli(capsys, "parallel", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -- column schema ---------------------------------------------------------------

_SCHEME_COLUMNS = [
    "scheme", "l", "admissible", "reason", "k1", "k2", "queries", "e_min", "pr_at_opt",
]
_ENUMERATE_COLUMNS = [
    "k_tot", "pr_max", "pr_percent", "expected_iterations", "e_rendered",
    "sequence", "tokens", "is_grk", "num_ties",
]
_TIES_COLUMNS = [
    "k_tot", "tie_index", "pr_max", "pr_percent", "expected_iterations",
    "sequence", "tokens", "is_grk",
]


@pytest.mark.parametrize(
    "argv, csv_columns, json_keys",
    [
        (
            ("angles", "--n", "4", "--m", "2"),
            ["n", "m", "N", "b", "K", "theta1", "theta2", "gamma",
             "sin_theta1", "sin_theta2", "sin_gamma"],
            None,
        ),
        (
            ("simulate", "--n", "4", "--m", "2", "--seq", "g:1"),
            ["n", "m", "tokens", "product", "queries", "block_probability",
             "target_probability", "amp_t", "amp_bt", "amp_bbar"],
            None,
        ),
        (("enumerate", "--n", "4", "--m", "2", "--ktot", "2..3"), _ENUMERATE_COLUMNS, None),
        (
            ("enumerate", "--n", "4", "--m", "2", "--ktot", "2..3", "--all-ties"),
            _TIES_COLUMNS,
            None,
        ),
        (
            ("tables", "--n", "4", "--which", "pr", "--m-range", "2..3", "--k-range", "2..3"),
            ["n", "m", "k_tot", "value", "sequence", "is_grk"],
            None,
        ),
        (
            ("bounds", "--n", "6"),
            ["m", "e_min", "k1", "k2", "k_tot", "bound_narrow", "bound_wide",
             "bound_selected", "unit_probability_reference"],
            None,
        ),
        (
            ("bounds", "--n", "6", "--m", "3", "--ktot-range", "3..4"),
            ["k_tot", "alpha", "pr_numeric", "pr_bound", "gap", "k1", "k2",
             "k2_rule_floor", "k2_rule_round"],
            None,
        ),
        (("parallel", "--scheme", "outer", "--n", "4", "--l", "2"), _SCHEME_COLUMNS, None),
        (
            ("parallel", "--scheme", "compare", "--n", "4", "--l-range", "1..3"),
            _SCHEME_COLUMNS,
            None,
        ),
        (
            ("verify", "--n", "4", "--m", "2", "--sequences", "2"),
            ["n", "m", "max_deviation", "worst_sequence", "worst_target_index",
             "num_failures", "passed"],
            ["n", "m", "sequences", "max_k", "tol", "seed", "max_deviation",
             "worst_case", "failures", "passed"],
        ),
    ],
)
def test_column_schema(capsys, argv, csv_columns, json_keys):
    # json_keys None: the JSON rows carry the CSV columns
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    header = next(line for line in out.splitlines() if not line.startswith("# "))
    assert header.split(",") == csv_columns
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) >= 1
    for row in rows:
        assert list(row) == (json_keys or csv_columns)


# -- angles / simulate ---------------------------------------------------------


def test_angles_csv_values(capsys):
    rc, out, _ = run_cli(capsys, "angles", "--n", "8", "--m", "2")
    assert rc == 0
    comments, rows = parse_csv(out)
    assert comments["schema_version"] == "1"
    assert comments["command"] == "angles"
    assert comments["n"] == "8"
    row = rows[0]
    assert row["N"] == "256"
    assert row["b"] == "4"
    assert row["K"] == "64"
    assert float(row["sin_theta1"]) == 1 / 16
    assert float(row["sin_theta2"]) == 1 / 2
    assert float(row["sin_gamma"]) == 1 / 8
    assert float(row["theta1"]) == math.asin(1 / 16)


def test_angles_sines_are_correctly_rounded(capsys):
    rc, out, _ = run_cli(capsys, "angles", "--n", "33", "--m", "12")
    assert rc == 0
    row = parse_csv(out)[1][0]
    ctx = mpmath.MPContext()
    ctx.dps = 50
    for col, x in (("sin_theta1", 33), ("sin_theta2", 12), ("sin_gamma", 21)):
        assert float(row[col]) == float(ctx.power(2, ctx.mpf(-x) / 2)), col


def test_simulate_reports_exact_amplitudes(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--n", "8", "--m", "2", "--seq", "l:1,g:1"
    )
    assert rc == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert row["product"] == "G_8G_2"
    assert row["queries"] == "2"

    space = new_search_space(8, 2)
    st = apply_sequence(space, OperatorSequence.from_token_spec("l:1,g:1"))
    # 17-significant-digit cells round-trip to the exact float
    assert float(row["block_probability"]) == 1.0 - st.amp_bbar**2
    assert float(row["amp_t"]) == st.amp_t
    assert float(row["amp_bt"]) == st.amp_bt
    assert float(row["amp_bbar"]) == st.amp_bbar


def test_simulate_clamps_probabilities(capsys):
    # amp_t rounds to 1.0000000000000002, whose square exceeds 1
    seq = "g:5316501,l:3439,g:60149"
    rc, out, _ = run_cli(capsys, "simulate", "--n", "2", "--m", "1", "--seq", seq)
    assert rc == 0
    row = parse_csv(out)[1][0]
    assert float(row["amp_t"]) > 1.0
    assert row["target_probability"] == "1" and row["block_probability"] == "1"
    space = new_search_space(2, 1)
    state = apply_sequence(space, OperatorSequence.from_token_spec(seq))
    assert state.probabilities()[1] == 1.0


def test_simulate_token_normalization(capsys):
    # adjacent same-type tokens merge in the echoed spec
    rc, out, _ = run_cli(
        capsys, "simulate", "--n", "6", "--m", "3", "--seq", "g:1,g:2,l:1"
    )
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0]["tokens"] == "g:3,l:1"
    assert rows[0]["product"] == "G_3G_6^3"


# -- enumerate / tables --------------------------------------------------------


def test_enumerate_tokens_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "8", "--m", "4", "--ktot", "6")
    assert rc == 0
    _, rows = parse_csv(out)
    row = rows[0]
    rc2, out2, _ = run_cli(
        capsys, "simulate", "--n", "8", "--m", "4", "--seq", row["tokens"]
    )
    assert rc2 == 0
    _, rows2 = parse_csv(out2)
    assert float(rows2[0]["block_probability"]) == float(row["pr_max"])
    assert rows2[0]["product"] == row["sequence"]


def test_enumerate_range_and_ties(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--n", "4", "--m", "2", "--ktot", "2..4", "--all-ties"
    )
    assert rc == 0
    _, rows = parse_csv(out)
    ks = {int(r["k_tot"]) for r in rows}
    assert ks == {2, 3, 4}
    # tie_index restarts at 0 for every budget
    assert [int(r["tie_index"]) for r in rows if r["k_tot"] == "2"][0] == 0


def test_tables_matches_direct_grid(capsys):
    rc, out, _ = run_cli(
        capsys, "tables", "--which", "pr", "--m-range", "2..3", "--k-range", "2..3"
    )
    assert rc == 0
    comments, rows = parse_csv(out)
    assert comments["which"] == "pr"
    cells = {(int(r["m"]), int(r["k_tot"])): r["value"] for r in rows}
    assert cells[(2, 2)] == "10.5747"
    assert len(rows) == 4


def test_csv_and_json_agree(capsys):
    args = ("enumerate", "--n", "8", "--m", "3", "--ktot", "4..5")
    rc, out_csv, _ = run_cli(capsys, *args)
    rc2, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert rc == rc2 == 0

    _, csv_rows = parse_csv(out_csv)
    doc = json.loads(out_json)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "enumerate"
    assert doc["parameters"]["n"] == 8
    assert len(doc["rows"]) == len(csv_rows) == 2
    for jrow, crow in zip(doc["rows"], csv_rows):
        assert jrow["k_tot"] == int(crow["k_tot"])
        assert jrow["pr_max"] == float(crow["pr_max"])
        assert jrow["expected_iterations"] == float(crow["expected_iterations"])
        assert jrow["sequence"] == crow["sequence"]
        assert jrow["is_grk"] is (crow["is_grk"] == "true")


@pytest.mark.parametrize(
    "argv",
    [
        ("angles", "--n", "8", "--m", "2"),
        ("simulate", "--n", "8", "--m", "2", "--seq", "g:1"),
        ("bounds", "--n", "8"),
        ("parallel", "--scheme", "outer", "--n", "8", "--l", "2"),
        ("verify", "--n", "6", "--m", "2", "--sequences", "1"),
        ("enumerate", "--n", "8", "--m", "3", "--ktot", "4"),
        ("tables", "--n", "6", "--which", "e", "--m-range", "2..4"),
    ],
)
def test_no_subcommand_takes_workers(capsys, argv):
    # the enumeration is serial: no subcommand has a worker setting
    rc, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert (rc, out) == (2, "")
    assert "--workers" in err


def test_tie_cap_exits_1(capsys, monkeypatch):
    from partial_search import enumeration

    monkeypatch.setattr(enumeration, "_TIE_CAP", 1000)
    rc, out, err = run_cli(capsys, "enumerate", "--n", "1", "--m", "0", "--ktot", "12")
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "candidate ties" in err


# -- bounds / parallel ---------------------------------------------------------


def test_bounds_sweep_modes(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--n", "10")
    assert rc == 0
    _, rows = parse_csv(out)
    assert [int(r["m"]) for r in rows] == list(range(1, 10))
    for r in rows:
        selected = float(r["bound_selected"])
        branch = "bound_narrow" if int(r["m"]) <= 5 else "bound_wide"
        assert selected == float(r[branch])

    rc, out, _ = run_cli(capsys, "bounds", "--n", "10", "--m", "5")
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0]["m"] == "5"

    rc, out, _ = run_cli(
        capsys, "bounds", "--n", "10", "--m", "5", "--ktot-range", "4..8"
    )
    assert rc == 0
    _, rows = parse_csv(out)
    assert [int(r["k_tot"]) for r in rows] == [4, 5, 6, 7, 8]
    for r in rows:
        # the estimate is asymptotic, so only the bookkeeping is exact here
        assert float(r["gap"]) == float(r["pr_bound"]) - float(r["pr_numeric"])
        assert int(r["k1"]) + int(r["k2"]) + 1 == int(r["k_tot"])


def test_parallel_single_scheme(capsys):
    rc, out, _ = run_cli(capsys, "parallel", "--scheme", "outer", "--n", "10", "--l", "4")
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0]["scheme"] == "outer"
    assert rows[0]["admissible"] == "true"
    assert float(rows[0]["e_min"]) > 0

    rc, _, err = run_cli(capsys, "parallel", "--scheme", "grk", "--n", "10", "--l", "3")
    assert rc == 1
    assert err.startswith("error:")

    rc, _, err = run_cli(capsys, "parallel", "--scheme", "inner", "--n", "10")
    assert rc == 2  # missing --l

    for scheme in ("inner", "outer"):
        rc, out, err = run_cli(
            capsys, "parallel", "--scheme", scheme, "--n", "20", "--l", "0"
        )
        assert (rc, out, err) == (1, "", "error: parallelism l must be >= 1\n")


@pytest.mark.parametrize(
    "scheme, n, l",
    [("inner", 62, 2), ("outer", 62, 1), ("outer", 58, 1)],
)
def test_inner_and_outer_reach_n_62(capsys, scheme, n, l):
    # the optimum is one stationarity root, not a loop over ~1e9 k
    t0 = time.perf_counter()
    rc, out, err = run_cli(
        capsys, "parallel", "--scheme", scheme, "--n", str(n), "--l", str(l)
    )
    assert time.perf_counter() - t0 < 10.0
    assert (rc, err) == (0, "")
    _, rows = parse_csv(out)
    assert float(rows[0]["e_min"]) / math.sqrt(2**n / l) == pytest.approx(
        0.690, abs=1e-3
    )


@pytest.mark.parametrize(
    "scheme, expected", [("hybrid", hybrid_expected), ("grk", grk_parallel_expected)]
)
def test_block_schemes_reach_n_62(capsys, scheme, expected):
    # at l = 1 (m = 0) the pruned scan runs to completion at n = 62. Its
    # e_min is the least expectation of a window checked one
    # apply_sequence call per cell. The window's argmin is not asserted:
    # its nine cells agree to about 4e-16 relative, so rounding decides it
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "parallel", "--scheme", scheme, "--n", "62", "--l", "1")
    assert time.perf_counter() - t0 < 10.0
    assert (rc, err) == (0, "")
    _, (row,) = parse_csv(out)
    k1, k2 = int(row["k1"]), int(row["k2"])
    space = new_search_space(62, 0)
    window = [expected(space, 1, j, k2) for j in range(k1 - 4, k1 + 5)]
    assert float(row["e_min"]) == pytest.approx(min(window), rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "62", "--m", "61"),
        ("parallel", "--scheme", "hybrid", "--n", "62", "--l", "62"),
        ("bounds", "--n", "62"),
        ("parallel", "--scheme", "compare", "--n", "48", "--l-range", "1..24"),
        ("parallel", "--scheme", "compare", "--n", "62", "--l-range", "1..8"),
        ("bounds", "--n", "48", "--m", "24", "--ktot-range", "8400000..8400000"),
    ],
)
def test_oversized_scans_exit_1_promptly(capsys, argv):
    # at n = 62, m = 61 a scan has 2.4e9 k2 columns, over the column cap,
    # so it is refused before it starts; the sweeps check every m (bounds,
    # from m = 41 at n = 62) or l (compare, l = 24 at n = 48) before
    # scanning any. compare at n = 62 passes that check (72,794 columns at
    # l = 2) and finishes l = 1; its l = 2 grk scan then reaches the cap on
    # evaluated cells within seconds, as the columns stay nearly tied. The
    # budget of 8.4e6 splits is just over the 2^23 split cap: evaluating it
    # takes about 1 s and 0.6 GB
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 10.0
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "cap" in err


_HUGE = "1..1000000000000000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "--n", "8", "--m", "2", "--ktot", _HUGE), "capped at 30"),
        (("tables", "--which", "pr", "--k-range", _HUGE), "capped at 30"),
        (("tables", "--which", "pr", "--m-range", _HUGE), "0 <= m < n"),
        (("bounds", "--n", "8", "--m", "2", "--ktot-range", _HUGE), "cap of 2^23"),
        (("simulate", "--n", "8", "--m", "2", "--seq", "g:" + "9" * 400), "2^53"),
        (("simulate", "--n", "8", "--m", "2", "--seq", "g:" + "9" * 5000), "2^53"),
        (("simulate", "--n", "8", "--m", "2", "--seq", "g:9007199254740993"), "2^53"),
        (("parallel", "--scheme", "compare", "--n", "8", "--l-range", _HUGE), "min(N, 64) = 64"),
    ],
    ids=["enumerate", "tables-k", "tables-m", "bounds", "g-400", "g-5000", "g-2^53+1", "compare-l"],
)
def test_huge_ranges_and_run_counts_exit_1(capsys, argv, message):
    # a range is checked against its cap value by value, never listed
    # whole, and a run count a double cannot hold is refused before use
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 10.0
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("n, top", [(2, 4), (3, 8), (8, 64), (40, 64)])
def test_compare_l_range_is_capped_at_min_n_64(capsys, n, top):
    # l up to min(N, 64), the default range's upper end, runs; one more
    # exits 1 with one error line before any scheme is scanned
    rc, out, err = run_cli(capsys, "parallel", "--scheme", "compare", "--n", str(n), "--l-range", f"{top}..{top}")
    assert (rc, err) == (0, "")
    assert parse_csv(out)[0]["l_range"] == f"{top}..{top}"
    rc, out, err = run_cli(capsys, "parallel", "--scheme", "compare", "--n", str(n), "--l-range", f"1..{top + 1}")
    assert (rc, out) == (1, "")
    assert err == f"error: --l-range capped at l <= min(N, 64) = {top}\n"


def test_over_long_seq_token_is_echoed_short(capsys):
    # the 5,000-digit count still exits 1 on the 2^53 cap, and its one
    # error line echoes only the token's first 40 characters
    rc, out, err = run_cli(capsys, "simulate", "--n", "8", "--m", "2", "--seq", "g:" + "9" * 5000)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "2^53" in err and "..." in err and len(err) < 200


@pytest.mark.parametrize(
    "argv, m, l",
    [
        (("bounds", "--n", "30", "--m", "29"), 29, None),
        (("bounds", "--n", "40", "--m", "20"), 20, None),
        (("parallel", "--scheme", "hybrid", "--n", "40", "--l", "2"), 20, 2),
    ],
)
def test_scans_reach_n_40(capsys, argv, m, l):
    # boxes of 1.8e9 (30, 29) and 1.3e9 (40, 20) cells: the pruned scan
    # evaluates a few million of them. Its argmin is the best k1 of a
    # window checked one apply_sequence call per cell: the expectation of
    # the block (bounds) or of the hybrid round (parallel)
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 20.0
    assert (rc, err) == (0, "")
    _, (row,) = parse_csv(out)
    k1, k2 = int(row["k1"]), int(row["k2"])
    space = new_search_space(int(argv[argv.index("--n") + 1]), m)

    def expectation(j):
        if l is not None:
            return hybrid_expected(space, l, j, k2)
        seq = OperatorSequence.from_token_spec(f"g:{j},l:{k2},g:1")
        return (1 + j + k2) / block_success_probability(space, seq)

    window = {j: expectation(j) for j in range(max(0, k1 - 4), k1 + 5)}
    assert min(window, key=window.get) == k1
    assert float(row["e_min"]) == pytest.approx(window[k1], rel=1e-12)


def test_parallel_compare_lists_skips(capsys):
    rc, out, _ = run_cli(
        capsys,
        "parallel", "--scheme", "compare", "--n", "6", "--l-range", "1..4",
        "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    by_key = {(r["scheme"], r["l"]): r for r in doc["rows"]}
    assert by_key[("inner", 3)]["admissible"] is False
    assert "power of two" in by_key[("inner", 3)]["reason"]
    assert by_key[("grk", 4)]["admissible"] is False
    assert "divide" in by_key[("grk", 4)]["reason"]
    assert by_key[("hybrid", 2)]["e_min"] < by_key[("inner", 2)]["e_min"]
    # rows are sorted by l, then by fixed scheme order
    ls = [r["l"] for r in doc["rows"]]
    assert ls == sorted(ls)


@pytest.mark.parametrize(
    "scheme, extra",
    [("inner", ()), ("outer", ()), ("grk", ()), ("hybrid", ()), ("hybrid", ("--no-k2",))],
)
def test_parallel_single_scheme_row_is_the_library_result(capsys, scheme, extra):
    n, l = 6, 2
    space = space_for_parallelism(n, l)
    expected = {
        "inner": lambda: inner_min(2**n, l),
        "outer": lambda: outer_min(2**n, l),
        "grk": lambda: grk_parallel_min(space, l),
        "hybrid": lambda: hybrid_min(space, l, allow_k2=not extra),
    }[scheme]()
    rc, out, _ = run_cli(
        capsys, "parallel", "--scheme", scheme, "--n", str(n), "--l", str(l), *extra
    )
    assert rc == 0
    _, rows = parse_csv(out)
    (row,) = rows
    assert (row["scheme"], row["admissible"], row["reason"]) == (scheme, "true", "")
    parsed = {
        "kind": row["scheme"],
        "l": int(row["l"]),
        "k1": int(row["k1"]),
        "k2": int(row["k2"]) if row["k2"] else None,
        "queries": int(row["queries"]),
        "e_min": float(row["e_min"]),
        "pr_at_opt": float(row["pr_at_opt"]),
    }
    assert parsed == asdict(expected)


# -- verify --------------------------------------------------------------------


def test_verify_passing_and_failing(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--m", "2", "--sequences", "10", "--max-k", "20"
    )
    assert rc == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert row["passed"] == "true"
    assert row["num_failures"] == "0"
    assert float(row["max_deviation"]) < 1e-10

    rc, out, _ = run_cli(
        capsys,
        "verify", "--n", "6", "--m", "2", "--sequences", "10", "--max-k", "20",
        "--tol", "1e-18", "--format", "json",
    )
    assert rc == 1
    doc = json.loads(out)
    report = doc["rows"][0]
    assert report["passed"] is False
    assert len(report["failures"]) > 0
    assert "sequence" in report["worst_case"]


def test_verify_above_the_statevector_cap_exits_1(capsys):
    rc, out, err = run_cli(capsys, "verify", "--n", "15", "--m", "7")
    assert rc == 1
    assert out == ""
    assert err == "error: statevector simulation capped at n <= 14\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--n", "14", "--m", "7", "--sequences", "10000"),
        ("--n", "1", "--m", "0", "--max-k", "300000"),
    ],
)
def test_verify_above_the_work_cap_exits_1(capsys, flags):
    rc, out, err = run_cli(capsys, "verify", *flags)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: up to ") and err.count("\n") == 1
    assert err.endswith("exceed the statevector work cap of 2^29 amplitude updates\n")


def test_verify_is_seed_deterministic(capsys):
    args = ("verify", "--n", "5", "--m", "3", "--sequences", "8", "--seed", "7")
    rc, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc == rc2 == 0
    assert out1 == out2


# -- drawn argv: an exit code, never a traceback ---------------------------------

_HUGE_INTS = [2**53, 2**53 + 1, 10**15, 10**20, 2**70]
# each leading branch draws valid values, so that some calls run
_qubits = st.one_of(
    st.integers(1, 14), st.integers(-3, 70), st.sampled_from([2**53, 2**53 + 1, 10**20])
)
_block_bits = st.one_of(st.integers(0, 7), _qubits)
_budget = st.one_of(st.integers(1, 14), st.integers(-3, 14), st.sampled_from(_HUGE_INTS))
_count = st.one_of(st.integers(1, 3), st.integers(-3, 3), st.sampled_from(_HUGE_INTS))
_tol = st.one_of(st.just("1e-10"), st.sampled_from(["nan", "inf", "-inf", "-1", "0", "2e-308", "x"]))
_seed = st.one_of(st.integers(-3, 5), st.sampled_from(_HUGE_INTS))
_token = st.one_of(
    st.builds("{}:{}".format, st.sampled_from("gl"), st.integers(0, 10**20)),
    st.builds("{}:{}".format, st.sampled_from("gl"), st.integers(0, 5)),
    st.sampled_from(["x:1", "g:", "g:-3", "gl:2", "g:1.5", "l: 7", "g:" + "9" * 40, ""]),
)


def _range(values):
    return st.one_of(
        values.map(str),
        st.builds("{}..{}".format, values, values),
        st.sampled_from(["x", "3..", "..3", "1..2..3", ""]),
    )


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["angles", "simulate", "enumerate", "tables", "verify"]))
    argv = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "tables":
        if draw(st.booleans()):
            argv += ["--n", str(draw(_qubits))]
        argv += ["--which", draw(st.sampled_from(["pr", "e"]))]
        if draw(st.booleans()):
            argv += ["--m-range", draw(_range(_qubits))]
        if draw(st.booleans()):
            argv += ["--k-range", draw(_range(_budget))]
        return argv
    argv += ["--n", str(draw(_qubits)), "--m", str(draw(_block_bits))]
    if command == "simulate":
        argv += ["--seq", ",".join(draw(st.lists(_token, max_size=4)))]
    elif command == "enumerate":
        argv += ["--ktot", draw(_range(_budget))]
    elif command == "verify":
        # few and short sequences, so a call that runs stays fast
        argv += ["--sequences", str(draw(_count)), "--max-k", str(draw(_count))]
        argv += ["--tol", draw(_tol), "--seed", str(draw(_seed))]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=_argv())
def test_drawn_argv_exits_0_1_or_2(argv):
    # ROADMAP aim 3: bad input leaves through an exit code, never a
    # traceback, and Tier-1's warnings-as-errors filter holds here too
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)


# -- output destinations -------------------------------------------------------


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "angles.csv"
    rc, out, _ = run_cli(
        capsys, "angles", "--n", "8", "--m", "2", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    rc2, expected, _ = run_cli(capsys, "angles", "--n", "8", "--m", "2")
    assert target.read_text() == expected


def test_out_into_a_missing_directory_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(
        capsys, "angles", "--n", "8", "--m", "2", "--out", str(target)
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_readme_enumerate_example_is_current(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = "partial-search enumerate --n 8 --m 3 --ktot 4..5"
    block = re.search(r"```\n\$ " + re.escape(command) + r"\n(.*?)```", readme, re.S)
    assert block is not None
    rc, out, _ = run_cli(capsys, *command.split()[1:])
    assert rc == 0
    assert out == block.group(1)


# -- parameter echo --------------------------------------------------------------

# (command, [(key, CSV text, JSON value), ...]): the exact `# key=value`
# lines after schema_version and command, and the JSON parameters object
_ECHO_CASES = [
    ("angles --n 8 --m 2", [("n", "8", 8), ("m", "2", 2)]),
    (
        "simulate --n 8 --m 2 --seq l:1,g:1",
        [("n", "8", 8), ("m", "2", 2), ("seq", "l:1,g:1", "l:1,g:1")],
    ),
    (
        "enumerate --n 8 --m 3 --ktot 4..5",
        [("n", "8", 8), ("m", "3", 3), ("ktot", "4..5", "4..5"),
         ("all_ties", "false", False)],
    ),
    (
        "enumerate --n 8 --m 3 --ktot 5",
        [("n", "8", 8), ("m", "3", 3), ("ktot", "5", "5"), ("all_ties", "false", False)],
    ),
    (
        "tables --n 8 --which pr",
        [("n", "8", 8), ("which", "pr", "pr"), ("m_range", "2..7", "2..7"),
         ("k_range", "2..11", "2..11")],
    ),
    (
        "tables --n 8 --which e",
        [("n", "8", 8), ("which", "e", "e"), ("m_range", "2..7", "2..7"),
         ("k_range", "2..11", "2..11")],
    ),
    (
        "tables --which pr --m-range 3 --k-range 4",
        [("n", "8", 8), ("which", "pr", "pr"), ("m_range", "3..3", "3..3"),
         ("k_range", "4..4", "4..4")],
    ),
    ("bounds --n 20", [("n", "20", 20)]),
    (
        "bounds --n 20 --m 10 --ktot-range 380..420",
        [("n", "20", 20), ("m", "10", 10), ("ktot_range", "380..420", "380..420")],
    ),
    ("bounds --n 10 --m 5", [("n", "10", 10), ("m", "5", 5)]),
    (
        "bounds --n 10 --m 5 --ktot-range 4..8",
        [("n", "10", 10), ("m", "5", 5), ("ktot_range", "4..8", "4..8")],
    ),
    (
        "parallel --scheme compare --n 6 --l-range 1..4",
        [("scheme", "compare", "compare"), ("n", "6", 6), ("l_range", "1..4", "1..4")],
    ),
    (
        "parallel --scheme hybrid --n 18 --l 3 --no-k2",
        [("scheme", "hybrid", "hybrid"), ("n", "18", 18), ("no_k2", "true", True),
         ("l", "3", 3)],
    ),
    (
        "verify --n 10 --m 4",
        [("n", "10", 10), ("m", "4", 4), ("sequences", "200", 200),
         ("max_k", "40", 40), ("tol", "1e-10", 1e-10), ("seed", "42", 42)],
    ),
]


@pytest.mark.parametrize("command, echo", _ECHO_CASES, ids=[c for c, _ in _ECHO_CASES])
def test_parameter_echo(capsys, command, echo):
    argv = command.split()
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    comments = [line for line in out.splitlines() if line.startswith("# ")]
    assert comments == [
        "# schema_version=1",
        f"# command={argv[0]}",
        *(f"# {key}={text}" for key, text, _ in echo),
    ]
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    params = json.loads(out)["parameters"]
    # types too: ktot stays the string "5", n is an int, tol a float
    assert [(k, type(v), v) for k, v in params.items()] == [
        (key, type(value), value) for key, _, value in echo
    ]


def test_every_readme_cli_example_has_an_echo_case():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme[readme.index("## CLI"):], re.S)
    examples = [
        " ".join(line.split("#")[0].split()[1:])
        for line in block.group(1).splitlines()
    ]
    assert examples
    assert set(examples) <= {command for command, _ in _ECHO_CASES}


def test_installed_entry_point():
    exe = shutil.which("partial-search")
    if exe is None:
        pytest.skip("entry point not installed")
    proc = subprocess.run(
        [exe, "angles", "--n", "4", "--m", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "# command=angles" in proc.stdout
