"""Exhaustive sequence optimization: golden tables, cross-enumeration,
determinism, and tie handling."""

import math

import numpy as np
import pytest

from partial_search import (
    EnumerationResult,
    Kind,
    OperatorSequence,
    ParameterError,
    ResourceLimitError,
    angles,
    block_success_probability,
    enumerate_max_probability,
    expected_iterations,
    global_grover_matrix,
    initial_state,
    is_grk_form,
    local_grover_matrix,
    min_expected_over_budget,
    new_search_space,
    render_fixed,
    render_percent,
    table_sweep,
)
from partial_search.enumeration import TIE_TOL, _mask_to_sequence, _run_counts

from reference_tables import (
    REFERENCE_E,
    REFERENCE_E_MIN_K,
    REFERENCE_PR,
    RENDER_EXCEPTIONS,
)

G, L = Kind.GLOBAL, Kind.LOCAL


def _independent_enumerate(space, k_tot):
    """Recursive tree walk over all 2^k_tot sequences; deliberately a
    different traversal and arithmetic path than the production code.

    Returns the maximum leaf probability and the reported tie set built
    from scratch as (sequence, pr) pairs: every leaf within TIE_TOL of the
    maximum, local-ending ones dropped unless all end locally, fewest runs
    first, then global before local query by query.
    """
    gn = global_grover_matrix(space)
    lm = local_grover_matrix(space)
    leaves = []

    def walk(v, kinds):
        if len(kinds) == k_tot:
            leaves.append((1.0 - float(v[2]) ** 2, kinds))
            return
        walk(gn @ v, kinds + (G,))
        walk(lm @ v, kinds + (L,))

    walk(initial_state(space).as_array(), ())
    best = max(pr for pr, _ in leaves)
    ties = [(pr, kinds) for pr, kinds in leaves if pr >= best - TIE_TOL]
    ties = [(pr, kinds) for pr, kinds in ties if kinds[-1] is G] or ties
    pairs = [(OperatorSequence.from_kinds(kinds), pr) for pr, kinds in ties]
    pairs.sort(key=lambda sp: (len(sp[0].runs), [k is L for k in sp[0].kinds()]))
    return best, tuple(pairs)


# -- golden grids --------------------------------------------------------------


def test_success_probability_grid():
    rows = table_sweep(8, list(range(2, 8)), list(range(2, 12)))
    got = {(r.m, r.k_tot): r.pr_percent for r in rows}
    for k, by_m in REFERENCE_PR.items():
        for m, ref in zip(range(2, 8), by_m):
            expected = RENDER_EXCEPTIONS.get((m, k), ref)
            assert got[(m, k)] == expected, (m, k)


def test_expected_iteration_grid():
    rows = table_sweep(8, list(range(2, 8)), list(range(2, 12)))
    got = {(r.m, r.k_tot): r.e_rendered for r in rows}
    for k, by_m in REFERENCE_E.items():
        for m, ref in zip(range(2, 8), by_m):
            assert got[(m, k)] == ref, (m, k)


def test_grid_sequences_round_trip_and_end_globally():
    for row in table_sweep(8, [2, 5, 7], [2, 6, 11]):
        sp = new_search_space(row.n, row.m)
        seq = OperatorSequence.from_product_string(row.sequence, sp)
        assert seq.product_string(sp) == row.sequence
        assert seq.total_queries == row.k_tot
        assert seq.runs[-1][0] is G


def test_column_minima_locations():
    for m, k_ref in zip(range(2, 8), REFERENCE_E_MIN_K):
        sp = new_search_space(8, m)
        k_best, res = min_expected_over_budget(sp, range(2, 12))
        assert k_best == k_ref
        assert render_fixed(res.expected_iterations) == REFERENCE_E[k_ref][m - 2]


# -- enumerate_max_probability -------------------------------------------------


def test_two_query_optimum():
    res = enumerate_max_probability(new_search_space(8, 2), 2)
    assert res.pr_max == pytest.approx(0.105747, abs=5e-7)
    assert res.canonical.product_string(new_search_space(8, 2)) == "G_8G_2"


def test_saturated_optimum_beats_plain_grk():
    sp = new_search_space(8, 5)
    res = enumerate_max_probability(sp, 11)
    assert res.pr_max > 0.999999
    assert render_percent(res.pr_max) == "99.9999"
    # the published non-GRK winner is co-optimal with our canonical pick
    alt = OperatorSequence.from_product_string("G_8G_5G_8^2G_5G_8^2G_5G_8G_5^2", sp)
    assert alt.total_queries == 11
    assert block_success_probability(sp, alt) >= res.pr_max - 1e-9


def test_single_query_closed_form():
    for n, m in [(8, 2), (6, 4), (4, 1), (10, 9)]:
        sp = new_search_space(n, m)
        a = angles(sp)
        res = enumerate_max_probability(sp, 1)
        closed = 1 - math.cos(3 * a.theta1) ** 2 * math.cos(a.gamma) ** 2 / math.cos(
            a.theta1
        ) ** 2
        assert res.pr_max == pytest.approx(closed, abs=1e-13)
        assert res.canonical == OperatorSequence([(G, 1)])


# the one case in the grid below whose maximum leaf ends in a local query
# (8.2e-10 above the reported canonical, inside TIE_TOL) and is dropped in
# favour of a global-ending tie, so pr_max is that tie's probability
MAX_ENDS_LOCALLY = {(8, 7, 11)}


def test_matches_independent_recursive_enumerator():
    # the maximum and the whole ordered tie set; at (2, 0) fewest runs first
    # and mask order disagree
    cases = [(8, m, 12) for m in range(8)] + [(6, 2, 12), (2, 1, 4), (2, 0, 8)]
    for n, m, k_max in cases:
        sp = new_search_space(n, m)
        for k in range(1, k_max + 1):
            res = enumerate_max_probability(sp, k)
            best, ties = _independent_enumerate(sp, k)
            if (n, m, k) in MAX_ENDS_LOCALLY:
                assert best - TIE_TOL <= res.pr_max < best - 1e-14, (n, m, k)
            else:
                assert abs(res.pr_max - best) <= 1e-14, (n, m, k)
            assert res.optimal_sequences == tuple(seq for seq, _ in ties), (n, m, k)
            assert abs(res.pr_max - ties[0][1]) <= 1e-14, (n, m, k)


def test_tie_keys_and_sequences_match_the_per_query_bits():
    # the tie order's run counts and the reported sequences, both built
    # from runs, against the mask read one query (bit) at a time
    cases = [(k, np.arange(1 << k)) for k in range(1, 13)]
    wide = [0, 1, 2**29, 2**30 - 1, 0x2AAAAAAA, 0x15555555, 123456789]
    cases.append((30, np.array(wide)))
    for k, masks in cases:
        counts = _run_counts(masks, k)
        for mask, count in zip(masks.tolist(), counts.tolist()):
            kinds = [L if (mask >> (k - 1 - j)) & 1 else G for j in range(k)]
            seq = _mask_to_sequence(mask, k)
            assert seq == OperatorSequence.from_kinds(kinds)
            assert count == len(seq.runs)


def test_result_invariants():
    sp = new_search_space(7, 3)
    res = enumerate_max_probability(sp, 9)
    assert isinstance(res, EnumerationResult)
    assert res.expected_iterations == pytest.approx(9 / res.pr_max, rel=1e-15)
    for seq in res.optimal_sequences:
        assert seq.total_queries == 9
        assert block_success_probability(sp, seq) >= res.pr_max - 1e-9
    # the grk family is inside the enumerated set, so it cannot win
    best_grk = max(
        block_success_probability(sp, OperatorSequence([(G, k1), (L, 8 - k1), (G, 1)]))
        for k1 in range(0, 9)
    )
    assert res.pr_max >= best_grk - 1e-15


def test_grk_dominance_at_table_scale():
    # wherever the winner is not GRK-shaped the probability is saturated;
    # holds for n >= 8 (below that, saturation sets in before 1 - 1e-4,
    # see the companion test)
    for n in (8, 10):
        for m in range(0, n):
            sp = new_search_space(n, m)
            for k in range(1, 13):
                res = enumerate_max_probability(sp, k)
                if any(is_grk_form(s) for s in res.optimal_sequences):
                    continue
                assert res.pr_max >= 1 - 1e-4, (n, m, k)


def test_grk_dominance_breaks_down_only_near_saturation():
    # in tiny spaces non-GRK winners appear below the 1 - 1e-4 mark, but
    # always deep in the saturated regime; pin one measured case
    res = enumerate_max_probability(new_search_space(4, 1), 4)
    assert [s.token_spec() for s in res.optimal_sequences] == ["g:1,l:1,g:1,l:1"]
    assert res.pr_max == pytest.approx(0.986328125, abs=1e-12)
    for n in (3, 4, 5):
        for m in range(0, n):
            sp = new_search_space(n, m)
            for k in range(1, 13):
                res = enumerate_max_probability(sp, k)
                if not any(is_grk_form(s) for s in res.optimal_sequences):
                    assert res.pr_max >= 0.94, (n, m, k)


def test_trailing_local_kept_only_when_unavoidable():
    # N=4 with one global reaches pr=1; the padded optimum ends locally
    res = enumerate_max_probability(new_search_space(2, 1), 2)
    assert res.pr_max == pytest.approx(1.0, abs=1e-12)
    assert [s.token_spec() for s in res.optimal_sequences] == ["g:1,l:1"]
    # with a global-ending tie available, local-ending twins are pruned
    res3 = enumerate_max_probability(new_search_space(2, 1), 3)
    assert all(s.runs[-1][0] is G for s in res3.optimal_sequences)


def test_worker_count_does_not_change_results():
    # k_tot = 20 splits into 2^10 prefix rows x 2^10 suffix columns, 16
    # chunks of 64 rows, so the workers really share the grid
    sp = new_search_space(16, 8)
    a, *others = [enumerate_max_probability(sp, 20, workers=w) for w in (1, 2, 3, 16)]
    for b in others:
        assert b.pr_max == a.pr_max
        assert b.optimal_sequences == a.optimal_sequences


def test_workers_env_var(monkeypatch):
    sp = new_search_space(6, 3)
    base = enumerate_max_probability(sp, 10, workers=1)
    monkeypatch.setenv("PARTIAL_SEARCH_WORKERS", "4")
    via_env = enumerate_max_probability(sp, 10)
    assert via_env.pr_max == base.pr_max
    assert via_env.optimal_sequences == base.optimal_sequences
    monkeypatch.setenv("PARTIAL_SEARCH_WORKERS", "zero")
    with pytest.raises(ParameterError):
        enumerate_max_probability(sp, 10)


def test_budget_validation():
    sp = new_search_space(8, 2)
    with pytest.raises(ResourceLimitError):
        enumerate_max_probability(sp, 31)
    with pytest.raises(ParameterError):
        enumerate_max_probability(sp, 0)


# -- expected iterations --------------------------------------------------------


def test_expected_iterations_reference_points():
    sp = new_search_space(8, 2)
    seq = OperatorSequence.from_product_string("G_8G_2G_8^6", sp)
    assert render_fixed(expected_iterations(sp, seq)) == "10.4175"
    sp6 = new_search_space(8, 6)
    seq6 = OperatorSequence.from_product_string("G_8G_6", sp6)
    assert render_fixed(expected_iterations(sp6, seq6)) == "5.8919"


def test_expected_iterations_tiny_space():
    # n=1: one global query rotates to sin^2(3 pi/4) = 1/2, so E = 2
    sp = new_search_space(1, 0)
    assert expected_iterations(sp, OperatorSequence([(G, 1)])) == pytest.approx(
        2.0, abs=1e-13
    )


def test_min_expected_prefers_smaller_budget_on_ties():
    sp = new_search_space(8, 3)
    k_best, res = min_expected_over_budget(sp, [8, 8, 8])
    assert k_best == 8 and res.k_tot == 8
    with pytest.raises(ParameterError):
        min_expected_over_budget(sp, [])


def test_min_expected_matches_direct_scan():
    sp = new_search_space(6, 3)
    k_best, res = min_expected_over_budget(sp, range(1, 11))
    direct = min(
        (enumerate_max_probability(sp, k).expected_iterations, k)
        for k in range(1, 11)
    )
    assert (res.expected_iterations, k_best) == direct


# -- classification and rendering ------------------------------------------------


def test_is_grk_form_cases():
    sp = new_search_space(8, 2)
    yes = ["G_8G_2G_8^6", "G_8", "G_8^4", "G_8G_2^3"]
    for text in yes:
        assert is_grk_form(OperatorSequence.from_product_string(text, sp))
    sp7 = new_search_space(8, 7)
    no = ["G_8G_7^6G_8G_7", "G_7", "G_8^2G_7"]
    for text in no:
        assert not is_grk_form(OperatorSequence.from_product_string(text, sp7))
    assert not is_grk_form(OperatorSequence(()))


def test_render_fixed_half_even():
    assert render_fixed(10.41746) == "10.4175"
    assert render_fixed(10.41745) == "10.4174"  # exact half, ties to even
    assert render_fixed(0.00035) == "0.0004"  # odd last digit rounds away
    assert render_fixed(10.0) == "10.0000"


def test_render_percent_never_rounds_up_to_certainty():
    assert render_percent(0.9999999) == "99.9999"
    assert render_percent(1.0) == "100.0000"
    assert render_percent(0.999998) == "99.9998"
