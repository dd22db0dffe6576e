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
    apply_sequence,
    block_success_probability,
    enumerate_max_probability,
    global_grover_matrix,
    initial_state,
    is_grk_form,
    local_grover_matrix,
    new_search_space,
    render_fixed,
    render_percent,
    table_sweep,
)
from partial_search.bounds import min_expected_sweep
from partial_search.cli import run
from partial_search.enumeration import (
    _BOUND_SLACK,
    _CHUNK_CELLS,
    _LEAF_ROWS,
    _TREE_GEOMETRIES,
    TIE_TOL,
    _amp_interval,
    _amplitudes,
    _grid,
    _kd,
    _kd_order,
    _mask_to_sequence,
    _pairs,
    _plan,
    _run_counts,
    _sweep,
    _tiles,
    _trees,
    enumerate_budgets,
)
from partial_search.scans import grk_max_block_probability

from full_enumeration import full_enumeration, times
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
    ties.sort(key=lambda t: (len(OperatorSequence.from_kinds(t[1]).runs), [k is L for k in t[1]]))
    return best, tuple((OperatorSequence.from_kinds(kinds), pr) for pr, kinds in ties)


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


def test_grid_sequences_render_the_optimum_and_end_globally():
    for row in table_sweep(8, [2, 5, 7], [2, 6, 11]):
        sp = new_search_space(row.n, row.m)
        seq = enumerate_max_probability(sp, row.k_tot).canonical
        assert seq.product_string(sp) == row.sequence
        assert seq.total_queries == row.k_tot
        assert seq.runs[-1][0] is G


def test_column_minima_locations():
    for m, k_ref in zip(range(2, 8), REFERENCE_E_MIN_K):
        sp = new_search_space(8, m)
        budgets = enumerate_budgets(sp, range(2, 12))
        res = min(budgets, key=lambda r: r.expected_iterations)
        assert res.k_tot == k_ref
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
    alt = OperatorSequence.from_token_spec("l:2,g:1,l:1,g:2,l:1,g:2,l:1,g:1")
    assert alt.product_string(sp) == "G_8G_5G_8^2G_5G_8^2G_5G_8G_5^2"
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
    wide = [0, 1, 2**39, 2**40 - 1, 0xAAAAAAAAAA, 0x5555555555, 987654321012]
    cases.append((40, np.array(wide)))
    wide = [0, 1, 2**61, 2**62 - 1, 0x2AAAAAAAAAAAAAAA, 0x1555555555555555]
    cases.append((62, np.array(wide + [1234567890123456789, 2**62 - 2, 2**61 + 1])))
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


def test_sweep_starts_no_thread(monkeypatch):
    # at (4, 2, 20) pr_max is 1 and the bound keeps nearly every leaf, so
    # the survivors fill many batches; they are all swept on this thread
    import threading

    def refuse(self):
        raise AssertionError("the enumeration started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    sp = new_search_space(4, 2)
    prefixes, suffixes = _plan(sp, 20)[2:4]
    assert prefixes.size * suffixes.shape[1] > _CHUNK_CELLS
    assert enumerate_max_probability(sp, 20).pr_max == 1.0


def test_tie_cap_refuses_before_gathering(monkeypatch):
    # every leaf of (1, 0, k) ties: 4096 candidates at k = 12, half of
    # them kept (the local-ending twins are dropped)
    from partial_search import enumeration

    sp = new_search_space(1, 0)
    monkeypatch.setattr(enumeration, "_TIE_CAP", 4095)
    with pytest.raises(ResourceLimitError, match="candidate ties"):
        enumerate_max_probability(sp, 12)
    monkeypatch.setattr(enumeration, "_TIE_CAP", 4096)
    assert len(enumerate_max_probability(sp, 12).tie_masks) == 2048


@pytest.mark.parametrize("n, m, k_tot", [(16, 8, 24), (4, 2, 24), (8, 0, 12)])
def test_sweep_does_not_depend_on_the_ufunc_buffer(monkeypatch, n, m, k_tot):
    # the caller's buffer and the sweep's own are each set to every size;
    # (4, 2, 24) is the dense stop and (8, 0, 12) has many ties
    from partial_search import enumeration

    sp = new_search_space(n, m)
    plan = _plan(sp, k_tot)
    top, ties = _sweep(*plan)
    for size in (16, 64, 8192, 65536):
        monkeypatch.setattr(enumeration, "_SWEEP_BUFSIZE", size)
        old = np.setbufsize(size)
        try:
            got_top, got_ties = _sweep(*plan)
            assert np.getbufsize() == size
        finally:
            np.setbufsize(old)
        assert got_top == top
        assert np.array_equal(np.sort(got_ties), np.sort(ties))


@pytest.mark.parametrize("size", [8192, 65536])
def test_enumeration_restores_the_callers_ufunc_buffer(monkeypatch, size):
    from partial_search import enumeration

    old = np.setbufsize(size)
    try:
        enumerate_max_probability(new_search_space(16, 8), 24)
        assert np.getbufsize() == size
        monkeypatch.setattr(enumeration, "_TIE_CAP", 4095)
        with pytest.raises(ResourceLimitError, match="candidate ties"):
            enumerate_max_probability(new_search_space(1, 0), 12)
        assert np.getbufsize() == size
    finally:
        np.setbufsize(old)


def test_ties_are_gathered_in_little_memory():
    # every leaf of (1, 0, 20) ties and 2^19 of them are kept; each batch
    # of candidates is released once it is filtered, so the candidates are
    # not all held twice at the end of the sweep
    import tracemalloc

    sp = new_search_space(1, 0)
    enumerate_max_probability(sp, 12)  # warm any one-off allocation
    tracemalloc.start()
    try:
        res = enumerate_max_probability(sp, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.tie_masks) == 2**19
    assert peak <= 56 * len(res.tie_masks)


def test_budget_validation():
    sp = new_search_space(8, 2)
    with pytest.raises(ResourceLimitError):
        enumerate_max_probability(sp, 31)
    with pytest.raises(ParameterError):
        enumerate_max_probability(sp, 0)


def test_budget_range_matches_one_call_per_budget():
    # one doubling up to the largest budget, each budget's grid a slice of
    # it: single-tile grids, pruned ones and a dense stop, in any order
    cases = [(8, 3, range(1, 21)), (16, 8, [22, 17, 20, 22]), (4, 2, [23, 2]), (2, 1, [3, 1])]
    for n, m, k_values in cases:
        sp = new_search_space(n, m)
        results = list(enumerate_budgets(sp, k_values))
        assert [res.k_tot for res in results] == list(k_values)
        for res in results:
            one = enumerate_max_probability(sp, res.k_tot)
            assert res.tie_masks.tolist() == one.tie_masks.tolist(), (n, m, res.k_tot)
            assert res.pr_max == one.pr_max, (n, m, res.k_tot)
            assert res.expected_iterations == one.expected_iterations, (n, m, res.k_tot)
    for row in table_sweep(8, [2, 5, 7], range(2, 12)):
        sp = new_search_space(8, row.m)
        one = enumerate_max_probability(sp, row.k_tot)
        assert row.sequence == one.canonical.product_string(sp)
        assert row.pr_max == one.pr_max
        assert row.expected_iterations == one.expected_iterations
    sp = new_search_space(10, 4)
    res = min(enumerate_budgets(sp, range(2, 19)), key=lambda r: r.expected_iterations)
    one = enumerate_max_probability(sp, res.k_tot)
    assert res.tie_masks.tolist() == one.tie_masks.tolist()
    assert (res.pr_max, res.expected_iterations) == (one.pr_max, one.expected_iterations)


def test_budget_range_is_checked_before_the_first_sweep(monkeypatch):
    from partial_search import enumeration

    def refuse(*args):
        raise AssertionError("swept before every budget was checked")

    sp = new_search_space(8, 2)
    enumerate_max_probability(sp, 20)  # its trees are cached: every sweep still plans
    monkeypatch.setattr(enumeration, "_plan", refuse)
    with pytest.raises(ResourceLimitError, match="capped at 30"):
        list(enumerate_budgets(sp, [20, 31]))
    with pytest.raises(ParameterError, match="must be >= 1"):
        list(enumerate_budgets(sp, [3, 0, 31]))
    assert list(enumerate_budgets(sp, [])) == []


def test_table_sweep_checks_every_m_before_the_first_sweep(monkeypatch):
    from partial_search import enumeration

    def refuse(*args):
        raise AssertionError("swept before every m was checked")

    for m in range(2, 8):  # their trees are cached: every sweep still plans
        enumerate_max_probability(new_search_space(8, m), 11)
    monkeypatch.setattr(enumeration, "_plan", refuse)
    with pytest.raises(ParameterError, match="0 <= m < n"):
        table_sweep(8, range(2, 10**15), range(2, 12))
    with pytest.raises(ResourceLimitError, match="capped at 30"):
        table_sweep(8, range(2, 8), range(2, 10**15))


@pytest.mark.parametrize(
    "n, m_values, k_values", [(1, range(2, 1), [2]), (2, [], [2, 3]), (8, [2], [])]
)
def test_table_sweep_refuses_an_empty_range(n, m_values, k_values):
    with pytest.raises(ParameterError, match="empty m or k_tot range"):
        table_sweep(n, m_values, k_values)


# -- the cached trees ------------------------------------------------------------

# the geometries the enum-deep benchmark draws from
DRAWN = [(n, m) for n in range(12, 21) for m in range(n // 2 - 2, n // 2 + 3)]


def _outcome(res):
    return res.k_tot, res.pr_max, res.expected_iterations, res.tie_masks.tolist()


def _cold(space, k_tot):
    _trees.cache_clear()
    return _outcome(enumerate_max_probability(space, k_tot))


def test_warm_trees_give_the_cold_results():
    # each warm call reads trees grown by other budgets, deeper ones
    # first, and the kd orders and boxes they built; each cold call
    # starts from an empty cache; the results agree bit for bit
    cases = [(n, m, (24, 22, 23)) for n, m in DRAWN] + [(16, 8, range(30, 16, -1))]
    for n, m, k_values in cases:
        sp = new_search_space(n, m)
        cold = [_cold(sp, k) for k in k_values]
        _trees.cache_clear()
        warm = [_outcome(enumerate_max_probability(sp, k)) for k in k_values]
        assert warm == cold, (n, m)
        assert [_outcome(res) for res in enumerate_budgets(sp, k_values)] == cold, (n, m)
    sp = new_search_space(12, 6)
    cold = [_cold(sp, k) for k in range(17, 27)]
    _trees.cache_clear()
    assert [_outcome(res) for res in enumerate_budgets(sp, range(17, 27))] == cold


def test_odd_budgets_bound_the_columns_with_the_even_order():
    # an odd budget's covector level is ordered at leaf 32 but tiled at
    # leaf 64: each aligned 64-block of that order holds the points of
    # the leaf-64 order's block, and the boxes one level up from the
    # finest are those blocks' boxes, bit for bit (each coarser level is
    # taken from the one below it, as it was from leaf-64 boxes)
    leaf = 2 * _LEAF_ROWS
    for n, m, k in [(16, 8, 23), (6, 2, 17), (12, 6, 25)]:
        sp = new_search_space(n, m)
        enumerate_max_probability(sp, k)
        u_t = _grid(sp, k)[1]
        order, boxes = _trees(sp)[2][1, k - k // 2]  # the cached kd of those columns
        wider = _kd_order(u_t, leaf)
        assert np.array_equal(
            np.sort(order.reshape(-1, leaf), axis=1), np.sort(wider.reshape(-1, leaf), axis=1)
        )
        blocks = np.take(u_t, wider, axis=1).reshape(3, -1, leaf)
        lo, hi = boxes[-2]
        assert np.array_equal(lo, blocks.min(axis=2)) and np.array_equal(hi, blocks.max(axis=2))


def test_cached_arrays_are_read_only():
    sp = new_search_space(16, 8)
    for k in (23, 24):
        enumerate_max_probability(sp, k)
    states, covectors, kd, mats = _trees(sp)
    assert len(states) == 13 and len(covectors) == 13
    assert set(kd) == {(0, 11), (1, 12), (0, 12)}  # built by the calls above
    arrays = [*states, *covectors, *mats[0], *mats[1]]
    for order, boxes in kd.values():
        arrays += [order, *(end for box in boxes for end in box)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0
    with pytest.raises(TypeError):
        _trees(sp)[0][0] = None  # a tree is a tuple: it is replaced, never changed


def test_threads_on_a_fresh_geometry_get_the_serial_results():
    # more threads than cores, switching often, each growing the same
    # fresh trees to other depths: every result is the serial one
    import sys
    import threading

    sp = new_search_space(16, 8)
    budgets = ([24, 21, 17, 22], [23, 20, 18, 25], [26, 19, 24], [17, 25, 22, 20])
    serial = {k: _cold(sp, k) for k in set(sum(budgets, []))}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            _trees.cache_clear()
            start, got = threading.Barrier(len(budgets)), []

            def run(k_values):
                start.wait()
                for k in k_values:
                    got.append((k, _outcome(enumerate_max_probability(sp, k))))

            threads = [threading.Thread(target=run, args=(ks,)) for ks in budgets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(got) == sum(map(len, budgets))
            assert all(outcome == serial[k] for k, outcome in got)
    finally:
        sys.setswitchinterval(interval)


def test_tree_cache_holds_at_most_its_bound():
    _trees.cache_clear()
    for n in range(4, 6 + 2 * _TREE_GEOMETRIES):
        enumerate_max_probability(new_search_space(n, n // 2), 18)
        assert _trees.cache_info().currsize <= _TREE_GEOMETRIES
    assert _trees.cache_info().currsize == _TREE_GEOMETRIES


# -- the pruned sweep against the full grid ------------------------------------

# (8, m, k <= 20) includes (8, 0, 20); (4, 2, 20), (1, 0, 20),
# (4, 2, 23) and (4, 2, 24) stop bisecting at the dense share and sweep
# nearly the whole grid; (4, 2, 22) keeps 38 % of it in leaf tiles;
# (12, 6, 22) is pruned above k = 20; (16, 8, 24) and (12, 6, 24) are
# benchmark-scale calls whose leaf tiles share a few suffix blocks
REFERENCE_CASES = (
    [(8, m, k) for m in range(8) for k in range(1, 21)]
    + [(6, 2, 20), (10, 5, 20), (16, 8, 20), (4, 2, 20), (1, 0, 20)]
    + [(4, 2, 22), (4, 2, 23), (12, 6, 22)]
    + [(16, 8, 24), (12, 6, 24), (4, 2, 24)]
    + [(2, m, k) for m in (0, 1) for k in range(1, 9)]
    # k_tot = 16 is the last grid swept as one product and 17 the first
    # planned in tiles: there (8, 0) above, (4, 2) and (1, 0) have many
    # ties (every leaf ties at (1, 0))
    + [(4, 2, 16), (4, 2, 17), (1, 0, 16), (1, 0, 17)]
)


def test_pruned_sweep_matches_the_full_grid():
    # the maximum leaf, pr_max and the ordered tie masks, bit for bit
    for n, m, k in REFERENCE_CASES:
        sp = new_search_space(n, m)
        top, masks = full_enumeration(sp, k)
        assert _sweep(*_plan(sp, k))[0] == top, (n, m, k)
        res = enumerate_max_probability(sp, k)
        assert res.tie_masks.tolist() == list(masks), (n, m, k)
        assert res.pr_max == block_success_probability(sp, _mask_to_sequence(masks[0], k))


def test_every_product_is_bounded(monkeypatch):
    # every product of one suffix block's covectors with a batch of prefix
    # rows holds at most _CHUNK_CELLS cells, the rows along the contiguous
    # axis; at (4, 2, 26) the dense share stops the bisection at tiles of
    # 2^18 cells, which are swept a few covectors at a time
    from partial_search import enumeration

    amplitudes, products = enumeration._amplitudes, []

    def spy(states, covectors, out, tmp):
        assert states.flags.c_contiguous and out.flags.c_contiguous
        products.append(out.shape)
        return amplitudes(states, covectors, out, tmp)

    monkeypatch.setattr(enumeration, "_amplitudes", spy)
    for n, m, k in REFERENCE_CASES + [(4, 2, 26)]:
        products.clear()
        enumerate_max_probability(new_search_space(n, m), k)
        assert products, (n, m, k)
        for width, rows in products:
            assert width * rows <= _CHUNK_CELLS, (n, m, k)
    # the tiles of (4, 2, 26) are 2^13 >> 4 = 512 rows by 512 columns,
    # 16 to a suffix block: each product is 8 of the block's covectors by
    # all 8192 prefix rows of its tiles
    assert set(products) == {(8, 8192)}


def test_exact_stage_sweeps_few_cells(monkeypatch):
    # the box-against-box bound keeps 189,184 cells at (16, 8, 24) and
    # 724,224 at (16, 8, 30); bounding each covector against its tile's
    # row box leaves a few of each tile's covectors to sweep
    from partial_search import enumeration

    amplitudes, cells = enumeration._amplitudes, []

    def spy(states, covectors, out, tmp):
        cells.append(out.size)
        return amplitudes(states, covectors, out, tmp)

    monkeypatch.setattr(enumeration, "_amplitudes", spy)
    for (n, m, k), most in [((16, 8, 24), 8192), ((16, 8, 30), 2048)]:
        cells.clear()
        enumerate_max_probability(new_search_space(n, m), k)
        assert 0 < sum(cells) <= most, (n, m, k)


def test_bound_prunes_where_it_can_and_sweeps_whole_tiles_where_it_cannot():
    def swept(n, m, k):
        sp = new_search_space(n, m)
        prefixes, suffixes = _plan(sp, k)[2:4]
        return prefixes.size * suffixes.shape[1] / 2**k, prefixes.shape[1]

    share, rows = swept(16, 8, 20)
    assert share < 0.1 and rows == _LEAF_ROWS
    share, rows = swept(1, 0, 20)  # every leaf ties: no tile can be dropped
    assert share == 1.0 and rows > _LEAF_ROWS


def test_bound_keeps_every_leaf_within_two_tie_tolerances_of_the_reference():
    # _LEAF_ROWS copies of each of 4 states and of 4 covectors: every leaf
    # tile is one point, so its interval is its amplitude
    rng = np.random.default_rng(3)
    states, covectors = rng.normal(size=(4, 3)), rng.normal(size=(3, 4))
    sq = times(states, covectors) ** 2
    copies = _LEAF_ROWS
    v, u_t = np.repeat(states.T, copies, axis=1), np.repeat(covectors, copies, axis=1)
    for margin in (1.9 * TIE_TOL, 2.1 * TIE_TOL):
        sq_ref = float(sq[1, 2]) - margin
        prefixes, suffixes, _ = _tiles(v, u_t, _kd(v), _kd(u_t), sq_ref)
        kept = {
            (int(p[0]) // copies, int(c) // copies)
            for p, q in zip(prefixes, suffixes)
            for c in q
        }
        assert kept == set(zip(*np.nonzero(sq <= sq_ref + 2 * TIE_TOL + _BOUND_SLACK)))
        assert ((1, 2) in kept) == (margin < 2 * TIE_TOL)


def test_exact_stage_keeps_every_pair_within_two_tie_tolerances_of_the_reference():
    # _LEAF_ROWS copies of each of 4 states against 128 distinct covectors
    # of both signs: every leaf tile's row box is one point, so the exact
    # stage's interval for a (tile, covector) pair is its amplitude as
    # swept, while the tile's box-against-box interval spans its 32
    # covectors. sq_ref near the median keeps about half of the leaves
    rng = np.random.default_rng(17)
    states, covectors = rng.normal(size=(3, 4)), rng.normal(size=(3, 128))
    assert (covectors < 0).any(axis=1).all() and (covectors > 0).any(axis=1).all()
    sq = _swept(states, covectors) ** 2  # a row per state
    copies = _LEAF_ROWS
    v = np.repeat(states, copies, axis=1)
    target = tuple(np.argwhere(sq == np.sort(sq, axis=None)[sq.size // 2])[0])
    for margin in (1.9 * TIE_TOL, 2.1 * TIE_TOL):
        sq_ref = float(sq[target]) - margin
        prefixes, suffixes, pairs = _tiles(v, covectors, _kd(v), _kd(covectors), sq_ref)
        assert pairs.shape == (suffixes.shape[1], len(suffixes))
        assert all(len(set((p // copies).tolist())) == 1 for p in prefixes)
        kept = {
            (int(p[0]) // copies, int(c))
            for t, (p, q) in enumerate(zip(prefixes, suffixes))
            for c in q[pairs[:, t]]
        }
        assert kept == set(zip(*np.nonzero(sq <= sq_ref + 2 * TIE_TOL + _BOUND_SLACK)))
        assert (target in kept) == (margin < 2 * TIE_TOL)
        # the tiles alone keep pairs that the stage drops
        tiled = {(int(p[0]) // copies, int(c)) for p, q in zip(prefixes, suffixes) for c in q}
        assert len(kept) < len(tiled)


def test_exact_stage_keeps_every_pair_that_holds_a_leaf_within_the_bound():
    # row boxes of 32 states against single covectors with components of
    # both signs, on a grid and on random points: a pair is kept whenever
    # one of its computed amplitudes squares to at most the bound, here
    # the least amp^2 of every 12th pair in order, up to the largest
    rng = np.random.default_rng(23)
    v, u_t = _grid(new_search_space(16, 8), 20)
    grids = [(v, u_t), (rng.normal(size=(3, 1024)), rng.normal(size=(3, 1024)))]
    for v, u_t in grids:
        assert (u_t < 0).any()
        tiles, width = 24, 8
        rows = rng.integers(v.shape[1], size=(tiles, 32))
        cols = rng.integers(u_t.shape[1], size=(width, tiles))
        blocks = np.take(v, rows, axis=1)  # 3 x tiles x 32
        v_lo, v_hi = blocks.min(axis=2), blocks.max(axis=2)
        covectors = np.take(u_t, cols, axis=1)  # 3 x w x tiles
        least = np.empty((width, tiles))
        for j, t in np.ndindex(width, tiles):
            least[j, t] = np.square(_swept(v[:, rows[t]], covectors[:, j, t : t + 1])).min()
        for bound in np.sort(least, axis=None)[11::12]:
            keep = _pairs(v_lo, v_hi, covectors, float(bound))
            assert keep.shape == (width, tiles)
            assert keep[least <= bound].all()
        # a row box of one state: the pair's interval is its amplitude as
        # swept, so the pair is kept at its amp^2 and dropped one ulp below
        state = v[:, rows[:, 0]]
        amp = np.empty((width, tiles))
        for j, t in np.ndindex(width, tiles):
            amp[j, t] = _swept(state[:, t : t + 1], covectors[:, j, t : t + 1])[0, 0]
        sq = np.square(amp)
        for j, t in zip(range(width), rng.permutation(tiles)):
            at = _pairs(state, state, covectors, float(sq[j, t]))
            below = _pairs(state, state, covectors, float(np.nextafter(sq[j, t], -1.0)))
            assert at[j, t] and not below[j, t]
            assert np.array_equal(at, sq <= sq[j, t])


def test_closed_form_reference_is_within_the_slack_of_its_grid_leaf():
    # _plan bounds the tiles with 1 - pr of the closed-form GRK optimum;
    # the same leaf G^k1 L^k2 G on the grid, evaluated as the dense sweep
    # evaluates it, squares to within a tenth of _BOUND_SLACK of it
    for n, m, k in REFERENCE_CASES + [(62, 31, 20), (12, 9, 30), (16, 8, 30)]:
        sp = new_search_space(n, m)
        pr, _, k2 = grk_max_block_probability(sp, k)
        v, u_t = _grid(sp, k)
        s = k - k // 2
        mask = ((1 << k2) - 1) << 1
        prefix, suffix = mask >> s, mask & ((1 << s) - 1)
        amp = float(times(v[:, prefix : prefix + 1].T, u_t)[0, suffix])
        assert abs((1.0 - pr) - amp * amp) <= _BOUND_SLACK / 10, (n, m, k)


def test_grid_columns_are_the_prefix_states_and_suffix_covectors():
    # column P of v is the state after mask P's p queries (p one-step
    # products drift up to 2.6e-15 from apply_sequence's closed-form runs
    # at (16, 8, 24)), column S of u_t is e3^T times the one-step matrices
    # of mask S's s queries
    rng = np.random.default_rng(5)
    for n, m, k in [(16, 8, 24), (62, 31, 20), (1, 0, 20)]:
        sp = new_search_space(n, m)
        gn, lm = global_grover_matrix(sp), local_grover_matrix(sp)
        p, s = k // 2, k - k // 2
        v, u_t = _grid(sp, k)
        assert v.shape == (3, 1 << p) and u_t.shape == (3, 1 << s)
        for prefix in [0, (1 << p) - 1, *rng.integers(1 << p, size=4).tolist()]:
            state = apply_sequence(sp, _mask_to_sequence(prefix, p)).as_array()
            assert np.abs(v[:, prefix] - state).max() <= 1e-14, (n, m, k, prefix)
        for suffix in [0, (1 << s) - 1, *rng.integers(1 << s, size=4).tolist()]:
            covector = np.eye(3)[2]
            for bit in format(suffix, f"0{s}b")[::-1]:  # the last query first
                covector = covector @ (lm if bit == "1" else gn)
            assert np.abs(u_t[:, suffix] - covector).max() <= 1e-15, (n, m, k, suffix)


def _assert_kd_cells(coords, leaf):
    # a permutation whose every aligned block of 2 * leaf * 2^j points has
    # its lower half <= its upper half along the coordinate split at that
    # depth, the widest-spread coordinate first and then the three in turn
    order = _kd_order(coords, leaf)
    count = coords.shape[1]
    assert np.array_equal(np.sort(order), np.arange(count))
    axes = np.argsort(coords.min(axis=1) - coords.max(axis=1), kind="stable")
    size, depth = count, 0
    while size > leaf:
        halves = coords[axes[depth % 3], order].reshape(-1, 2, size // 2)
        assert (halves[:, 0].max(axis=1) <= halves[:, 1].min(axis=1)).all(), depth
        size, depth = size // 2, depth + 1
    assert size == leaf


def test_kd_order_splits_every_aligned_block_at_its_median():
    rng = np.random.default_rng(11)
    _assert_kd_cells(rng.normal(size=(3, 1024)) * np.array([[1.0], [3.0], [2.0]]), 4)
    for k in (23, 24):
        v, u_t = _grid(new_search_space(16, 8), k)
        _assert_kd_cells(v, _LEAF_ROWS)
        _assert_kd_cells(u_t, _LEAF_ROWS * u_t.shape[1] // v.shape[1])


def _swept(states, covectors):
    """The amplitudes of states x covectors (one column each) as _sweep
    computes them, a row per state."""
    shape = (covectors.shape[1], states.shape[1])
    out = _amplitudes(states, covectors, np.empty(shape), np.empty(shape))
    return out.T


def test_tile_intervals_hold_every_computed_amplitude():
    rng = np.random.default_rng(7)
    for n, m, k in [(16, 8, 20), (8, 3, 18), (6, 2, 17), (2, 0, 20), (40, 20, 22), (62, 31, 16)]:
        v, u_t = _grid(new_search_space(n, m), k)
        # random sets of rows and columns
        for _ in range(40):
            rows = rng.choice(v.shape[1], size=int(rng.integers(1, 40)), replace=False)
            cols = rng.choice(u_t.shape[1], size=int(rng.integers(2, 40)), replace=False)
            pts_v, pts_u = v[:, rows], u_t[:, cols]
            lo, hi = _amp_interval(
                pts_v.min(axis=1, keepdims=True),
                pts_v.max(axis=1, keepdims=True),
                pts_u.min(axis=1, keepdims=True),
                pts_u.max(axis=1, keepdims=True),
            )
            amp = _swept(v[:, rows], np.take(u_t, cols, axis=1))
            assert (lo <= amp).all() and (amp <= hi).all(), (n, m, k)
        # the aligned k-d blocks the sweep bounds, at every level; at odd k
        # (6, 2, 17) the columns' blocks are twice as wide as the leaf
        (row_order, row_boxes), (col_order, col_boxes) = _kd(v), _kd(u_t)
        levels = len(row_boxes) - 1
        for level in range(levels + 1):
            r, c = rng.integers(1 << level, size=2)
            height, wide = v.shape[1] >> level, u_t.shape[1] >> level
            rows = row_order[r * height : (r + 1) * height]
            cols = col_order[c * wide : (c + 1) * wide]
            lo, hi = _amp_interval(
                row_boxes[level][0][:, r], row_boxes[level][1][:, r],
                col_boxes[level][0][:, c], col_boxes[level][1][:, c],
            )
            amp = _swept(v[:, rows], np.take(u_t, cols, axis=1))
            assert (lo <= amp).all() and (amp <= hi).all(), (n, m, k, level)


def test_ties_build_sequences_only_when_asked(monkeypatch, capsys):
    from partial_search import enumeration

    sp = new_search_space(8, 0)
    res = enumerate_max_probability(sp, 20)
    assert len(res.tie_masks) > 1000
    built = []
    monkeypatch.setattr(
        enumeration, "_mask_to_sequence", lambda *a: built.append(a) or _mask_to_sequence(*a)
    )
    assert res.canonical == _mask_to_sequence(res.tie_masks[0], 20)
    assert len(built) == 1
    seqs = res.optimal_sequences
    assert len(built) == 1 + len(res.tie_masks)
    assert res.optimal_sequences is seqs  # built once
    assert seqs == tuple(_mask_to_sequence(mask, 20) for mask in res.tie_masks)
    # the CLI row without --all-ties: pr_max's sequence and the canonical
    built.clear()
    assert run(["enumerate", "--n", "8", "--m", "0", "--ktot", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",3876")
    assert len(built) == 2


def test_grk_is_optimal_at_the_expectation_optimal_budget():
    # at k* = k1 + k2 + 1 of the scan's minimum the exhaustive optimum is
    # that one GRK sequence, with the scan's expected iterations
    for rec in min_expected_sweep(10):
        sp = new_search_space(10, rec.m)
        res = enumerate_max_probability(sp, rec.k_tot)
        assert len(res.tie_masks) == 1, rec.m
        assert is_grk_form(res.canonical), rec.m
        assert res.canonical == OperatorSequence([(G, rec.k1), (L, rec.k2), (G, 1)])
        assert res.expected_iterations == pytest.approx(rec.e_min, rel=1e-13, abs=0)


# -- expected iterations --------------------------------------------------------


def _expected_iterations(space, seq):
    """Mean queries under restart-on-failure: total_queries / block pr."""
    return seq.total_queries / block_success_probability(space, seq)


def test_expected_iterations_reference_points():
    sp = new_search_space(8, 2)
    seq = OperatorSequence.from_token_spec("g:6,l:1,g:1")
    assert seq.product_string(sp) == "G_8G_2G_8^6"
    assert render_fixed(_expected_iterations(sp, seq)) == "10.4175"
    sp6 = new_search_space(8, 6)
    seq6 = OperatorSequence.from_token_spec("l:1,g:1")
    assert seq6.product_string(sp6) == "G_8G_6"
    assert render_fixed(_expected_iterations(sp6, seq6)) == "5.8919"


def test_expected_iterations_tiny_space():
    # n=1: one global query rotates to sin^2(3 pi/4) = 1/2, so E = 2
    sp = new_search_space(1, 0)
    assert _expected_iterations(sp, OperatorSequence([(G, 1)])) == pytest.approx(
        2.0, abs=1e-13
    )


def test_min_expected_prefers_smaller_budget_on_ties():
    sp = new_search_space(8, 3)
    results = list(enumerate_budgets(sp, [8, 8, 8]))
    assert min(results, key=lambda r: r.expected_iterations) is results[0]


def test_min_expected_matches_direct_scan():
    sp = new_search_space(6, 3)
    res = min(enumerate_budgets(sp, range(1, 11)), key=lambda r: r.expected_iterations)
    direct = min(
        (enumerate_max_probability(sp, k).expected_iterations, k)
        for k in range(1, 11)
    )
    assert (res.expected_iterations, res.k_tot) == direct


# -- classification and rendering ------------------------------------------------


def test_is_grk_form_cases():
    sp = new_search_space(8, 2)
    # (application-order tokens, the paper's product notation)
    yes = [
        ("g:6,l:1,g:1", "G_8G_2G_8^6"),
        ("g:1", "G_8"),
        ("g:4", "G_8^4"),
        ("l:3,g:1", "G_8G_2^3"),
    ]
    for spec, text in yes:
        seq = OperatorSequence.from_token_spec(spec)
        assert seq.product_string(sp) == text
        assert is_grk_form(seq)
    sp7 = new_search_space(8, 7)
    no = [("l:1,g:1,l:6,g:1", "G_8G_7^6G_8G_7"), ("l:1", "G_7"), ("l:1,g:2", "G_8^2G_7")]
    for spec, text in no:
        seq = OperatorSequence.from_token_spec(spec)
        assert seq.product_string(sp7) == text
        assert not is_grk_form(seq)
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
