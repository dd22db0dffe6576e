"""Closed-form global runs: an arbitrary-precision oracle, huge run counts,
and the vectorized scans against one `apply_sequence` call per cell."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partial_search import (
    Kind,
    OperatorSequence,
    ResourceLimitError,
    angles,
    apply_sequence,
    grk_optimal_parameters,
    new_search_space,
)
from partial_search import bounds, parallel, scans
from partial_search.cli import run
from partial_search.dynamics import _apply_sequences
from full_box_scan import final_rows, full_box_scan_min, uniform_after_globals
from partial_search.scans import (
    default_budget,
    default_k2_cap,
    grk_max_block_probability,
    grk_scan_min,
    scan_shape,
)

G, L = Kind.GLOBAL, Kind.LOCAL

# -- 60-digit oracle: G_n^j by repeated squaring, no closed form ---------------

mp = mpmath.MPContext()
mp.dps = 60


def _power(mat, j):
    result = mp.eye(3)
    while j:
        if j & 1:
            result = result * mat
        mat = mat * mat
        j >>= 1
    return result


def oracle_state(n, m, runs):
    """(t, bt, bbar) after the runs, every operator a 60-digit 3x3 matrix."""
    s2 = mp.power(2, mp.mpf(-m) / 2)
    sg = mp.power(2, mp.mpf(m - n) / 2)
    c2, cg = mp.sqrt(1 - s2**2), mp.sqrt(1 - sg**2)
    s = mp.matrix([sg * s2, sg * c2, cg])
    # oracle flips |t>, then reflect about the uniform state, or about the
    # in-block state inside the block while |b~> stays put
    oracle = mp.diag([-1, 1, 1])
    gn = (2 * s * s.T - mp.eye(3)) * oracle
    blk = mp.matrix([s2, c2, 0])
    lm = (2 * blk * blk.T - mp.diag([1, 1, -1])) * oracle
    v = s
    for kind, count in runs:
        v = _power(gn if kind is G else lm, count) * v
    return v


def max_error(got, ref):
    return max(float(abs(mp.mpf(got[i]) - ref[i])) for i in range(3))


@pytest.mark.parametrize("n, m", [(20, 10), (36, 18), (40, 20), (62, 31)])
def test_grk_sequences_match_60_digit_oracle(n, m):
    space = new_search_space(n, m)
    p = grk_optimal_parameters(space)
    worst = 0.0
    for k1 in (p.k1 - 2, p.k1, p.k1 + 2):
        for k2 in (p.k2 - 1, p.k2, p.k2 + 1):
            runs = [(G, k1), (L, k2), (G, 1)]
            got = apply_sequence(space, OperatorSequence(runs)).as_array()
            worst = max(worst, max_error(got, oracle_state(n, m, runs)))
    assert worst <= 1e-14


@pytest.mark.parametrize(
    "n, m, j", [(33, 16, 37073), (48, 24, 6710886), (55, 27, 75925012)]
)
def test_long_global_runs_match_60_digit_oracle(n, m, j):
    # about pi*sqrt(N)/4 globals: the rounding error of theta1 is
    # multiplied by 2j + 1, so these runs see the angle's last bits
    state = apply_sequence(new_search_space(n, m), OperatorSequence([(G, j)]))
    ref = oracle_state(n, m, [(G, j)])
    assert abs(1.0 - state.amp_bbar**2 - float(1 - ref[2] ** 2)) <= 4e-16


def test_oracle_reproduces_known_probability():
    # guards the oracle itself: one local then one global at (8, 2)
    ref = oracle_state(8, 2, [(L, 1), (G, 1)])
    assert float(1 - ref[2] ** 2) == pytest.approx(0.105747, abs=5e-7)


# -- run length costs nothing ---------------------------------------------------


def test_huge_global_runs_return(capsys):
    assert run(["simulate", "--n", "40", "--m", "20", "--seq", "g:100000000"]) == 0
    out = capsys.readouterr().out
    assert "g:100000000" in out
    space = new_search_space(62, 31)
    seq = OperatorSequence.from_token_spec("g:1686629712,l:1,g:1")
    state = apply_sequence(space, seq)
    assert abs(np.sum(state.as_array() ** 2) - 1.0) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_runs_match_oracle(data):
    # counts up to a few periods of each rotation: beyond that the error
    # grows with count * theta from the rounding of theta alone
    n = data.draw(st.integers(2, 62))
    m = data.draw(st.integers(0, n - 1))
    one_run = st.one_of(
        st.tuples(st.just(G), st.integers(0, 1 << (n // 2 + 2))),
        st.tuples(st.just(L), st.integers(0, 1 << (m // 2 + 2))),
    )
    runs = data.draw(st.lists(one_run, min_size=1, max_size=4))
    got = apply_sequence(new_search_space(n, m), OperatorSequence(runs)).as_array()
    assert max_error(got, oracle_state(n, m, runs)) <= 1e-13


# -- the batched propagator against one apply_sequence per row --------------------


def assert_rows_are_apply_sequence(space, rows):
    """_apply_sequences on the flat draws of rows (lists of bools, True for
    a local query) equals apply_sequence row by row, bit for bit."""
    local = np.array([bit for bits in rows for bit in bits], dtype=bool)
    got = _apply_sequences(space, local, np.array([len(bits) for bits in rows]))
    assert got.shape == (len(rows), 3)
    for row, bits in zip(got, rows):
        seq = OperatorSequence.from_kinds(L if bit else G for bit in bits)
        assert np.array_equal(row, apply_sequence(space, seq).as_array()), bits


@pytest.mark.parametrize(
    "n, m", [(1, 0), (8, 3), (10, 9), (40, 20), (62, 31), (8, 0), (62, 61)]
)
@pytest.mark.parametrize("max_k", [1, 7, 40])
def test_batched_runs_are_apply_sequence(n, m, max_k):
    rng = np.random.default_rng(64 * n + m + max_k)
    lengths = rng.integers(1, max_k + 1, 50)
    rows = [rng.integers(0, 2, k).astype(bool).tolist() for k in lengths]
    # counts up to max_k in both kinds, one-query rows, and run counts
    # from 1 to max_k (alternating kinds) side by side in one batch
    rows += [[True] * max_k, [False] * max_k, [True], [False]]
    rows += [[j % 2 == 0 for j in range(max_k)], [j % 2 == 1 for j in range(max_k)]]
    assert_rows_are_apply_sequence(new_search_space(n, m), rows)


def test_repeated_and_long_rows_are_apply_sequence():
    # every row is applied as drawn, bit for bit: repeats of one sequence,
    # an empty row, and rows of 61 to 100 queries side by side
    rng = np.random.default_rng(62)
    distinct = [[], [True], [False], [False, True], [True] * 62, [False] * 62]
    distinct += [rng.integers(0, 2, k).astype(bool).tolist() for k in (5, 61, 62, 63, 100)]
    distinct += [[False] * 63, [False] * 64, [True] + [False] * 61, [True] + [False] * 62]
    picks = rng.integers(0, len(distinct), 200)
    rows = [distinct[i] for i in picks] + distinct
    assert_rows_are_apply_sequence(new_search_space(12, 5), rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_batches_are_apply_sequence(data):
    n = data.draw(st.integers(1, 62))
    m = data.draw(st.integers(0, n - 1))
    bits = st.lists(st.booleans(), min_size=0, max_size=30)
    rows = data.draw(st.lists(bits, min_size=1, max_size=12))
    assert_rows_are_apply_sequence(new_search_space(n, m), rows)


# -- vectorized scans against one apply_sequence per cell ------------------------

L_QPU = 3
SUCCESSES = {
    "expectation": lambda prb, prt: prb,
    "grk": lambda prb, prt: prb**L_QPU,
    "hybrid": lambda prb, prt: 1.0 - (1.0 - prb**L_QPU) * (1.0 - prt) ** L_QPU,
}
SPACES = [(n, m) for n in range(1, 13) for m in range(n)]


def _grk_probabilities(space, k1, k2):
    state = apply_sequence(space, OperatorSequence([(G, k1), (L, k2), (G, 1)]))
    return np.float64(1.0 - state.amp_bbar**2), np.float64(state.amp_t**2)


def reference_optimum(cells):
    """The scans' contract as a plain loop over (value, queries, k2, result)
    cells: the lexicographic minimum of (value, queries, k2). Also returns
    every result whose value is within 1e-12 of the minimum: exact-arithmetic
    ties, which rounding may resolve either way."""
    best = min(cells, key=lambda c: c[:3])
    near = [c[3] for c in cells if abs(c[0] - best[0]) <= 1e-12 * abs(best[0])]
    return best[3], near


def assert_same_optimum(got, cells):
    want, near = reference_optimum(cells)
    if len(near) == 1:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
    else:
        assert any(got == pytest.approx(r, rel=1e-12, abs=1e-14) for r in near)


def scan_cells(space, success, budget, k2_cap):
    cells = []
    for k1 in range(budget):
        for k2 in range(min(k2_cap, budget - 1 - k1) + 1):
            pr_b, pr_t = _grk_probabilities(space, k1, k2)
            value = float(np.float64(1 + k1 + k2) / success(pr_b, pr_t))
            result = (value, k1, k2, float(pr_b), float(pr_t))
            cells.append((value, 1 + k1 + k2, k2, result))
    return cells


@pytest.mark.parametrize("allow_k2", [True, False])
@pytest.mark.parametrize("name", sorted(SUCCESSES))
def test_scan_min_matches_cell_loop(name, allow_k2):
    success = SUCCESSES[name]
    for n, m in SPACES:
        space = new_search_space(n, m)
        k2_cap = default_k2_cap(space) if allow_k2 else 0
        cells = scan_cells(space, success, default_budget(space), k2_cap)
        assert_same_optimum(grk_scan_min(space, success, allow_k2=allow_k2), cells)


def first_cell_reaching(space, budget, k2_cap, tau):
    """(k1, k2) of the cell with the fewest queries, then the smallest k2,
    whose block probability reaches tau."""
    for q in range(1, budget + 1):
        for k2 in range(min(k2_cap, q - 1) + 1):
            if _grk_probabilities(space, q - 1 - k2, k2)[0] >= tau:
                return q - 1 - k2, k2
    raise AssertionError("no cell reaches tau")


def step_success(lo, hi):
    """A success of 1 where the block probability reaches hi, 0.5 where it
    reaches only lo, 2^-20 elsewhere: q / success is exact, and a cell of
    q queries at 0.5 ties one of 2q queries at 1."""
    return lambda prb, prt: np.where(prb >= hi, 1.0, np.where(prb >= lo, 0.5, 2.0**-20))


def test_scan_min_tie_order_across_chunks():
    # every cell whose block probability reaches tau is worth its query
    # count, the rest 2^20 times theirs. The peaks of pr_block drift, so a
    # higher tau is first reached later: at 11, 539 and 3453 queries with
    # k2 <= 1 (leaves of 2048 rows, one level), at 12 (k2 = 0 and 2 tie)
    # and 82 with k2 <= 127 (leaves of 32 rows under three levels of
    # bisection). The pick is the fewest queries, then the smallest k2,
    # wherever the leaf and level boundaries fall. No tau is within 1e-10
    # of any cell.
    space = new_search_space(8, 3)
    cases = [(1, 0.99), (1, 0.9999999), (1, 0.99999999), (127, 0.999), (127, 0.99999999)]
    for k2_cap, tau in cases:
        k1, k2 = first_cell_reaching(space, 4097, k2_cap, tau)
        got = grk_scan_min(space, step_success(tau, tau), budget=4097, k2_cap=k2_cap)
        assert got[:3] == (1 + k1 + k2, k1, k2)
    for budget in (1, 2, 3, 2049, 4097):
        success = SUCCESSES["expectation"]
        cells = scan_cells(space, success, budget, 1)
        got = grk_scan_min(space, success, budget=budget, k2_cap=1)
        assert_same_optimum(got, cells)


def test_scan_min_refuses_more_cells_than_the_cap(monkeypatch):
    # the cap counts cells evaluated. A success of 0 makes every cell
    # worth inf, so the seed cuts nothing and nothing is pruned. The 4 x 3
    # box holds at most _SWEEP_CELLS cells, so it is swept whole: its 9
    # in-budget cells, and a cap of 9 admits it and 8 does not. With no
    # box swept whole it is bisected: one interval per column (6 end
    # cells), then the 9 in-budget cells of the leaves, so a cap of 15
    # admits it and 14 does not
    space = new_search_space(8, 3)
    never = lambda prb, prt: np.zeros_like(prb)  # noqa: E731
    for sweep_cells, cap in ((scans._SWEEP_CELLS, 9), (0, 15)):
        monkeypatch.setattr(scans, "_SWEEP_CELLS", sweep_cells)
        monkeypatch.setattr(scans, "_SCAN_CELL_CAP", cap)
        with np.errstate(divide="ignore"):
            assert grk_scan_min(space, never, budget=4, k2_cap=2)[:3] == (math.inf, 0, 0)
        monkeypatch.setattr(scans, "_SCAN_CELL_CAP", cap - 1)
        with pytest.raises(ResourceLimitError, match="cap of 2\\^3 evaluated cells"):
            grk_scan_min(space, never, budget=4, k2_cap=2)
    monkeypatch.undo()
    # a box of 2^20 x 513 cells, four times the old box cap, costs only
    # the cells that can beat the optimum: none past 16 queries can, as
    # the expectation exceeds the query count
    success = SUCCESSES["expectation"]
    got = grk_scan_min(space, success, budget=1 << 20, k2_cap=512)
    want = full_box_scan_min(space, success, budget=16, k2_cap=512)
    assert want[0] < 16 and got == want


def test_sweeps_refuse_an_oversized_scan_before_scanning_any(monkeypatch):
    # the up-front cap counts k2 columns; at n = 8 they grow with m, from
    # 4 at m = 1 to 19 at m = 7; a cap of 13 admits the first and not the last
    monkeypatch.setattr(scans, "_SCAN_COLUMN_CAP", 13)
    assert scan_shape(new_search_space(8, 1)) == (15, 4)
    with pytest.raises(ResourceLimitError, match="19 k2 columns"):
        scan_shape(new_search_space(8, 7))
    scanned = []

    def record(space, *args, **kwargs):
        scanned.append(space.m)
        return grk_scan_min(space, *args, **kwargs)

    monkeypatch.setattr(bounds, "grk_scan_min", record)
    monkeypatch.setattr(parallel, "grk_scan_min", record)
    with pytest.raises(ResourceLimitError):
        bounds.min_expected_sweep(8)
    # l = 1, 2 fit (m = 0, 4: 3 and 8 columns); l = 4 (m = 6, 14
    # columns) does not
    with pytest.raises(ResourceLimitError, match="14 k2 columns"):
        parallel.compare_schemes(256, [1, 2, 4])
    assert scanned == []
    bounds.min_expected_sweep(8, [1, 2])
    parallel.compare_schemes(256, [1, 2])
    assert scanned == [1, 2, 0, 0, 4, 4]


def test_budget_comparison_refuses_an_oversized_range_before_any_budget(monkeypatch):
    monkeypatch.setattr(scans, "_SPLIT_CAP", 40)
    space = new_search_space(8, 4)
    grk_max_block_probability(space, 40)
    with pytest.raises(ResourceLimitError, match="cap"):
        grk_max_block_probability(space, 41)
    swept = []

    def record(space, k_tot):
        swept.append(k_tot)
        return grk_max_block_probability(space, k_tot)

    monkeypatch.setattr(bounds, "grk_max_block_probability", record)
    # 10 + 11 + 12 + 13 = 46 splits: each budget fits, the range does not
    with pytest.raises(ResourceLimitError, match="cap"):
        bounds.pr_bound_comparison(space, range(10, 14))
    assert swept == []
    bounds.pr_bound_comparison(space, range(10, 13))
    assert swept == [10, 11, 12]


def test_scan_min_prefers_fewer_queries_over_smaller_k2():
    # the block probability first reaches 0.305 at (q, k2) = (4, 1) and
    # (4, 2), and 0.75 at (8, 0), (8, 1) and (8, 2). With success 1 from
    # 0.305 the two 4-query cells tie at 4: at equal queries the smaller
    # k2 wins. With success 0.5 from 0.305 and 1 from 0.75 they are worth
    # 8, exactly as (8, 0) is: the fewest queries beat the smaller k2. No
    # threshold is within 5e-4 of a cell's probability
    space = new_search_space(8, 3)
    for lo, hi, want in ((0.305, 0.305, (4.0, 2, 1)), (0.305, 0.75, (8.0, 2, 1))):
        got = grk_scan_min(space, step_success(lo, hi), budget=10, k2_cap=3)
        assert got[:3] == want


BLOCK_SUCCESSES = {
    "expectation": lambda prb, prt: prb,
    "target": lambda prb, prt: prt,
    **{f"grk-{l}": lambda prb, prt, l=l: prb**l for l in (2, 3, 4)},
    **{
        f"hybrid-{l}": lambda prb, prt, l=l: 1.0 - (1.0 - prb**l) * (1.0 - prt) ** l
        for l in (2, 3, 4)
    },
}


@pytest.mark.parametrize("n", range(1, 21))
def test_scan_min_matches_full_box(n):
    # the pruned scan against the sweep over every cell, for every m, the
    # expectation (of the block, and of the target itself) and the grk
    # and hybrid successes at l = 2..4, with and without k2: the same
    # cell, and the same value up to the rounding of the products. Far
    # cells where a success rounds to 0 are worth inf; the pruned scan
    # evaluates them too where a leaf spans the whole budget (few columns)
    for m in range(n):
        space = new_search_space(n, m)
        for name, success in BLOCK_SUCCESSES.items():
            for allow_k2 in (True, False):
                with np.errstate(divide="ignore"):
                    want = full_box_scan_min(space, success, allow_k2)
                    got = grk_scan_min(space, success, allow_k2)
                assert got[1:3] == want[1:3], (m, name, allow_k2)
                assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)


def record_sweep_budgets(monkeypatch):
    """The budget of every _best_cell call of the scans to come: the cut
    box swept whole, or a chunk of its surviving leaves."""
    budgets = []
    best_cell = scans._best_cell

    def record(*args):
        budgets.append(args[2])
        return best_cell(*args)

    monkeypatch.setattr(scans, "_best_cell", record)
    return budgets


@pytest.mark.parametrize(
    "m, uncut, cut", [(15, 2034, 31), (19, 2671, 1)], ids=["15-2034", "19-2671"]
)
def test_one_query_seed_cuts_a_wide_box(monkeypatch, m, uncut, cut):
    # at m > n/2 the optimum is the one-query cell. A cell worth at most
    # its value e has q <= q / pr <= e queries, so the scan sweeps the box
    # cut to floor(e) queries: 31 at m = 15, and 1 at m = 19, where the
    # whole box takes `uncut` intervals to bound. Either cut box holds at
    # most _SWEEP_CELLS cells, so no interval is bounded. The result is
    # still the full sweep's
    space = new_search_space(20, m)
    success = BLOCK_SUCCESSES["expectation"]
    bounded = []
    interval_bounds = scans._interval_bounds

    def record(*args):
        bounded.append(len(args[4]))
        return interval_bounds(*args)

    monkeypatch.setattr(scans, "_interval_bounds", record)
    budgets = record_sweep_budgets(monkeypatch)
    got = grk_scan_min(space, success)
    want = full_box_scan_min(space, success)
    assert sum(bounded) <= uncut // 50
    assert set(budgets) == {cut}
    assert got[1:3] == want[1:3] == (0, 0)
    assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)


def test_query_cut_is_the_floor_of_the_seed_within_the_budget(monkeypatch):
    # a constant success c makes the one-query seed 1 / c: the cells are
    # swept in the box cut to floor(1 / c) queries, clipped to the
    # budget, and a success of 0 (a seed of inf) keeps the whole budget.
    # The 4097 x 2 box that a seed of inf leaves is past _SWEEP_CELLS, so
    # it is bisected and its leaves are swept; every other box is swept whole
    space = new_search_space(8, 3)
    budgets = record_sweep_budgets(monkeypatch)
    for budget in (1, 2, 63, 64, 65, 200, 4097, 1 << 31):
        for c in (1.0, 0.75, 0.5, 1 / 21.9, 1 / 1365, 0.0):
            if c == 0.0 and budget > 4097:
                continue  # the uncut box would reach the cell cap
            budgets.clear()
            with np.errstate(divide="ignore"):
                got = grk_scan_min(
                    space, lambda prb, prt: np.full_like(prb, c), budget=budget, k2_cap=1
                )
            seed = 1.0 / c if c else math.inf
            assert set(budgets) == {min(budget, math.floor(seed)) if c else budget}
            assert got[:3] == (seed, 0, 0)


def test_one_query_seed_leaves_a_narrow_box_whole(monkeypatch):
    # at (20, 5) the one-query cell is worth 26,214 queries, far above
    # the box's 811: the cut keeps the whole budget
    space = new_search_space(20, 5)
    success = BLOCK_SUCCESSES["expectation"]
    budgets = record_sweep_budgets(monkeypatch)
    got = grk_scan_min(space, success)
    want = full_box_scan_min(space, success)
    assert set(budgets) == {default_budget(space)}
    assert got[1:3] == want[1:3]
    assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", range(1, 17))
def test_scan_paths_return_the_same_tuples(monkeypatch, n):
    # the row table against sines per cell, and the whole-box sweep
    # against bisection. A table of at most 0 rows is never built, one
    # of 2^30 wherever a bisection's cells reach its budget (no budget
    # here comes near 2^30 rows), and a box of more than 0 cells is
    # bisected. Every setting returns the same tuples, bit for bit
    results, tables = [], []
    row_table = scans._row_table

    def counting_row_table(*args):
        rows = row_table(*args)
        tables[-1] += rows is not None
        return rows

    monkeypatch.setattr(scans, "_row_table", counting_row_table)
    for trig_rows in (0, 1 << 30):
        for sweep_cells in (0, scans._SWEEP_CELLS):
            monkeypatch.setattr(scans, "_TRIG_ROWS", trig_rows)
            monkeypatch.setattr(scans, "_SWEEP_CELLS", sweep_cells)
            tables.append(0)
            with np.errstate(divide="ignore"):
                results.append(
                    [
                        grk_scan_min(new_search_space(n, m), success, allow_k2)
                        for m in range(n)
                        for success in BLOCK_SUCCESSES.values()
                        for allow_k2 in (True, False)
                    ]
                )
    assert all(got == results[0] for got in results[1:])
    assert tables[0] == tables[1] == 0 < tables[2]


def test_scan_takes_each_rows_sine_once(monkeypatch):
    # at (20, 10) the expectation scan bisects 52 columns of 837 rows,
    # bounding 1,342 intervals and sweeping 9,408 leaf cells. Its sines
    # are the row table's, the columns' and the seed's: none per interval
    # end or per cell
    space = new_search_space(20, 10)
    budget, columns = scan_shape(space)
    success = BLOCK_SUCCESSES["expectation"]
    sin = np.sin
    evaluated = []

    def counting_sin(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counting_sin)
    got = grk_scan_min(space, success)
    monkeypatch.undo()
    assert sum(evaluated) <= budget + 2 * columns + 2
    want = full_box_scan_min(space, success)
    assert got[1:3] == want[1:3]


@pytest.mark.parametrize("size", [1, 5, 32])
@pytest.mark.parametrize("n, m", [(6, 2), (8, 7), (12, 6), (16, 3)])
def test_interval_bounds_hold_against_the_products(n, m, size):
    # an interval's lower bound, from the closed form R sin(y + phi), lies
    # below q / pr on every cell as the products compute it, and its upper
    # bound above q / pr on one of its two end cells, for pr the block
    # and, separately, the target probability. Intervals of one cell show
    # that the slack covers the rounding of the closed form; longer ones
    # (past a zero of amp_b~ or a peak of amp_t) that the extremes inside
    # are found. The budget of 3 pi sqrt(N) / 4 covers more than one
    # period of y. The bounds from a row table of sin y and cos y are
    # those from sines per end cell
    space = new_search_space(n, m)
    budget = 3 * default_budget(space)
    k2s = np.arange(min(default_k2_cap(space), budget - 1) + 1)
    states = uniform_after_globals(space, np.arange(budget))
    pr_b = 1.0 - (states @ final_rows(space, k2s, 2)) ** 2
    pr_t = (states @ final_rows(space, k2s, 0)) ** 2
    rows = scans._sin_cos(angles(space).theta1, np.arange(budget), None)
    blocks, cols = np.divmod(np.arange(-(-budget // size) * len(k2s)), len(k2s))
    inside = blocks * size < budget - cols
    blocks, cols = blocks[inside], cols[inside]
    lo = blocks * size
    hi = np.minimum(lo + size, budget - cols) - 1
    queries = 1.0 + np.arange(budget)[:, None] + k2s
    for probability in (pr_b, pr_t):
        in_block = probability is pr_b
        success = lambda prb, prt: prb if in_block else prt  # noqa: E731
        with np.errstate(divide="ignore"):
            values = queries / probability
        coefficients = scans._sine_coefficients(space, cols)
        lower, upper = scans._interval_bounds(
            space, success, budget, size, blocks, cols, coefficients
        )
        # the ends' sines gathered from a row table give the same bits
        for got, want in zip(
            scans._interval_bounds(
                space, success, budget, size, blocks, cols, coefficients, rows
            ),
            (lower, upper),
        ):
            assert np.array_equal(got, want)
        for i in range(len(cols)):
            cells = values[lo[i] : hi[i] + 1, cols[i]]
            assert lower[i] <= cells.min()
            assert upper[i] >= min(cells[0], cells[-1])


def test_cell_probabilities_are_clipped_into_the_unit_interval():
    # at (2, 1) the target amplitude of the cells (k1, k2) = (0, 128),
    # (2, 21) and (2, 81) squares to 1.0000000000000004; a scan's
    # pr_target is a probability, at most 1
    space = new_search_space(2, 1)
    k = np.arange(200)
    pr_b, pr_t = scans._probabilities(
        angles(space).theta1, k[:, None], scans._sine_coefficients(space, k)
    )
    assert pr_t[[0, 2, 2], [128, 21, 81]].tolist() == [1.0, 1.0, 1.0]
    assert 0.0 <= pr_b.min() and pr_b.max() <= 1.0 and 0.0 <= pr_t.min() and pr_t.max() <= 1.0


def test_scan_bound_is_quiet_where_a_probability_bound_is_0():
    # at n = 44, m = 0 the first k1 interval starts at pr_block = 9/2^44,
    # below the bound's slack, so that end's probability is lowered to 0
    # and its expectation is inf, with no divide warning (Tier-1 turns one
    # into an error)
    space = new_search_space(44, 0)
    value, k1, k2, _, _ = grk_scan_min(space, SUCCESSES["expectation"], allow_k2=False)
    near = {
        j: (1 + j + k2) / float(_grk_probabilities(space, j, k2)[0])
        for j in range(max(0, k1 - 3), k1 + 4)
    }
    assert min(near, key=near.get) == k1
    assert value == pytest.approx(near[k1], rel=1e-12)


def test_max_block_probability_matches_cell_loop():
    for n, m in SPACES:
        space = new_search_space(n, m)
        for k_tot in range(1, math.ceil(math.pi * math.sqrt(space.N) / 4) + 3):
            cells = []
            for k2 in range(k_tot):
                pr_b, _ = _grk_probabilities(space, k_tot - 1 - k2, k2)
                result = (float(pr_b), k_tot - 1 - k2, k2)
                cells.append((-result[0], k_tot, k2, result))
            assert_same_optimum(grk_max_block_probability(space, k_tot), cells)
