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
    apply_sequence,
    grk_optimal_parameters,
    new_search_space,
)
from partial_search import bounds, parallel, scans
from partial_search.cli import run
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
    assert abs(state.norm_sq() - 1.0) < 1e-14


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


# -- vectorized scans against one apply_sequence per cell ------------------------

L_QPU = 3
OBJECTIVES = {
    "expectation": lambda q, prb, prt: q / prb,
    "grk": lambda q, prb, prt: q / prb**L_QPU,
    "hybrid": lambda q, prb, prt: q / (1.0 - (1.0 - prb**L_QPU) * (1.0 - prt) ** L_QPU),
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


def scan_cells(space, objective, budget, k2_cap):
    cells = []
    for k1 in range(budget):
        for k2 in range(min(k2_cap, budget - 1 - k1) + 1):
            pr_b, pr_t = _grk_probabilities(space, k1, k2)
            value = float(objective(np.float64(1 + k1 + k2), pr_b, pr_t))
            result = (value, k1, k2, float(pr_b), float(pr_t))
            cells.append((value, 1 + k1 + k2, k2, result))
    return cells


@pytest.mark.parametrize("allow_k2", [True, False])
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_scan_min_matches_cell_loop(name, allow_k2):
    objective = OBJECTIVES[name]
    for n, m in SPACES:
        space = new_search_space(n, m)
        k2_cap = default_k2_cap(space) if allow_k2 else 0
        cells = scan_cells(space, objective, default_budget(space), k2_cap)
        assert_same_optimum(grk_scan_min(space, objective, allow_k2=allow_k2), cells)


def test_scan_min_tie_order_across_chunks():
    # budget 4097 with k2 <= 1 spans three chunks of 2048 rows; every cell
    # with at least `floor` queries ties, so the pick is the fewest queries,
    # then the smallest k2, wherever the chunk boundary falls
    space = new_search_space(8, 3)
    for floor in (1, 2, 5, 2049, 2050, 4097):
        objective = lambda q, prb, prt: np.where(q >= floor, 0.0, 1.0)  # noqa: E731
        got = grk_scan_min(space, objective, budget=4097, k2_cap=1)
        assert got[:3] == (0.0, floor - 1, 0)
    for budget in (1, 2, 3, 2049, 4097):
        objective = OBJECTIVES["expectation"]
        cells = scan_cells(space, objective, budget, 1)
        got = grk_scan_min(space, objective, budget=budget, k2_cap=1)
        assert_same_optimum(got, cells)


def test_scan_min_refuses_more_cells_than_the_cap(monkeypatch):
    # the cap counts budget rows x k2 columns, the box before the budget
    # mask; 4 x 3 fits a cap of 12 exactly, 4 x 4 does not
    space = new_search_space(8, 3)
    monkeypatch.setattr(scans, "_SCAN_CELL_CAP", 12)
    objective = OBJECTIVES["expectation"]
    grk_scan_min(space, objective, budget=4, k2_cap=2)
    with pytest.raises(ResourceLimitError, match="4 x 4 cells"):
        grk_scan_min(space, objective, budget=4, k2_cap=3)
    monkeypatch.undo()
    with pytest.raises(ResourceLimitError):  # 2^20 x 513 cells
        grk_scan_min(space, objective, budget=1 << 20, k2_cap=512)


def test_sweeps_refuse_an_oversized_scan_before_scanning_any(monkeypatch):
    # at n = 8 the boxes grow with m, from 15 x 4 cells at m = 1 to
    # 25 x 19 at m = 7; a cap of 140 admits the first and not the last
    monkeypatch.setattr(scans, "_SCAN_CELL_CAP", 140)
    assert scan_shape(new_search_space(8, 1)) == (15, 4)
    with pytest.raises(ResourceLimitError, match="25 x 19 cells"):
        scan_shape(new_search_space(8, 7))
    scanned = []

    def record(space, *args, **kwargs):
        scanned.append(space.m)
        return grk_scan_min(space, *args, **kwargs)

    monkeypatch.setattr(bounds, "grk_scan_min", record)
    monkeypatch.setattr(parallel, "grk_scan_min", record)
    with pytest.raises(ResourceLimitError):
        bounds.min_expected_sweep(8)
    # l = 1, 2 fit (m = 0, 4: 14 x 3 and 17 x 8 cells); l = 4 (m = 6,
    # 21 x 14 cells) does not
    with pytest.raises(ResourceLimitError, match="21 x 14 cells"):
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
    # ties: every cell with k2 >= 1 and 6 queries or more, and every cell
    # with 7 or more; the fewest queries (6, k2 = 1) beat the smallest k2
    space = new_search_space(8, 3)
    budget, k2_cap = 10, 3
    by_q = {}
    for k1 in range(budget):
        for k2 in range(min(k2_cap, budget - 1 - k1) + 1):
            _, pr_t = _grk_probabilities(space, k1, k2)
            by_q.setdefault(1 + k1 + k2, []).append((float(pr_t), k2))

    def objective(q, prb, prt):
        # recover each cell's k2 from its target probability
        k2 = [min(by_q[int(a)], key=lambda c: abs(c[0] - b))[1] for a, b in zip(q, prt)]
        return np.where(((q >= 6) & (np.array(k2) >= 1)) | (q >= 7), 0.0, 1.0)

    got = grk_scan_min(space, objective, budget=budget, k2_cap=k2_cap)
    assert got[:3] == (0.0, 4, 1)


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
