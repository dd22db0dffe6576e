"""Vectorized integer scans over the three-parameter family
G^k1 (locals)^k2 (one final global), with no stepping: each amplitude
is a sin y + b cos y, y = (2 k1 + 1) theta1, with (a, b) closed-form in
k2. Bounds, cells and the k_tot diagonal all use it, with no matrix product.

These kernels back the bound comparisons and the parallel-scheme
optimizers. The scan box k1+k2+1 <= ceil(pi sqrt(N)/4) + ceil(sqrt(b)),
k2 <= ceil(pi sqrt(b)/2) covers every optimum seen at desk scale; widen
the arguments if exploring elsewhere.

grk_scan_min does not visit the whole box. It minimizes the expected
query count q / success(pr_block, pr_target), with success non-decreasing
in both probabilities and at most 1, so a cell of q queries is worth at
least q. It first evaluates the one-query cell (k1, k2) = (0, 0), the
seed, and cuts the box to floor(seed) queries: no cell with more can
beat or tie it. That makes the wide blocks (m > n/2), whose optimum is
the one-query cell, a box of a few cells. A cut box of at most
_SWEEP_CELLS cells is swept whole, in one product of its rows and
columns: y = (2 k1 + 1) theta1 depends only on the row, so each row
takes sin y and cos y once. In a larger box, along one k2 column, each
amplitude is R sin(y + phi), so over a k1 interval its square is
extreme at an end or at a zero or peak of the sine; that bounds the
expectation on the whole interval, and bisection keeps only the
intervals that can hold the optimum. Its interval ends and leaf cells
take sin y and cos y per cell until they would reach the number of
rows; from there on they gather them from a table of every row, at most
_TRIG_ROWS (2^16) rows and 1 MB, so longer budgets (the narrow blocks
from n = 34) stay per cell. Two caps keep a scan to seconds: a box of more than
_SCAN_COLUMN_CAP k2 columns, counted before the cut, is refused before
it starts, and a scan is stopped with ResourceLimitError once it would
evaluate more than _SCAN_CELL_CAP cells, interval ends and swept cells
alike.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dynamics import _uniform_complement, global_grover_matrix
from .errors import ParameterError, ResourceLimitError
from .space import SearchSpace, angles


def default_budget(space: SearchSpace) -> int:
    return math.ceil(math.pi * math.sqrt(space.N) / 4.0) + math.ceil(math.sqrt(space.b))


def default_k2_cap(space: SearchSpace) -> int:
    return math.ceil(math.pi * math.sqrt(space.b) / 2.0)


_LEAF = 32  # k1 cells per leaf interval, where bisection stops
_CHUNK_CELLS = 4096  # intervals per chunk; larger ones cost peak memory
_LEAF_CHUNK = 2 * _CHUNK_CELLS  # leaf cells per chunk of the sweep
_SWEEP_CELLS = _LEAF_CHUNK  # a cut box of at most this many cells skips bisection
# rows of a bisected scan's table of sin y and cos y (1 MB at most); a
# scan of more rows takes them per cell
_TRIG_ROWS = 1 << 16
_PROB_SLACK = 1e-12  # the closed form is within ~1e-15 of exact in a probability
# On a 2-vCPU host the bounds run at ~10M intervals/s (20M end cells/s) and
# the leaves at 25-30M cells/s, with sines per cell, so 2^25 evaluated
# cells is about 2 s; the largest scans of `bounds --n 40` and `parallel
# --scheme compare --n 40` evaluate 3.6M and 25M (1.4-1.6 s). The first level bounds every column of the box
# that the seed leaves: 2^22 of them would take about 1.3 s and 40 MB.
_SCAN_CELL_CAP = 1 << 25
_SCAN_COLUMN_CAP = 1 << 22
# k_tot splits per grk_max_block_probability call or pr_bound_comparison range:
# ~72 B and 0.1 us each on a 2-vCPU host, so 2^23 is about 1 s and 600 MB
_SPLIT_CAP = 1 << 23


def scan_shape(
    space: SearchSpace,
    allow_k2: bool = True,
    budget: int | None = None,
    k2_cap: int | None = None,
) -> tuple[int, int]:
    """(budget, k2 columns) of the grk_scan_min box with these arguments.

    Raises ResourceLimitError when the box has more than _SCAN_COLUMN_CAP
    k2 columns, so a caller about to run several scans can refuse before
    the first one starts. The cap counts the uncut box: a scan bounds
    only min(columns, cut) of them, the cut known only once the seed is.
    """
    if budget is None:
        budget = default_budget(space)
    if budget < 1:
        raise ParameterError("scan budget must allow at least one query")
    k2_hi = (k2_cap if k2_cap is not None else default_k2_cap(space)) if allow_k2 else 0
    columns = min(k2_hi, budget - 1) + 1
    if columns > _SCAN_COLUMN_CAP:
        raise ResourceLimitError(
            f"scan of {columns} k2 columns exceeds the cap of {_SCAN_COLUMN_CAP} at this n"
        )
    return budget, columns


def check_splits(splits: int) -> None:
    """Refuse a sweep over more than _SPLIT_CAP k_tot splits before it starts."""
    if splits > _SPLIT_CAP:
        raise ResourceLimitError(f"{splits} budget splits exceed the cap of 2^23")


def _sine_coefficients(space: SearchSpace, k2s: np.ndarray) -> np.ndarray:
    """(a_t, b_t, a_b, b_b) per k2, the rows of a 4 x len(k2s) array:
    after G_n (locals)^k2 G_n^k1 the amplitude of |t> is
    a_t sin y + b_t cos y = R sin(y + phi), with y = (2 k1 + 1) theta1
    and R^2 = a_t^2 + b_t^2, and that of |b~> is a_b sin y + b_b cos y."""
    u_bt, u_bb = _uniform_complement(space)
    g = global_grover_matrix(space)
    ang = (2.0 * angles(space).theta2) * k2s
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty((4, len(k2s)))
    for i, r in enumerate((g[0], g[2])):
        out[2 * i] = r[0] * c - r[1] * s
        out[2 * i + 1] = u_bt * (r[0] * s + r[1] * c) + u_bb * r[2]
    return out


Rows = tuple[np.ndarray, np.ndarray]  # (sin y, cos y) at k1 = 0, 1, ..., budget - 1


def _sin_cos(theta1: float, k1: np.ndarray, rows: Rows | None) -> Rows:
    """(sin y, cos y) at y = (2 k1 + 1) theta1: gathered from `rows`, a
    scan's table of both, where it has one, and computed otherwise. Both
    give the same bits: the table's y is the same product, and np.sin
    and np.cos are elementwise."""
    if rows is not None:
        return rows[0].take(k1), rows[1].take(k1)
    y = (2.0 * k1 + 1.0) * theta1
    return np.sin(y), np.cos(y)


def _row_table(theta1: float, budget: int, cells: int) -> Rows | None:
    """A bisected scan's row table, once `cells`, the cells it will have
    evaluated with its next level or its leaves, reach its `budget` of
    rows, and None before: the sines taken per cell until then are fewer
    than the table's. None past _TRIG_ROWS rows as well."""
    if cells < budget or budget > _TRIG_ROWS:
        return None
    return _sin_cos(theta1, np.arange(budget), None)


def _probabilities(
    theta1: float, k1: np.ndarray, coefficients: np.ndarray, rows: Rows | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(pr_block, pr_target) at the cells k1 of the columns whose
    _sine_coefficients are `coefficients`, broadcast together, each
    clipped into [0, 1]: rounding can carry a squared amplitude past 1.
    The sines come from _sin_cos with the row table `rows`."""
    a_t, b_t, a_b, b_b = coefficients
    sin_y, cos_y = _sin_cos(theta1, k1, rows)
    pr_block = 1.0 - (a_b * sin_y + b_b * cos_y) ** 2
    pr_target = (a_t * sin_y + b_t * cos_y) ** 2
    # 1 - x^2 <= 1 and x^2 >= 0 hold exactly: one bound each clips into [0, 1]
    return np.maximum(pr_block, 0.0, out=pr_block), np.minimum(pr_target, 1.0, out=pr_target)


def _interval_bounds(
    space: SearchSpace,
    success: Callable[[np.ndarray, np.ndarray], np.ndarray],
    budget: int,
    size: int,
    blocks: np.ndarray,
    k2s: np.ndarray,
    coefficients: np.ndarray,
    rows: Rows | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) per interval: k1 in block `blocks` of `size` cells,
    cut at the budget, in column k2s, whose _sine_coefficients are the
    columns of `coefficients`. The end cells' sines come from _sin_cos
    with the row table `rows`.

    Along the interval each amplitude is R sin(y + phi), so its square
    is least and greatest at an end, unless the interval holds a zero
    (a sign change of the amplitude) or a peak (one of its slope).
    lower is q / success at the fewest queries and the largest
    probabilities: at most its value on any cell of the interval. upper
    is at least its value on one of the two end cells. Each probability
    is widened by _PROB_SLACK, so both hold against rounding, also where
    a probability is 0.
    """
    lo = blocks * size
    hi = np.minimum(lo + size, budget - k2s) - 1
    theta1 = angles(space).theta1
    s_lo, c_lo = _sin_cos(theta1, lo, rows)
    s_hi, c_hi = _sin_cos(theta1, hi, rows)
    a_t, b_t, a_b, b_b = coefficients
    t_lo, t_hi = a_t * s_lo + b_t * c_lo, a_t * s_hi + b_t * c_hi
    bb_lo, bb_hi = a_b * s_lo + b_b * c_lo, a_b * s_hi + b_b * c_hi
    zero = bb_lo * bb_hi <= 0.0
    peak = (a_t * c_lo - b_t * s_lo) * (a_t * c_hi - b_t * s_hi) <= 0.0
    # an interval that spans pi in y may hold two zeros or two peaks. It
    # spans less than 2 size theta1, so below 3 the level holds none, by
    # a margin far past the rounding of y
    if 2.0 * size * theta1 >= 3.0:
        wide = (2.0 * hi + 1.0) * theta1 - (2.0 * lo + 1.0) * theta1 >= np.pi
        zero |= wide
        peak |= wide
    t_lo, t_hi, bb_lo, bb_hi = t_lo * t_lo, t_hi * t_hi, bb_lo * bb_lo, bb_hi * bb_hi
    pr_b_hi = 1.0 - np.where(zero, 0.0, np.minimum(bb_lo, bb_hi))
    pr_t_hi = np.where(peak, a_t * a_t + b_t * b_t, np.maximum(t_lo, t_hi))
    q_lo, q_hi = 1.0 + k2s + lo, 1.0 + k2s + hi
    with np.errstate(divide="ignore"):  # a probability bound of 0 is worth inf, as in the cells
        lower = q_lo / success(
            np.minimum(pr_b_hi + _PROB_SLACK, 1.0), np.minimum(pr_t_hi + _PROB_SLACK, 1.0)
        )
        upper = np.minimum(
            q_lo / success(
                np.maximum(1.0 - bb_lo - _PROB_SLACK, 0.0), np.maximum(t_lo - _PROB_SLACK, 0.0)
            ),
            q_hi / success(
                np.maximum(1.0 - bb_hi - _PROB_SLACK, 0.0), np.maximum(t_hi - _PROB_SLACK, 0.0)
            ),
        )
    return lower, upper


def _best_cell(
    success: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta1: float,
    budget: int,
    k1: np.ndarray,
    k2: np.ndarray,
    coefficients: np.ndarray,
    rows: Rows | None,
) -> tuple[float, int, int, float, float]:
    """(value, queries, k2, pr_block, pr_target) at the least value
    q / success over a block of cells of at most `budget` queries; ties
    break toward fewer queries, then smaller k2. Row i of the block is
    column k2[i], whose _sine_coefficients are coefficients[:, i], at the
    k1 of row i of `k1` (or of its one row, for every column). `rows` is
    the scan's row table, if any: k1 past its end is clamped for the
    gather, on cells that the budget drops anyway."""
    q = k1 + (k2[:, None] + 1.0)  # exact, and the division needs no cast
    pr_b, pr_t = _probabilities(
        theta1, np.minimum(k1, budget - 1), coefficients[:, :, None], rows
    )
    vals = np.where(q <= budget, q, np.inf)  # a cell past the budget is worth inf
    vals /= success(pr_b, pr_t)
    value = vals.min()
    i, j = np.divmod(np.flatnonzero(vals == value), vals.shape[1])
    t = np.lexsort((k2[i], q[i, j]))[0]  # past the budget only where all are inf
    i, j = i[t], j[t]
    return float(value), int(q[i, j]), int(k2[i]), float(pr_b[i, j]), float(pr_t[i, j])


def _check_cells(cells: int) -> None:
    """Refuse a scan before it builds the arrays that take it to `cells`
    evaluated cells, if that is past _SCAN_CELL_CAP."""
    if cells > _SCAN_CELL_CAP:
        raise ResourceLimitError(
            f"scan exceeds the cap of 2^{_SCAN_CELL_CAP.bit_length() - 1} "
            "evaluated cells at this n"
        )


def _bisect(
    space: SearchSpace,
    success: Callable[[np.ndarray, np.ndarray], np.ndarray],
    budget: int,
    columns: int,
    incumbent: float,
    coefficients: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, int, int, float, float]:
    """_best_cell over the box of `columns` k2 columns cut at `budget`
    queries, reached by bisecting each column into k1 intervals and
    sweeping the leaves that can beat or tie `incumbent`."""
    theta1 = angles(space).theta1
    rows = None  # the row table, built once the cells evaluated reach the budget
    evaluated = 0  # cells evaluated so far: interval ends, then leaf cells
    # the first level is one chunk of intervals, or one interval per
    # column, well inside the cap for at most _SCAN_COLUMN_CAP columns
    size = _LEAF
    while size < budget and columns * -(-budget // size) > _CHUNK_CELLS:
        size *= 2
    per_column = -(-budget // size)  # intervals per column at this level
    keys = np.arange(columns * per_column)  # k2 * per_column + interval
    while True:
        if rows is None:
            rows = _row_table(theta1, budget, evaluated + 2 * len(keys))
        keep = np.zeros(len(keys), dtype=bool)
        for s in range(0, len(keys), _CHUNK_CELLS):
            k2s, blocks = np.divmod(keys[s : s + _CHUNK_CELLS], per_column)
            inside = blocks * size < budget - k2s  # the second half may start past the end
            k2s, blocks = k2s[inside], blocks[inside]
            evaluated += 2 * len(k2s)
            lower, upper = _interval_bounds(
                space, success, budget, size, blocks, k2s, coefficients(k2s), rows
            )
            incumbent = min(incumbent, float(upper.min(initial=math.inf)))
            keep[s : s + _CHUNK_CELLS][inside] = ~(lower > incumbent)
        keys = keys[keep]
        if size == _LEAF:
            break
        _check_cells(evaluated + 4 * len(keys))
        keys = (2 * keys[:, None] + np.arange(2)).ravel()
        size //= 2
        per_column *= 2

    k2s, blocks = np.divmod(keys, per_column)
    evaluated += int(np.minimum(_LEAF, budget - k2s - blocks * _LEAF).sum())
    _check_cells(evaluated)
    if rows is None:
        rows = _row_table(theta1, budget, evaluated)
    # the leaves' columns, each computed or gathered once: keys rise, so k2s does
    first = np.ones(len(k2s), dtype=bool)
    np.not_equal(k2s[1:], k2s[:-1], out=first[1:])
    live = k2s[first]
    live_coefficients = coefficients(live)
    best: tuple[float, int, int, float, float] | None = None
    for s in range(0, len(keys), _LEAF_CHUNK // _LEAF):
        cut = slice(s, s + _LEAF_CHUNK // _LEAF)  # whole leaves, one per row
        cand = _best_cell(
            success,
            theta1,
            budget,
            blocks[cut, None] * _LEAF + np.arange(_LEAF),
            k2s[cut],
            live_coefficients[:, np.searchsorted(live, k2s[cut])],
            rows,
        )
        if best is None or cand[:3] < best[:3]:
            best = cand
    assert best is not None
    return best


def grk_scan_min(
    space: SearchSpace,
    success: Callable[[np.ndarray, np.ndarray], np.ndarray],
    allow_k2: bool = True,
    budget: int | None = None,
    k2_cap: int | None = None,
) -> tuple[float, int, int, float, float]:
    """Minimize the expectation queries / success(pr_block, pr_target)
    over the grid.

    queries = 1 + k1 + k2. Returns (value, k1, k2, pr_block, pr_target)
    at the optimum; ties break toward smaller (queries, k2).

    Precondition: success is non-decreasing in pr_block and pr_target on
    [0, 1] and at most 1, as every success in the package is. The scan
    relies on it to skip cells. First the one-query cell, evaluated as
    the leaf sweep evaluates it, seeds the incumbent, and the box is cut
    to floor(seed) queries (the whole budget for a seed of inf): a cell
    of q queries is worth at least q, so one of more is worth more than
    the seed, can neither beat nor tie the optimum, and the cut keeps
    the argmin and the tie rule. A cut box of at most _SWEEP_CELLS cells
    (columns x budget), as the wide blocks leave, and the one column of
    a scan without k2 up to n = 26, is swept whole in one product of
    its rows and columns, each row's sin y and cos y taken once.
    Otherwise each k2 column is bisected into aligned k1 intervals,
    level by level for all live intervals at once, and an interval is
    dropped when the expectation at (its fewest queries, the largest
    probabilities in it) exceeds the incumbent, the best expectation
    bounded at an interval end. Surviving leaves of _LEAF rows are swept
    flat with the same closed form, _LEAF_CHUNK cells at a time, so the
    result is that of a sweep over every cell. The interval ends and
    leaf cells take sin y and cos y per cell until, with the next level
    or the leaves, they would reach the budget's number of rows; from
    there on they gather them from a table of every row. So a scan takes
    fewer than twice the sines of the better of the two ways. A budget
    of more than _TRIG_ROWS rows (the narrow blocks from n = 34) keeps
    them per cell, so the table stays within 1 MB. A box of at most
    _CHUNK_CELLS columns computes their _sine_coefficients once, and
    every level and the leaves gather them; a wider one computes them
    per chunk of intervals, and once per column for the leaves. From n
    of about 53, neighbouring k1 give values within about 1e-15
    relative: the reported k1 is then one of several optimal up to
    rounding, and "fewer queries" breaks only exact ties.
    """
    budget, columns = scan_shape(space, allow_k2, budget, k2_cap)
    theta1 = angles(space).theta1
    # the _sine_coefficients of every column, computed once where they fit in a chunk
    table = _sine_coefficients(space, np.arange(columns)) if columns <= _CHUNK_CELLS else None
    zero = np.zeros(1, dtype=np.int64)
    pr_b, pr_t = _probabilities(
        theta1, zero, _sine_coefficients(space, zero) if table is None else table[:, :1]
    )
    with np.errstate(divide="ignore"):  # a one-query success of 0 is worth inf
        seed = float(1.0 / success(pr_b, pr_t)[0])
    if seed < budget:
        budget = math.floor(seed)
    columns = min(columns, budget)
    if table is None and columns <= _CHUNK_CELLS:
        table = _sine_coefficients(space, np.arange(columns))

    def coefficients(k2s: np.ndarray) -> np.ndarray:
        return _sine_coefficients(space, k2s) if table is None else table[:, k2s]

    if columns * budget <= _SWEEP_CELLS:
        _check_cells(columns * budget - columns * (columns - 1) // 2)
        k2s = np.arange(columns)
        # its k1 are one row shared by every column, so each sine is taken once
        best = _best_cell(success, theta1, budget, np.arange(budget), k2s, coefficients(k2s), None)
    else:
        best = _bisect(space, success, budget, columns, seed, coefficients)
    value, q_opt, k2_opt, pr_b_opt, pr_t_opt = best
    return value, q_opt - 1 - k2_opt, k2_opt, pr_b_opt, pr_t_opt


def grk_max_block_probability(
    space: SearchSpace, k_tot: int
) -> tuple[float, int, int]:
    """Maximum block probability over k1 + k2 = k_tot - 1 (full k2 range).

    Returns (pr, k1, k2). All splits are one vectorized sweep of the
    closed-form amplitude of |b~>, and the argmax is taken in
    floating point: splits that tie exactly in exact arithmetic (as at
    m = 1) are settled by rounding, not by a rule on k2.
    """
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    check_splits(k_tot)
    k2s = np.arange(k_tot)
    pr, _ = _probabilities(angles(space).theta1, k_tot - 1 - k2s, _sine_coefficients(space, k2s))
    j = int(np.argmax(pr))
    return float(pr[j]), k_tot - 1 - j, j
