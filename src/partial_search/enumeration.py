"""Exhaustive search over operator sequences of a fixed query budget.

A sequence of k_tot queries is a k_tot-bit mask (bit per query, global=0,
local=1, first query at the most significant bit so numeric order equals
lexicographic order). The sweep splits each mask after p = k_tot // 2
queries: mask (P << s) | S, s = k_tot - p, has the outside-block
amplitude u_S . v_P, where v_P is the state after prefix P and
u_S = e3^T M_S the covector of suffix S. The 2^p states and 2^s
covectors are each built by doubling.

A grid of at most _CHUNK_CELLS cells (k_tot <= 16) is one tile. A larger
one is a branch and bound over tiles of prefix rows x suffix columns.
States and covectors are each ordered once so that every aligned block
of them is a k-d cell, and the componentwise boxes of a tile's rows and
columns bound u . v over the tile. The closed-form amp^2 of the best GRK
leaf bounds the least amp^2 from above (up to _BOUND_SLACK), so a tile
whose amplitudes all lie farther from 0 holds neither the maximum nor a
tie and is dropped. The rest are bisected down to _LEAF_ROWS rows. Once
a level keeps more than _DENSE_SHARE of the tiles it bounds, the
survivors of the level above are swept instead: tiles 4x larger and at
most 1/_DENSE_SHARE as many cells. The tiles are evaluated in batches of
at most _CHUNK_CELLS cells, a tile larger than that in slices of whole
rows, one after another on the calling thread.

Dropped tiles hold no tie, batches only gather the ties and their order
is undone by the final sort, and every amplitude is the same three-term
sum outside BLAS: results are bit-identical to a sweep of every leaf,
for any number of BLAS threads. A call whose candidate ties exceed
_TIE_CAP is refused before they are gathered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .dynamics import (
    Kind,
    OperatorSequence,
    block_success_probability,
    global_grover_matrix,
    initial_state,
    local_grover_matrix,
)
from .errors import NumericalError, ParameterError, ResourceLimitError
from .scans import grk_max_block_probability
from .space import SearchSpace, check_qubits, new_search_space

K_TOT_CAP = 30  # 2^30 leaves; beyond this the exhaustive contract is off
TIE_TOL = 1e-9  # sequences this close to the maximum count as co-optimal
_CHUNK_CELLS = 1 << 16  # amplitude-grid cells per batch
_LEAF_ROWS = 16  # prefix rows per tile where bisection stops
_TOP_LEVEL = 4  # bisection starts from 2^4 x 2^4 tiles
_DENSE_SHARE = 0.9  # a level that keeps more of the tiles it bounds stops there
_BOUND_TILES = 4096  # tiles bounded per pass; larger passes spill the cache
# covers the rounding of 1 - amp^2 in the tie test, and the closed-form GRK
# reference's gap from its leaf on the grid (under 1e-14 where measured)
_BOUND_SLACK = 1e-12
_TIE_CAP = 1 << 24  # candidate ties a call may hold: all 2^24 leaves of (1, 0, 24)


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one exhaustive sweep at fixed k_tot.

    tie_masks holds, as a read-only int64 array, the k_tot-bit mask of
    every tie-class sequence (within TIE_TOL of pr_max, trailing-local
    representatives pruned), canonical first: fewest runs, then
    lexicographically smallest with global=0. canonical builds the first
    sequence only; optimal_sequences builds them all on first use.
    """

    k_tot: int
    pr_max: float
    tie_masks: np.ndarray
    expected_iterations: float

    @property
    def canonical(self) -> OperatorSequence:
        return _mask_to_sequence(int(self.tie_masks[0]), self.k_tot)

    @cached_property
    def optimal_sequences(self) -> tuple[OperatorSequence, ...]:
        return tuple(_mask_to_sequence(mask, self.k_tot) for mask in self.tie_masks.tolist())


@dataclass(frozen=True)
class TableRow:
    n: int
    m: int
    k_tot: int
    sequence: str  # product notation, rightmost factor applied first
    pr_max: float
    pr_percent: str  # 4-decimal rendering
    expected_iterations: float
    e_rendered: str  # 4-decimal rendering
    is_grk: bool


def _mask_to_sequence(mask: int, k_tot: int) -> OperatorSequence:
    runs = re.findall("0+|1+", format(mask, f"0{k_tot}b"))
    return OperatorSequence(
        (Kind.LOCAL if run[0] == "1" else Kind.GLOBAL, len(run)) for run in runs
    )


def _run_counts(masks: np.ndarray, k_tot: int) -> np.ndarray:
    """Runs in each k_tot-bit mask: one more than its adjacent bit changes
    (popcount of each byte from a 256-entry table, so a mask costs 8
    bytes, not 64; masks of up to 63 bits)."""
    changes = ((masks ^ (masks >> 1)) & ((1 << (k_tot - 1)) - 1)).astype(np.uint64)
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    ones = byte_bits.sum(axis=1, dtype=np.uint8)
    return 1 + ones[changes.view(np.uint8)].reshape(len(masks), 8).sum(axis=1)


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat by numpy's own sum-of-products loop, each entry the sum
    (r0 m0 + r1 m1) + r2 m2: no BLAS kernel or thread count touches the
    bits. Which loop numpy runs depends on the layout, so the states,
    the covectors and the batches of _sweep all come from C-contiguous
    rows and at least two columns of unit stride."""
    return np.einsum("ij,jk->ik", rows, mat)


def _doubled(
    start: np.ndarray, mats: tuple[np.ndarray, np.ndarray], depth: int, axis: int
) -> np.ndarray:
    """All 2^depth products of `start` with mats[0]/mats[1] (bit 0/1), one
    row each; axis=1 appends each new bit as the lowest, axis=0 as the
    highest."""
    rows = start.reshape(1, 3)
    for _ in range(depth):
        rows = np.stack([_times(rows, mat) for mat in mats], axis=axis).reshape(-1, 3)
    return rows


def _grid(space: SearchSpace, k_tot: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, u_t): the 2^p prefix states as rows and the 2^s suffix
    covectors as columns, so leaf (P << s) | S has amplitude (v @ u_t)[P, S]."""
    gn, lm = global_grover_matrix(space), local_grover_matrix(space)
    p, s = k_tot // 2, k_tot - k_tot // 2
    v = _doubled(initial_state(space).as_array(), (gn.T, lm.T), p, axis=1)
    u_t = np.ascontiguousarray(_doubled(np.eye(3)[2], (gn, lm), s, axis=0).T)
    return v, u_t


def _kd_order(coords: np.ndarray, leaf: int) -> np.ndarray:
    """Order of the 2^q points, the columns of `coords`, in which every
    aligned block of leaf * 2^j points is a k-d cell: each block is split
    at its median along one coordinate, the widest-spread coordinate
    first and then the three in turn."""
    axes = np.argsort(coords.min(axis=1) - coords.max(axis=1))
    order = np.arange(coords.shape[1])
    size, depth = len(order), 0
    while size > leaf:
        keys = coords[axes[depth % 3], order].reshape(-1, size)
        halves = np.argpartition(keys, size // 2 - 1, axis=1)
        order = np.take_along_axis(order.reshape(-1, size), halves, axis=1).ravel()
        size, depth = size // 2, depth + 1
    return order


def _boxes(
    coords: np.ndarray, order: np.ndarray, leaf: int, levels: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level j = 0..levels, the componentwise (min, max) of each of
    the 2^j aligned blocks of points in `order`, as two 3 x 2^j arrays."""
    blocks = np.take(coords, order, axis=1).reshape(3, -1, leaf)
    lo, hi = blocks.min(axis=2), blocks.max(axis=2)
    out = [(lo, hi)]
    for _ in range(levels):
        lo = np.minimum(lo[:, 0::2], lo[:, 1::2])
        hi = np.maximum(hi[:, 0::2], hi[:, 1::2])
        out.append((lo, hi))
    return out[::-1]


def _amp_interval(
    v_lo: np.ndarray, v_hi: np.ndarray, u_lo: np.ndarray, u_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per tile, bounds on u . v for v in the box [v_lo, v_hi]
    and u in [u_lo, u_hi] (3 x tiles arrays). Each term is bounded by its
    extreme corner products and the terms are summed in the order of
    _times, so, rounding being monotone, they bound the computed
    amplitudes too."""
    ends = (v_lo * u_lo, v_lo * u_hi, v_hi * u_lo, v_hi * u_hi)
    lo = np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
    hi = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    return (lo[0] + lo[1]) + lo[2], (hi[0] + hi[1]) + hi[2]


def _tiles(v: np.ndarray, u_t: np.ndarray, sq_ref: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch and bound over tiles of prefix rows x suffix columns.

    Returns (prefixes, suffixes), one row per surviving tile, all tiles
    of one size: its h prefix and its w suffix indices. sq_ref is amp^2
    of one leaf, within _BOUND_SLACK of that leaf's value on the grid. A
    tile is dropped when every amplitude it can hold squares to more
    than sq_ref + 2 TIE_TOL: none of its leaves is then the least amp^2
    or within TIE_TOL of it.
    """
    bound = sq_ref + 2.0 * TIE_TOL + _BOUND_SLACK
    rows_leaf = _LEAF_ROWS
    cols_leaf = _LEAF_ROWS * u_t.shape[1] // len(v)
    levels = (len(v) // rows_leaf).bit_length() - 1
    row_order, col_order = _kd_order(v.T, rows_leaf), _kd_order(u_t, cols_leaf)
    row_boxes = _boxes(v.T, row_order, rows_leaf, levels)
    col_boxes = _boxes(u_t, col_order, cols_leaf, levels)

    top = level = min(_TOP_LEVEL, levels)
    rows, cols = np.divmod(np.arange(1 << 2 * level), 1 << level)
    while True:
        keep = np.empty(len(rows), dtype=bool)
        for start in range(0, len(rows), _BOUND_TILES):
            cut = slice(start, start + _BOUND_TILES)
            lo, hi = _amp_interval(
                *(np.take(box, rows[cut], axis=1) for box in row_boxes[level]),
                *(np.take(box, cols[cut], axis=1) for box in col_boxes[level]),
            )
            gap = np.maximum(np.maximum(lo, -hi), 0.0)  # distance of [lo, hi] from 0
            keep[cut] = gap * gap <= bound
        if level > top and keep.mean() > _DENSE_SHARE:
            # sweep the parents of these tiles, the survivors of the level
            # above: a small tile makes a short inner loop of the product
            rows, cols, level = rows[::4] // 2, cols[::4] // 2, level - 1
            break
        rows, cols = rows[keep], cols[keep]
        if level == levels:
            break
        rows = (2 * rows[:, None] + np.array([0, 0, 1, 1])).ravel()
        cols = (2 * cols[:, None] + np.array([0, 1, 0, 1])).ravel()
        level += 1

    height, width = len(v) >> level, u_t.shape[1] >> level
    return row_order.reshape(-1, height)[rows], col_order.reshape(-1, width)[cols]


def _plan(
    space: SearchSpace, k_tot: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(v, u_t, prefixes, suffixes): the grid and, one row per tile, the
    prefix and suffix indices of the tiles that may hold the maximum or
    a tie; a grid of at most _CHUNK_CELLS cells is one tile."""
    v, u_t = _grid(space, k_tot)
    if len(v) * u_t.shape[1] <= _CHUNK_CELLS:
        return v, u_t, np.arange(len(v))[None], np.arange(u_t.shape[1])[None]
    return v, u_t, *_tiles(v, u_t, 1.0 - grk_max_block_probability(space, k_tot)[0])


def _sweep(
    v: np.ndarray, u_t: np.ndarray, prefixes: np.ndarray, suffixes: np.ndarray
) -> tuple[float, np.ndarray]:
    """(top, ties): the largest 1 - amp^2 over the tiles' cells and the
    masks of every cell within TIE_TOL of it, in no particular order.

    The tiles are evaluated in batches of at most _CHUNK_CELLS cells, a
    tile of more cells (a dense stop from k_tot = 25) in slices of whole
    rows: a long row keeps the inner loop of the product long. Each
    batch keeps the cells within 2 TIE_TOL of the least amp^2 seen
    so far (a superset of the ties; max(1 - sq) = 1 - min(sq), rounding
    is monotone), so later batches keep fewer."""
    s = u_t.shape[1].bit_length() - 1
    height, width = prefixes.shape[1], suffixes.shape[1]
    span = min(height, _CHUNK_CELLS // width)
    step = _CHUNK_CELLS // (span * width)
    low, batches, held = np.inf, [], 0
    for start, first in product(range(0, len(prefixes), step), range(0, height, span)):
        p = prefixes[start : start + step, first : first + span]
        q = suffixes[start : start + step]
        # np.take, not u_t[:, q]: contiguous columns keep _times's loop
        sq = np.einsum("tij,jtk->tik", v[p], np.take(u_t, q, axis=1))
        np.square(sq, out=sq)
        low = min(low, float(sq.min()))
        cells = np.flatnonzero(sq <= low + 2.0 * TIE_TOL)
        held += len(cells)
        if held > _TIE_CAP:
            raise ResourceLimitError(f"more than {_TIE_CAP} candidate ties; the tie set is capped")
        # cell = (tile * span + row) * width + col; p.ravel() has one
        # entry per tile * span + row
        rows, cols = np.divmod(cells, width)
        batches.append(((p.ravel()[rows] << s) | q[rows // span, cols], 1.0 - sq.ravel()[cells]))

    top = 1.0 - low
    ties = []
    while batches:  # release each batch as it is filtered
        masks, prs = batches.pop()
        ties.append(masks[prs >= top - TIE_TOL])
    return top, np.concatenate(ties)


def enumerate_max_probability(
    space: SearchSpace, k_tot: int, workers: int | None = None
) -> EnumerationResult:
    """Exact maximum of the block success probability over all 2^k_tot
    sequences of k_tot oracle queries.

    Ties within TIE_TOL are all collected. A trailing local query leaves
    the outside-block amplitude unchanged, so a local-ending sequence
    scores what its (k_tot - 1)-query prefix scores, and it can win where
    every extra global overshoots: at (n, m, k_tot) = (2, 1, 2) g:1,l:1
    reaches 1 and g:2 only 0.5. Local-ending ties are dropped from the
    reported optima unless every tie ends locally. The sweep only picks
    the ties: pr_max is `block_success_probability` of the canonical.
    More than 2^24 candidate ties (every sequence ties at n = 1, m = 0)
    raise ResourceLimitError. workers is accepted and ignored: the sweep
    is serial.
    """
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    if k_tot > K_TOT_CAP:
        raise ResourceLimitError(f"k_tot capped at {K_TOT_CAP} (cost 2^k_tot)")
    _, ties = _sweep(*_plan(space, k_tot))

    kept = ties[(ties & 1) == 0]
    if not len(kept):  # every tie ends in a local query
        kept = ties
    kept = kept[np.lexsort((kept, _run_counts(kept, k_tot)))]
    kept.flags.writeable = False

    pr_max = block_success_probability(space, _mask_to_sequence(int(kept[0]), k_tot))
    if pr_max <= 0.0:
        raise NumericalError("maximum probability is zero; cannot happen for k>=1")
    return EnumerationResult(
        k_tot=k_tot,
        pr_max=pr_max,
        tie_masks=kept,
        expected_iterations=k_tot / pr_max,
    )


def expected_iterations(space: SearchSpace, seq: OperatorSequence) -> float:
    """Mean queries under restart-on-failure: total_queries / block pr."""
    pr = block_success_probability(space, seq)
    if pr <= 0.0:
        raise NumericalError("zero success probability, expectation diverges")
    return seq.total_queries / pr


def min_expected_over_budget(
    space: SearchSpace, k_range: Iterable[int]
) -> tuple[int, EnumerationResult]:
    """Argmin of k / pr_max(k) over the budget range, ties to the earlier k."""
    best = min(
        ((k, enumerate_max_probability(space, k)) for k in k_range),
        key=lambda pair: pair[1].expected_iterations,
        default=None,
    )
    if best is None:
        raise ParameterError("empty k_tot range")
    return best


def is_grk_form(seq: OperatorSequence) -> bool:
    """True iff the sequence is globals, then locals, then one final
    global (any of the first two groups may be empty)."""
    runs = seq.runs
    if len(runs) == 1:
        return runs[0][0] is Kind.GLOBAL
    if len(runs) == 2:
        return runs[0][0] is Kind.LOCAL and runs[1] == (Kind.GLOBAL, 1)
    if len(runs) == 3:
        return (
            runs[0][0] is Kind.GLOBAL
            and runs[1][0] is Kind.LOCAL
            and runs[2] == (Kind.GLOBAL, 1)
        )
    return False


# -- fixed-precision rendering ------------------------------------------

_FOUR = Decimal("0.0001")


def render_fixed(value: float) -> str:
    return str(Decimal(repr(float(value))).quantize(_FOUR, rounding=ROUND_HALF_EVEN))


def render_percent(pr: float) -> str:
    """Probability as a 4-decimal percentage; a sub-unity probability is
    never shown as 100.0000 (saturated cells cap at 99.9999)."""
    text = render_fixed(pr * 100.0)
    if pr < 1.0 and text == "100.0000":
        return "99.9999"
    return text


def table_sweep(
    n: int, m_values: Sequence[int], k_values: Sequence[int]
) -> list[TableRow]:
    """One row per (m, k_tot): the optimum sequence, its probability and
    expected iterations, rendered at table precision."""
    check_qubits(n)
    if not m_values or not k_values:
        raise ParameterError(f"empty m or k_tot range at n={n}")
    rows = []
    for m in m_values:
        space = new_search_space(n, m)
        for k in k_values:
            res = enumerate_max_probability(space, k)
            seq = res.canonical
            rows.append(
                TableRow(
                    n=n,
                    m=m,
                    k_tot=k,
                    sequence=seq.product_string(space),
                    pr_max=res.pr_max,
                    pr_percent=render_percent(res.pr_max),
                    expected_iterations=res.expected_iterations,
                    e_rendered=render_fixed(res.expected_iterations),
                    is_grk=is_grk_form(seq),
                )
            )
    return rows
