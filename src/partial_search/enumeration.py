"""Exhaustive search over operator sequences of a fixed query budget.

A sequence of k_tot queries is a k_tot-bit mask (bit per query, global=0,
local=1, first query at the most significant bit so numeric order equals
lexicographic order). The sweep splits each mask after p = k_tot // 2
queries: mask (P << s) | S, s = k_tot - p, has the outside-block
amplitude u_S . v_P, where v_P is the state after prefix P and
u_S = e3^T M_S the covector of suffix S. Each geometry has one tree of
prefix states and one of suffix covectors, built by doubling, one level
per query, each level one contiguous 3 x 2^q array with a column per
sequence in mask order that the k-d order, the boxes and the sweep read
as it is. The trees of the last _TREE_GEOMETRIES geometries are cached,
so that the budgets of a range and repeated calls at one geometry build
each level once: a tree grows on demand, from its deepest level, to the
deepest budget asked for, and is replaced whole, never appended to. A
level's k-d order and boxes are built by the first budget that tiles
it, and kept. All of these arrays are read-only.

A grid of at most _CHUNK_CELLS cells (k_tot <= 16) is one tile, swept as
one product of every covector against every state. A larger one is a
branch and bound over tiles of prefix rows x suffix columns.
Each level is ordered so that every aligned block of it is a k-d cell
(at an odd budget the covectors' leaf is twice the states', the same
order one level up), and the componentwise boxes of a tile's rows and
columns bound u . v over the tile. The closed-form amp^2 of the best GRK
leaf bounds the least amp^2 from above (up to _BOUND_SLACK), so a tile
whose amplitudes all lie farther from 0 holds neither the maximum nor a
tie and is dropped. The rest are bisected down to _LEAF_ROWS rows. Then
an exact stage bounds each of a leaf tile's covectors on its own against
the tile's row box and drops, by the same test, every (tile, covector)
pair that holds no candidate: a tile's interval spans the box of all of
its covectors, a pair's only its one covector. Once a level keeps more
than _DENSE_SHARE of the tiles it bounds, the survivors of the level
above are swept instead, every pair of them: tiles 4x larger and at
most 1/_DENSE_SHARE as many cells.

The surviving tiles touch few suffix blocks, so they are swept one
suffix block at a time: the block's covectors that some tile keeps
against the prefix rows of all of its tiles that keep one, the rows
along the long, contiguous axis, in batches of at most _CHUNK_CELLS
cells, one after another on the calling thread, under a small ufunc
buffer so that numpy computes each row in place instead of copying it
through the buffer. Each amplitude is written out as
(u0 v0 + u1 v1) + u2 v2, the order the tile and pair bounds assume,
whatever the layout. Dropped tiles and pairs hold no tie, batches only
gather the ties and their order is undone by the final sort, and no
amplitude passes through BLAS: results are bit-identical to a sweep of
every leaf, for any number of BLAS threads and any ufunc buffer size.
A call whose candidate ties exceed _TIE_CAP is refused before they are
gathered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

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
_LEAF_ROWS = 32  # prefix rows per tile where bisection stops
_TOP_LEVEL = 4  # bisection starts from 2^4 x 2^4 tiles
_DENSE_SHARE = 0.9  # a level that keeps more of the tiles it bounds stops there
_BOUND_TILES = 4096  # tiles bounded per pass; larger passes spill the cache
# covers the rounding of 1 - amp^2 in the tie test, and the closed-form GRK
# reference's gap from its leaf on the grid (under 1e-14 where measured)
_BOUND_SLACK = 1e-12
_TIE_CAP = 1 << 24  # candidate ties a call may hold: all 2^24 leaves of (1, 0, 24)
# geometries whose trees are kept (LRU): the six of the paper's n = 8 grids, which
# both grids read, and two more. One geometry's levels, int32 k-d orders and boxes
# take 478,992 B at k_tot 22..24 and 4,057,088 B with every k_tot <= 30
_TREE_GEOMETRIES = 8
# numpy's ufunc buffer, in elements, while _sweep runs: at (8, 0, 24) its 129
# products of up to 32 covectors x 32-2,304 prefix rows took 9.7 ms under the
# default 8192 and 7.8-8.2 ms under 16 to 1024 (2-vCPU host, numpy 2.4.6)
_SWEEP_BUFSIZE = 64


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


_BYTE_ONES = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _run_counts(masks: np.ndarray, k_tot: int) -> np.ndarray:
    """Runs in each k_tot-bit mask, as uint8: one more than its adjacent
    bit changes (popcount of each byte from a 256-entry table, so a mask
    costs 8 bytes, not 64; masks of up to 63 bits)."""
    changes = ((masks ^ (masks >> 1)) & ((1 << (k_tot - 1)) - 1)).astype(np.uint64)
    counts = _BYTE_ONES[changes.view(np.uint8)].reshape(len(masks), 8)
    return 1 + counts.sum(axis=1, dtype=np.uint8)


def _doubled(
    levels: tuple[np.ndarray, ...], mats: tuple[np.ndarray, np.ndarray], depth: int, axis: int
) -> tuple[np.ndarray, ...]:
    """`levels`, the products of a start with 0, 1, ... factors
    mats[0]/mats[1] (bit 0/1), grown from its deepest level to `depth`
    factors, as a new tuple: level j, a read-only 3 x 2^j array, holds
    the 2^j products of j factors, one column each in mask order. Each
    column of level j + 1 is mats[bit]^T times a column of level j:
    axis=1 appends each new bit as the lowest, axis=0 as the highest.
    Each product is numpy's own einsum loop, no BLAS kernel, so no thread
    count touches the bits."""
    grown = list(levels)
    while len(grown) <= depth:
        level = grown[-1]
        width = level.shape[1]
        children = np.empty((3, 2 * width))
        if axis == 1:
            pairs = children.reshape(3, width, 2).swapaxes(1, 2)
        else:
            pairs = children.reshape(3, 2, width)
        for bit, mat in enumerate(mats):
            np.einsum("jk,ji->ki", mat, level, out=pairs[:, bit])
        children.setflags(write=False)
        grown.append(children)
    return tuple(grown)


@lru_cache(maxsize=_TREE_GEOMETRIES)
def _trees(space: SearchSpace) -> list:
    """[states, covectors, kd, mats] of one geometry: the prefix-state and
    suffix-covector trees, grown by _grid from the initial state and from
    e3 by mats, and kd, the _kd of each level that _plan has tiled, by
    (tree, depth)."""
    gn, lm = global_grover_matrix(space), local_grover_matrix(space)
    start, e3 = initial_state(space).as_array().reshape(3, 1), np.eye(3)[2].reshape(3, 1)
    for array in (gn, lm, start, e3):
        array.setflags(write=False)
    return [(start,), (e3,), {}, ((gn.T, lm.T), (gn, lm))]


def _grid(space: SearchSpace, k_tot: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, u_t): the 2^p prefix states and the 2^s suffix covectors, each
    a contiguous 3 x 2^q array with one column per sequence in mask
    order, so leaf (P << s) | S has amplitude (v.T @ u_t)[P, S]: one
    level of each of the geometry's trees (_trees), grown first if it is
    too shallow. A tree grows as a new tuple: a concurrent call reads the
    old tree or the new one, whole, and two calls that grow it at once
    each read the levels they built, the last one kept."""
    trees, p, s = _trees(space), k_tot // 2, k_tot - k_tot // 2
    states, covectors = trees[0], trees[1]
    if len(states) <= p:
        states = trees[0] = _doubled(states, trees[3][0], p, axis=1)
    if len(covectors) <= s:
        covectors = trees[1] = _doubled(covectors, trees[3][1], s, axis=0)
    return states[p], covectors[s]


def _kd(points: np.ndarray) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """(order, boxes), read-only: the k-d order of the points at leaf
    _LEAF_ROWS (_kd_order) and, per level j = 0, 1, ... down to blocks
    of _LEAF_ROWS points, the componentwise (min, max) of each of its
    2^j aligned blocks, as two 3 x 2^j arrays."""
    order = _kd_order(points, _LEAF_ROWS)
    blocks = np.take(points, order, axis=1).reshape(3, -1, _LEAF_ROWS)
    lo, hi = blocks.min(axis=2), blocks.max(axis=2)
    boxes = [(lo, hi)]
    while lo.shape[1] > 1:
        lo = np.minimum(lo[:, 0::2], lo[:, 1::2])
        hi = np.maximum(hi[:, 0::2], hi[:, 1::2])
        boxes.append((lo, hi))
    order = order.astype(np.int32)  # half the bytes the cache holds; _tiles widens its picks
    for array in (order, *(end for box in boxes for end in box)):
        array.setflags(write=False)
    return order, tuple(boxes[::-1])


def _kd_order(coords: np.ndarray, leaf: int) -> np.ndarray:
    """Order of the 2^q points, the columns of `coords`, in which every
    aligned block of leaf * 2^j points is a k-d cell: each block is split
    at its median along one coordinate, the widest-spread coordinate
    first and then the three in turn."""
    axes = np.argsort(coords.min(axis=1) - coords.max(axis=1))
    order = np.arange(coords.shape[1])
    size, depth = len(order), 0
    while size > leaf:
        keys = coords[axes[depth % 3]].take(order).reshape(-1, size)
        halves = np.argpartition(keys, size // 2 - 1, axis=1)
        halves += np.arange(0, len(order), size)[:, None]  # block offsets
        order = order[halves.ravel()]
        size, depth = size // 2, depth + 1
    return order


def _amp_interval(
    v_lo: np.ndarray, v_hi: np.ndarray, u_lo: np.ndarray, u_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per tile, bounds on u . v for v in the box [v_lo, v_hi]
    and u in [u_lo, u_hi] (3 x tiles arrays). Each term is bounded by its
    extreme corner products and the terms are summed in the order of
    _amplitudes, (t0 + t1) + t2, so, rounding being monotone, they bound
    the computed amplitudes too."""
    ends = (v_lo * u_lo, v_lo * u_hi, v_hi * u_lo, v_hi * u_hi)
    lo = np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
    hi = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    return (lo[0] + lo[1]) + lo[2], (hi[0] + hi[1]) + hi[2]


def _tiles(
    v: np.ndarray, u_t: np.ndarray, row_kd: tuple, col_kd: tuple, sq_ref: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch and bound over tiles of prefix rows v x suffix columns u_t.

    Each side is read in its _kd, row_kd and col_kd. Returns (prefixes,
    suffixes, pairs): one row per surviving tile, all tiles of one size,
    of its h prefix and its w suffix indices, and the w x tiles mask of
    _pairs, which keeps suffix j of tile t unless that one covector is
    dropped against the tile's row box. sq_ref is amp^2 of one leaf,
    within _BOUND_SLACK of that leaf's value on the grid. A tile, or a
    (tile, covector) pair, is dropped when every amplitude it can hold
    squares to more than sq_ref + 2 TIE_TOL: none of its leaves is then
    the least amp^2 or within TIE_TOL of it.
    """
    bound = sq_ref + 2.0 * TIE_TOL + _BOUND_SLACK
    (row_order, row_boxes), (col_order, col_boxes) = row_kd, col_kd
    levels = len(row_boxes) - 1
    col_boxes = col_boxes[: levels + 1]  # odd k_tot: leaf 2 _LEAF_ROWS, as one level up

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
            # above: bisecting on would bound 4x the tiles to drop few cells
            rows, cols, level = rows[::4] // 2, cols[::4] // 2, level - 1
            break
        rows, cols = rows[keep], cols[keep]
        if level == levels:
            break
        rows = (2 * rows[:, None] + np.array([0, 0, 1, 1])).ravel()
        cols = (2 * cols[:, None] + np.array([0, 1, 0, 1])).ravel()
        level += 1

    height, width = v.shape[1] >> level, u_t.shape[1] >> level
    prefixes = row_order.reshape(-1, height)[rows].astype(np.int64)
    suffixes = col_order.reshape(-1, width)[cols].astype(np.int64)
    if level < levels:
        # a dense stop: the few pairs that the stage would drop from tiles
        # this large seldom empty a covector of its whole suffix block,
        # so they would leave the sweep's products as they are
        return prefixes, suffixes, np.ones((width, len(cols)), dtype=bool)
    v_lo, v_hi = (np.take(box, rows, axis=1) for box in row_boxes[level])
    covectors = np.take(u_t, suffixes.T, axis=1)  # 3 x w x tiles
    return prefixes, suffixes, _pairs(v_lo, v_hi, covectors, bound)


def _pairs(
    v_lo: np.ndarray, v_hi: np.ndarray, covectors: np.ndarray, bound: float
) -> np.ndarray:
    """keep, a w x tiles bool array: keep[j, t] unless every amplitude of
    covector j of tile t (covectors is 3 x w x tiles) against a state in
    the tile's row box [v_lo, v_hi] (3 x tiles each) squares to more
    than `bound`. This is _amp_interval with u_lo = u_hi = u: with u_i
    fixed, the rounded product u_i v_i is monotone in v_i, so each term
    lies between its products at the box's two ends, and the terms are
    summed in the order of _amplitudes, (t0 + t1) + t2. The tiles lie
    along the contiguous axis, and five w x tiles buffers hold every
    step."""
    lo, hi, at_lo, at_hi, term = (np.empty(covectors.shape[1:]) for _ in range(5))
    for i in range(3):
        np.multiply(covectors[i], v_lo[i], out=at_lo)
        np.multiply(covectors[i], v_hi[i], out=at_hi)
        if i == 0:
            np.minimum(at_lo, at_hi, out=lo)
            np.maximum(at_lo, at_hi, out=hi)
        else:
            np.add(lo, np.minimum(at_lo, at_hi, out=term), out=lo)
            np.add(hi, np.maximum(at_lo, at_hi, out=term), out=hi)
    gap = np.maximum(lo, np.negative(hi, out=hi), out=lo)  # distance from 0
    np.maximum(gap, 0.0, out=gap)
    return np.square(gap, out=gap) <= bound


def _plan(space: SearchSpace, k_tot: int) -> tuple:
    """(v, u_t, prefixes, suffixes, pairs): the grid (_grid), one row per
    tile, the prefix and suffix indices of the tiles that may hold the
    maximum or a tie, and which (covector, tile) pairs of them may
    (_tiles); a grid of at most _CHUNK_CELLS cells is one tile, swept
    whole, and its prefixes, suffixes and pairs are None. Each level's
    _kd is built once per geometry, by the first budget that tiles it:
    any two builds of a level are bit-identical."""
    v, u_t = _grid(space, k_tot)
    if v.shape[1] * u_t.shape[1] <= _CHUNK_CELLS:
        return v, u_t, None, None, None
    kd, keys = _trees(space)[2], ((0, k_tot // 2), (1, k_tot - k_tot // 2))
    for key, points in zip(keys, (v, u_t)):
        if key not in kd:
            kd[key] = _kd(points)
    sq_ref = 1.0 - grk_max_block_probability(space, k_tot)[0]
    return v, u_t, *_tiles(v, u_t, kd[keys[0]], kd[keys[1]], sq_ref)


def _amplitudes(
    states: np.ndarray, covectors: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """u . v for every covector u (3 x w, a row of `out` each) and state v
    (3 x r, a column each), written out as (u0 v0 + u1 v1) + u2 v2 into
    the w x r arrays out and tmp: each term is one IEEE product and each
    sum one addition, whatever the layout."""
    np.multiply(covectors[0][:, None], states[0], out=out)
    np.multiply(covectors[1][:, None], states[1], out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(covectors[2][:, None], states[2], out=tmp)
    return np.add(out, tmp, out=out)


def _check_ties(held: int) -> None:
    """Refuse a call once the candidate ties it holds exceed _TIE_CAP."""
    if held > _TIE_CAP:
        raise ResourceLimitError(f"more than {_TIE_CAP} candidate ties; the tie set is capped")


def _sweep(
    v: np.ndarray,
    u_t: np.ndarray,
    prefixes: np.ndarray | None,
    suffixes: np.ndarray | None,
    pairs: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """(top, ties): the largest 1 - amp^2 over the tiles' cells and the
    masks of every cell within TIE_TOL of it, in no particular order.

    A one-tile plan (k_tot <= 16, prefixes None) is one product of
    every covector against every state, under the caller's ufunc buffer
    (_sweep_grid): its grid of at most _CHUNK_CELLS cells is one batch,
    and the buffer switch below cost more than it saved there. Otherwise the tiles are grouped by their suffix block.
    Each group is one product of the block's covectors that `pairs`
    (w x tiles) keeps for at least one of the group's tiles, one row
    each, with the prefix rows of the group's tiles that keep at least
    one of them along the long, contiguous axis. Where every pair is
    kept (a dense stop) that is the block's w covectors against all of
    the group's rows. The product may hold cells of dropped pairs: each
    is a leaf, swept exactly. It is taken in batches of at most
    _CHUNK_CELLS cells, as many rows and as few covectors per batch as
    that allows. The two scratch arrays hold no more cells than the
    largest product. Each batch keeps the cells within 2 TIE_TOL of the
    least amp^2 seen so far (a superset of the ties; max(1 - sq) =
    1 - min(sq), rounding is monotone), so later batches keep fewer.

    The batches run with numpy's ufunc buffer at _SWEEP_BUFSIZE elements,
    and the caller's size is restored on return and on error. numpy 2
    copies a broadcast product whose rows are shorter than about a third
    of its buffer (8192 elements by default) through that buffer, at
    several times the cost per cell, and most groups' rows are 32 to a
    few thousand long; under a buffer shorter than a row, each row is
    computed in place.
    Every step of a batch is elementwise or a min, so no result depends
    on the buffer size."""
    if prefixes is None:
        return _sweep_grid(v, u_t)
    s = u_t.shape[1].bit_length() - 1
    # a block's first suffix names it: aligned blocks are disjoint
    order = np.argsort(suffixes[:, 0], kind="stable")
    names = suffixes[order, 0]
    bounds = [0, *(np.flatnonzero(names[1:] != names[:-1]) + 1).tolist(), len(order)]
    pairs = pairs[:, order]
    groups = []  # per suffix block: its kept suffixes and the tiles that keep one
    for start, end in zip(bounds, bounds[1:]):
        kept = pairs[:, start:end]
        q = np.flatnonzero(kept.any(axis=1))
        if len(q):
            group = order[start:end][kept.any(axis=0)]
            groups.append((suffixes[group[0], q], group))
    most = max(len(q) * len(group) for q, group in groups) * prefixes.shape[1]
    cells = min(_CHUNK_CELLS, most)  # the largest batch at most
    out, tmp = np.empty(cells), np.empty(cells)
    low, batches, held = np.inf, [], 0
    old_bufsize = np.setbufsize(_SWEEP_BUFSIZE)
    try:
        for q, group in groups:
            covectors = np.take(u_t, q, axis=1)
            rows = prefixes[group].ravel()
            width = len(q)
            span = min(len(rows), _CHUNK_CELLS)  # prefix rows per batch
            step = min(width, _CHUNK_CELLS // span)  # covectors per batch
            for first in range(0, len(rows), span):
                p = rows[first : first + span]
                block = np.take(v, p, axis=1)
                for col in range(0, width, step):
                    size = len(p) * min(step, width - col)
                    sq = _amplitudes(
                        block,
                        covectors[:, col : col + step],
                        out[:size].reshape(-1, len(p)),
                        tmp[:size].reshape(-1, len(p)),
                    )
                    np.square(sq, out=sq)
                    least = float(sq.min())
                    low = min(low, least)
                    if least > low + 2.0 * TIE_TOL:
                        continue  # no candidate in this batch
                    cells = np.flatnonzero(sq <= low + 2.0 * TIE_TOL)
                    held += len(cells)
                    _check_ties(held)
                    cols, at = np.divmod(cells, len(p))  # cell = col * len(p) + row
                    batches.append(((p[at] << s) | q[col + cols], 1.0 - sq.ravel()[cells]))
    finally:
        np.setbufsize(old_bufsize)

    top = 1.0 - low
    ties = []
    while batches:  # release each batch as it is filtered
        masks, prs = batches.pop()
        ties.append(masks[prs >= top - TIE_TOL])
    return top, np.concatenate(ties)


def _sweep_grid(v: np.ndarray, u_t: np.ndarray) -> tuple[float, np.ndarray]:
    """_sweep of a one-tile plan: every cell of the grid, at most
    _CHUNK_CELLS, in one product."""
    width, rows = u_t.shape[1], v.shape[1]
    sq = _amplitudes(v, u_t, np.empty((width, rows)), np.empty((width, rows)))
    np.square(sq, out=sq)
    low = float(sq.min())
    cells = np.flatnonzero(sq <= low + 2.0 * TIE_TOL)
    _check_ties(len(cells))
    cols, at = np.divmod(cells, rows)  # cell = col * rows + row
    top = 1.0 - low
    masks = (at << (width.bit_length() - 1)) | cols
    return top, masks[1.0 - sq.ravel()[cells] >= top - TIE_TOL]


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
    return next(enumerate_budgets(space, [k_tot]))


def enumerate_budgets(
    space: SearchSpace, k_values: Iterable[int]
) -> Iterator[EnumerationResult]:
    """enumerate_max_probability(space, k) for each k in turn, every
    budget checked as it is read (so a huge range stops at the first k
    past the cap) before the first sweep."""
    checked = []
    for k in k_values:
        if k < 1:
            raise ParameterError("k_tot must be >= 1")
        if k > K_TOT_CAP:
            raise ResourceLimitError(f"k_tot capped at {K_TOT_CAP} (cost 2^k_tot)")
        checked.append(k)
    for k_tot in checked:
        _, ties = _sweep(*_plan(space, k_tot))
        kept = ties[(ties & 1) == 0]
        if not len(kept):  # every tie ends in a local query
            kept = ties
        # fewest runs first, then mask order: the masks are distinct, so a
        # stable sort of the sorted masks by run count is that order, and it
        # does not depend on the order in which the sweep met them
        if len(kept) > 1:
            kept = np.sort(kept)
            kept = kept[np.argsort(_run_counts(kept, k_tot), kind="stable")]
        kept.setflags(write=False)

        pr_max = block_success_probability(space, _mask_to_sequence(int(kept[0]), k_tot))
        if pr_max <= 0.0:
            raise NumericalError("maximum probability is zero; cannot happen for k>=1")
        yield EnumerationResult(
            k_tot=k_tot,
            pr_max=pr_max,
            tie_masks=kept,
            expected_iterations=k_tot / pr_max,
        )


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
    for space in [new_search_space(n, m) for m in m_values]:  # every m before any sweep
        for res in enumerate_budgets(space, k_values):
            seq = res.canonical
            rows.append(
                TableRow(
                    n=n,
                    m=space.m,
                    k_tot=res.k_tot,
                    sequence=seq.product_string(space),
                    pr_max=res.pr_max,
                    pr_percent=render_percent(res.pr_max),
                    expected_iterations=res.expected_iterations,
                    e_rendered=render_fixed(res.expected_iterations),
                    is_grk=is_grk_form(seq),
                )
            )
    return rows
