"""Brute-force statevector simulation for cross-validation.

Simulates the full 2^n-dimensional dynamics with real amplitudes (every
operator here is a real reflection, so complex storage would buy nothing)
and projects onto the 3D invariant basis to check the reduced dynamics.
FullState and the apply_* functions are the one-vector reference; the
simulation itself runs many sequences at once as rows of one array,
doing each query for the whole batch with the same arithmetic.

verify_subspace draws its cases with three integers calls on
np.random.default_rng(seed): every length, then every kind, then every
target. It keeps the kinds in one flat bool array (True: a local query)
with one length per sequence. Both sides read that array: the reduced
side is one call to dynamics._apply_sequences, bit for bit
apply_sequence on every row without an OperatorSequence per draw, and
the full side scatters it step-major once and runs it in lockstep
batches, sized per n by _BATCH_DOUBLES.

A batch step negates each running row's marked item through one flat
index, then reflects each row about its own mean (global) or about its
blocks' means (local), computing the row means only if a row is global and
the block means only if a row is local. A batch of one row runs on one
flat vector, with a scalar oracle flip and a scalar row mean. Every sum
behind a mean, in the
kernel and in the one-vector reference alike, comes from _sum, in numpy's
own order (strided column adds up to 8 entries, numpy's pairwise
reduction above). The reference's _mean scales it by 1/width and doubles
it; the kernel scales it once by 2/width. Both are exact power-of-two
scalings, so the batch reproduces the reference bit for bit.

The projection gathers every row's entries outside its marked block with
one flat bool mask, or joins the two slices around it in a one-row batch,
and sums them in order. verify_subspace keeps each row's block
probability, projection and residual, and takes the deviations from them
once per call. The residual around a level c
is max(x_max - c, c - x_min), two reductions and no pass that writes:
rounding is monotone, so that is the largest |x - c| bit for bit.

Blocks are contiguous index ranges [j*b, (j+1)*b); the marked item's block
is target_index // b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import Kind, OperatorSequence, _apply_sequences
from .errors import ParameterError, ResourceLimitError
from .space import new_search_space

# 2^14 doubles keeps every verification call well under a second
MAX_STATEVEC_QUBITS = 14
# amplitudes per batch of sequences run in lockstep, per n. A step makes the
# same few numpy calls whatever the batch holds, so larger batches pay less
# per query, until a batch of large rows mixes global and local rows: every
# step then takes both the row sums and the block sums of every row. A batch
# of one row runs on a flat vector (_run_row) and never mixes, and from
# n = 13 it is fastest. verify_subspace with the default 200 x 40 draws,
# summed over every m (3 seeds each) for n <= 10 and over m = 0, 3, n // 2,
# n - 2 for n >= 11; ms, best of 5, 2-vCPU host, numpy 2.4.6:
#
#     n     2^14   2^15   2^16  one row
#     1-6      equal: all 200 rows fit in one batch of 2^14
#     7       53.5   51.2   50.0  384.8
#     8       88.3   79.2   80.7  447.3
#     9      151.3  135.5  141.6  515.0
#    10      311.0  263.6  259.4  633.6
#    11      192.2  172.4  167.3  266.6
#    12      369.2  304.9  297.9  306.6
#    13      584.3  568.7  567.7  426.2
#    14      729.1  948.5 1078.8  (one row is 2^14)
#
# For n <= 10, 2^16 gains at most 2.4 % over 2^15 (and loses at n = 8, 9)
# and raised the peak memory of the benchmark's desk session by 1.3 MB over
# 2^14, against 0.6 MB for 2^15.
_BATCH_DOUBLES = {n: 1 << 15 for n in range(1, 11)} | {
    11: 1 << 16, 12: 1 << 16, 13: 1 << 13, 14: 1 << 14
}

# amplitude updates one call may ask for: queries x 2^n, where verify's
# queries are sequences x max_k (its longest draw) and a query counts at
# least 2^11 amplitudes, for the reduced side and the per-sequence work. On
# a 2-vCPU host a query took 0.30 us at n = 1 in 1..20-query sequences
# (1.4 us in 1-query ones, most of it the reduced side's run loop and the
# per-sequence probabilities) and an amplitude 1.1 ns at n = 14. The default
# verify at n = 14 asks for 200 x 40 x 2^14 < 2^27. Calls at the cap took
# 0.29 s (n = 14, 800 x 40), 0.39 s (n = 10, 6400 x 40) and 0.37-0.40 s
# with the most memory, 126 MB peak (n = 1, 2^18 x 1: every draw is applied
# as drawn; applying each distinct sequence once took 0.18 s and 85 MB, and
# cost desk-size calls more than it saved them).
_WORK_CAP = 1 << 29
_QUERY_MIN_DOUBLES = 1 << 11


def _check_size(n: int) -> None:
    if n < 1 or n > MAX_STATEVEC_QUBITS:
        raise ResourceLimitError(
            f"statevector simulation capped at n <= {MAX_STATEVEC_QUBITS}"
        )


def _check_work(n: int, queries: int) -> None:
    """Refuse more than _WORK_CAP amplitude updates before drawing anything."""
    if queries * max(1 << n, _QUERY_MIN_DOUBLES) > _WORK_CAP:
        raise ResourceLimitError(
            f"up to {queries} queries at n = {n} exceed the statevector work cap of "
            f"2^{_WORK_CAP.bit_length() - 1} amplitude updates"
        )


@dataclass
class FullState:
    """Real amplitude vector over all 2^n basis states."""

    amplitudes: np.ndarray
    n: int
    target_index: int

    @classmethod
    def uniform(cls, n: int, target_index: int) -> "FullState":
        _check_size(n)
        size = 1 << n
        if not 0 <= target_index < size:
            raise ParameterError("target_index out of range")
        amp = np.full(size, size**-0.5)
        return cls(amplitudes=amp, n=n, target_index=target_index)


def apply_oracle(state: FullState) -> FullState:
    """Sign flip on the marked item."""
    amp = state.amplitudes.copy()
    amp[state.target_index] = -amp[state.target_index]
    return FullState(amp, state.n, state.target_index)


def _sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) bit for bit, for a last axis of 2^j >= 2 entries: the
    one sum behind every diffusion, row or block, kernel or reference.

    numpy sums fewer than 8 entries left to right and 8 as the pairwise
    tree ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7)). Up to 8 the
    strided columns are added in that order as whole-array adds, so a short
    row or block costs no reduction call of its own; from 16 numpy reduces.
    The result is a new array, which callers scale in place.
    """
    width = a.shape[-1]
    if width > 8:
        return np.add.reduce(a, axis=-1)
    if width == 8:
        pairs = a[..., 0::2] + a[..., 1::2]
        quads = pairs[..., 0::2] + pairs[..., 1::2]
        return quads[..., 0] + quads[..., 1]
    total = a[..., 0] + a[..., 1]
    for j in range(2, width):
        total += a[..., j]
    return total


def _mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1) bit for bit, for a last axis of 2^j >= 2 entries:
    _sum scaled by 1/width, a power of two, so the same bits as dividing."""
    total = _sum(a)
    total *= 1.0 / a.shape[-1]
    return total


def apply_global_diffusion(state: FullState) -> FullState:
    """Reflect about the uniform superposition: v -> 2*mean(v) - v."""
    amp = 2.0 * _mean(state.amplitudes) - state.amplitudes
    return FullState(amp, state.n, state.target_index)


def apply_local_diffusion(state: FullState, m: int) -> FullState:
    """Reflect about the per-block mean inside each block of 2^m items."""
    if not 0 < m < state.n:
        raise ParameterError("local diffusion requires 0 < m < n")
    blocks = state.amplitudes.reshape(-1, 1 << m)
    amp = (2.0 * _mean(blocks)[:, None] - blocks).ravel()
    return FullState(amp, state.n, state.target_index)


def _run_rows(
    n: int, m: int, targets: np.ndarray, kinds: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Full vectors of a batch of sequences run in lockstep from |s>.

    Row r makes lengths[r] queries on marked item targets[r]; its query j
    is local where kinds[j, r] (step-major, False past a row's end). Rows
    come longest first, so the rows still running at each step are a
    prefix. A query is the oracle sign flip, then v -> 2*mean - v about the
    row mean (global) or about each block's mean (local; the identity when
    m = 0): the arithmetic of apply_oracle and
    apply_global_diffusion/apply_local_diffusion. A step takes the row
    means only if one of its rows is global and the block means only if
    one is local. A batch of one row runs on one flat vector (_run_row).
    """
    rows, size, b = len(targets), 1 << n, 1 << m
    steps = int(lengths[0])
    if rows == 1:
        return _run_row(n, m, int(targets[0]), kinds[:steps, 0])[None]
    # rows still running at each step: lengths fall, so a sorted search
    active_rows = np.searchsorted(-lengths, -np.arange(steps)).tolist()
    local_rows = kinds[:steps].sum(axis=1).tolist()
    amp = np.full((rows, size), size**-0.5)
    flat = amp.reshape(-1)
    marked = np.arange(rows) * size + targets
    for step, (active, locals_) in enumerate(zip(active_rows, local_rows)):
        x = amp[:active]
        index = marked[:active]
        flat[index] = -flat[index]
        if locals_ < active:  # a global row
            twice_mean = _sum(x)[:, None]
            twice_mean *= 2.0 / size
        if not locals_:
            np.subtract(twice_mean, x, out=x)
        elif not m:  # single-item blocks: a local query is the oracle alone
            if locals_ < active:
                np.subtract(twice_mean, x, out=x, where=~kinds[step, :active, None])
        else:
            blocks = x.reshape(active, -1, b)
            twice_block = _sum(blocks)
            twice_block *= 2.0 / b
            if locals_ < active:
                np.copyto(twice_block, twice_mean, where=~kinds[step, :active, None])
            _reflect_blocks(twice_block, blocks)
    return amp


def _reflect_blocks(twice_block: np.ndarray, blocks: np.ndarray) -> None:
    """blocks -> twice_block - blocks in place, twice_block one entry per
    block (blocks' shape without its last axis)."""
    if blocks.shape[-1] <= 4:  # b strided subtracts beat a broadcast with b-long inner loops
        for j in range(blocks.shape[-1]):
            col = blocks[..., j]
            np.subtract(twice_block, col, out=col)
    else:
        np.subtract(twice_block[..., None], blocks, out=blocks)


def _run_row(n: int, m: int, target: int, kinds: np.ndarray) -> np.ndarray:
    """_run_rows for one row: its 2^n vector after the queries kinds
    (True: local), with the oracle a scalar flip and the row mean a
    scalar, through the same _sum and the same power-of-two scalings."""
    size, b = 1 << n, 1 << m
    x = np.full(size, size**-0.5)
    blocks = x.reshape(-1, b)
    for is_local in kinds.tolist():
        x[target] = -x[target]
        if not is_local:
            np.subtract(_sum(x) * (2.0 / size), x, out=x)
        elif m:  # single-item blocks: a local query is the oracle alone
            twice_block = _sum(blocks)
            twice_block *= 2.0 / b
            _reflect_blocks(twice_block, blocks)
    return x


def _project(
    amp: np.ndarray, targets: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, project on (|t>, |bt~>, |b~>): the block probability, the
    (rows, 3) coordinates and the max absolute residual outside the span."""
    rows, size = amp.shape
    b = 1 << m
    index = np.arange(rows)
    home = targets >> m
    if rows == 1:  # the two slices around the home block
        start = int(home[0]) << m
        block = amp[:, start : start + b].copy()
        outside = np.concatenate((amp[:, :start], amp[:, start + b :]), axis=1)
    else:
        blocks = amp.reshape(rows, -1, b)
        block = blocks[index, home]
        # every entry but the home block's, in order; a (rows, blocks) mask
        # gathers b-entry chunks one by one, up to 20x slower at small b
        keep = np.ones(blocks.shape, dtype=bool)
        keep[index, home] = False
        outside = amp[keep.reshape(rows, size)].reshape(rows, -1)
    in_block = targets - (home << m)

    proj = np.empty((rows, 3))
    proj[:, 0] = amp_t = block[index, in_block]
    # |bt~> is absent for single-item blocks
    proj[:, 1] = (block.sum(axis=1) - amp_t) / math.sqrt(b - 1) if b > 1 else 0.0
    proj[:, 2] = outside.sum(axis=1) / math.sqrt(size - b)
    block_prob = np.square(block).sum(axis=1)

    # residual: the largest distance from an entry to its span
    # reconstruction, a level per row outside the target
    level = proj[:, 2] / math.sqrt(size - b)
    residual = np.maximum(outside.max(axis=1) - level, level - outside.min(axis=1))
    if b > 1:
        level = proj[:, 1] / math.sqrt(b - 1)
        block[index, in_block] = level  # the target is exact
        np.maximum(residual, block.max(axis=1) - level, out=residual)
        np.maximum(residual, level - block.min(axis=1), out=residual)
    return block_prob, proj, residual


def _simulate_batches(
    n: int, m: int, targets: np.ndarray, local: np.ndarray, lengths: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run sequence i, the next lengths[i] queries of the flat bool array
    local (True: a local query), on marked item targets[i] for every i, in
    lockstep batches of at most _BATCH_DOUBLES[n] amplitudes (one row at
    least), longest sequences first. Yields each batch's sequence indices
    and its (rows, 2^n) final amplitudes."""
    rows = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    slot = np.empty(rows, dtype=np.int64)
    slot[order] = np.arange(rows)
    # every row's queries step-major in batch order, in one scatter
    ends = np.cumsum(lengths)
    step = np.arange(len(local)) - np.repeat(ends - lengths, lengths)
    kinds = np.zeros((int(lengths.max()), rows), dtype=bool)
    kinds[step, np.repeat(slot, lengths)] = local
    lengths = lengths[order]
    per_batch = max(1, _BATCH_DOUBLES[n] >> n)
    for start in range(0, rows, per_batch):
        batch = slice(start, start + per_batch)
        yield order[batch], _run_rows(
            n, m, targets[order[batch]], kinds[:, batch], lengths[batch]
        )


def verify_subspace(
    n: int,
    m: int,
    num_random_sequences: int = 200,
    max_k: int = 40,
    tol: float = 1e-10,
    seed: int = 42,
) -> dict:
    """Compare reduced dynamics against the full simulation.

    Draws random sequences (length 1..max_k, uniform kinds) and random
    target indices, measuring the worst amplitude deviation, projection
    residual, and probability disagreement. Random targets double as the
    target-independence check: the reduced dynamics cannot depend on the
    index, so every target must match the same 3-vector.

    np.random.default_rng(seed) draws every length in 1..max_k, then
    every kind (1: local) into one flat bool array, then every target,
    one integers call each. The reduced side runs every sequence at once
    through _apply_sequences; the full vectors run in lockstep batches of
    about _BATCH_DOUBLES[n] amplitudes, longest sequences first. Only the
    worst case and the failures become OperatorSequences.

    Returns a JSON-ready report; report['passed'] is False iff any
    deviation exceeds tol, and failing sequences are listed.
    """
    space = new_search_space(n, m)
    if num_random_sequences < 1 or max_k < 1:
        raise ParameterError("num_random_sequences and max_k must be >= 1")
    if not 0.0 <= tol < math.inf:
        raise ParameterError("tol must be finite and >= 0")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    _check_size(n)
    _check_work(n, num_random_sequences * max_k)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_k + 1, size=num_random_sequences)
    local = rng.integers(0, 2, size=int(lengths.sum())).astype(bool)
    targets = rng.integers(0, 1 << n, size=num_random_sequences)
    starts = (np.cumsum(lengths) - lengths).tolist()

    def sequence(i: int) -> OperatorSequence:
        bits = local[starts[i] : starts[i] + lengths[i]].tolist()
        return OperatorSequence.from_kinds(Kind.LOCAL if bit else Kind.GLOBAL for bit in bits)

    reduced = _apply_sequences(space, local, lengths)
    # block, target probability; scalar ** 2 is libm pow, which an array
    # square can miss by an ulp
    block_expected = np.array([1.0 - a**2 for a in reduced[:, 2].tolist()])
    target_expected = np.array([a**2 for a in reduced[:, 0].tolist()])

    block_prob = np.empty(num_random_sequences)
    proj = np.empty((num_random_sequences, 3))
    residual = np.empty(num_random_sequences)
    for rows, amp in _simulate_batches(n, m, targets, local, lengths):
        block_prob[rows], proj[rows], residual[rows] = _project(amp, targets[rows], m)
    target_prob = np.array([a**2 for a in proj[:, 0].tolist()])  # pow, as above
    dev = np.maximum.reduce(
        [
            np.abs(reduced - proj).max(axis=1),
            residual,
            np.abs(block_prob - block_expected),
            np.abs(target_prob - target_expected),
        ]
    )

    w = int(np.argmax(dev))  # the first of equal maxima
    worst = {
        "deviation": float(dev[w]),
        "sequence": sequence(w).token_spec(),
        "target_index": int(targets[w]),
    }
    failures = [
        {
            "sequence": sequence(i).token_spec(),
            "target_index": int(targets[i]),
            "deviation": float(dev[i]),
        }
        for i in np.flatnonzero(dev > tol).tolist()
    ]
    return {
        "n": n,
        "m": m,
        "sequences": num_random_sequences,
        "max_k": max_k,
        "tol": tol,
        "seed": seed,
        "max_deviation": worst["deviation"],
        "worst_case": worst,
        "failures": failures,
        "passed": not failures,
    }
