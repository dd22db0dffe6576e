"""Brute-force statevector simulation for cross-validation.

Simulates the full 2^n-dimensional dynamics with real amplitudes (every
operator here is a real reflection, so complex storage would buy nothing)
and projects onto the 3D invariant basis to check the reduced dynamics.
FullState and the apply_* functions are the one-vector reference; the
simulation itself runs many sequences at once as rows of one array,
doing each query for the whole batch with the same arithmetic.

Blocks are contiguous index ranges [j*b, (j+1)*b); the marked item's block
is target_index // b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import Kind, OperatorSequence, State3, apply_sequence
from .errors import ParameterError, ResourceLimitError
from .space import new_search_space

# 2^14 doubles keeps every verification call well under a second
MAX_STATEVEC_QUBITS = 14
# amplitudes per batch of sequences run in lockstep: 2^13 doubles (64 KiB);
# larger batches run faster but raise the peak memory of a verify call
_BATCH_DOUBLES = 1 << 13


def _check_size(n: int) -> None:
    if n < 1 or n > MAX_STATEVEC_QUBITS:
        raise ResourceLimitError(
            f"statevector simulation capped at n <= {MAX_STATEVEC_QUBITS}"
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


def apply_global_diffusion(state: FullState) -> FullState:
    """Reflect about the uniform superposition: v -> 2*mean(v) - v."""
    amp = 2.0 * state.amplitudes.mean() - state.amplitudes
    return FullState(amp, state.n, state.target_index)


def apply_local_diffusion(state: FullState, m: int) -> FullState:
    """Reflect about the per-block mean inside each block of 2^m items."""
    if not 0 < m < state.n:
        raise ParameterError("local diffusion requires 0 < m < n")
    b = 1 << m
    blocks = state.amplitudes.reshape(-1, b)
    amp = (2.0 * blocks.mean(axis=1, keepdims=True) - blocks).ravel()
    return FullState(amp, state.n, state.target_index)


def _run_rows(
    n: int, m: int, targets: np.ndarray, local: list[np.ndarray]
) -> np.ndarray:
    """Full vectors of a batch of sequences run in lockstep from |s>.

    Row r makes len(local[r]) queries on marked item targets[r]; its
    query j is local where local[r][j]. Rows come longest first, so the
    rows still running at each step are a prefix. A query is the oracle
    sign flip, then v -> 2*mean - v about the row mean (global) or about
    each block's mean (local; the identity when m = 0): the arithmetic of
    apply_oracle and apply_global_diffusion/apply_local_diffusion.
    """
    rows, size = len(targets), 1 << n
    lengths = np.array([len(bits) for bits in local])
    kinds = np.zeros((rows, lengths[0]), dtype=bool)
    for r, bits in enumerate(local):
        kinds[r, : len(bits)] = bits
    amp = np.full((rows, size), size**-0.5)
    index = np.arange(rows)
    steps = np.arange(lengths[0])
    for step, active in enumerate((lengths[:, None] > steps).sum(axis=0).tolist()):
        x = amp[:active]
        x[index[:active], targets[:active]] *= -1.0
        mean = x.mean(axis=1, keepdims=True)
        is_local = kinds[:active, step, None]
        if m:
            block_mean = x.reshape(active, -1, 1 << m).mean(axis=2)
            mean = np.where(is_local, block_mean, mean)
            reflect = True
        else:
            reflect = ~is_local[:, :, None]
        blocks = x.reshape(active, mean.shape[1], -1)
        np.subtract(2.0 * mean[:, :, None], blocks, out=blocks, where=reflect)
    return amp


def simulate_sequence(
    n: int, m: int, target_index: int, seq: OperatorSequence
) -> tuple[float, float, State3]:
    """Run the sequence on the full vector.

    Returns (block probability, target probability, projection on the
    3D basis). The projection's residual is guaranteed small only because
    the dynamics never leave the span; callers verifying that property
    should use verify_subspace.
    """
    _check_size(n)
    new_search_space(n, m)  # validates m
    if not 0 <= target_index < 1 << n:
        raise ParameterError("target_index out of range")
    targets = np.array([target_index])
    local = np.array([kind is Kind.LOCAL for kind in seq.kinds()], dtype=bool)
    amp = _run_rows(n, m, targets, [local])
    block_prob, proj, _ = _project(amp, targets, m)
    amp_t, amp_bt, amp_bbar = proj[0].tolist()
    return float(block_prob[0]), amp_t**2, State3(amp_t, amp_bt, amp_bbar)


def _project(
    amp: np.ndarray, targets: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, project on (|t>, |bt~>, |b~>): the block probability, the
    (rows, 3) coordinates and the max absolute residual outside the span."""
    rows, size = amp.shape
    b = 1 << m
    index = np.arange(rows)
    blocks = amp.reshape(rows, -1, b)
    home = targets >> m
    block = blocks[index, home]
    outside = blocks[np.arange(blocks.shape[1]) != home[:, None]].reshape(rows, -1)

    proj = np.empty((rows, 3))
    proj[:, 0] = amp_t = amp[index, targets]
    # |bt~> is absent for single-item blocks
    proj[:, 1] = (block.sum(axis=1) - amp_t) / math.sqrt(b - 1) if b > 1 else 0.0
    proj[:, 2] = outside.sum(axis=1) / math.sqrt(size - b)
    block_prob = np.square(block).sum(axis=1)

    # residual: distance from each entry to its span reconstruction
    if b > 1:
        block -= (proj[:, 1] / math.sqrt(b - 1))[:, None]
    block[index, targets - (home << m)] = 0.0
    outside -= (proj[:, 2] / math.sqrt(size - b))[:, None]
    residual = np.maximum(
        np.abs(block, out=block).max(axis=1),
        np.abs(outside, out=outside).max(axis=1),
    )
    return block_prob, proj, residual


def _simulate_batches(
    n: int, m: int, targets: np.ndarray, local: list[np.ndarray]
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Run sequence i (local[i][j]: query j is local) on marked item
    targets[i] for every i, in lockstep batches of at most _BATCH_DOUBLES
    amplitudes (one row at least), longest sequences first. Yields each
    batch's sequence indices and its (rows, 2^n) final amplitudes."""
    order = sorted(range(len(local)), key=lambda i: -len(local[i]))
    per_batch = max(1, _BATCH_DOUBLES >> n)
    for start in range(0, len(order), per_batch):
        rows = order[start : start + per_batch]
        yield rows, _run_rows(n, m, targets[rows], [local[r] for r in rows])


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

    The reduced side runs one sequence at a time through apply_sequence;
    the full vectors run in lockstep batches of about _BATCH_DOUBLES
    amplitudes, longest sequences first.

    Returns a JSON-ready report; report['passed'] is False iff any
    deviation exceeds tol, and failing sequences are listed.
    """
    space = new_search_space(n, m)
    if num_random_sequences < 1 or max_k < 1:
        raise ParameterError("num_random_sequences and max_k must be >= 1")
    if not 0.0 <= tol < math.inf:
        raise ParameterError("tol must be finite and >= 0")
    _check_size(n)
    rng = np.random.default_rng(seed)
    draws, targets = [], []
    for _ in range(num_random_sequences):
        k_tot = int(rng.integers(1, max_k + 1))
        draws.append(rng.integers(0, 2, k_tot).astype(bool))
        targets.append(int(rng.integers(0, space.N)))
    targets = np.array(targets)

    def sequence(i: int) -> OperatorSequence:
        return OperatorSequence.from_kinds(
            Kind.LOCAL if bit else Kind.GLOBAL for bit in draws[i]
        )

    reduced = np.empty((num_random_sequences, 3))
    expected = np.empty((num_random_sequences, 2))  # block, target probability
    for i in range(num_random_sequences):
        state = apply_sequence(space, sequence(i)).as_array()
        reduced[i] = state
        # scalar ** 2 is libm pow, which an array square can miss by an ulp
        expected[i] = 1.0 - state[2] ** 2, state[0] ** 2

    dev = np.empty(num_random_sequences)
    for rows, amp in _simulate_batches(n, m, targets, draws):
        block_prob, proj, residual = _project(amp, targets[rows], m)
        target_prob = np.array([a**2 for a in proj[:, 0].tolist()])  # pow, as above
        dev[rows] = np.maximum.reduce(
            [
                np.abs(reduced[rows] - proj).max(axis=1),
                residual,
                np.abs(block_prob - expected[rows, 0]),
                np.abs(target_prob - expected[rows, 1]),
            ]
        )

    devs = dev.tolist()
    w = devs.index(max(devs))
    worst = {
        "deviation": devs[w],
        "sequence": sequence(w).token_spec(),
        "target_index": int(targets[w]),
    }
    failures = [
        {
            "sequence": sequence(i).token_spec(),
            "target_index": int(targets[i]),
            "deviation": d,
        }
        for i, d in enumerate(devs)
        if d > tol
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
