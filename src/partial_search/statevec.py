"""Brute-force statevector simulation for cross-validation.

Simulates the full 2^n-dimensional dynamics with real amplitudes (every
operator here is a real reflection, so complex storage would buy nothing)
and projects onto the 3D invariant basis to check the reduced dynamics.

Blocks are contiguous index ranges [j*b, (j+1)*b); the marked item's block
is target_index // b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Kind, OperatorSequence, State3, apply_sequence
from .errors import ParameterError, ResourceLimitError
from .space import new_search_space

# 2^14 doubles keeps every verification call well under a second
MAX_STATEVEC_QUBITS = 14


@dataclass
class FullState:
    """Real amplitude vector over all 2^n basis states."""

    amplitudes: np.ndarray
    n: int
    target_index: int

    @classmethod
    def uniform(cls, n: int, target_index: int) -> "FullState":
        if n < 1 or n > MAX_STATEVEC_QUBITS:
            raise ResourceLimitError(
                f"statevector simulation capped at n <= {MAX_STATEVEC_QUBITS}"
            )
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


def _apply_query(state: FullState, kind: Kind, m: int) -> FullState:
    state = apply_oracle(state)
    if kind is Kind.GLOBAL:
        return apply_global_diffusion(state)
    # m = 0 blocks are single items; their diffusion is the identity
    if m == 0:
        return state
    return apply_local_diffusion(state, m)


def simulate_sequence(
    n: int, m: int, target_index: int, seq: OperatorSequence
) -> tuple[float, float, State3]:
    """Run the sequence on the full vector.

    Returns (block probability, target probability, projection on the
    3D basis). The projection's residual is guaranteed small only because
    the dynamics never leave the span; callers verifying that property
    should use verify_subspace.
    """
    state = FullState.uniform(n, target_index)
    for kind in seq.kinds():
        state = _apply_query(state, kind, m)
    block_prob, target_prob, proj, _ = _project(state, m)
    return block_prob, target_prob, proj


def _project(state: FullState, m: int) -> tuple[float, float, State3, float]:
    """Project on (|t>, |bt~>, |b~>); returns probabilities, State3 and the
    max absolute residual outside the span."""
    n, t = state.n, state.target_index
    N, b = 1 << n, 1 << m
    amp = state.amplitudes
    blk_start = (t // b) * b
    block = amp[blk_start : blk_start + b]

    amp_t = float(amp[t])
    if b > 1:
        amp_bt = float((block.sum() - amp_t) / math.sqrt(b - 1))
    else:
        amp_bt = 0.0  # |bt~> absent for single-item blocks
    outside = np.concatenate([amp[:blk_start], amp[blk_start + b :]])
    amp_bbar = float(outside.sum() / math.sqrt(N - b))

    # residual: reconstruct and diff
    recon_block = np.full(b, amp_bt / math.sqrt(b - 1) if b > 1 else 0.0)
    recon_block[t - blk_start] = amp_t
    res_in = float(np.abs(block - recon_block).max())
    res_out = float(np.abs(outside - amp_bbar / math.sqrt(N - b)).max())

    block_prob = float((block**2).sum())
    target_prob = amp_t**2
    return block_prob, target_prob, State3(amp_t, amp_bt, amp_bbar), max(res_in, res_out)


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

    Returns a JSON-ready report; report['passed'] is False iff any
    deviation exceeds tol, and failing sequences are listed.
    """
    space = new_search_space(n, m)
    if num_random_sequences < 1 or max_k < 1:
        raise ParameterError("num_random_sequences and max_k must be >= 1")
    rng = np.random.default_rng(seed)
    worst = {"deviation": -1.0, "sequence": None, "target_index": None}
    failures = []
    for _ in range(num_random_sequences):
        k_tot = int(rng.integers(1, max_k + 1))
        kinds = [Kind.LOCAL if bit else Kind.GLOBAL for bit in rng.integers(0, 2, k_tot)]
        seq = OperatorSequence.from_kinds(kinds)
        target = int(rng.integers(0, space.N))

        reduced = apply_sequence(space, seq).as_array()
        state = FullState.uniform(n, target)
        for kind in seq.kinds():
            state = _apply_query(state, kind, m)
        block_prob, target_prob, proj, residual = _project(state, m)

        dev = float(np.abs(reduced - proj.as_array()).max())
        dev = max(dev, residual)
        dev = max(dev, abs(block_prob - (1.0 - reduced[2] ** 2)))
        dev = max(dev, abs(target_prob - reduced[0] ** 2))
        if dev > worst["deviation"]:
            worst = {
                "deviation": dev,
                "sequence": seq.token_spec(),
                "target_index": target,
            }
        if dev > tol:
            failures.append(
                {"sequence": seq.token_spec(), "target_index": target, "deviation": dev}
            )
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
