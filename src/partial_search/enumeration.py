"""Exhaustive search over operator sequences of a fixed query budget.

A sequence of k_tot queries is a k_tot-bit mask (bit per query, global=0,
local=1, first query at the most significant bit so numeric order equals
lexicographic order). All 2^k_tot masks are evaluated by a prefix-sharing
breadth-first sweep: one batched 3x3 product per level doubles the state
array, so every prefix is computed exactly once.

The mask space is split at a prefix depth that depends only on k_tot,
never on the worker count, so results are bit-identical for any number
of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
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
from .space import SearchSpace, new_search_space

K_TOT_CAP = 30  # 2^30 leaves; beyond this the exhaustive contract is off
TIE_TOL = 1e-9  # sequences this close to the maximum count as co-optimal

WORKERS_ENV_VAR = "PARTIAL_SEARCH_WORKERS"


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one exhaustive sweep at fixed k_tot.

    optimal_sequences holds every tie-class sequence (within TIE_TOL of
    pr_max, trailing-local representatives pruned), canonical first:
    fewest runs, then lexicographically smallest with global=0.
    """

    k_tot: int
    pr_max: float
    optimal_sequences: tuple[OperatorSequence, ...]
    expected_iterations: float

    @property
    def canonical(self) -> OperatorSequence:
        return self.optimal_sequences[0]


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


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ParameterError("workers must be >= 1")
        return workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ParameterError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}")
        if value < 1:
            raise ParameterError(f"{WORKERS_ENV_VAR} must be >= 1")
        return value
    return os.cpu_count() or 1


def _mask_to_sequence(mask: int, k_tot: int) -> OperatorSequence:
    kinds = [
        Kind.LOCAL if (mask >> (k_tot - 1 - j)) & 1 else Kind.GLOBAL
        for j in range(k_tot)
    ]
    return OperatorSequence.from_kinds(kinds)


def _run_count(mask: int, k_tot: int) -> int:
    bits = [(mask >> (k_tot - 1 - j)) & 1 for j in range(k_tot)]
    return 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)


def _prefix_depth(k_tot: int) -> int:
    # fixed per k_tot so the float path is identical for any worker count;
    # suffix arrays stay <= 2^18 rows
    return max(0, min(k_tot - 8, 8), k_tot - 18)


def _scan_chunk(
    prefix: int,
    prefix_depth: int,
    k_tot: int,
    v0: np.ndarray,
    gn_t: np.ndarray,
    lm_t: np.ndarray,
) -> tuple[float, list[tuple[int, float]]]:
    """Evaluate every mask sharing the given prefix.

    Returns the chunk maximum of the block probability and all
    (mask, pr) pairs within TIE_TOL of it.
    """
    v = v0
    for j in range(prefix_depth):
        bit = (prefix >> (prefix_depth - 1 - j)) & 1
        v = v @ (lm_t if bit else gn_t)
    states = v.reshape(1, 3)
    for _ in range(k_tot - prefix_depth):
        nxt = np.empty((2 * states.shape[0], 3))
        nxt[0::2] = states @ gn_t
        nxt[1::2] = states @ lm_t
        states = nxt
    pr = 1.0 - states[:, 2] ** 2
    chunk_max = float(pr.max())
    base = prefix << (k_tot - prefix_depth)
    idx = np.nonzero(pr >= chunk_max - TIE_TOL)[0]
    return chunk_max, [(base + int(i), float(pr[i])) for i in idx]


def enumerate_max_probability(
    space: SearchSpace, k_tot: int, workers: int | None = None
) -> EnumerationResult:
    """Exact maximum of the block success probability over all 2^k_tot
    sequences of k_tot oracle queries.

    Ties within TIE_TOL are all collected. Sequences ending in a local
    query never beat their global-ending siblings (the outside-block
    amplitude ignores local queries), so they are dropped from the
    reported optima; if every tie ended locally they would be kept, but
    that cannot occur alongside a global-ending tie member. The sweep only
    picks the ties: pr_max is `block_success_probability` of the canonical.
    """
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    if k_tot > K_TOT_CAP:
        raise ResourceLimitError(f"k_tot capped at {K_TOT_CAP} (cost 2^k_tot)")
    nworkers = resolve_workers(workers)

    gn_t = np.ascontiguousarray(global_grover_matrix(space).T)
    lm_t = np.ascontiguousarray(local_grover_matrix(space).T)
    v0 = initial_state(space).as_array()

    depth = _prefix_depth(k_tot)
    prefixes = range(1 << depth)
    if nworkers > 1 and len(prefixes) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(
                pool.map(
                    lambda p: _scan_chunk(p, depth, k_tot, v0, gn_t, lm_t), prefixes
                )
            )
    else:
        chunks = [_scan_chunk(p, depth, k_tot, v0, gn_t, lm_t) for p in prefixes]

    top = max(cm for cm, _ in chunks)
    ties = [(mask, p) for _, cand in chunks for mask, p in cand if p >= top - TIE_TOL]

    kept = [(mask, p) for mask, p in ties if (mask & 1) == 0]
    if not kept:  # defensive: all ties end in a local query
        kept = ties
    kept.sort(key=lambda mp: (_run_count(mp[0], k_tot), mp[0]))
    seqs = tuple(_mask_to_sequence(mask, k_tot) for mask, _ in kept)

    pr_max = block_success_probability(space, seqs[0])
    if pr_max <= 0.0:
        raise NumericalError("maximum probability is zero; cannot happen for k>=1")
    return EnumerationResult(
        k_tot=k_tot,
        pr_max=pr_max,
        optimal_sequences=seqs,
        expected_iterations=k_tot / pr_max,
    )


def expected_iterations(space: SearchSpace, seq: OperatorSequence) -> float:
    """Mean queries under restart-on-failure: total_queries / block pr."""
    pr = block_success_probability(space, seq)
    if pr <= 0.0:
        raise NumericalError("zero success probability, expectation diverges")
    return seq.total_queries / pr


def min_expected_over_budget(
    space: SearchSpace, k_range: Iterable[int], workers: int | None = None
) -> tuple[int, EnumerationResult]:
    """Argmin of k / pr_max(k) over the budget range, ties to smaller k."""
    best: tuple[int, EnumerationResult] | None = None
    for k in k_range:
        res = enumerate_max_probability(space, k, workers=workers)
        if best is None or res.expected_iterations < best[1].expected_iterations:
            best = (k, res)
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


def render_fixed(value: float, decimals: int = 4) -> str:
    q = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_EVEN))


def render_percent(pr: float) -> str:
    """Probability as a 4-decimal percentage; a sub-unity probability is
    never shown as 100.0000 (saturated cells cap at 99.9999)."""
    text = render_fixed(pr * 100.0)
    if pr < 1.0 and text == "100.0000":
        return "99.9999"
    return text


def table_sweep(
    n: int,
    m_values: Sequence[int],
    k_values: Sequence[int],
    workers: int | None = None,
) -> list[TableRow]:
    """One row per (m, k_tot): the optimum sequence, its probability and
    expected iterations, rendered at table precision."""
    rows = []
    for m in m_values:
        space = new_search_space(n, m)
        for k in k_values:
            res = enumerate_max_probability(space, k, workers=workers)
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
