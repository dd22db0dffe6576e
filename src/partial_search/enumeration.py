"""Exhaustive search over operator sequences of a fixed query budget.

A sequence of k_tot queries is a k_tot-bit mask (bit per query, global=0,
local=1, first query at the most significant bit so numeric order equals
lexicographic order). The sweep splits each mask after p = k_tot // 2
queries: mask (P << s) | S, s = k_tot - p, has the outside-block
amplitude u_S . v_P, where v_P is the state after prefix P and
u_S = e3^T M_S the covector of suffix S. The 2^p states and 2^s
covectors are each built by doubling, and the amplitude grid is
evaluated in chunks of whole prefix rows, _CHUNK_CELLS cells each.

The chunk grid depends only on k_tot, never on the worker count, and
every amplitude is the same three-term sum outside BLAS, so results are
bit-identical for any number of workers or BLAS threads.
"""

from __future__ import annotations

import os
import re
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
_CHUNK_CELLS = 1 << 16  # amplitude-grid cells per chunk of prefix rows

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


_RUNS = re.compile("0+|1+")


def _mask_to_sequence(mask: int, k_tot: int) -> OperatorSequence:
    runs = _RUNS.findall(format(mask, f"0{k_tot}b"))
    return OperatorSequence(
        (Kind.LOCAL if run[0] == "1" else Kind.GLOBAL, len(run)) for run in runs
    )


def _run_counts(masks: np.ndarray, k_tot: int) -> np.ndarray:
    """Runs in each k_tot-bit mask: one more than its adjacent bit changes
    (popcount by unpacking bytes; k_tot <= K_TOT_CAP fits in 32 bits)."""
    changes = ((masks ^ (masks >> 1)) & ((1 << (k_tot - 1)) - 1)).astype(np.uint32)
    bits = np.unpackbits(changes.view(np.uint8)).reshape(len(masks), 32)
    return 1 + bits.sum(axis=1)


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat by numpy's own sum-of-products loop, each entry the sum
    r0 m0 + r1 m1 + r2 m2: no BLAS kernel or thread count touches the bits."""
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
    """
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    if k_tot > K_TOT_CAP:
        raise ResourceLimitError(f"k_tot capped at {K_TOT_CAP} (cost 2^k_tot)")
    nworkers = resolve_workers(workers)

    gn, lm = global_grover_matrix(space), local_grover_matrix(space)
    p, s = k_tot // 2, k_tot - k_tot // 2
    v = _doubled(initial_state(space).as_array(), (gn.T, lm.T), p, axis=1)
    u_t = np.ascontiguousarray(_doubled(np.eye(3)[2], (gn, lm), s, axis=0).T)
    rows = max(1, _CHUNK_CELLS >> s)
    starts = range(0, 1 << p, rows)

    def scan(start: int) -> tuple[float, np.ndarray, np.ndarray]:
        # the chunk maximum and the masks and pr that may lie within TIE_TOL
        # of it (a superset); max(1 - sq) = 1 - min(sq), rounding is monotone
        amp = _times(v[start : start + rows], u_t)
        sq = np.square(amp, out=amp).ravel()
        low = float(sq.min())
        idx = np.flatnonzero(sq <= low + 2.0 * TIE_TOL)
        return 1.0 - low, (start << s) + idx, 1.0 - sq[idx]

    if nworkers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(scan, starts))
    else:
        chunks = [scan(start) for start in starts]

    top = max(cm for cm, _, _ in chunks)
    masks = np.concatenate([mk for _, mk, _ in chunks])
    ties = masks[np.concatenate([pr for _, _, pr in chunks]) >= top - TIE_TOL]

    kept = ties[(ties & 1) == 0]
    if not len(kept):  # every tie ends in a local query
        kept = ties
    kept = kept[np.lexsort((kept, _run_counts(kept, k_tot)))]
    seqs = tuple(_mask_to_sequence(mask, k_tot) for mask in kept.tolist())

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
