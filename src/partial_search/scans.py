"""Vectorized integer scans over the three-parameter family
G^k1 (locals)^k2 (one final global), with no stepping: the states after
k1 globals are closed-form, and k2 locals plus the final global fold
into one 3 x k2 matrix per amplitude.

These kernels back the bound comparisons and the parallel-scheme
optimizers. The scan box k1+k2+1 <= ceil(pi sqrt(N)/4) + ceil(sqrt(b)),
k2 <= ceil(pi sqrt(b)/2) covers every optimum seen at desk scale; widen
the arguments if exploring elsewhere. A scan whose box holds more than
_SCAN_CELL_CAP cells (rows x k2 columns) is refused rather than left to
run for minutes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dynamics import global_grover_matrix, uniform_after_globals
from .errors import ParameterError, ResourceLimitError
from .space import SearchSpace, angles

Objective = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def default_budget(space: SearchSpace) -> int:
    return math.ceil(math.pi * math.sqrt(space.N) / 4.0) + math.ceil(math.sqrt(space.b))


def default_k2_cap(space: SearchSpace) -> int:
    return math.ceil(math.pi * math.sqrt(space.b) / 2.0)


_CHUNK_CELLS = 4096  # cells per scan chunk; larger ones cost peak memory
_SCAN_CELL_CAP = 1 << 29  # budget x k2 columns; about 16 s at ~33M cells/s


def _final_rows(space: SearchSpace, k2s: np.ndarray, row: int) -> np.ndarray:
    """3 x len(k2s) matrix W: (state @ W)[j] is the amplitude `row` of
    G_n (locals)^k2s[j] applied to the state."""
    r = global_grover_matrix(space)[row]
    ang = (2.0 * angles(space).theta2) * k2s
    c, s = np.cos(ang), np.sin(ang)
    return np.stack([r[0] * c - r[1] * s, r[0] * s + r[1] * c, np.full(len(k2s), r[2])])


def scan_shape(
    space: SearchSpace,
    allow_k2: bool = True,
    budget: int | None = None,
    k2_cap: int | None = None,
) -> tuple[int, int]:
    """(budget, k2 columns) of the grk_scan_min box with these arguments.

    Raises ResourceLimitError when the box holds more than _SCAN_CELL_CAP
    cells, so a caller about to run several scans can refuse before the
    first one starts.
    """
    if budget is None:
        budget = default_budget(space)
    if budget < 1:
        raise ParameterError("scan budget must allow at least one query")
    k2_hi = (k2_cap if k2_cap is not None else default_k2_cap(space)) if allow_k2 else 0
    columns = min(k2_hi, budget - 1) + 1
    if budget * columns > _SCAN_CELL_CAP:
        raise ResourceLimitError(
            f"scan of {budget} x {columns} cells exceeds the cap of 2^29 at this n"
        )
    return budget, columns


def grk_scan_min(
    space: SearchSpace,
    objective: Objective,
    allow_k2: bool = True,
    budget: int | None = None,
    k2_cap: int | None = None,
) -> tuple[float, int, int, float, float]:
    """Minimize objective(queries, pr_block, pr_target) over the grid.

    queries = 1 + k1 + k2. Returns (value, k1, k2, pr_block, pr_target)
    at the optimum; ties break toward smaller (queries, k2). Chunks of
    whole k1 rows, _CHUNK_CELLS cells each, are one (rows x 3)(3 x k2)
    product per amplitude; the objective sees their in-budget cells.
    """
    budget, columns = scan_shape(space, allow_k2, budget, k2_cap)
    k2s = np.arange(columns)
    w_t, w_bb = _final_rows(space, k2s, 0), _final_rows(space, k2s, 2)
    rows = max(1, _CHUNK_CELLS // len(k2s))

    best: tuple[float, int, int, float, float] | None = None
    for start in range(0, budget, rows):
        k1s = np.arange(start, min(start + rows, budget))
        states = uniform_after_globals(space, k1s)
        keep = k1s[:, None] + k2s[None, :] < budget
        pr_b = 1.0 - (states @ w_bb)[keep] ** 2
        pr_t = (states @ w_t)[keep] ** 2
        k2 = np.broadcast_to(k2s, keep.shape)[keep]
        q = (k1s[:, None] + 1 + k2s)[keep]
        vals = objective(q.astype(float), pr_b, pr_t)
        ties = np.flatnonzero(vals == vals.min())
        j = ties[np.lexsort((k2[ties], q[ties]))[0]]
        cand = (float(vals[j]), int(q[j]), int(k2[j]), float(pr_b[j]), float(pr_t[j]))
        if best is None or cand[:3] < best[:3]:
            best = cand
    assert best is not None
    value, q_opt, k2_opt, pr_b_opt, pr_t_opt = best
    return value, q_opt - 1 - k2_opt, k2_opt, pr_b_opt, pr_t_opt


def grk_max_block_probability(
    space: SearchSpace, k_tot: int
) -> tuple[float, int, int]:
    """Maximum block probability over k1 + k2 = k_tot - 1 (full k2 range).

    Returns (pr, k1, k2). All splits are one vectorized sweep over the
    closed-form states after k1 globals, and the argmax is taken in
    floating point: splits that tie exactly in exact arithmetic (as at
    m = 1) are settled by rounding, not by a rule on k2.
    """
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    k2s = np.arange(k_tot)
    states = uniform_after_globals(space, k_tot - 1 - k2s)
    amp_bb = np.einsum("ij,ji->i", states, _final_rows(space, k2s, 2))
    pr = 1.0 - amp_bb**2
    j = int(np.argmax(pr))
    return float(pr[j]), k_tot - 1 - j, j
