"""Vectorized integer scans over the three-parameter family
G^k1 (locals)^k2 (one final global).

These kernels back the bound comparisons and the parallel-scheme
optimizers. The scan box k1+k2+1 <= ceil(pi sqrt(N)/4) + ceil(sqrt(b)),
k2 <= ceil(pi sqrt(b)/2) covers every optimum seen at desk scale; widen
the arguments if exploring elsewhere.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dynamics import global_grover_matrix, initial_state
from .errors import ParameterError
from .space import SearchSpace, angles

Objective = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def default_budget(space: SearchSpace) -> int:
    return math.ceil(math.pi * math.sqrt(space.N) / 4.0) + math.ceil(math.sqrt(space.b))


def default_k2_cap(space: SearchSpace) -> int:
    return math.ceil(math.pi * math.sqrt(space.b) / 2.0)


def grk_scan_min(
    space: SearchSpace,
    objective: Objective,
    allow_k2: bool = True,
    budget: int | None = None,
    k2_cap: int | None = None,
) -> tuple[float, int, int, float, float]:
    """Minimize objective(queries, pr_block, pr_target) over the grid.

    queries = 1 + k1 + k2. Returns (value, k1, k2, pr_block, pr_target)
    at the optimum; ties break toward smaller (queries, k2). The k1 axis
    advances by one matrix-vector product per step; each row handles all
    k2 at once through the closed-form local rotation.
    """
    if budget is None:
        budget = default_budget(space)
    if budget < 1:
        raise ParameterError("scan budget must allow at least one query")
    k2_hi = (k2_cap if k2_cap is not None else default_k2_cap(space)) if allow_k2 else 0

    a = angles(space)
    gn = global_grover_matrix(space)
    r_t, r_bb = gn[0], gn[2]
    v = initial_state(space).as_array()

    best: tuple[float, int, int] | None = None
    best_pr: tuple[float, float] = (0.0, 0.0)
    for k1 in range(budget):
        max_k2 = min(k2_hi, budget - 1 - k1)
        if max_k2 < 0:
            break
        k2s = np.arange(max_k2 + 1)
        ang = (2.0 * a.theta2) * k2s
        c, s = np.cos(ang), np.sin(ang)
        x = c * v[0] + s * v[1]
        y = -s * v[0] + c * v[1]
        amp_t = r_t[0] * x + r_t[1] * y + r_t[2] * v[2]
        amp_bb = r_bb[0] * x + r_bb[1] * y + r_bb[2] * v[2]
        pr_b = 1.0 - amp_bb**2
        pr_t = amp_t**2
        q = (1 + k1 + k2s).astype(float)
        vals = objective(q, pr_b, pr_t)
        j = int(np.argmin(vals))  # first occurrence: smallest k2 in the row
        cand = (float(vals[j]), 1 + k1 + j, j)
        if best is None or cand < best:
            best = cand
            best_pr = (float(pr_b[j]), float(pr_t[j]))
        v = gn @ v
    assert best is not None
    value, q_opt, k2_opt = best
    return value, q_opt - 1 - k2_opt, k2_opt, best_pr[0], best_pr[1]


def grk_max_block_probability(
    space: SearchSpace, k_tot: int
) -> tuple[float, int, int]:
    """Maximum block probability over k1 + k2 = k_tot - 1 (full k2 range).

    Returns (pr, k1, k2); ties take the smallest k2. Prefix states are
    shared: one pass builds every global-power vector, then all splits
    are evaluated in a single vectorized sweep.
    """
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    a = angles(space)
    gn = global_grover_matrix(space)
    r_bb = gn[2]

    prefix = np.empty((k_tot, 3))
    v = initial_state(space).as_array()
    for j in range(k_tot):
        prefix[j] = v
        v = gn @ v

    k2s = np.arange(k_tot)
    pv = prefix[k_tot - 1 - k2s]
    ang = (2.0 * a.theta2) * k2s
    c, s = np.cos(ang), np.sin(ang)
    x = c * pv[:, 0] + s * pv[:, 1]
    y = -s * pv[:, 0] + c * pv[:, 1]
    amp_bb = r_bb[0] * x + r_bb[1] * y + r_bb[2] * pv[:, 2]
    pr = 1.0 - amp_bb**2
    j = int(np.argmax(pr))
    return float(pr[j]), k_tot - 1 - j, j
