"""Reference for `scans.grk_scan_min`: the sweep it replaced, which
evaluates every cell of the (k1, k2) box with no pruning and no cap.

Chunks of whole k1 rows, 4096 cells each, are one (rows x 3)(3 x k2)
product per amplitude; the objective sees their in-budget cells, and ties
break toward smaller (queries, k2). Test-only: a box at n = 28 holds
4.5e8 cells and takes seconds.
"""

import numpy as np

from partial_search.dynamics import _uniform_complement, global_grover_matrix
from partial_search.scans import default_budget, default_k2_cap
from partial_search.space import angles

CHUNK_CELLS = 4096


def uniform_after_globals(space, k):
    """G_n^k applied to the initial state for every k in the array, as
    rows of 3-vectors: sin((2k+1) theta1)|t> + cos((2k+1) theta1)|u>."""
    u_bt, u_bb = _uniform_complement(space)
    phase = (2.0 * k + 1.0) * angles(space).theta1
    c = np.cos(phase)
    return np.stack([np.sin(phase), u_bt * c, u_bb * c], axis=-1)


def final_rows(space, k2s, row):
    """3 x len(k2s) matrix W: (state @ W)[j] is the amplitude `row` of
    G_n (locals)^k2s[j] applied to the state."""
    r = global_grover_matrix(space)[row]
    ang = (2.0 * angles(space).theta2) * k2s
    c, s = np.cos(ang), np.sin(ang)
    return np.stack([r[0] * c - r[1] * s, r[0] * s + r[1] * c, np.full(len(k2s), r[2])])


def full_box_scan_min(space, objective, allow_k2=True, budget=None, k2_cap=None):
    """(value, k1, k2, pr_block, pr_target) at the minimum over every cell."""
    if budget is None:
        budget = default_budget(space)
    k2_hi = (k2_cap if k2_cap is not None else default_k2_cap(space)) if allow_k2 else 0
    k2s = np.arange(min(k2_hi, budget - 1) + 1)
    w_t, w_bb = final_rows(space, k2s, 0), final_rows(space, k2s, 2)
    rows = max(1, CHUNK_CELLS // len(k2s))

    best = None
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
    value, q_opt, k2_opt, pr_b_opt, pr_t_opt = best
    return value, q_opt - 1 - k2_opt, k2_opt, pr_b_opt, pr_t_opt
