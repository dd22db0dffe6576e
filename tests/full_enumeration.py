"""Reference for `enumeration.enumerate_max_probability`: the sweep it
replaced, which evaluates every leaf of the 2^k_tot grid with no bound.

Chunks of whole prefix rows, 2^16 cells each, are one `times` product
against every suffix column. top is the largest 1 - amp^2 over all
leaves, and every leaf within TIE_TOL of it is a tie, local-ending ties
dropped unless all end locally, fewest runs first. Test-only: at
k_tot = 24 it evaluates 16.7M leaves where the pruned sweep evaluates a
few percent of them.
"""

import numpy as np

from partial_search.enumeration import TIE_TOL, _grid, _run_counts

CHUNK_CELLS = 1 << 16


def times(rows, mat):
    """rows @ mat by numpy's own sum-of-products loop, each entry the sum
    (r0 m0 + r1 m1) + r2 m2: no BLAS kernel or thread count touches the
    bits."""
    return np.einsum("ij,jk->ik", rows, mat)


def full_enumeration(space, k_tot):
    """(top, ordered tie masks) over every leaf."""
    v, u_t = _grid(space, k_tot)
    s = k_tot - k_tot // 2
    rows = max(1, CHUNK_CELLS >> s)
    chunks = []
    for start in range(0, v.shape[1], rows):
        amp = times(v[:, start : start + rows].T, u_t)
        sq = np.square(amp, out=amp).ravel()
        low = float(sq.min())
        idx = np.flatnonzero(sq <= low + 2.0 * TIE_TOL)
        chunks.append((1.0 - low, (start << s) + idx, 1.0 - sq[idx]))

    top = max(cm for cm, _, _ in chunks)
    masks = np.concatenate([mk for _, mk, _ in chunks])
    ties = masks[np.concatenate([pr for _, _, pr in chunks]) >= top - TIE_TOL]
    kept = ties[(ties & 1) == 0]
    if not len(kept):
        kept = ties
    return top, tuple(kept[np.lexsort((kept, _run_counts(kept, k_tot)))].tolist())
