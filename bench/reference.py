"""50-digit references for the probabilities the benchmark checks.

An independent re-derivation of the 3D reduced dynamics in mpmath: the
same basis (|t>, |bt~>, |b~>) and operators as the program, but every
number carried at 50 significant digits. A global run of j queries is
one matrix power by repeated squaring, so a run of 2^18 queries costs
18 squarings instead of 2^18 products.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath

DIGITS = 50
mp = mpmath.MPContext()
mp.dps = DIGITS

Runs = tuple[tuple[str, int], ...]  # ("g" | "l", count) in application order


def parse_tokens(spec: str) -> Runs:
    """'g:3,l:1,g:1' -> (("g", 3), ("l", 1), ("g", 1))."""
    runs = []
    for token in spec.split(","):
        kind, count = token.split(":")
        runs.append((kind.strip(), int(count)))
    return tuple(runs)


@lru_cache(maxsize=None)
def _geometry(n: int, m: int):
    theta2 = mp.asin(mp.power(2, mp.mpf(-m) / 2))
    gamma = mp.asin(mp.power(2, mp.mpf(m - n) / 2))
    s2, c2 = mp.sin(theta2), mp.cos(theta2)
    sg, cg = mp.sin(gamma), mp.cos(gamma)
    gn = mp.matrix(
        [
            [1 - 2 * sg * sg * s2 * s2, 2 * sg * sg * s2 * c2, 2 * sg * cg * s2],
            [-2 * sg * sg * s2 * c2, 2 * sg * sg * c2 * c2 - 1, 2 * sg * cg * c2],
            [-2 * sg * cg * s2, 2 * sg * cg * c2, 2 * cg * cg - 1],
        ]
    )
    v0 = mp.matrix([sg * s2, sg * c2, cg])
    return theta2, gn, v0


def _power(mat, j: int):
    result = mp.eye(3)
    while j:
        if j & 1:
            result = result * mat
        mat = mat * mat
        j >>= 1
    return result


def final_state(n: int, m: int, runs: Runs):
    """Amplitudes (t, bt, bbar) after the runs, from the uniform state."""
    theta2, gn, v = _geometry(n, m)
    for kind, count in runs:
        if kind == "g":
            v = _power(gn, count) * v
        else:
            ang = 2 * count * theta2
            c, s = mp.cos(ang), mp.sin(ang)
            v = mp.matrix([c * v[0] + s * v[1], -s * v[0] + c * v[1], v[2]])
    return v[0], v[1], v[2]


def block_probability(n: int, m: int, runs: Runs):
    return 1 - final_state(n, m, runs)[2] ** 2


def grk_probabilities(n: int, m: int, k1: int, k2: int):
    """(block, target) probability of g:k1, l:k2, g:1."""
    t, _, bbar = final_state(n, m, (("g", k1), ("l", k2), ("g", 1)))
    return 1 - bbar**2, t**2


def scheme_probability(kind: str, n: int, m: int, l: int, k1: int, k2: int | None):
    """Round success probability of one parallel scheme at its operating
    point, in the program's cost models (parallel.py)."""
    if kind == "inner":
        theta = mp.asin(mp.sqrt(mp.mpf(l) / mp.power(2, n)))
        return mp.sin((2 * k1 + 1) * theta) ** 2
    if kind == "outer":
        theta1 = mp.asin(mp.power(2, mp.mpf(-n) / 2))
        return 1 - (1 - mp.sin((2 * k1 + 1) * theta1) ** 2) ** l
    pr_b, pr_t = grk_probabilities(n, m, k1, k2)
    if kind == "grk":
        return pr_b**l
    if kind == "hybrid":
        return 1 - (1 - pr_b**l) * (1 - pr_t) ** l
    raise ValueError(f"unknown scheme {kind!r}")


def abs_error(value: float, ref) -> float:
    """|value - ref| as a float, from the exact binary value of `value`."""
    return float(abs(mp.mpf(value) - ref))
