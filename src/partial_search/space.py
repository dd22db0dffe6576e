"""Problem geometry for partial search.

A database of N = 2^n items is split into K = 2^(n-m) blocks of b = 2^m
items; one marked item sits in one block. Everything downstream consumes
the (n, m) geometry and the three derived rotation angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .errors import ParameterError

# N, b, K must stay exactly representable in uint64 and in a double's
# integer range for the identities used in tests; n <= 62 guarantees both.
MAX_N_QUBITS = 62


@dataclass(frozen=True)
class SearchSpace:
    """Geometry of one partial-search instance.

    n: total qubits, N = 2^n database items.
    m: block qubits, b = 2^m items per block, K = 2^(n-m) blocks.
    """

    n: int
    m: int
    N: int
    b: int
    K: int

    def __post_init__(self) -> None:
        if self.N != self.b * self.K:
            raise ParameterError("inconsistent sizes: N must equal b*K")


@dataclass(frozen=True)
class Angles:
    """The three rotation angles of the subspace dynamics.

    sin(theta1) = 1/sqrt(N), sin(theta2) = 1/sqrt(b), sin(gamma) = 1/sqrt(K).
    All lie in (0, pi/2].
    """

    theta1: float
    theta2: float
    gamma: float


def check_qubits(n: int) -> None:
    """Require 1 <= n <= 62, the domain of every geometry and sweep."""
    if n < 1 or n > MAX_N_QUBITS:
        raise ParameterError(f"n must be in [1, {MAX_N_QUBITS}], got {n}")


def new_search_space(n: int, m: int) -> SearchSpace:
    """Validate (n, m) and derive N, b, K.

    Requires 1 <= n <= 62 and 0 <= m < n. m = n is rejected: with a
    single block there is no outside-the-block basis direction.
    """
    if not isinstance(n, int) or not isinstance(m, int):
        raise ParameterError("n and m must be integers")
    check_qubits(n)
    if m < 0 or m >= n:
        raise ParameterError(f"m must satisfy 0 <= m < n, got m={m}, n={n}")
    return SearchSpace(n=n, m=m, N=1 << n, b=1 << m, K=1 << (n - m))


def grover_sine(items: int) -> float:
    """sqrt(1/items): the division is exact for a power of two, so only
    the square root rounds and the result is correctly rounded."""
    return math.sqrt(1.0 / items)


def grover_angle(items: int) -> float:
    """arcsin(sqrt(1/items)), the one place an item count becomes an angle."""
    return math.asin(grover_sine(items))


@cache
def angles(space: SearchSpace) -> Angles:
    """The geometry's three angles, each within 1 ulp of the exact arcsine.
    Computed once per geometry: SearchSpace and Angles are frozen, and the
    cache holds one entry per (n, m), at most 1,953 for n <= 62."""
    return Angles(
        theta1=grover_angle(space.N),
        theta2=grover_angle(space.b),
        gamma=grover_angle(space.K),
    )
