"""Cost models for four ways of spreading one search over l QPUs.

inner:  split the database into l sub-databases, one full search each.
outer:  l independent full searches of the whole database.
grk:    block search on every QPU, one block-address bit group each;
        all l must succeed. Needs l * (n - m) = n.
hybrid: block search per QPU plus free classical verification of each
        QPU's full outcome and of the assembled block address; a round
        succeeds if the assembly or any single QPU hits. Same constraint.

Cost is oracle queries on one QPU per round divided by the round success
probability; classical verification is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .bounds import _kmin_floor
from .dynamics import Kind, OperatorSequence, apply_sequence
from .errors import ConstraintError, NumericalError, ParameterError
from .scans import grk_scan_min, scan_shape
from .space import SearchSpace, grover_angle, new_search_space

INNER = "inner"
OUTER = "outer"
GRK = "grk"
HYBRID = "hybrid"
SCHEME_KINDS = (INNER, OUTER, GRK, HYBRID)

# round success of a block scheme from (l, pr_block, pr_target), on
# floats and, inside the scans, on numpy arrays
Prob = TypeVar("Prob", float, np.ndarray)
BlockSuccess = Callable[[int, Prob, Prob], Prob]
QuerySuccess = Callable[[int, int, int], float]  # inner/outer, from (N, l, k)


@dataclass(frozen=True)
class SchemeResult:
    """Optimal operating point of one scheme at one parallelism level.

    queries counts oracle calls on a single QPU per round; k2 is None
    for the schemes without a local phase. e_min = queries / pr_at_opt.
    """

    kind: str
    l: int
    k1: int
    k2: int | None
    queries: int
    e_min: float
    pr_at_opt: float


@dataclass(frozen=True)
class SkippedScheme:
    kind: str
    l: int
    reason: str


def _require_parallelism(l: int) -> None:
    if l < 1:
        raise ConstraintError("parallelism l must be >= 1")


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


# -- inner and outer ---------------------------------------------------------


def _inner_success(N: int, l: int, k: int) -> float:
    return math.sin((2 * k + 1) * grover_angle(N // l)) ** 2


def _outer_success(N: int, l: int, k: int) -> float:
    """1 - (1 - pr1)^l as -expm1(l log1p(-pr1)): the plain form is 0 once
    pr1 = sin^2((2k+1) theta1) drops below half an ulp of 1 (n >= 58)."""
    pr1 = _inner_success(N, 1, k)
    if pr1 == 1.0:  # log1p(-1.0) raises; pr1 is 1.0 at N = 4, k = 1
        return 1.0
    return -math.expm1(l * math.log1p(-pr1))


def _check_inner(N: int, l: int) -> None:
    _require_parallelism(l)
    if not _is_power_of_two(l) or l > N:
        raise ConstraintError(
            f"inner scheme requires l to be a power of two at most N, got l={l}"
        )


def _expectation(queries: int, pr: float) -> float:
    if pr <= 0.0:
        raise NumericalError("zero success probability, expectation diverges")
    return queries / pr


def _query_min(
    kind: str, N: int, l: int, theta: float, replicas: int, success: QuerySuccess
) -> SchemeResult:
    """Minimize k / success(N, l, k) over k0 - 1..k0 + 1 (k >= 1), k0 the
    floor of continuous_kmin(theta, replicas) (_kmin_floor); min keeps
    the first (fewest-query) minimum. From n of about 53 the three give
    k / pr within about 1e-15 relative: the reported k is then one of
    several optimal up to rounding, and "fewest queries" breaks only
    exact ties."""
    k0 = max(1, _kmin_floor(theta, replicas))
    k = min(range(max(1, k0 - 1), k0 + 2), key=lambda k: k / success(N, l, k))
    pr = success(N, l, k)
    return SchemeResult(kind=kind, l=l, k1=k, k2=None, queries=k, e_min=k / pr, pr_at_opt=pr)


def inner_min(N: int, l: int) -> SchemeResult:
    _check_inner(N, l)
    return _query_min(INNER, N, l, grover_angle(N // l), 1, _inner_success)


def outer_expected(N: int, l: int, k: int) -> float:
    """l identical full searches; a round succeeds if any QPU hits."""
    _require_parallelism(l)
    if k < 1:
        raise ParameterError("k must be >= 1")
    return _expectation(k, _outer_success(N, l, k))


def outer_min(N: int, l: int) -> SchemeResult:
    _require_parallelism(l)
    return _query_min(OUTER, N, l, grover_angle(N), l, _outer_success)


# -- grk-based and hybrid --------------------------------------------------


def _grk_success(l: int, pr_b: Prob, pr_t: Prob) -> Prob:
    return pr_b**l


def _hybrid_success(l: int, pr_b: Prob, pr_t: Prob) -> Prob:
    return 1.0 - (1.0 - pr_b**l) * (1.0 - pr_t) ** l


def space_for_parallelism(n: int, l: int) -> SearchSpace:
    """The geometry with the block-address bits split evenly: m so that
    l * (n - m) = n. Requires l to divide n."""
    _require_parallelism(l)
    if n % l != 0:
        raise ConstraintError(
            f"block-based schemes require l to divide n, got n={n}, l={l}"
        )
    return new_search_space(n, n - n // l)


def _check_block_scheme(space: SearchSpace, l: int) -> None:
    _require_parallelism(l)
    if l * (space.n - space.m) != space.n:
        raise ConstraintError(
            f"scheme requires l*(n-m) = n, got n={space.n}, m={space.m}, l={l}"
        )


def _block_expected(
    space: SearchSpace, l: int, k1: int, k2: int, success: BlockSuccess
) -> float:
    _check_block_scheme(space, l)
    if k1 < 0 or k2 < 0:
        raise ParameterError("k1 and k2 must be >= 0")
    seq = OperatorSequence([(Kind.GLOBAL, k1), (Kind.LOCAL, k2), (Kind.GLOBAL, 1)])
    return _expectation(1 + k1 + k2, success(l, *apply_sequence(space, seq).probabilities()))


def _block_scan_min(
    kind: str, space: SearchSpace, l: int, success: BlockSuccess, allow_k2: bool
) -> SchemeResult:
    _check_block_scheme(space, l)
    e, k1, k2, pr_b, pr_t = grk_scan_min(
        space, lambda prb, prt: success(l, prb, prt), allow_k2=allow_k2
    )
    pr = success(l, pr_b, pr_t)
    return SchemeResult(
        kind=kind, l=l, k1=k1, k2=k2, queries=1 + k1 + k2, e_min=e, pr_at_opt=pr
    )


def grk_parallel_expected(space: SearchSpace, l: int, k1: int, k2: int) -> float:
    """Every QPU must identify its block-bit group: success pr_block^l."""
    return _block_expected(space, l, k1, k2, _grk_success)


def grk_parallel_min(space: SearchSpace, l: int) -> SchemeResult:
    return _block_scan_min(GRK, space, l, _grk_success, allow_k2=True)


def hybrid_expected(space: SearchSpace, l: int, k1: int, k2: int) -> float:
    """A round succeeds if the assembled block address is right or any
    single QPU's measured item verifies classically."""
    return _block_expected(space, l, k1, k2, _hybrid_success)


def hybrid_min(space: SearchSpace, l: int, allow_k2: bool = True) -> SchemeResult:
    return _block_scan_min(HYBRID, space, l, _hybrid_success, allow_k2)


# -- cross-scheme comparison -----------------------------------------------


def compare_schemes(
    N: int, l_values: Sequence[int]
) -> tuple[list[SchemeResult], list[SkippedScheme]]:
    """Evaluate every scheme at every admissible l.

    Returns (results, skipped); each inadmissible (scheme, l) pair lands
    in skipped with the violated constraint spelled out.
    """
    n = N.bit_length() - 1
    if N < 2 or (1 << n) != N:
        raise ParameterError("N must be a power of two >= 2")
    for l in l_values:
        if l < 1:
            raise ParameterError("l values must be >= 1")
        if n % l == 0:
            scan_shape(space_for_parallelism(n, l))  # refuse before any scan
    results: list[SchemeResult] = []
    skipped: list[SkippedScheme] = []
    for l in l_values:
        if _is_power_of_two(l) and l <= N:
            results.append(inner_min(N, l))
        else:
            reason = "l exceeds N" if _is_power_of_two(l) else "l is not a power of two"
            skipped.append(SkippedScheme(INNER, l, reason))
        results.append(outer_min(N, l))
        if n % l == 0:
            space = space_for_parallelism(n, l)
            results.append(grk_parallel_min(space, l))
            results.append(hybrid_min(space, l))
        else:
            for kind in (GRK, HYBRID):
                skipped.append(SkippedScheme(kind, l, "l does not divide n"))
    return results, skipped
