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
from typing import Iterable, Sequence

from .dynamics import (
    Kind,
    OperatorSequence,
    apply_sequence,
)
from .errors import ConstraintError, ParameterError
from .scans import grk_scan_min, scan_shape
from .space import SearchSpace, new_search_space

INNER = "inner"
OUTER = "outer"
GRK = "grk"
HYBRID = "hybrid"
SCHEME_KINDS = (INNER, OUTER, GRK, HYBRID)


@dataclass(frozen=True)
class SchemeSpec:
    """One (scheme, parallelism) configuration request."""

    kind: str
    l: int
    space: SearchSpace | None = None  # required for grk/hybrid


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


# -- inner ---------------------------------------------------------------


def inner_expected(N: int, l: int, k: int) -> float:
    """k queries per QPU on a sub-database of N/l items."""
    _require_parallelism(l)
    if not _is_power_of_two(l) or l > N:
        raise ConstraintError(
            f"inner scheme requires l to be a power of two at most N, got l={l}"
        )
    if k < 1:
        raise ParameterError("k must be >= 1")
    theta = math.asin(math.sqrt(l / N))
    return k / math.sin((2 * k + 1) * theta) ** 2


def inner_min(N: int, l: int) -> SchemeResult:
    _require_parallelism(l)
    hi = math.ceil(math.pi * math.sqrt(N / l) / 4.0) + 2
    best: tuple[float, int] | None = None
    for k in range(1, hi + 1):
        e = inner_expected(N, l, k)
        if best is None or e < best[0]:
            best = (e, k)
    assert best is not None
    e, k = best
    theta = math.asin(math.sqrt(l / N))
    pr = math.sin((2 * k + 1) * theta) ** 2
    return SchemeResult(kind=INNER, l=l, k1=k, k2=None, queries=k, e_min=e, pr_at_opt=pr)


# -- outer ---------------------------------------------------------------


def outer_expected(N: int, l: int, k: int) -> float:
    """l identical full searches; a round succeeds if any QPU hits."""
    _require_parallelism(l)
    if k < 1:
        raise ParameterError("k must be >= 1")
    theta1 = math.asin(N**-0.5)
    pr1 = math.sin((2 * k + 1) * theta1) ** 2
    return k / (1.0 - (1.0 - pr1) ** l)


def outer_min(N: int, l: int) -> SchemeResult:
    hi = math.ceil(math.pi * math.sqrt(N) / 4.0)
    theta1 = math.asin(N**-0.5)
    best: tuple[float, int] | None = None
    for k in range(1, hi + 1):
        e = outer_expected(N, l, k)
        if best is None or e < best[0]:
            best = (e, k)
    assert best is not None
    e, k = best
    pr = 1.0 - (1.0 - math.sin((2 * k + 1) * theta1) ** 2) ** l
    return SchemeResult(kind=OUTER, l=l, k1=k, k2=None, queries=k, e_min=e, pr_at_opt=pr)


# -- grk-based and hybrid --------------------------------------------------


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


def _grk_probabilities(space: SearchSpace, k1: int, k2: int) -> tuple[float, float]:
    if k1 < 0 or k2 < 0:
        raise ParameterError("k1 and k2 must be >= 0")
    seq = OperatorSequence([(Kind.GLOBAL, k1), (Kind.LOCAL, k2), (Kind.GLOBAL, 1)])
    st = apply_sequence(space, seq)
    return 1.0 - st.amp_bbar**2, st.amp_t**2


def grk_parallel_expected(space: SearchSpace, l: int, k1: int, k2: int) -> float:
    """Every QPU must identify its block-bit group: success pr_block^l."""
    _check_block_scheme(space, l)
    pr_b, _ = _grk_probabilities(space, k1, k2)
    return (1 + k1 + k2) / pr_b**l


def grk_parallel_min(space: SearchSpace, l: int) -> SchemeResult:
    _check_block_scheme(space, l)
    e, k1, k2, pr_b, _ = grk_scan_min(space, lambda q, prb, prt: q / prb**l)
    return SchemeResult(
        kind=GRK,
        l=l,
        k1=k1,
        k2=k2,
        queries=1 + k1 + k2,
        e_min=e,
        pr_at_opt=pr_b**l,
    )


def hybrid_expected(space: SearchSpace, l: int, k1: int, k2: int) -> float:
    """A round succeeds if the assembled block address is right or any
    single QPU's measured item verifies classically."""
    _check_block_scheme(space, l)
    pr_b, pr_t = _grk_probabilities(space, k1, k2)
    denom = 1.0 - (1.0 - pr_b**l) * (1.0 - pr_t) ** l
    return (1 + k1 + k2) / denom


def hybrid_min(space: SearchSpace, l: int, allow_k2: bool = True) -> SchemeResult:
    _check_block_scheme(space, l)

    def objective(q, prb, prt):
        return q / (1.0 - (1.0 - prb**l) * (1.0 - prt) ** l)

    e, k1, k2, pr_b, pr_t = grk_scan_min(space, objective, allow_k2=allow_k2)
    pr = 1.0 - (1.0 - pr_b**l) * (1.0 - pr_t) ** l
    return SchemeResult(
        kind=HYBRID, l=l, k1=k1, k2=k2, queries=1 + k1 + k2, e_min=e, pr_at_opt=pr
    )


# -- hybrid closed forms ---------------------------------------------------


@dataclass(frozen=True)
class HybridL2Bound:
    coefficient: float  # 2*pi/13
    floor: float  # coefficient * sqrt(N)


def hybrid_l2_lower_bound(N: int) -> HybridL2Bound:
    """Analytic floor of the two-QPU hybrid expectation: (2 pi/13) sqrt(N),
    the curve value at phi = pi/4 (the near-minimum of the curve)."""
    coeff = 2.0 * math.pi / 13.0
    return HybridL2Bound(coefficient=coeff, floor=coeff * math.sqrt(N))


def hybrid_l2_curve(N: int, phi_values: Iterable[float]) -> list[tuple[float, float]]:
    """The phi-parameterized two-QPU envelope
    phi sqrt(N) / (2 (1 - (1 - sin^4 phi) cos^4 phi)) for plotting."""
    out = []
    root_n = math.sqrt(N)
    for phi in phi_values:
        denom = 2.0 * (1.0 - (1.0 - math.sin(phi) ** 4) * math.cos(phi) ** 4)
        out.append((phi, phi * root_n / denom))
    return out


def hybrid_large_l_asymptotic(n: int) -> tuple[float, float]:
    """Saturated parallelism l = n: optimal queries and expectation,
    k_min = 0.56045 sqrt(N/n), e_min = 0.7835 sqrt(N/n) (the outer
    scheme's coefficient; recomputed, not hard-coded)."""
    from .bounds import bound_constants

    if n < 1:
        raise ParameterError("n must be >= 1")
    c = bound_constants()
    scale = math.sqrt((1 << n) / n)
    return c.saturated_kmin_coeff * scale, c.outer_min_coeff * scale


# -- cross-scheme comparison -----------------------------------------------


def scheme_min(spec: SchemeSpec, allow_k2: bool = True) -> SchemeResult:
    """Dispatch to the right optimizer for one configuration."""
    if spec.space is None:
        raise ParameterError(f"scheme {spec.kind} needs a space")
    if spec.kind == INNER:
        return inner_min(spec.space.N, spec.l)
    if spec.kind == OUTER:
        return outer_min(spec.space.N, spec.l)
    if spec.kind == GRK:
        return grk_parallel_min(spec.space, spec.l)
    if spec.kind == HYBRID:
        return hybrid_min(spec.space, spec.l, allow_k2=allow_k2)
    raise ParameterError(f"unknown scheme kind {spec.kind!r}")


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
        elif not _is_power_of_two(l):
            skipped.append(SkippedScheme(INNER, l, "l is not a power of two"))
        else:
            skipped.append(SkippedScheme(INNER, l, "l exceeds N"))
        results.append(outer_min(N, l))
        if n % l == 0:
            space = space_for_parallelism(n, l)
            results.append(grk_parallel_min(space, l))
            results.append(hybrid_min(space, l))
        else:
            reason = "l does not divide n"
            skipped.append(SkippedScheme(GRK, l, reason))
            skipped.append(SkippedScheme(HYBRID, l, reason))
    return results, skipped
