"""Closed-form results: optimal query counts, probability bounds, and the
named numerical constants behind them.

Every constant is recomputed from its defining equation at first use
(bracketed bisection, never hard-coded); the decimal literals quoted in
docstrings and tests are expectations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import ConstraintError, NumericalError, ParameterError
from . import scans
from .scans import block_scan_min, check_splits, grk_max_block_probability
from .space import SearchSpace, angles, check_qubits, new_search_space

# kept as a name here, though no bounds sweep calls it any more: the
# benchmark's tracer test (bench/test_selfcheck.py) checks that tracing
# rebinds this copy
grk_scan_min = scans.grk_scan_min


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, key: Callable[[float], int] | None = None
) -> float:
    """Plain bisection; requires a sign change on [lo, hi].

    Halves until the midpoint rounds to an end, where lo and hi are
    adjacent doubles and every further halving would leave them as they
    are, so the result is as exact as the function evaluation allows.
    A key, if given, ends the halving early, at the midpoint, once
    key(lo) == key(hi): a monotone key has that value at the root too.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NumericalError(f"no sign change on [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    while mid != lo and mid != hi and not (key and key(lo) == key(hi)):
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def continuous_kmin(theta: float, l: int) -> float:
    """Continuous minimizer over k >= 1 of k / (1 - cos^(2l) u) with
    u = (2k+1) theta: full search (l = 1) or l replicas of it.

    The root of 1 - cos^(2l) u = 2l (u - theta) cos^(2l-1) u sin u on
    (3 theta, pi/2); 1 if 3 theta >= pi/2 or the objective already rises
    there. 1 - cos^(2l) u is -expm1(l log1p(-sin^2 u)): the plain form
    loses every digit as sin^2 u nears an ulp of 1 (from n = 56). Unique for
    l = 1: a stationary point has tan u = 4 theta k, so k >= 1 puts it at
    u > pi/4 (tan u <= 4u/pi below), where the slope crosses upward. For
    l > 1 only checked on a grid, not proved.
    """
    return _kmin(theta, l)


def _kmin(theta: float, l: int, key: Callable[[float], int] | None = None) -> float:
    """continuous_kmin, its bisection ended early by `key` (bisect_root)."""
    def slope(u: float) -> float:
        s = math.sin(u)
        if s == 1.0:  # log1p(-1.0) raises; cos u = 0 here
            return 1.0
        log_c2 = math.log1p(-s * s)
        tail = 2.0 * l * (u - theta) * math.exp((l - 0.5) * log_c2) * s
        return -math.expm1(l * log_c2) - tail

    lo = 3.0 * theta
    if lo >= 0.5 * math.pi or slope(lo) >= 0.0:
        return 1.0
    return 0.5 * (bisect_root(slope, lo, 0.5 * math.pi, key) / theta - 1.0)


def _kmin_floor(theta: float, l: int) -> int:
    """floor(continuous_kmin(theta, l)), its bisection stopped once both ends
    have the same floor, a key monotone in floating point."""
    return math.floor(_kmin(theta, l, lambda u: math.floor(0.5 * (u / theta - 1.0))))


@dataclass(frozen=True)
class BoundConstants:
    """Recomputed roots and coefficients used by the closed-form bounds.

    f_min: minimum of f(x) = x - sin(2x), about -0.342427.
    epsilon: -2*f_min, about 0.6849 (probability-bound correction).
    c_grk: -f_min, equals sqrt(3)/2 - pi/6, about 0.3424 (query saving
        per sqrt(b) at unit block probability).
    ktot_coeff: root of tan(2a) = 4a, about 0.58278 (leading sqrt(N)
        coefficient of the expectation-optimal query count).
    ktot_block_coeff: first-order gamma coefficient of that optimum,
        about -0.4969 (the sqrt(b) term).
    grover_kmin_coeff: root of tan(u) = 2u over 2, about 0.5828
        (full-search optimal k over sqrt(N)); same root as ktot_coeff.
    grover_pr_at_kmin: success probability at that k, about 0.8446.
    grover_emin_coeff: minimal expectation over sqrt(N), about 0.69.
    emin_block_coeff: sqrt(b) coefficient of the minimal expectation,
        about -0.4054.
    outer_min_coeff: min over x of x / (2(1 - exp(-x^2))), about 0.7835;
        at saturated parallelism l = n the hybrid optimum expects about
        outer_min_coeff * sqrt(N/n) queries.
    saturated_root: root u of (1 + 2u) e^-u = 1, about 1.25643.
    saturated_kmin_coeff: sqrt(u)/2, about 0.56045; the hybrid optimum
        at l = n makes about saturated_kmin_coeff * sqrt(N/n) queries.
    hybrid_l2_coeff: 2*pi/13, about 0.4833, the paper's two-QPU hybrid
        coefficient: the curve phi / (2(1 - (1 - sin^4 phi) cos^4 phi))
        at phi = pi/4. Not a lower bound: it lies 2.5e-4 relative above
        the curve's minimum 0.4832015 (at phi = 0.7737) and above
        hybrid_min / sqrt(N) at n = 62, l = 2.
    """

    f_min: float
    epsilon: float
    c_grk: float
    ktot_coeff: float
    ktot_block_coeff: float
    grover_kmin_coeff: float
    grover_pr_at_kmin: float
    grover_emin_coeff: float
    emin_block_coeff: float
    outer_min_coeff: float
    saturated_root: float
    saturated_kmin_coeff: float
    hybrid_l2_coeff: float


@lru_cache(maxsize=1)
def bound_constants() -> BoundConstants:
    # min of x - sin(2x): stationary at cos(2x) = 1/2, i.e. x = pi/6
    x_star = bisect_root(lambda x: 1.0 - 2.0 * math.cos(2.0 * x), 0.1, 1.0)
    f_min = x_star - math.sin(2.0 * x_star)
    epsilon = -2.0 * f_min

    # stationarity of a / sin^2(2a): 1 - cos(4a) - 4a sin(4a) = 0
    a0 = bisect_root(
        lambda a: 1.0 - math.cos(4.0 * a) - 4.0 * a * math.sin(4.0 * a), 0.4, 0.7
    )
    s4, c4 = math.sin(4.0 * a0), math.cos(4.0 * a0)
    # implicit-function slope of the perturbed stationarity in gamma
    ktot_block = epsilon * (s4 - 4.0 * a0 * c4) / (8.0 * a0 * c4)

    # full-search optimum: tan(u) = 2u with u = (2k+1) theta1 is the
    # stationarity above at u = 2a, so it needs no bisection of its own
    u0 = 2.0 * a0
    pr0 = math.sin(u0) ** 2

    # expectation expansion around a0 (v = ktot_block)
    s2a, c2a = math.sin(2.0 * a0), math.cos(2.0 * a0)
    v = ktot_block
    emin_block = v / s2a**2 - 2.0 * a0 * (2.0 * v + epsilon) * c2a / s2a**3

    # d/dx [x / (1 - e^(-x^2))] = 0  <=>  (1 + 2u) e^-u = 1 with u = x^2
    u_sat = bisect_root(lambda u: (1.0 + 2.0 * u) * math.exp(-u) - 1.0, 0.5, 3.0)
    outer_coeff = math.sqrt(u_sat) / (2.0 * (1.0 - math.exp(-u_sat)))

    return BoundConstants(
        f_min=f_min,
        epsilon=epsilon,
        c_grk=-f_min,
        ktot_coeff=a0,
        ktot_block_coeff=ktot_block,
        grover_kmin_coeff=0.5 * u0,
        grover_pr_at_kmin=pr0,
        grover_emin_coeff=0.5 * u0 / pr0,
        emin_block_coeff=emin_block,
        outer_min_coeff=outer_coeff,
        saturated_root=u_sat,
        saturated_kmin_coeff=0.5 * math.sqrt(u_sat),
        hybrid_l2_coeff=2.0 * math.pi / 13.0,
    )


# -- GRK closed-form parameters ------------------------------------------


@dataclass(frozen=True)
class GrkParameters:
    """Closed-form query counts driving the block probability to ~1.

    eta, alpha parameterize k1 = pi sqrt(N)/4 - eta sqrt(b) and
    k2 = alpha sqrt(b); the integers are the rounded values.
    """

    eta: float
    alpha: float
    k1: int
    k2: int


def grk_optimal_parameters(space: SearchSpace) -> GrkParameters:
    """Optimal (eta, alpha) for the query-count-minimal unit-probability
    sequence: tan(2 eta/sqrt(K)) = sqrt(3K-4)/(K-2),
    cos(2 alpha) = (K-2)/(2(K-1)).

    Requires K >= 3: at K = 2 the parameterization degenerates (the
    optimal sequence drops the leading global run entirely, k1 = 0).
    """
    K = space.K
    if K < 3:
        raise ConstraintError(
            "closed-form parameters need K >= 3; at K = 2 the optimal "
            "sequence has k1 = 0 and this parameterization degenerates"
        )
    eta = 0.5 * math.sqrt(K) * math.atan(math.sqrt(3.0 * K - 4.0) / (K - 2.0))
    alpha = 0.5 * math.acos((K - 2.0) / (2.0 * (K - 1.0)))
    sqrt_b = math.sqrt(space.b)
    k1 = round(math.pi * math.sqrt(space.N) / 4.0 - eta * sqrt_b)
    k2 = round(alpha * sqrt_b)
    return GrkParameters(eta=eta, alpha=alpha, k1=k1, k2=k2)


# -- probability bound ----------------------------------------------------


def pr_max_bound(space: SearchSpace, k_tot: int) -> float:
    """First-order upper envelope of the maximal block probability at a
    query budget k_tot: sin^2(2a) + epsilon*gamma*sin(4a) with
    a = (k_tot - 1)/sqrt(N). Valid for a <= pi/4."""
    if k_tot < 1:
        raise ParameterError("k_tot must be >= 1")
    alpha = (k_tot - 1) / math.sqrt(space.N)
    if alpha > math.pi / 4.0 + 1e-12:
        raise ParameterError(
            f"budget implies alpha={alpha:.4f} > pi/4 where the envelope is invalid"
        )
    g = angles(space).gamma
    c = bound_constants()
    val = math.sin(2.0 * alpha) ** 2 + c.epsilon * g * math.sin(4.0 * alpha)
    return min(1.0, max(0.0, val))


# -- numeric sweeps (plot-ready data) -------------------------------------


@dataclass(frozen=True)
class MinExpectedRecord:
    """Numeric optimum at one m plus the analytic estimates (not bounds)."""

    m: int
    e_min: float
    k1: int
    k2: int
    k_tot: int
    bound_narrow: float  # 0.69 sqrt(N) - 0.4054 sqrt(b)
    bound_wide: float  # K - 8 K^2/N
    bound_selected: float
    unit_probability_reference: float  # pi sqrt(N)/4 - c_grk sqrt(b)


def min_expected_sweep(
    n: int, m_values: Sequence[int] | None = None
) -> list[MinExpectedRecord]:
    """Exact integer-scan minimum of the expectation for each m, with
    both analytic branch values, the one that applies (narrow for
    m <= n//2) and the unit-probability reference. The branches are
    estimates, not lower bounds: at n = 12 the exact scan minimum lies
    below the narrow branch at m = 1, 3 and 6. Every m is scanned in one
    scans.block_scan_min pass, grk_scan_min's result with the block
    success, so no m is refused up to n = 62."""
    check_qubits(n)
    if m_values is None:
        m_values = range(1, n)
    if not m_values:
        raise ParameterError(f"empty m range at n={n}")
    spaces = [new_search_space(n, m) for m in m_values]
    c = bound_constants()
    out = []
    for space, (e, k1, k2, _, _) in zip(spaces, block_scan_min(spaces)):
        sqrt_n, sqrt_b = math.sqrt(space.N), math.sqrt(space.b)
        narrow = c.grover_emin_coeff * sqrt_n + c.emin_block_coeff * sqrt_b
        wide = space.K - 8.0 * space.K**2 / space.N
        out.append(
            MinExpectedRecord(
                m=space.m,
                e_min=e,
                k1=k1,
                k2=k2,
                k_tot=1 + k1 + k2,
                bound_narrow=narrow,
                bound_wide=wide,
                bound_selected=narrow if space.m <= n // 2 else wide,
                unit_probability_reference=math.pi * sqrt_n / 4.0 - c.c_grk * sqrt_b,
            )
        )
    return out


@dataclass(frozen=True)
class PrBoundRecord:
    """Numeric maximum vs the analytic envelope at one query budget."""

    k_tot: int
    alpha: float
    pr_numeric: float
    pr_bound: float
    gap: float
    k1: int
    k2: int
    k2_rule_floor: int  # floor(pi sqrt(b)/6), the empirical optimizer
    k2_rule_round: int  # round(pi sqrt(b)/6), the stated shortcut


def pr_bound_comparison(
    space: SearchSpace, k_tot_values: Iterable[int]
) -> list[PrBoundRecord]:
    """Compare the exhaustive-over-(k1,k2) block probability against the
    first-order envelope for each budget."""
    k_tots, splits = [], 0
    for k_tot in k_tot_values:  # refuse an oversized range before any budget
        splits += k_tot
        check_splits(splits)
        k_tots.append(k_tot)
    rule = math.pi * math.sqrt(space.b) / 6.0
    out = []
    for k_tot in k_tots:
        pr, k1, k2 = grk_max_block_probability(space, k_tot)
        bound = pr_max_bound(space, k_tot)
        out.append(
            PrBoundRecord(
                k_tot=k_tot,
                alpha=(k_tot - 1) / math.sqrt(space.N),
                pr_numeric=pr,
                pr_bound=bound,
                gap=bound - pr,
                k1=k1,
                k2=k2,
                k2_rule_floor=math.floor(rule),
                k2_rule_round=round(rule),
            )
        )
    return out
