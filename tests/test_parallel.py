"""Four parallel-scheme cost models: closed-form limits, exact scan
optima, and the cross-scheme orderings."""

import math

import mpmath
import numpy as np
import pytest

from partial_search import (
    ConstraintError,
    NumericalError,
    SchemeResult,
    bound_constants,
    compare_schemes,
    grk_parallel_expected,
    grk_parallel_min,
    grover_full_search_probability,
    hybrid_expected,
    hybrid_min,
    inner_min,
    new_search_space,
    outer_expected,
    outer_min,
    space_for_parallelism,
)
from partial_search.bounds import continuous_kmin
from partial_search.space import grover_angle


# -- inner -----------------------------------------------------------------------


def test_inner_reduces_database_per_qpu():
    N, l = 2**10, 4
    res = inner_min(N, l)
    k_cont = continuous_kmin(grover_angle(N // l), 1)
    assert abs(res.k1 - k_cont) <= 1.0
    assert res.e_min == pytest.approx(res.queries / res.pr_at_opt, rel=1e-12)


def test_inner_large_limit_coefficient():
    res = inner_min(2**30, 4)
    assert res.e_min / math.sqrt(2**28) == pytest.approx(0.69, abs=1e-3)


def test_inner_degenerate_full_parallelism():
    res = inner_min(2**6, 2**6)
    assert (res.k1, res.e_min) == (1, pytest.approx(1.0))


def test_inner_requires_power_of_two():
    with pytest.raises(ConstraintError):
        inner_min(2**6, 3)
    with pytest.raises(ConstraintError):
        inner_min(2**6, 2**7)


# -- outer -----------------------------------------------------------------------


def test_outer_single_machine_is_serial_grover():
    N = 2**8
    for k in (1, 3, 7):
        theta1 = math.asin(N**-0.5)
        pr = math.sin((2 * k + 1) * theta1) ** 2
        assert outer_expected(N, 1, k) == pytest.approx(k / pr, rel=1e-14)


def test_outer_large_l_coefficient():
    N, l = 2**30, 2**10
    res = outer_min(N, l)
    assert res.e_min / math.sqrt(N / l) == pytest.approx(0.7835, abs=2e-3)


def test_outer_matches_continuous_substitution():
    # N=2^16, l=8: scan minimum 69.283 vs substitution minimum 70.913,
    # a 2.3% gap that shrinks as l grows
    N, l = 2**16, 8
    res = outer_min(N, l)
    continuous = bound_constants().outer_min_coeff * math.sqrt(N / l)
    assert abs(res.e_min - continuous) / continuous < 0.03
    res64 = outer_min(N, 64)
    cont64 = bound_constants().outer_min_coeff * math.sqrt(N / 64)
    # saturation constant converges like 1/l; still 3.0% off at l=64
    assert abs(res64.e_min - cont64) / cont64 < 0.035


@pytest.mark.parametrize("n", [6, 11])
def test_inner_and_outer_share_the_full_search_law(n):
    # bit for bit: one angle and one sin^2((2k+1) theta) for every scheme
    N = 1 << n
    for j in range(3):
        res = inner_min(N, 1 << j)
        assert res.pr_at_opt == grover_full_search_probability(n - j, res.k1)
    for l in (1, 3, 5):
        res = outer_min(N, l)
        pr1 = grover_full_search_probability(n, res.k1)
        assert res.pr_at_opt == -math.expm1(l * math.log1p(-pr1))


def _scan_min(kind, n, l):
    """The per-k scan the stationarity root replaced, caps included:
    k = 1..ceil(pi sqrt(N/l)/4) + 2 for inner, 1..ceil(pi sqrt(N)/4) for
    outer; min keeps the first (fewest-query) minimum."""
    N = 1 << n
    if kind == "inner":
        hi = math.ceil(math.pi * math.sqrt(N / l) / 4.0) + 2

        def success(k):
            return grover_full_search_probability(n - l.bit_length() + 1, k)

    else:
        hi = math.ceil(math.pi * math.sqrt(N) / 4.0)

        def success(k):
            pr1 = grover_full_search_probability(n, k)
            return 1.0 if pr1 == 1.0 else -math.expm1(l * math.log1p(-pr1))

    k = min(range(1, hi + 1), key=lambda k: k / success(k))
    pr = success(k)
    return SchemeResult(kind, l, k, None, k, k / pr, pr)


@pytest.mark.parametrize("n", range(1, 21))
def test_inner_and_outer_match_the_per_k_scan(n):
    N = 1 << n
    for j in range(n + 1):
        assert inner_min(N, 1 << j) == _scan_min("inner", n, 1 << j), j
    for l in [*range(1, 65), 10**3, 10**6]:
        assert outer_min(N, l) == _scan_min("outer", n, l), l


def test_inner_and_outer_reach_the_full_range():
    # the per-k scan ran about 1e9 steps here (and outer at k = 1, n >= 58,
    # divided by a round success that rounds to 0); at n = 56, 1 - cos^2 u
    # written plainly cancels near k = 1 and misplaces the root
    cases = [(inner_min, 62, 2), (outer_min, 62, 1), (outer_min, 58, 1)]
    for scheme_min, n, l in [*cases, (inner_min, 56, 1)]:
        res = scheme_min(1 << n, l)
        items = (1 << n) // l if scheme_min is inner_min else 1 << n
        theta = grover_angle(items)
        k_cont = continuous_kmin(theta, 1)
        e_cont = k_cont / math.sin((2 * k_cont + 1) * theta) ** 2
        # k / pr varies by less than an ulp across the three candidates
        # here, so rounding picks among them
        assert abs(res.k1 - k_cont) < 2.0
        assert res.e_min == pytest.approx(e_cont, rel=1e-12)


def test_zero_success_probability_is_a_numerical_error():
    # the round success rounds to 0: pr_t = 1/N is below half an ulp of 1
    with pytest.raises(NumericalError, match="zero success probability"):
        hybrid_expected(space_for_parallelism(62, 2), 2, 0, 0)


@pytest.mark.parametrize("n", [56, 58, 62])
@pytest.mark.parametrize("l, k", [(1, 1), (3, 1), (1, 5), (64, 2)])
def test_outer_expected_is_relatively_exact_at_large_n(n, l, k):
    # 1 - (1 - pr1)^l written plainly kept few digits of pr1 ~ 9/N here and
    # was 0 from n = 58; N/9 (k = 1, l = 1) is about 8.0e15 at n = 56
    mp = mpmath.MPContext()
    mp.dps = 60
    pr1 = mp.sin((2 * k + 1) * mp.asin(1 / mp.sqrt(mp.mpf(2) ** n))) ** 2
    exact = k / (1 - (1 - pr1) ** l)
    assert outer_expected(1 << n, l, k) == pytest.approx(float(exact), rel=1e-14)


# -- block-scheme plumbing ----------------------------------------------------------


def test_space_for_parallelism():
    sp = space_for_parallelism(18, 3)
    assert (sp.n, sp.m) == (18, 12)
    sp1 = space_for_parallelism(5, 1)
    assert (sp1.n, sp1.m) == (5, 0)
    with pytest.raises(ConstraintError):
        space_for_parallelism(5, 2)


def test_block_schemes_reject_mismatched_l():
    sp = space_for_parallelism(6, 3)
    with pytest.raises(ConstraintError):
        grk_parallel_min(sp, 2)
    with pytest.raises(ConstraintError):
        hybrid_expected(sp, 6, 2, 1)


# -- grk-based ------------------------------------------------------------------


def test_grk_two_qpu_asymptote():
    # e_min approaches 0.7422*sqrt(N) - 0.3651*N**0.25 from the
    # tan(2a)=8a stationarity; the two-term form is 1e-5 accurate at n=28
    N = 2**28
    sp = space_for_parallelism(28, 2)
    res = grk_parallel_min(sp, 2)
    two_term = 0.7422 * math.sqrt(N) - 0.3651 * N**0.25
    assert res.e_min == pytest.approx(two_term, rel=1e-4)
    assert res.e_min / math.sqrt(N) == pytest.approx(0.7422, abs=5e-3)


def test_grk_full_parallelism_asymptote():
    n = 24
    sp = space_for_parallelism(n, n)
    res = grk_parallel_min(sp, n)
    predicted = (0.5433 - 1 / (4 * math.pi * n)) * math.sqrt(2**n)
    assert abs(res.e_min - predicted) / predicted < 0.03


def test_grk_expected_composition():
    sp = space_for_parallelism(8, 2)
    res = grk_parallel_min(sp, 2)
    assert res.e_min == pytest.approx(
        grk_parallel_expected(sp, 2, res.k1, res.k2), rel=1e-14
    )
    assert res.queries == 1 + res.k1 + res.k2


# -- hybrid ---------------------------------------------------------------------


def test_hybrid_three_qpu_reference_points():
    # n=18, l=3: plain-global optimum (E, k) = (218.533, 168); freeing k2
    # lowers it to 218.530824 at (166, 1)
    sp = space_for_parallelism(18, 3)
    r0 = hybrid_min(sp, 3, allow_k2=False)
    assert (round(r0.e_min, 3), r0.queries) == (218.533, 168)
    assert r0.k2 == 0
    r1 = hybrid_min(sp, 3, allow_k2=True)
    assert round(r1.e_min, 3) == 218.531
    assert (r1.k1, r1.k2) == (166, 1)
    assert r1.e_min < r0.e_min


def test_hybrid_full_parallelism_matches_asymptotic():
    n = 24
    c = bound_constants()
    scale = math.sqrt(2**n / n)
    k_asym, e_asym = c.saturated_kmin_coeff * scale, c.outer_min_coeff * scale
    sp = space_for_parallelism(n, n)
    res = hybrid_min(sp, n, allow_k2=False)
    assert abs(res.e_min - e_asym) / e_asym < 0.03
    assert abs(res.queries - k_asym) / k_asym < 0.05


def _hybrid_l2_curve(phis):
    # two-QPU hybrid expectation over sqrt(N), as a function of the phase phi
    return phis / (2.0 * (1.0 - (1.0 - np.sin(phis) ** 4) * np.cos(phis) ** 4))


def test_hybrid_l2_floor_and_curve():
    N = 2**20
    coefficient = bound_constants().hybrid_l2_coeff
    assert coefficient == pytest.approx(2 * math.pi / 13, abs=1e-15)
    assert coefficient * math.sqrt(N) == pytest.approx(0.4833 * math.sqrt(N), rel=1e-3)
    phis = np.linspace(0.5, 1.1, 6001)
    curve = _hybrid_l2_curve(phis)
    i = int(np.argmin(curve))
    # the curve dips 0.025% below the closed form just left of pi/4
    assert float(curve[i]) == pytest.approx(2 * math.pi / 13, rel=1e-3)
    assert abs(phis[i] - math.pi / 4) < 0.02
    # the closed form undercuts inner's two-QPU coefficient
    assert coefficient < 0.69 / math.sqrt(2)


def test_hybrid_l2_closed_form_is_not_a_lower_bound():
    # 2 pi / 13 is the two-QPU curve at phi = pi / 4, not its minimum: the
    # curve dips to 0.4832015 sqrt(N) at phi = 0.7737, 2.5e-4 relative below
    coefficient = bound_constants().hybrid_l2_coeff
    phis = np.linspace(0.7, 0.85, 1501)
    low = float(np.min(_hybrid_l2_curve(phis)))
    assert low < coefficient
    assert low == pytest.approx(0.4832015, abs=1e-7)
    assert 1.0 - low / coefficient == pytest.approx(2.5e-4, rel=0.01)


def test_hybrid_beats_inner_at_two_qpus():
    for n in (6, 12, 20):
        sp = space_for_parallelism(n, 2)
        hyb = hybrid_min(sp, 2)
        inn = inner_min(2**n, 2)
        assert hyb.e_min < inn.e_min, n


def test_hybrid_pointwise_dominance_over_outer():
    # with k2 = 0 the hybrid success adds a block-verification path, so
    # at every query count its expectation is no worse than outer's
    rng = np.random.default_rng(4)
    count = 0
    while count < 1000:
        n = int(rng.integers(4, 22))
        divisors = [l for l in range(1, n + 1) if n % l == 0]
        l = int(rng.choice(divisors))
        k = int(rng.integers(1, math.ceil(math.pi * math.sqrt(2**n) / 4) + 1))
        sp = space_for_parallelism(n, l)
        assert hybrid_expected(sp, l, k - 1, 0) <= outer_expected(2**n, l, k) + 1e-12
        count += 1


# -- cross-scheme comparison -----------------------------------------------------


def test_scheme_results_are_consistent():
    results, skipped = compare_schemes(2**5, range(1, 33))
    for r in results:
        assert isinstance(r, SchemeResult)
        assert r.e_min == pytest.approx(r.queries / r.pr_at_opt, rel=1e-12)
    reasons = {s.reason for s in skipped}
    assert any("power of two" in r for r in reasons)
    assert any("divide" in r for r in reasons)


def test_five_qubit_orderings():
    n = 5
    results, _ = compare_schemes(2**n, range(1, 2**n + 1))
    by_kind_l = {(r.kind, r.l): r for r in results}
    for l in (1, 5):  # admissible for the block schemes
        hyb = by_kind_l[("hybrid", l)]
        out = by_kind_l[("outer", l)]
        grk = by_kind_l[("grk", l)]
        assert grk.e_min >= out.e_min - 1e-9
        assert hyb.e_min <= out.e_min + 1e-12
        if l < n:
            assert hyb.e_min < out.e_min
    # l=1 collapses inner and outer to the serial optimum
    assert by_kind_l[("inner", 1)].e_min == pytest.approx(
        by_kind_l[("outer", 1)].e_min, rel=1e-14
    )
    # the l=1 grk scheme is serial full search up to float noise
    assert by_kind_l[("grk", 1)].e_min == pytest.approx(
        by_kind_l[("outer", 1)].e_min, abs=1e-9
    )


def test_six_qubit_hybrid_vs_inner_non_vacuous():
    # l=2 divides n=6, so the two-QPU comparison is actually exercised
    results, _ = compare_schemes(2**6, [2])
    by_kind = {r.kind: r for r in results}
    assert by_kind["hybrid"].e_min < by_kind["inner"].e_min

