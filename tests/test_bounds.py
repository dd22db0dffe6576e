"""Closed-form constants, the probability envelope, and the expectation
branches, checked against recomputation and dense integer scans."""

import math

import numpy as np
import pytest

from partial_search import (
    ConstraintError,
    Kind,
    NumericalError,
    OperatorSequence,
    ParameterError,
    block_success_probability,
    bound_constants,
    grk_optimal_parameters,
    min_expected_sweep,
    new_search_space,
    pr_bound_comparison,
    pr_max_bound,
)
import partial_search.bounds as bounds
from partial_search.bounds import _kmin_floor, bisect_root, continuous_kmin
from partial_search.space import grover_angle

G, L = Kind.GLOBAL, Kind.LOCAL


def test_bisect_root_basics():
    assert bisect_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(2), abs=1e-15
    )
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    with pytest.raises(NumericalError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def halving_root(f, lo, hi):
    """bisect_root as 200 halvings, far past double resolution."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bisect_root_stops_at_adjacent_ends_with_the_same_root(monkeypatch):
    # once the midpoint rounds to an end, further halvings change no bit
    evaluations = []

    def counted(f, lo, hi, key=None):
        assert key is None  # continuous_kmin halves to adjacent ends
        calls = []
        root = bisect_root(lambda x: calls.append(x) or f(x), lo, hi)
        evaluations.append(len(calls))
        assert root == halving_root(f, lo, hi), (lo, hi)
        return root

    monkeypatch.setattr(bounds, "bisect_root", counted)
    for n in range(2, 63, 3):
        N = 2**n
        for l in {1, 2, 3, 7, 64, n}:
            for items in {N, N // l} - {0}:  # theta of N and of N/l
                continuous_kmin(grover_angle(items), l)
    bounds.bound_constants.cache_clear()
    bounds.bound_constants()
    assert len(evaluations) > 100
    assert max(evaluations) <= 64


def test_kmin_floor_is_the_floor_of_continuous_kmin():
    # every theta and replica count the parallel query minima ask for at
    # n <= 62 and l <= 64: outer (theta of N, l replicas, any l) and
    # inner (theta of N / l, one replica, l a power of two up to N); the
    # early stop returns what the full bisection's root floors to
    cases = set()
    for n in range(1, 63):
        N = 2**n
        for l in range(1, 65):
            cases.add((grover_angle(N), l))
            if l & (l - 1) == 0 and l <= N:
                cases.add((grover_angle(N // l), 1))
    assert len(cases) > 3900
    for theta, l in sorted(cases):
        assert _kmin_floor(theta, l) == math.floor(continuous_kmin(theta, l)), (theta, l)


# -- constants ------------------------------------------------------------------


def test_fmin_and_epsilon():
    c = bound_constants()
    assert c.f_min == pytest.approx(math.pi / 6 - math.sin(math.pi / 3), abs=1e-12)
    assert c.f_min == pytest.approx(-0.342427, abs=5e-7)
    assert c.epsilon == pytest.approx(0.6849, abs=5e-5)
    assert c.epsilon == pytest.approx(-2 * c.f_min, abs=1e-15)


def test_c_grk_closed_form():
    c = bound_constants()
    assert c.c_grk == pytest.approx(math.sqrt(3) / 2 - math.pi / 6, abs=1e-12)
    assert c.c_grk == pytest.approx(0.3424, abs=5e-5)


def test_ktot_coefficients():
    c = bound_constants()
    a0 = c.ktot_coeff
    # defining equation, far below the quoted precision
    assert abs(1 - math.cos(4 * a0) - 4 * a0 * math.sin(4 * a0)) < 1e-12
    # quoted as 0.5828 in one place and 0.5829 in another; the root is
    # 0.5827806, so only the first rendering is the correct 4-decimal one
    assert a0 == pytest.approx(0.5828, abs=5e-5)
    assert a0 == pytest.approx(0.5829, abs=1.5e-4)
    assert c.ktot_block_coeff == pytest.approx(-0.4969, abs=5e-5)


def test_grover_constants():
    c = bound_constants()
    u0 = 2 * c.grover_kmin_coeff
    assert abs(math.tan(u0) - 2 * u0) < 1e-10
    assert c.grover_kmin_coeff == pytest.approx(0.5828, abs=5e-5)
    assert c.grover_pr_at_kmin == pytest.approx(0.8446, abs=5e-5)
    assert c.grover_emin_coeff == pytest.approx(0.69, abs=5e-3)
    # same stationarity as the budget optimum: u0 = 2 a0
    assert u0 == pytest.approx(2 * c.ktot_coeff, abs=1e-12)


def test_emin_block_coefficient():
    assert bound_constants().emin_block_coeff == pytest.approx(-0.4054, abs=5e-5)


def test_outer_and_saturated_constants():
    c = bound_constants()
    u = c.saturated_root
    assert abs((1 + 2 * u) * math.exp(-u) - 1) < 1e-12
    assert u == pytest.approx(1.25643, abs=1e-5)
    assert c.outer_min_coeff == pytest.approx(0.7835, abs=5e-5)
    assert c.saturated_kmin_coeff == pytest.approx(0.56045, abs=5e-6)
    # direct grid check that outer_min_coeff is the curve minimum
    xs = np.linspace(0.3, 3.0, 20001)
    curve = xs / (2 * (1 - np.exp(-(xs**2))))
    assert c.outer_min_coeff == pytest.approx(float(curve.min()), abs=1e-7)


def test_hybrid_l2_coefficient():
    assert bound_constants().hybrid_l2_coeff == pytest.approx(
        2 * math.pi / 13, abs=1e-15
    )
    assert bound_constants().hybrid_l2_coeff == pytest.approx(0.4833, abs=5e-5)


# -- full-search k_min ------------------------------------------------------------


# full search is continuous_kmin at l = 1, with pr = sin^2((2k+1) theta1)
# and E = k / pr


def test_grover_kmin_large_n_limits():
    N = 2**40
    theta1 = grover_angle(N)
    k = continuous_kmin(theta1, 1)
    pr = math.sin((2 * k + 1) * theta1) ** 2
    s = math.sqrt(N)
    assert k / s == pytest.approx(0.5828, abs=1e-4)
    assert pr == pytest.approx(0.8446, abs=1e-4)
    assert k / pr / s == pytest.approx(0.69, abs=1e-3)


def test_grover_kmin_against_integer_scan():
    for n in (4, 6, 10, 16, 20, 30):
        N = 2**n
        theta1 = math.asin(N**-0.5)
        k_cont = continuous_kmin(theta1, 1)
        e_cont = k_cont / math.sin((2 * k_cont + 1) * theta1) ** 2
        ks = np.arange(1, math.ceil(math.pi * math.sqrt(N) / 4) + 2)
        es = ks / np.sin((2 * ks + 1) * theta1) ** 2
        k_int = int(ks[np.argmin(es)])
        assert abs(k_cont - k_int) <= 1.0, n
        assert e_cont <= es.min() + 1e-9
        # the same root serves l replicas: k / (1 - cos^(2l) u)
        for l in (2, 3, 64):
            k_cont = continuous_kmin(theta1, l)
            e_cont = k_cont / (1.0 - math.cos((2 * k_cont + 1) * theta1) ** (2 * l))
            es = ks / (1.0 - np.cos((2 * ks + 1) * theta1) ** (2 * l))
            k_int = int(ks[np.argmin(es)])
            assert abs(k_cont - k_int) <= 1.0, (n, l)
            assert e_cont <= es.min() * (1.0 + 1e-12), (n, l)


def test_grover_kmin_tiny_database():
    # N = 4: one query finds the item, so k_min = 1 with pr = E = 1
    k = continuous_kmin(grover_angle(4), 1)
    pr = math.sin(3 * grover_angle(4)) ** 2
    assert (k, pr, k / pr) == (1.0, pytest.approx(1.0), pytest.approx(1.0))


# -- grk_optimal_parameters --------------------------------------------------------


def test_grk_parameters_large_k_limits():
    sp = new_search_space(40, 20)
    p = grk_optimal_parameters(sp)
    assert p.alpha == pytest.approx(math.pi / 6, abs=1e-5)
    assert p.eta == pytest.approx(math.sqrt(3) / 2, abs=1e-5)


def test_grk_parameters_k4():
    sp = new_search_space(4, 2)
    p = grk_optimal_parameters(sp)
    assert math.cos(2 * p.alpha) == pytest.approx(1 / 3, abs=1e-12)


def test_grk_parameters_drive_probability_to_one():
    sp = new_search_space(20, 10)
    p = grk_optimal_parameters(sp)
    seq = OperatorSequence([(G, p.k1), (L, p.k2), (G, 1)])
    assert block_success_probability(sp, seq) >= 0.999


def test_grk_parameters_reject_two_blocks():
    with pytest.raises(ConstraintError):
        grk_optimal_parameters(new_search_space(8, 7))


# -- probability envelope -----------------------------------------------------------


def test_pr_bound_near_numeric_optimum():
    # n=30, m=10: the envelope tracks the exhaustive-(k1,k2) numeric
    # maximum to ~6e-5 (the next-order gamma/sqrt(b) term dominates the
    # nominal gamma^2 = 9.5e-7 scale here)
    sp = new_search_space(30, 10)
    k_tot = 1 + round(math.pi / 8 * math.sqrt(sp.N))
    recs = pr_bound_comparison(sp, [k_tot])
    assert abs(recs[0].gap) < 1e-4
    assert recs[0].pr_numeric == pytest.approx(recs[0].pr_bound, abs=1e-4)


def test_pr_bound_rejects_wide_angle():
    sp = new_search_space(12, 4)
    with pytest.raises(ParameterError):
        pr_max_bound(sp, int(math.pi / 2 * math.sqrt(sp.N)))


def test_pr_bound_leading_term():
    # gamma -> 0 leaves the pure sin^2(2 alpha) term
    sp = new_search_space(40, 2)
    k_tot = 1 + round(math.pi / 8 * math.sqrt(sp.N))
    alpha = (k_tot - 1) / math.sqrt(sp.N)
    assert pr_max_bound(sp, k_tot) == pytest.approx(
        math.sin(2 * alpha) ** 2, abs=1e-5
    )


def test_optimizing_k2_follows_block_size_rule():
    # the optimizer lands on floor(pi sqrt(b)/6) across budgets; the
    # rounded variant misses whenever the fraction exceeds one half
    sp = new_search_space(20, 10)
    k_vals = [1 + round(a * math.sqrt(sp.N)) for a in (0.28, 0.39, 0.52, 0.63)]
    for rec in pr_bound_comparison(sp, k_vals):
        assert rec.k2 == rec.k2_rule_floor == 16
        assert rec.k2_rule_round == 17


# -- expectation branches -------------------------------------------------------------


def test_min_expected_narrow_branch_values():
    (rec,) = min_expected_sweep(12, [4])
    c = bound_constants()
    expected = c.grover_emin_coeff * 2**6 + c.emin_block_coeff * 2**2
    assert rec.bound_narrow == pytest.approx(expected, abs=1e-12)
    assert rec.bound_selected == rec.bound_narrow


def test_min_expected_wide_branch_values():
    # K - 8 K^2/N, exact substitution (asymptotic in N, so loose at n=8)
    k2, k4 = min_expected_sweep(8, [7, 6])
    assert k2.bound_wide == pytest.approx(2 - 8 * 4 / 256, abs=1e-12)  # K=2 -> 1.875
    assert k4.bound_wide == pytest.approx(4 - 8 * 16 / 256, abs=1e-12)  # K=4 -> 3.5
    assert (k2.bound_selected, k4.bound_selected) == (k2.bound_wide, k4.bound_wide)


def test_branch_switch_location():
    # the two branches cross near m = n/2 + 0.5353: the narrow branch is
    # selected through m = n//2 and the wide one after
    n = 20
    recs = min_expected_sweep(n, [9, 10, 11])
    for rec in recs[:2]:
        assert rec.bound_selected == rec.bound_narrow > 2**8
    assert recs[2].bound_selected == recs[2].bound_wide
    assert recs[2].bound_wide == pytest.approx(2**9 - 8 * 2**18 / 2**20, abs=1e-9)


def test_predicted_ktot_matches_scan_argmin():
    # dense integer scan of E over the grk family lands within 2 queries
    # of the two-term formula ktot_coeff sqrt(N) + ktot_block_coeff sqrt(b)
    # (n=24, m=8)
    c = bound_constants()
    sp = new_search_space(24, 8)
    pred = c.ktot_coeff * math.sqrt(sp.N) + c.ktot_block_coeff * math.sqrt(sp.b)
    recs = min_expected_sweep(24, [8])
    assert abs(recs[0].k_tot - pred) <= 2.0


@pytest.mark.parametrize("n, m_values", [(1, None), (8, [])])
def test_min_expected_sweep_refuses_an_empty_m_range(n, m_values):
    # at n = 1 the default range 1..n-1 is empty
    with pytest.raises(ParameterError, match="empty m range"):
        min_expected_sweep(n, m_values)


def test_min_expected_sweep_tracks_branches():
    # n=20: narrow branch within 3% up to m=10, wide branch within 5%
    # from m=12 (the m=11 transition point is excluded by construction)
    ms = list(range(1, 20))
    recs = min_expected_sweep(20, ms)
    for rec in recs:
        if rec.m <= 10:
            assert abs(rec.e_min - rec.bound_narrow) / rec.e_min < 0.03, rec.m
        if rec.m >= 12:
            assert abs(rec.e_min - rec.bound_wide) / rec.e_min < 0.05, rec.m
        assert rec.bound_selected in (rec.bound_narrow, rec.bound_wide)
        assert rec.k_tot == 1 + rec.k1 + rec.k2


def test_narrow_branch_is_not_a_lower_bound_at_finite_n():
    # the exact scan optimum lies below 0.69 sqrt(N) - 0.4054 sqrt(b) at
    # these narrow-block m (and at m = 2, 4, 5 above it): the branch is an
    # estimate of e_min, not a lower bound on it
    for rec in min_expected_sweep(12, [1, 3, 6]):
        assert rec.e_min < rec.bound_narrow == rec.bound_selected, rec.m


def test_sweep_beats_unit_probability_reference():
    # restart-on-failure at the expectation optimum is cheaper than
    # driving the probability to one
    recs = min_expected_sweep(18, [4, 6, 9])
    for rec in recs:
        assert rec.e_min < rec.unit_probability_reference


def test_first_order_gain_over_plain_rotation():
    # first-order term explains the numeric gain over sin^2(2 alpha)
    # within 25% at n=28, m=14
    sp = new_search_space(28, 14)
    gamma = math.asin(sp.K**-0.5)
    eps = bound_constants().epsilon
    for alpha_target in (math.pi / 12, math.pi / 8):
        k_tot = 1 + round(alpha_target * math.sqrt(sp.N))
        rec = pr_bound_comparison(sp, [k_tot])[0]
        gain = rec.pr_numeric - math.sin(2 * rec.alpha) ** 2
        predicted = eps * gamma * math.sin(4 * rec.alpha)
        assert abs(gain - predicted) / predicted < 0.25
