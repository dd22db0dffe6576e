"""Search-space construction and angle geometry."""

import math

import mpmath
import pytest

from partial_search import ParameterError, angles, new_search_space


def test_basic_derived_sizes():
    sp = new_search_space(8, 2)
    assert (sp.N, sp.b, sp.K) == (256, 4, 64)


def test_smallest_space():
    sp = new_search_space(1, 0)
    assert (sp.N, sp.b, sp.K) == (2, 1, 2)


def test_large_space_exact_powers():
    sp = new_search_space(30, 10)
    assert sp.N == 2**30 and sp.b == 2**10 and sp.K == 2**20


def test_factorization_invariant():
    for n in range(1, 63, 7):
        for m in range(0, n, 5):
            sp = new_search_space(n, m)
            assert sp.N == sp.b * sp.K


@pytest.mark.parametrize(
    "n,m",
    [(0, 0), (63, 1), (8, 8), (8, 9), (8, -1), (-2, 0)],
)
def test_rejects_out_of_range(n, m):
    with pytest.raises(ParameterError):
        new_search_space(n, m)


def test_rejects_non_integers():
    with pytest.raises(ParameterError):
        new_search_space(8.0, 2)
    with pytest.raises(ParameterError):
        new_search_space(8, 2.5)


def test_angles_n8_m2():
    a = angles(new_search_space(8, 2))
    assert math.sin(a.theta1) == pytest.approx(1 / 16, abs=1e-15)
    assert math.sin(a.theta2) == pytest.approx(1 / 2, abs=1e-15)
    assert math.sin(a.gamma) == pytest.approx(1 / 8, abs=1e-15)


def test_angles_n2_m1():
    a = angles(new_search_space(2, 1))
    assert a.theta2 == pytest.approx(math.pi / 4, abs=1e-15)
    assert a.gamma == pytest.approx(math.pi / 4, abs=1e-15)


def test_angles_single_bit_remainder():
    # K = 2 puts the block-label angle at 45 degrees
    a = angles(new_search_space(8, 7))
    assert a.gamma == pytest.approx(math.pi / 4, abs=1e-15)
    assert math.sin(a.gamma) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_sine_squares_invert_sizes():
    # sin^2(theta1) N = 1 etc., relative error <= 1e-14 even at n = 62
    for n, m in [(4, 1), (20, 7), (40, 13), (62, 31), (62, 61)]:
        sp = new_search_space(n, m)
        a = angles(sp)
        assert math.sin(a.theta1) ** 2 * sp.N == pytest.approx(1.0, rel=1e-14)
        assert math.sin(a.theta2) ** 2 * sp.b == pytest.approx(1.0, rel=1e-14)
        assert math.sin(a.gamma) ** 2 * sp.K == pytest.approx(1.0, rel=1e-14)


def test_angles_within_one_ulp_of_the_exact_arcsine():
    # every exponent x in 0..62 of sin = 2^(-x/2), as theta1, theta2 or gamma
    ctx = mpmath.MPContext()
    ctx.dps = 50
    exact = {x: ctx.asin(ctx.power(2, ctx.mpf(-x) / 2)) for x in range(63)}
    worst = 0.0
    for n in range(1, 63):
        for m in range(n):
            a = angles(new_search_space(n, m))
            for got, x in ((a.theta1, n), (a.theta2, m), (a.gamma, n - m)):
                err = float(abs(ctx.mpf(got) - exact[x])) / math.ulp(got)
                worst = max(worst, err)
    assert worst <= 1.0


def test_spaces_are_frozen_values():
    sp = new_search_space(6, 3)
    with pytest.raises(Exception):
        sp.n = 7
    assert new_search_space(6, 3) == sp
