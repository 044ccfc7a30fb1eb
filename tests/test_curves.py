import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from conftest import general_pairs, reference_orbit

from arboreal.curves import (
    _SEARCH_DEGREE_CAP,
    _SEARCH_X_DEGREE,
    CurveSpec,
    _lowest_terms,
    construct_point,
    is_smooth,
    naive_point_search,
    rhs_eval,
)
from arboreal.cli import rationals_of_height
from arboreal.dynamics import MAX_ORBIT_N, DegeneracyError, QuadPair, _in_critical_orbit, adjusted_orbit, iterate
from arboreal.indexsets import IndexVector
from arboreal.primes import BudgetExceeded
from arboreal.squares import sqrt_exact

F = Fraction


def test_rhs_eval_examples():
    # f = x^2, alpha = 1, k = l = i0 = 1: y^2 = f^2(x) - 1 = x^4 - 1
    curve = CurveSpec(QuadPair.from_normal(0, 1), 1, 1, 1)
    assert rhs_eval(curve, 1) == 0
    assert rhs_eval(curve, 2) == 15

    curve = CurveSpec(QuadPair.from_normal(-2, 0), 1, 2, 1)
    assert rhs_eval(curve, 0) == 4  # f^2(0) * f^3(0) = 2 * 2


def test_rhs_eval_depth_is_capped():
    # (x^2, 0) at x = 0: every iterate is 0, so only the cap can stop the walk
    pair = QuadPair.from_normal(0, 0)
    assert rhs_eval(CurveSpec(pair, MAX_ORBIT_N - 1, 1, 1), 0) == 0
    with pytest.raises(ValueError, match=f"<= {MAX_ORBIT_N}, got {MAX_ORBIT_N + 1}"):
        rhs_eval(CurveSpec(pair, MAX_ORBIT_N, 1, 1), 0)


def test_rhs_vanishes_at_factor_roots():
    curve = CurveSpec(QuadPair.from_normal(-2, 2), 1, 1, 1)  # factor f^2 - 2
    # x = 2 satisfies f^2(x) = 2
    assert rhs_eval(curve, 2) == 0


def test_construct_point_examples():
    point = construct_point(QuadPair.from_normal(-2, 0), IndexVector({2, 3}), 1)
    assert (point.x, point.y) == (0, 2)
    assert point.curve.k == 1 and point.curve.l == 2

    point = construct_point(QuadPair.from_normal(0, 1), IndexVector({2, 3}), 1)
    assert (point.x, point.y) == (0, 1)

    assert construct_point(QuadPair.from_normal(1, 0), IndexVector({2, 3}), 1) is None


def test_construct_point_preconditions():
    with pytest.raises(ValueError):
        construct_point(QuadPair.from_normal(-2, 0), IndexVector({1, 2}), 1)
    with pytest.raises(ValueError):
        construct_point(QuadPair.from_normal(-2, 0), IndexVector({2, 4}), 2)  # s-k-i0 < 0
    with pytest.raises(ValueError):
        construct_point(QuadPair.from_normal(-2, 0), IndexVector({2, 3, 5}), 1)
    with pytest.raises(ValueError):
        construct_point(QuadPair.from_normal(-2, 0), IndexVector({4}), 1)  # needs k


def test_singleton_support_with_explicit_k():
    point = construct_point(QuadPair.from_normal(-2, 0), IndexVector({2}), 1, k=1)
    assert (point.x, point.y) == (0, sqrt_exact(2)) if sqrt_exact(2) else point is None
    # 2 is not a square, so actually absent:
    assert construct_point(QuadPair.from_normal(-2, 0), IndexVector({2}), 1, k=1) is None


def test_naive_point_search_quartic():
    curve = CurveSpec(QuadPair.from_normal(0, 1), 1, 1, 1)  # y^2 = x^4 - 1
    points = naive_point_search(curve, 20)
    assert points == [(F(-1), F(0)), (F(1), F(0))]


def test_naive_point_search_includes_constructed():
    point = construct_point(QuadPair.from_normal(-2, 0), IndexVector({2, 3}), 1)
    points = naive_point_search(point.curve, 10)
    assert (point.x, point.y) in points
    assert (point.x, -point.y) in points


def test_naive_point_search_domain():
    curve = CurveSpec(QuadPair.from_normal(0, 1), 1, 1, 1)
    assert naive_point_search(curve, 0) == []
    pts = naive_point_search(curve, 1)
    assert {x for x, _ in pts} <= {F(-1), F(0), F(1)}


def test_naive_point_search_work_is_capped():
    # 2^21 // 2^18 = 8 values of x fit under the cap: height 2 has 7, height 3 has 15
    curve = CurveSpec(QuadPair.from_normal(F(1, 3), 2), 17, 1, 1)
    assert [len(list(_lowest_terms(H))) for H in (1, 2, 3)] == [3, 7, 15]
    with pytest.raises(BudgetExceeded, match=f"degree of {_SEARCH_DEGREE_CAP} .* height 3 has more than 8") as info:
        naive_point_search(curve, 3)
    assert (info.value.spent, info.value.budget) == (9 * 2**18, _SEARCH_DEGREE_CAP)


def test_benchmark_curve_searches_are_far_below_the_cap():
    # exponents <= 3 (k = i0 = 1, l <= 2) and heights <= 25, as the benchmark's
    # oracle curves are: a few hundredths of the cap at most
    work = len(list(_lowest_terms(25))) * CurveSpec(QuadPair.from_normal(0, 1), 1, 2, 1).rhs_degree
    assert work < _SEARCH_DEGREE_CAP // 100


def test_low_degree_search_charges_each_x_at_least_the_floor():
    # degree 4 is charged as degree 2^8: 2^21 // 2^8 = 8192 values of x fit,
    # height 81 has 8079 and height 82 has 8239
    curve = CurveSpec(QuadPair.from_normal(F(1, 3), 2), 1, 1, 1)
    assert (curve.rhs_degree, _SEARCH_X_DEGREE) == (4, 256)
    assert [len(list(_lowest_terms(H))) for H in (81, 82)] == [8079, 8239]
    assert naive_point_search(curve, 81)
    with pytest.raises(BudgetExceeded, match="height 82 has more than 8192 values of x at degree 4, each charged") as info:
        naive_point_search(curve, 82)
    assert (info.value.spent, info.value.budget) == (8193 * 256, _SEARCH_DEGREE_CAP)


def test_benchmark_curve_searches_stay_within_the_charged_cap():
    # heights <= 25 and l <= 2 at k = i0 = 1, as the benchmark's oracle curves
    # are, each x charged as degree 2^8: about a tenth of the cap
    for l in (1, 2):
        charge = max(CurveSpec(QuadPair.from_normal(0, 1), 1, l, 1).rhs_degree, _SEARCH_X_DEGREE)
        assert len(list(_lowest_terms(25))) * charge < _SEARCH_DEGREE_CAP // 10


def test_smoothness_flag():
    assert is_smooth(CurveSpec(QuadPair.from_normal(-2, 0), 1, 2, 1))
    # (x^2 - 1, 0): the basepoint is post-critical, factors degenerate
    assert not is_smooth(CurveSpec(QuadPair.from_normal(-1, 0), 1, 2, 1))
    # alpha = 1 is a fixed point of x^2 outside its post-critical orbit {0},
    # so consecutive factors share all their roots
    assert not is_smooth(CurveSpec(QuadPair.from_normal(0, 1), 1, 2, 1))


def test_genus_reporting():
    curve = CurveSpec(QuadPair.from_normal(1, 0), 1, 1, 3)  # degree 16 factor
    assert curve.rhs_degree == 16
    assert curve.genus == 7
    assert curve.genus >= 2
    small = CurveSpec(QuadPair.from_normal(1, 0), 1, 1, 1)
    assert small.genus == 1  # degree-4 right-hand side


def test_rhs_degree_closed_form_matches_the_sum():
    pair = QuadPair.from_normal(1, 0)
    for k in range(1, 12):
        for l in range(1, 12):
            for i0 in range(1, 6):
                curve = CurveSpec(pair, k, l, i0)
                assert curve.rhs_degree == sum(1 << e for e in curve.exponents)


def test_genus_of_a_million_factor_curve_is_quick():
    # the degree is one shift and one division, not 10^6 additions of
    # integers of up to 3 * 10^6 bits
    curve = CurveSpec(QuadPair.from_normal(F(1, 3), 2), 3, 10**6, 1)
    start = time.perf_counter()
    genus = curve.genus
    assert time.perf_counter() - start < 0.5
    # the top exponent is k*l + i0 = 3 * 10^6 + 1, and the genus halves the degree
    assert genus.bit_length() == 3 * 10**6 + 1


def test_construct_point_presence_iff_square_product():
    rng = random.Random(41)
    found_some = 0
    for _ in range(60):
        pair = QuadPair.from_normal(rng.randint(-4, 4), rng.randint(-4, 4))
        s, k, i0 = rng.randint(2, 3), rng.randint(1, 2), 1
        if s - k - i0 < 0:
            continue
        length = rng.randint(1, 2)
        support = IndexVector(range(s, s + k * length, k))
        top = max(support)
        orbit = adjusted_orbit(pair, top)
        if orbit.degeneracy_index is not None:
            continue
        prod = F(1)
        for i in support:
            prod *= orbit.adjusted[i - 1]
        point = construct_point(pair, support, i0, k=k)
        assert (point is not None) == (prod > 0 and sqrt_exact(prod) is not None)
        if point is not None:
            found_some += 1
            assert rhs_eval(point.curve, point.x) == point.y * point.y
            if abs(point.x.numerator) <= 30 and point.x.denominator <= 30:
                assert (point.x, point.y) in naive_point_search(point.curve, 30)
    assert found_some >= 3


def reference_rhs(curve, x):
    """The right-hand side stepped with pair.f on the general form."""
    out, z = F(1), F(x)
    for m in range(1, max(curve.exponents) + 1):
        z = curve.pair.f(z)
        if m in curve.exponents:
            out *= z - curve.pair.alpha
    return out


def reference_smooth(curve):
    """No vanishing adjusted value up to the top exponent, and alpha not
    among its k-th, ..., k(l-1)-th iterates under pair.f."""
    if reference_orbit(curve.pair, max(curve.exponents))[2] is not None:
        return False
    z = curve.pair.alpha
    for step in range(1, curve.k * (curve.l - 1) + 1):
        z = curve.pair.f(z)
        if step % curve.k == 0 and z == curve.pair.alpha:
            return False
    return True


def test_smoothness_matches_the_adjusted_orbit_rule():
    # every pair of height <= 6 with one curve each, its top exponent cycling
    # through 2..MAX_ORBIT_N, and single factors of degree 2^2..2^5, where the
    # first vanishing value meets the top exponent: is_smooth walks the
    # critical orbit instead of listing c_1..c_top, and must agree with the
    # rule that listed them
    grid = rationals_of_height(6)
    specs = [(1, 1, top - 1) for top in range(2, MAX_ORBIT_N + 1)]
    specs += [(k, 2, top - 2 * k) for k in (1, 2, 3) for top in range(2 * k + 1, MAX_ORBIT_N + 1)]
    verdicts = set()
    boundary = 0
    for i, (c, beta) in enumerate((c, beta) for c in grid for beta in grid):
        pair = QuadPair.from_normal(c, beta)
        first = adjusted_orbit(pair, 5).degeneracy_index
        for top in range(2, 6):
            expected = first is None or first > top
            assert is_smooth(CurveSpec(pair, 1, 1, top - 1)) == expected
            boundary += first == top
        curve = CurveSpec(pair, *specs[i % len(specs)])
        top = max(curve.exponents)
        assert top <= MAX_ORBIT_N
        degenerate = adjusted_orbit(pair, top).degeneracy_index is not None
        z = beta  # with l <= 2, the factors share a root when g^k(beta) = beta
        for _ in range(curve.k):
            z = z * z + c
        periodic = curve.l == 2 and z == beta
        assert is_smooth(curve) == (not degenerate and not periodic)
        verdicts.add((degenerate, periodic))
    assert verdicts == {(False, False), (True, False), (False, True), (True, True)}
    assert boundary >= 5


def test_smoothness_period_walk_matches_the_iterate_rule():
    # every pair of height <= 4 and k, l <= 4: is_smooth reads beta's period
    # from a bounded walk and must agree with testing beta against its
    # k-th, ..., k(l-1)-th iterates
    grid = rationals_of_height(4)
    verdicts = set()
    for c in grid:
        for beta in grid:
            pair = QuadPair.from_normal(c, beta)
            hit = _in_critical_orbit(c, beta)
            iterates = list(islice(iterate(c, beta), 12))
            for k in range(1, 5):
                for l in range(1, 5):
                    curve = CurveSpec(pair, k, l, 1)
                    returns = beta in iterates[k - 1 : k * (l - 1) : k]
                    expected = (hit is None or hit > max(curve.exponents)) and not returns
                    assert is_smooth(curve) == expected, (c, beta, k, l)
                    verdicts.add((expected, returns))
    assert verdicts == {(True, False), (False, False), (False, True)}


def periodic_pairs(seed, count):
    """Seeded (a, b, alpha) with a != 0 and alpha of period 2 under f: on the
    normal form x^2 + c with c = -(3 + t^2)/4, beta = (t - 1)/2 has period 2."""
    rng = random.Random(seed)
    for _ in range(count):
        a = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        t = F(rng.randint(1, 9), rng.randint(1, 3))
        c, beta = -(3 + t * t) / 4, (t - 1) / 2
        yield QuadPair(a, -c - a, beta + a)


def test_general_form_curves_match_reference_loops():
    rng = random.Random(23)
    pairs = list(general_pairs(29, 40)) + list(periodic_pairs(31, 20))
    verdicts = set()
    for pair in pairs:
        for k in range(1, 4):
            for l in range(1, 4):
                curve = CurveSpec(pair, k, l, rng.randint(1, 2))
                smooth = is_smooth(curve)
                assert smooth == reference_smooth(curve)
                verdicts.add((smooth, reference_orbit(pair, max(curve.exponents))[2] is None))
                x = F(rng.randint(-5, 5), rng.randint(1, 3))
                assert rhs_eval(curve, x) == reference_rhs(curve, x)
    # smooth, degenerate, and nondegenerate but periodic curves all occur
    assert verdicts == {(True, True), (False, False), (False, True)}


def test_general_form_constructed_point_matches_reference_loop():
    rng = random.Random(37)
    built = degenerate = 0
    for i, pair in enumerate(general_pairs(41, 160)):
        s = rng.randint(2, 5)
        k = rng.randint(1, s - 1)
        i0 = rng.randint(1, s - k)
        t = F(rng.randint(1, 6), rng.randint(1, 3))
        if i % 4:
            # shift the basepoint so that c_{s,alpha} = f^s(a) - alpha = t^2;
            # general_pairs made every fourth basepoint degenerate instead
            top = reference_orbit(QuadPair(pair.a, pair.b, 0), s)[0][-1]
            pair = QuadPair(pair.a, pair.b, top - t * t)
        if reference_orbit(pair, s)[2] is not None:
            with pytest.raises(DegeneracyError):
                construct_point(pair, IndexVector({s}), i0, k=k)
            degenerate += 1
        elif i % 4:
            point = construct_point(pair, IndexVector({s}), i0, k=k)
            x0 = pair.a
            for _ in range(s - k - i0):
                x0 = pair.f(x0)
            assert (point.x, point.y, point.product) == (x0, t, t * t)
            built += 1
    assert built >= 100 and degenerate >= 10
