import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, takewhile

import pytest
from conftest import coprime_base

from arboreal import polys, squares
from arboreal.cli import main, rationals_of_height, run_survey
from arboreal.dynamics import (
    MAX_ORBIT_N,
    DegeneracyError,
    QuadPair,
    _valuation,
    adjusted_orbit,
    in_post_critical_orbit,
    iterate,
)
from arboreal.galois import (
    MAX_GOOD_PRIMES,
    MAX_PRIME_BOUND,
    AbelianVerdict,
    FaithfulNode2DimCert,
    GroupId,
    Level2D8Cert,
    QuadFieldD8Cert,
    _independent_classes,
    _level2_classes,
    _orbit_classes,
    _quad_field_search,
    ab_dimension,
    classify_abelian,
    contained_in_Mv,
    frobenius_sample,
    good_primes,
    level2_data,
    level2_galois,
    nonabelian_prime_search,
    poonen_check,
    replay_certificate,
)
from arboreal.f2 import rank
from arboreal.polys import _ZERO_CYCLE_CACHE, _zero_cycle
from arboreal.primes import odd_primes, primes_from, sieve
from arboreal.squares import (
    QuadElement,
    _is_square_in_quad_int,
    is_square_in_quad,
    is_square_int,
    quad_independent,
    span_dimension,
    square_class,
    sqrt_exact,
)

F = Fraction


def test_contained_examples():
    assert contained_in_Mv(QuadPair.from_normal(-2, 0), {1, 2})
    assert not contained_in_Mv(QuadPair.from_normal(-1, 1), {1})
    assert contained_in_Mv(QuadPair.from_normal(7, 3), ())


def test_contained_degenerate_raises():
    with pytest.raises(DegeneracyError):
        contained_in_Mv(QuadPair.from_normal(-1, 0), {1})


def test_contained_budget():
    with pytest.raises(ValueError):
        contained_in_Mv(QuadPair.from_normal(3, 1), {40})


def nondegenerate_pairs(count, seed, span=9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pair = QuadPair.from_normal(
            F(rng.randint(-span, span), rng.randint(1, 3)),
            F(rng.randint(-span, span), rng.randint(1, 3)),
        )
        c, beta = pair.normal_form()
        if beta - c != 0 and c * c + c - beta != 0:
            out.append(pair)
    return out


def test_contained_is_linear_in_v():
    for pair in nondegenerate_pairs(60, 13):
        orbits_ok = True
        from arboreal.dynamics import adjusted_orbit, in_post_critical_orbit

        if in_post_critical_orbit(pair):
            continue
        if adjusted_orbit(pair, 4).degeneracy_index is not None:
            continue
        vs = [{1}, {2}, {3}, {1, 2}, {2, 4}]
        for v in vs:
            for w in vs:
                if contained_in_Mv(pair, v) and contained_in_Mv(pair, w):
                    assert contained_in_Mv(pair, set(v) ^ set(w))


def test_contained_v1_iff_reducible():
    # containment for v = {1} is reducibility of f - alpha: a rational root of
    # x^2 + c - beta, searched through the factored square class
    for pair in nondegenerate_pairs(80, 17):
        from arboreal.dynamics import in_post_critical_orbit

        if in_post_critical_orbit(pair):
            continue
        c, beta = pair.normal_form()
        q = beta - c
        reducible = q > 0 and square_class(q).is_trivial
        assert contained_in_Mv(pair, {1}) == reducible


def test_contained_matches_the_fraction_product_route():
    # the classes of _orbit_classes, against the product of the adjusted
    # values as a Fraction and against _square_product of their numerators
    # and denominators, on every nonempty support inside {1..6}; a pair in
    # the post-critical orbit raises for every support
    grid = rationals_of_height(4)
    supports = [[i for i in range(1, 7) if mask >> (i - 1) & 1] for mask in range(1, 64)]
    contained = Counter()
    for c in grid:
        for beta in grid:
            pair = QuadPair.from_normal(c, beta)
            if in_post_critical_orbit(pair):
                for support in supports:
                    with pytest.raises(DegeneracyError, match="post-critical orbit"):
                        contained_in_Mv(pair, support)
                contained["degenerate"] += 1
                continue
            values = adjusted_orbit(pair, 6).adjusted
            for support in supports:
                chosen = [values[i - 1] for i in support]
                expected = sqrt_exact(math.prod(chosen, start=F(1))) is not None
                terms = [m for v in chosen for m in (v.numerator, v.denominator)]
                assert contained_in_Mv(pair, support) == expected == squares._square_product(terms), (c, beta, support)
                contained[expected] += 1
    assert contained[True] >= 100 and contained[False] >= 10000 and contained["degenerate"] >= 10


def test_ab_dimension_examples():
    assert ab_dimension(QuadPair.from_normal(-2, 0), 10) == 1
    assert ab_dimension(QuadPair.from_normal(-1, F(-1, 2)), 3) == 2
    assert ab_dimension(QuadPair.from_normal(1, 0), 6) == 6


def test_ab_dimension_monotone():
    pair = QuadPair.from_normal(3, 1)
    dims = [ab_dimension(pair, n) for n in range(1, 8)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_ab_dimension_degenerate():
    with pytest.raises(DegeneracyError):
        ab_dimension(QuadPair.from_normal(-1, 0), 4)


def outcome(f, *args):
    """f(*args), or the type and text of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, DegeneracyError) as exc:
        return type(exc), str(exc)


def test_orbit_classes_are_the_adjusted_orbit_classes():
    # m_1, m_2 come from _level2_classes and the rest from the integer walk;
    # both are checked against the Fraction orbit, zeros included
    grid = rationals_of_height(5)
    seen = Counter()
    for c in grid:
        for beta in grid:
            terms = (c.numerator, c.denominator, beta.numerator, beta.denominator)
            ms = list(islice(_orbit_classes(*terms), 10))
            assert tuple(ms[:2]) == _level2_classes(*terms)
            values = adjusted_orbit(QuadPair.from_normal(c, beta), 10).adjusted
            for m, v in zip(ms, values):
                assert (m == 0) == (v == 0)
                assert (m > 0) == (v > 0) and (m < 0) == (v < 0)
                assert is_square_int(m * v.numerator * v.denominator)
                seen["zero" if m == 0 else "value"] += 1
    assert seen == {"value": 15210 - 71, "zero": 71}


def reference_ab_dimension(pair, N):
    """ab_dimension by the exact Fraction orbit and the gcd-free basis."""
    orbit = adjusted_orbit(pair, N)
    orbit.require_nondegenerate()
    return rank(coprime_base([v.numerator * v.denominator for v in orbit.adjusted])[1])


def test_ab_dimension_matches_the_gcd_free_basis():
    grid = rationals_of_height(6)
    degenerate = 0
    for c in grid:
        for beta in grid:
            pair = QuadPair.from_normal(c, beta)
            for N in (0, 1, 2, 6, 12, MAX_ORBIT_N + 1):
                expected = outcome(reference_ab_dimension, pair, N)
                assert outcome(ab_dimension, pair, N) == expected, (pair, N)
                degenerate += isinstance(expected, tuple) and expected[0] is DegeneracyError
    assert degenerate >= 100


def fraction_ab_dimension(pair, N):
    """ab_dimension by the exact Fraction orbit and span_dimension."""
    orbit = adjusted_orbit(pair, N)
    orbit.require_nondegenerate()
    return span_dimension(orbit.adjusted)


@pytest.mark.parametrize("height, N", [(5, 12), (9, 6)])
def test_ab_dimension_builds_no_orbit_value(monkeypatch, height, N):
    def refuse(*args):
        raise AssertionError("ab_dimension builds no exact orbit")

    grid = rationals_of_height(height)
    pairs = [QuadPair.from_normal(c, beta) for c in grid for beta in grid]
    expected = [outcome(fraction_ab_dimension, pair, N) for pair in pairs]
    monkeypatch.setattr("arboreal.dynamics.adjusted_orbit", refuse)
    assert [outcome(ab_dimension, pair, N) for pair in pairs] == expected


def test_stalled_kernel_is_pretested_by_characters(monkeypatch):
    # at c = 10^200 + 7, beta = 3, N = 12 the kernel stalls on a vector that
    # is not a relation; its sign and characters reject it before any
    # product or integer square root of the 400,000-digit values is formed
    tested = []
    square_product = squares._square_product

    def recorded(ms):
        tested.append(square_product(ms))
        return tested[-1]

    def refuse(n):
        raise AssertionError("the characters must reject the kernel vector")

    monkeypatch.setattr(squares, "_square_product", recorded)
    monkeypatch.setattr(squares, "is_square_int", refuse)
    assert ab_dimension(QuadPair.from_normal(10**200 + 7, 3), 12) == 12
    assert False in tested


def test_level2_examples():
    assert level2_galois(QuadPair.from_normal(-1, 1)) is GroupId.D8
    assert level2_galois(QuadPair.from_normal(-1, -2)) is GroupId.D8
    assert level2_galois(QuadPair.from_normal(-2, 0)) is GroupId.C4
    assert level2_galois(QuadPair.from_normal(1, 0)) is GroupId.D8
    assert level2_galois(QuadPair.from_normal(0, 1)) is GroupId.C2
    assert level2_galois(QuadPair.from_normal(0, -1)) is GroupId.V4
    assert level2_galois(QuadPair.from_normal(-2, 1)) is GroupId.V4


def test_level2_reducible_cases():
    # x^4 + 4 splits over Q(i): pair (x^2, -4)
    assert level2_galois(QuadPair.from_normal(0, -4)) is GroupId.C2
    # d halves 8 and 2 share a square class: one quadratic field, C2
    assert level2_galois(QuadPair.from_normal(-5, 4)) is GroupId.C2
    # d halves 3 and 2 are independent: Q(sqrt 3, sqrt 2), V4
    assert level2_galois(QuadPair.from_normal(F(-5, 2), F(-9, 4))) is GroupId.V4
    # one rational root pair (d = 6 and 4): C2
    assert level2_galois(QuadPair.from_normal(-5, -4)) is GroupId.C2
    # both halves square (d = 9 and 4): everything rational, C1
    pair = QuadPair.from_normal(F(-13, 2), F(25, 4) + F(-13, 2))
    assert level2_galois(pair) is GroupId.C1


def test_level2_d8_iff_dimension_two():
    for pair in nondegenerate_pairs(120, 19):
        c, beta = pair.normal_form()
        dim = ab_dimension(pair, 2) if not _degenerate2(pair) else None
        if dim is None:
            continue
        assert (level2_galois(pair) is GroupId.D8) == (dim == 2)


def test_level2_integer_tests_match_fraction_reference():
    # every pair of height <= 7: the class integers, the D8 test, "c_2 is a
    # square" and the splits-over-quadratic norm test agree with the Fraction
    # and QuadElement routes they replaced
    grid = rationals_of_height(7)
    cases = Counter()
    for c in grid:
        for beta in grid:
            q1, q2 = _level2_classes(c.numerator, c.denominator, beta.numerator, beta.denominator)
            try:
                data = level2_data(QuadPair.from_normal(c, beta))
            except DegeneracyError:
                assert q1 * q2 == 0 and (beta - c) * (c * c + c - beta) == 0
                continue
            c1, c2 = data.c1, data.c2
            for q, value in ((q1, c1), (q2, c2)):
                assert sqrt_exact(F(q, value.numerator * value.denominator)) is not None
            squares = [sqrt_exact(v) is not None for v in (c1, c2, c1 * c2)]
            assert (data.case == "independent-classes") == (not any(squares)), (c, beta)
            cases[data.case] += 1
            if data.case in ("independent-classes", "rational-halves"):
                continue
            d = c1.numerator * c1.denominator
            assert data.details == {"d": d}
            witness = is_square_in_quad(QuadElement(-c, F(1, c1.denominator), d))
            assert (witness is not None) == (data.case == "splits-over-quadratic"), (c, beta)
            if witness is None:
                assert data.case == ("biquadratic-V4" if squares[1] else "biquadratic-C4"), (c, beta)
    assert [cases[k] for k in ("splits-over-quadratic", "biquadratic-V4", "biquadratic-C4")] == [87, 117, 24]
    assert sum(cases.values()) == 4962


def _degenerate2(pair):
    from arboreal.dynamics import adjusted_orbit

    return adjusted_orbit(pair, 2).degeneracy_index is not None


def test_level2_degenerate_raises():
    with pytest.raises(DegeneracyError):
        level2_galois(QuadPair.from_normal(-1, 0))


def test_frobenius_chebyshev_pair():
    pair = QuadPair.from_normal(-2, 0)  # f^2 - 0 = x^4 - 4x^2 + 2
    report = frobenius_sample(pair, 2, good_primes(pair, 2, 100))
    assert set(report.partitions) <= {(1, 1, 1, 1), (2, 2), (4,)}
    assert report.compatible == frozenset({GroupId.C4})


def test_frobenius_d8_pair():
    pair = QuadPair.from_normal(1, 0)  # f^2 - 0 = x^4 + 2x^2 + 2
    report = frobenius_sample(pair, 2, good_primes(pair, 2, 100))
    assert (1, 1, 2) in report.partitions
    assert report.compatible == frozenset({GroupId.D8})


def test_frobenius_c2_pair():
    pair = QuadPair.from_normal(0, 1)  # x^4 - 1
    report = frobenius_sample(pair, 2, good_primes(pair, 2, 100))
    assert set(report.partitions) == {(1, 1, 1, 1), (1, 1, 2)}
    assert report.compatible == frozenset({GroupId.C2})


def test_frobenius_level3():
    pair = QuadPair.from_normal(1, 0)
    report = frobenius_sample(pair, 3, good_primes(pair, 3, 40))
    assert report.compatible is None
    assert all(sum(part) == 8 for part in report.partitions)


def test_frobenius_needs_good_primes():
    with pytest.raises(ValueError):
        frobenius_sample(QuadPair.from_normal(1, 0), 2, [2])


# Level-3 partition counts over the first 80 good primes, recorded before
# factor_degrees gained its Frobenius matrix: (c, alpha, last prime, counts).
LEVEL3_PINS = [
    ("1/3", "2", 439, {"1+1+1+1+1+1+2": 5, "1+1+1+1+2+2": 5, "1+1+1+1+4": 3, "1+1+2+2+2": 6, "1+1+2+4": 4, "2+2+2+2": 10, "2+2+4": 16, "4+4": 19, "8": 12}),
    ("-1", "3", 421, {"1+1+1+1+1+1+1+1": 1, "1+1+1+1+2+2": 20, "1+1+1+1+4": 4, "1+1+2+2+2": 10, "1+1+2+4": 11, "2+2+2+2": 8, "2+2+4": 26}),
    ("2", "-5/4", 433, {"1+1+1+1+1+1+1+1": 1, "1+1+1+1+1+1+2": 2, "1+1+1+1+2+2": 6, "1+1+1+1+4": 1, "1+1+2+2+2": 7, "1+1+2+4": 4, "2+2+2+2": 10, "2+2+4": 19, "4+4": 15, "8": 15}),
]


@pytest.mark.parametrize("c, alpha, last, counts", LEVEL3_PINS)
def test_level3_partitions_are_pinned(c, alpha, last, counts):
    pair = QuadPair.from_normal(Fraction(c), Fraction(alpha))
    report = frobenius_sample(pair, 3, good_primes(pair, 3, 80))
    assert len(report.primes) == 80 and report.primes[-1] == last
    assert {"+".join(map(str, part)): n for part, n in report.partitions.items()} == counts


def test_good_primes_count_is_capped(capsys):
    assert MAX_GOOD_PRIMES == 10**4
    pair = QuadPair.from_normal(-2, 0)
    with pytest.raises(ValueError, match=str(MAX_GOOD_PRIMES)):
        good_primes(pair, 2, MAX_GOOD_PRIMES + 1)
    start = time.perf_counter()
    assert main(["group2", "-2,0", "--frobenius", str(MAX_GOOD_PRIMES + 1)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(MAX_GOOD_PRIMES) in captured.err


def test_good_primes_degenerate_level_raises():
    # (x^2 + 1, 5): c_3 = 0, so the level-3 polynomial has a repeated root
    # and no prime has good reduction
    pair = QuadPair.from_normal(1, 5)
    with pytest.raises(DegeneracyError):
        good_primes(pair, 3, 5)
    with pytest.raises(DegeneracyError):
        frobenius_sample(pair, 3, [3, 5, 7])
    assert len(good_primes(pair, 2, 5)) == 5


def test_good_primes_never_builds_or_factors(monkeypatch):
    expected = good_primes(QuadPair.from_normal(1, 0), 3, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("good_primes must not build or factor a polynomial")

    monkeypatch.setattr("arboreal.galois.level_poly", refuse)
    monkeypatch.setattr("arboreal.galois.factor_degrees", refuse)
    assert good_primes(QuadPair.from_normal(1, 0), 3, 20) == expected
    assert good_primes(QuadPair.from_normal(1, -3), 2, 5) == [3, 7, 11, 13, 17]


def test_frobenius_sample_skips_explicit_bad_prime():
    # (x^2 + 1, -3): c_{1,beta} = -4 and c_{2,beta} = 5, so 5 is bad at level 2
    pair = QuadPair.from_normal(1, -3)
    assert polys.factor_degrees(polys.level_poly(1, -3, 2, 5), 5) is None
    report = frobenius_sample(pair, 2, [2, 3, 5, 7, 11])
    assert report.primes == (3, 7, 11)
    assert sum(report.partitions.values()) == 3


def test_classify_abelian_rejects_bad_settings():
    for pair in (QuadPair.from_normal(0, 0), QuadPair.from_normal(1, 0)):
        with pytest.raises(ValueError):
            classify_abelian(pair, dim_N=0)
        with pytest.raises(ValueError):
            classify_abelian(pair, prime_bound=-5)
    assert classify_abelian(QuadPair.from_normal(1, 0), prime_bound=0, dim_N=1).is_abelian is False


def test_good_primes_count_zero_and_negative():
    pair = QuadPair.from_normal(1, 0)
    assert good_primes(pair, 2, 0) == []
    with pytest.raises(ValueError):
        good_primes(pair, 2, -3)


def test_level2_agrees_with_frobenius():
    for pair in nondegenerate_pairs(25, 23, span=6):
        group = level2_galois(pair)
        report = frobenius_sample(pair, 2, good_primes(pair, 2, 80))
        assert group in report.compatible


def test_poonen_examples():
    assert poonen_check(-1, F(1, 3), 3).condition == "a"
    assert poonen_check(-1, 2, 3).condition == "b"
    assert poonen_check(1, 5, 3).condition is None


def test_poonen_zero_c_and_alpha():
    # v_p(0) is infinite, not negative: neither zero may trip a valuation test
    result = poonen_check(0, 0, 3)
    assert result.condition is None and result.details == "alpha lies in the exact orbit of 0"
    assert poonen_check(1, 0, 3).condition is None
    assert poonen_check(0, F(1, 3), 3).details == "v_3(alpha) = -1 < 0"


def test_poonen_preconditions():
    with pytest.raises(ValueError):
        poonen_check(1, 1, 2)
    with pytest.raises(ValueError):
        poonen_check(F(1, 3), 1, 3)
    for composite in (1, 9, 15, 21):
        with pytest.raises(ValueError, match="odd prime"):
            poonen_check(-4, 0, composite)


def test_nonabelian_prime_search_examples():
    assert nonabelian_prime_search(QuadPair.from_normal(-1, F(1, 3)))[:2] == (3, "a")
    assert nonabelian_prime_search(QuadPair.from_normal(-5, 5))[:2] == (5, "b")
    assert nonabelian_prime_search(QuadPair.from_normal(-2, 1)) is None


def reference_poonen(c, alpha, p):
    """The ramification test before the cycle cache: the orbit of 0 mod p as
    a list, up to p + 1 steps, at a prime p with v_p(c) >= 0."""
    if alpha.denominator % p == 0:
        return "a", f"v_{p}(alpha) = {_valuation(alpha, p)} < 0"
    c_mod = c.numerator * pow(c.denominator, -1, p) % p
    alpha_mod = alpha.numerator * pow(alpha.denominator, -1, p) % p
    orbit_mod = []
    z = 0
    for _ in range(p + 1):
        z = (z * z + c_mod) % p
        orbit_mod.append(z)
        if z == 0:
            break
    else:
        return None, "0 is not periodic modulo p"
    if alpha_mod not in orbit_mod:
        return None, "alpha misses the modular orbit of 0"
    if in_post_critical_orbit(QuadPair.from_normal(c, alpha)):
        return None, "alpha lies in the exact orbit of 0"
    return "b", f"0 periodic mod {p} with period {len(orbit_mod)}, alpha on the orbit"


def reference_prime_search(pair, bound):
    c, beta = pair.normal_form()
    basepoints = [beta]
    shift = sqrt_exact(beta - c)
    if shift is not None and shift != 0:
        basepoints.extend([shift, -shift])
    for p in primes_from(3):
        if p > bound:
            return None
        if c.denominator % p:
            for bp in basepoints:
                condition, _ = reference_poonen(c, bp, p)
                if condition is not None:
                    return p, condition, bp


def test_prime_search_matches_reference_loop():
    grid = rationals_of_height(5)
    for c in grid:
        for alpha in grid:
            pair = QuadPair.from_normal(c, alpha)
            for bound in (3, 10, 100):
                assert nonabelian_prime_search(pair, bound) == reference_prime_search(pair, bound)


def poonen_check_search(pair, bound):
    """nonabelian_prime_search as a loop of poonen_check over the sieved odd primes."""
    c, beta = pair.normal_form()
    basepoints = [beta]
    shift = sqrt_exact(beta - c)
    if shift is not None and shift != 0:
        basepoints.extend([shift, -shift])
    for p in sieve(bound)[1:]:
        if c.denominator % p:
            for bp in basepoints:
                result = poonen_check(c, bp, p)
                if result.infinitely_ramified:
                    return p, result.condition, bp
    return None


def test_prime_search_matches_poonen_check_loop():
    grid = rationals_of_height(6)
    found = 0
    for c in grid:
        for alpha in grid:
            pair = QuadPair.from_normal(c, alpha)
            expected = poonen_check_search(pair, 100)
            assert nonabelian_prime_search(pair, 100) == expected
            found += expected is not None
    assert found > 1000
    rng = random.Random(1)
    grid = rationals_of_height(30)
    for _ in range(300):
        pair = QuadPair.from_normal(rng.choice(grid), rng.choice(grid))
        assert nonabelian_prime_search(pair, 1000) == poonen_check_search(pair, 1000)


def test_poonen_details_match_reference_loop():
    grid = rationals_of_height(3)
    for p in primes_from(3):
        if p > 40:
            break
        for c in grid:
            if c.denominator % p == 0:
                continue
            for alpha in grid:
                result = poonen_check(c, alpha, p)
                assert (result.condition, result.details) == reference_poonen(c, alpha, p)


def test_exact_orbit_basepoint_never_fires():
    # nonabelian_prime_search drops a basepoint on the exact orbit of 0
    # before its scan; the scan only visits primes with v_p(c) >= 0
    for c in rationals_of_height(6):
        for n, z in enumerate(islice(iterate(c, F(0)), 4), start=1):
            for p in odd_primes(100):
                if c.denominator % p:
                    assert poonen_check(c, z, p).condition is None, (c, n, p)


def test_zero_cycle_cache_is_bounded():
    assert _zero_cycle.cache_info().maxsize == _ZERO_CYCLE_CACHE
    assert _zero_cycle(0, 7) == frozenset({0})
    assert _zero_cycle(1, 3) is None  # 0 -> 1 -> 2 -> 2
    assert _zero_cycle(2, 3) == frozenset({2, 0})  # 0 -> 2 -> 0


def test_prime_scan_is_sieved_and_capped(monkeypatch, capsys):
    assert odd_primes(2) == () and odd_primes(-5) == ()
    assert nonabelian_prime_search(QuadPair.from_normal(-1, 2), 2) is None
    top = MAX_PRIME_BOUND - 2000
    expected = list(takewhile(lambda p: p <= MAX_PRIME_BOUND, primes_from(top)))
    sieved = odd_primes(MAX_PRIME_BOUND)
    assert len(sieved) == 78497  # pi(10^6) = 78498, less the prime 2
    assert [p for p in sieved if p >= top] == expected

    def refuse(limit):
        raise AssertionError("no sieve is built past the cap")

    monkeypatch.setattr("arboreal.primes.sieve", refuse)
    over = MAX_PRIME_BOUND + 1
    with pytest.raises(ValueError, match=str(MAX_PRIME_BOUND)):
        nonabelian_prime_search(QuadPair.from_normal(0, -4), over)
    # (x^2 + 1, 0) stops at the level-2 D8 step, (x^2, -4) runs every step
    for pair in (QuadPair.from_normal(1, 0), QuadPair.from_normal(0, -4)):
        with pytest.raises(ValueError, match=str(MAX_PRIME_BOUND)):
            classify_abelian(pair, prime_bound=over)
    monkeypatch.undo()
    for argv in (
        ["classify", "0,-4", "--prime-bound", str(over)],
        ["survey", "--c-height", "2", "--alpha-height", "2", "--prime-bound", "5000000"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and str(MAX_PRIME_BOUND) in captured.err


def reference_step3(pair, dim_N):
    """Classifier step 3 by its first rule: the shortest orbit prefix whose
    span modulo squares has dimension >= 2, rebuilt for each prefix."""
    c, beta = pair.normal_form()
    c1 = beta - c
    if sqrt_exact(c1) is not None or in_post_critical_orbit(pair):
        return None
    values = adjusted_orbit(pair, dim_N).adjusted
    for n in range(2, dim_N + 1):
        if span_dimension(values[:n]) >= 2:
            cert = FaithfulNode2DimCert(c1, values[:n])
            return AbelianVerdict("nonabelian", None, cert, "level0-faithful-dimension")
    return None


def test_faithful_node_certificate_rejects_bad_inputs():
    good = FaithfulNode2DimCert(F(2), (F(2), F(3)))
    assert good.replay()
    # a square c1, or a vanishing c1 or orbit value, proves nothing
    assert not FaithfulNode2DimCert(F(4, 9), (F(4, 9), F(3))).replay()
    assert not FaithfulNode2DimCert(F(0), (F(0), F(3))).replay()
    assert not FaithfulNode2DimCert(F(2), (F(2), F(0), F(3))).replay()


# verdicts returned before step 3 is reached
_BEFORE_STEP3 = {"finite-backward-orbit", "abelian-pair-table", "level2-d8", "local-ramification"}


@pytest.mark.parametrize("dim_N", [3, 12])
def test_faithful_node_step_matches_span_prefix_rule(dim_N):
    grid = rationals_of_height(6)
    fired = 0
    for c in grid:
        for beta in grid:
            pair = QuadPair.from_normal(c, beta)
            verdict = classify_abelian(pair, dim_N=dim_N)
            if verdict.provenance in _BEFORE_STEP3:
                continue
            expected = reference_step3(pair, dim_N)
            if expected is None:
                assert verdict.provenance != "level0-faithful-dimension"
            else:
                assert verdict.to_json() == expected.to_json()
                fired += 1
    assert fired >= 20


def test_faithful_node_step_is_lazy():
    # step 3 stops at the first c_n independent of c_1: a deep dim_N never
    # builds c_dim_N, whose size doubles with each index
    start = time.perf_counter()
    deep = classify_abelian(QuadPair.from_normal(-4, 4), dim_N=40)
    assert time.perf_counter() - start < 1.0
    assert deep.provenance == "level0-faithful-dimension"
    assert deep.to_json() == classify_abelian(QuadPair.from_normal(-4, 4), dim_N=12).to_json()
    grid = rationals_of_height(5)
    fired = 0
    for c in grid:
        for beta in grid:
            pair = QuadPair.from_normal(c, beta)
            verdict = classify_abelian(pair, dim_N=12)
            if verdict.provenance == "level0-faithful-dimension":
                assert classify_abelian(pair, dim_N=40).to_json() == verdict.to_json()
                fired += 1
    assert fired >= 10


def test_classifier_decides_without_the_gcd_free_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the classifier must not build a gcd-free basis")

    monkeypatch.setattr("arboreal.galois.span_dimension", refuse)
    grid = rationals_of_height(5)
    verdicts = [classify_abelian(QuadPair.from_normal(c, beta)) for c in grid for beta in grid]
    monkeypatch.undo()
    faithful = [v.certificate for v in verdicts if v.provenance == "level0-faithful-dimension"]
    assert len(faithful) >= 10
    assert all(replay_certificate(cert) for cert in faithful)


def test_large_height_classify_record_needs_no_gcd_free_basis(capsys):
    # c = 10^200 + 7: its orbit values reach about 400,000 digits by c_12,
    # where a gcd-free basis took about 10 s; the quadratic characters give
    # the same record
    assert main(["classify", f"{10**200 + 7},3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "18186e6f543c6213ac10cb87adb0447edd33b47d4dcb103119e28bb0d621fb07"


def test_classify_output_is_pinned(capsys):
    grid = rationals_of_height(4)
    assert main(["classify", *[f"{c},{beta}" for c in grid for beta in grid]]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "938ca32a585434cbc678a68fd8c9219ec41811c729832a1fd3b5a809b359f60c"


def test_integer_d8_predicate_matches_certificate_replay():
    # num*den of c1 and c2, and the survey's cross-multiplied q1 and q2 for
    # c = a/b, beta = r/s, which differ from them by nonzero squares
    grid = rationals_of_height(9)
    for c in grid:
        a, b = c.numerator, c.denominator
        for beta in grid:
            r, s = beta.numerator, beta.denominator
            c1 = beta - c
            c2 = c * c + c - beta
            q1 = (r * b - a * s) * s * b
            q2 = (a * a * s + a * b * s - r * b * b) * s
            assert (q1 == 0, q2 == 0) == (c1 == 0, c2 == 0)
            if c1 != 0 and c2 != 0:
                expected = Level2D8Cert(c1, c2).replay()
                assert _independent_classes(c1.numerator * c1.denominator, c2.numerator * c2.denominator) == expected
                assert _independent_classes(q1, q2) == expected


def test_survey_rows_match_the_classifier():
    result = run_survey(9, 9)
    grid = rationals_of_height(9)
    assert len(result["rows"]) == len(grid) ** 2 == 12321
    abelian = []
    for row, (c, alpha) in zip(result["rows"], ((c, alpha) for c in grid for alpha in grid)):
        verdict = classify_abelian(QuadPair.from_normal(c, alpha))
        assert row == (str(c), str(alpha), verdict.status, verdict.provenance)
        if verdict.status == "abelian":
            abelian.append({"c": str(c), "alpha": str(alpha), "tag": verdict.tag})
    assert result["abelian_pairs"] == abelian
    statuses = Counter(status for _, _, status, _ in result["rows"])
    assert result["counts"] == {k: statuses[k] for k in ("abelian", "nonabelian", "not_applicable")}


@pytest.mark.parametrize("settings", [{"dim_N": 0}, {"prime_bound": MAX_PRIME_BOUND + 1}])
def test_survey_checks_settings_before_any_pair(monkeypatch, settings):
    calls = []

    def counting(*args):
        calls.append(args)
        return classify_abelian(*args)

    monkeypatch.setattr("arboreal.galois.classify_abelian", counting)
    with pytest.raises(ValueError, match="need dim_N >= 1"):
        run_survey(3, 3, **settings)
    assert calls == []
    run_survey(1, 1)
    assert len(calls) == 9 - 3  # (1, 0), (1, -1) and (-1, 1) are level-2 D8 pairs


@pytest.mark.parametrize(
    "height, digest",
    [
        (5, "e38bf93f122d4bb8c7f2d3fd81161bec7e30963f5517cfb20d46026261e05380"),
        (6, "37b54b52c640197ea02b3762c214d2073fb763dc751846fa67d99e5946640d4f"),
        (9, "8230c01b6ba7bcc9e882c51b8c6c8e6312fd911a9e41b1f356b87cee2c29199d"),
    ],
)
def test_survey_output_is_pinned(capsys, height, digest):
    assert main(["survey", "--c-height", str(height), "--alpha-height", str(height)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_survey_table_output_is_pinned(capsys):
    assert main(["survey", "--c-height", "5", "--alpha-height", "5", "--format", "table"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b3040bf2aa7c0c53f31ba1fa67c89dc94bd9717543b018feceb3b96bf4094e90"


def test_classify_abelian_table():
    verdict = classify_abelian(QuadPair.from_normal(-2, 1))
    assert verdict.status == "abelian"
    for c, beta in [(0, 1), (0, -1), (-2, 0), (-2, 1), (-2, -1), (-2, 2), (-2, -2)]:
        assert classify_abelian(QuadPair.from_normal(c, beta)).status == "abelian"


def test_classify_exceptional():
    verdict = classify_abelian(QuadPair(3, -3, 3))
    assert verdict.status == "not_applicable"
    assert verdict.tag == "exceptional"


def test_classify_faithful_node_case():
    verdict = classify_abelian(QuadPair.from_normal(-1, F(-1, 2)))
    assert verdict.status == "nonabelian"
    assert verdict.certificate.kind == "FaithfulNode2Dim"
    assert verdict.certificate.values == (F(1, 2), F(1, 2), F(-1, 2))
    assert replay_certificate(verdict.certificate)


def test_classify_quad_field_case():
    verdict = classify_abelian(QuadPair.from_normal(-1, 0))
    assert verdict.status == "nonabelian"
    cert = verdict.certificate
    assert cert.kind == "QuadFieldD8"
    assert cert.d == 2
    assert cert.c1_shifted == (1, 1) and cert.c2_shifted == (0, -1)  # 1 + sqrt2 and -sqrt2
    assert replay_certificate(cert)


def _radicand_field(q):
    """(d, m) with q = d * m^2: d = num(q) * den(q) and m = 1/den(q)."""
    return q.numerator * q.denominator, F(1, q.denominator)


def _reference_quad_field_search(c, beta):
    """The quadratic-field step deciding over QuadElements with
    quad_independent: the same backward walk as _quad_field_search."""
    queue = [(beta, (beta,))]
    visited = {beta}
    for _ in range(8):
        next_queue = []
        for t, chain in queue:
            radicand = t - c
            s = sqrt_exact(radicand)
            if s is not None:
                for child in (s, -s):
                    if child not in visited:
                        visited.add(child)
                        next_queue.append((child, chain + (child,)))
                continue
            d, m = _radicand_field(radicand)
            e1 = QuadElement(-c, m, d)
            e2 = QuadElement(c * c + c, -m, d)
            if quad_independent([e1, e2]) == 2:
                return QuadFieldD8Cert(d, chain, radicand, (e1.a, e1.b), (e2.a, e2.b))
        queue = next_queue
        if not queue:
            break
    return None


def test_quad_field_search_matches_quad_independent(monkeypatch):
    # every (c, beta) of height <= 7: the integer test certifies exactly where
    # quad_independent over QuadElements does, with the same certificate
    # (repr also tells an int from a Fraction), and every certificate replays
    calls = []

    def recording(a, b, d):
        calls.append(b)
        return _is_square_in_quad_int(a, b, d)

    monkeypatch.setattr("arboreal.galois._is_square_in_quad_int", recording)
    grid = rationals_of_height(7)
    certified = 0
    rational_products = set()
    for c in grid:
        for beta in grid:
            calls.clear()
            cert = _quad_field_search(c, beta)
            assert repr(cert) == repr(_reference_quad_field_search(c, beta)), (c, beta)
            if cert is not None:
                certified += 1
                assert replay_certificate(cert)
            # e1 and e2 have sqrt(d) part +-b^2 R, never 0, so a rational call
            # is e1*e2, whose sqrt(d) part a(a + 2b) b^2 R^3 vanishes at c in {0, -2}
            if 0 in calls:
                rational_products.add(c)
    assert (len(grid) ** 2, certified) == (5041, 4920)
    assert rational_products == {0, -2}


def test_classify_level2_case():
    verdict = classify_abelian(QuadPair.from_normal(-1, 1))
    assert verdict.certificate.kind == "Level2D8"
    assert replay_certificate(verdict.certificate)


def test_classify_poonen_case():
    verdict = classify_abelian(QuadPair.from_normal(-2, 7))
    # the Chebyshev polynomial with beta = 7: c1 = 9 is square, so the D8 and
    # faithful-node routes are closed; certificate search continues
    assert verdict.status == "nonabelian"
    assert replay_certificate(verdict.certificate)


def test_classify_certificates_replay_over_grid():
    rng = random.Random(29)
    for _ in range(150):
        pair = QuadPair.from_normal(
            F(rng.randint(-6, 6), rng.randint(1, 2)), F(rng.randint(-6, 6), rng.randint(1, 2))
        )
        verdict = classify_abelian(pair)
        if verdict.certificate is not None:
            assert replay_certificate(verdict.certificate)


def test_abelian_pairs_have_abelian_level2_and_small_dimension():
    for c, beta in [(0, 1), (0, -1), (-2, 0), (-2, 1), (-2, -1)]:
        pair = QuadPair.from_normal(c, beta)
        assert level2_galois(pair).abelian
        assert ab_dimension(pair, 12) <= 2


def test_classify_theorem_only_corner():
    # (x^2, -4): level 2 is abelian C2 and every finite certificate fails,
    # yet the pair is outside the abelian list
    verdict = classify_abelian(QuadPair.from_normal(0, -4))
    assert verdict.status == "nonabelian"
    assert verdict.certificate is None
    assert verdict.provenance == "abelian-table-complement"


def test_fixed_field_prediction_matches_containment():
    # the phi-image from the level-2 case analysis must predict containment
    for pair in nondegenerate_pairs(60, 31):
        from arboreal.dynamics import in_post_critical_orbit

        if in_post_critical_orbit(pair):
            continue
        data = level2_data(pair)
        for support, char in (({1}, (1, 0)), ({2}, (0, 1)), ({1, 2}, (1, 1))):
            predicted = all(
                (a * char[0] ^ b * char[1]) == 0 for a, b in data.phi_image
            )
            assert contained_in_Mv(pair, support) == predicted


def test_factor_free_quadratic_fields_against_factoring_and_frobenius():
    # Level 2 and the QuadFieldD8 certificate name Q(sqrt(q)) by d = num*den
    # of q, unfactored; the factoring route must put d and q in one square
    # class, and Frobenius sampling must allow the level-2 group
    grid = rationals_of_height(5)
    unfactored = []  # level-2 fields whose d is not square-free
    for c in grid:
        for beta in grid:
            pair = QuadPair.from_normal(c, beta)
            cert = classify_abelian(pair).certificate
            if cert is not None and cert.kind == "QuadFieldD8":
                assert replay_certificate(cert)
                assert square_class(cert.d) == square_class(cert.radicand)
            try:
                data = level2_data(pair)
            except DegeneracyError:
                continue
            if "d" in data.details:
                cls = square_class(data.details["d"])
                assert cls == square_class(data.c1)
                if math.prod(cls.primes) != abs(data.details["d"]):
                    unfactored.append(pair)
    sample = unfactored[::3]
    assert len(sample) >= 15
    for pair in sample:
        report = frobenius_sample(pair, 2, good_primes(pair, 2, 60))
        assert level2_galois(pair) in report.compatible
