import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import coprime_base, factor_span_dimension
from hypothesis import assume, given, strategies as st

from arboreal import squares
from arboreal.cli import rationals_of_height
from arboreal.dynamics import QuadPair, adjusted_orbit
from arboreal.f2 import SIGN, base_label, rank
from arboreal.primes import BudgetExceeded, factorize, primes_from, smallest_prime_factor
from arboreal.squares import (
    DegenerateSquareWarning,
    QuadElement,
    SquareClass,
    _characters,
    _is_square_in_quad_int,
    _square_product,
    all_valuations_even,
    is_perfect_square,
    is_square_in_quad,
    is_square_int,
    quad_independent,
    span_dimension,
    sqrt_exact,
    square_class,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=400),
)


def test_square_class_examples():
    assert square_class(18) == SquareClass(1, (2,))
    assert square_class(Fraction(-1, 2)) == SquareClass(-1, (2,))
    assert square_class(Fraction(4, 9)) == SquareClass(1, ())


def test_square_class_rejects_zero():
    with pytest.raises(ValueError):
        square_class(0)


@given(rationals, rationals)
def test_square_class_multiplicative(q1, q2):
    assert square_class(q1 * q2) == square_class(q1) * square_class(q2)


@given(rationals)
def test_square_test_matches_trivial_class(q):
    assert is_perfect_square(q) == (q > 0 and square_class(q).is_trivial)


def test_is_perfect_square_examples():
    assert is_perfect_square(Fraction(49, 4))
    assert not is_perfect_square(2)
    # orbit of (x^2 - 2, 0): c_1 = c_2 = 2, product 4
    assert is_perfect_square(2 * 2)


def test_zero_square_is_flagged():
    with pytest.warns(DegenerateSquareWarning):
        assert is_perfect_square(0)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(49, 4)) == Fraction(7, 2)
    assert sqrt_exact(8) is None
    assert sqrt_exact(Fraction(-4)) is None


def test_coprime_base_examples():
    base, vectors = coprime_base([6, 10])
    assert base == [2, 3, 5]
    assert vectors[0].sorted_labels() == (base_label(2), base_label(3))
    assert vectors[1].sorted_labels() == (base_label(2), base_label(5))

    _, vectors = coprime_base([4])
    assert vectors[0].is_zero

    _, vectors = coprime_base([-1])
    assert vectors[0].sorted_labels() == (SIGN,)


def test_coprime_base_rejects_zero():
    with pytest.raises(ValueError):
        coprime_base([6, 0])


def check_coprime_base(values):
    """Base elements are pairwise coprime and > 1, and each value is its
    vector's signed product of base elements times a rational square."""
    base, vectors = coprime_base(values)
    for b1, b2 in zip(base, base[1:]):
        assert math.gcd(b1, b2) == 1
    for i, b in enumerate(base):
        assert b > 1
        for other in base[i + 1 :]:
            assert math.gcd(b, other) == 1
    for value, vec in zip(values, vectors):
        odd_part = 1
        for lab in vec.sorted_labels():
            if lab != SIGN:
                odd_part *= lab.value
        sign = -1 if SIGN in vec.support else 1
        ratio = Fraction(value, sign * odd_part)
        assert ratio > 0 and sqrt_exact(ratio) is not None


def test_coprime_base_reconstruction():
    rng = random.Random(7)
    for _ in range(200):
        values = [
            rng.choice([-1, 1]) * rng.randint(1, 50000) for _ in range(rng.randint(1, 8))
        ]
        check_coprime_base(values)


# sign * b**(2**k + d) * m: orbit values have denominators den(c)**(2**n)
prime_power_values = st.builds(
    lambda sign, b, k, d, m: sign * b ** (2**k + d) * m,
    st.sampled_from([-1, 1]),
    st.sampled_from([2, 3, 6, 7, 10, 15, 21]),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([-1, 0, 1]),
    st.integers(min_value=1, max_value=10**6),
)


@given(st.lists(prime_power_values, min_size=1, max_size=5))
def test_coprime_base_on_large_prime_powers(values):
    check_coprime_base(values)
    assert span_dimension(values) == factor_span_dimension(values)


@given(st.lists(rationals, min_size=1, max_size=7))
def test_span_dimension_routes_agree_on_rationals(values):
    assert span_dimension(values) == factor_span_dimension(values)


heights = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@given(heights, heights, st.integers(min_value=1, max_value=5))
def test_span_dimension_routes_agree_on_orbit_prefixes(c, alpha, n):
    orbit = adjusted_orbit(QuadPair.from_normal(c, alpha), n)
    assume(orbit.degeneracy_index is None)
    values = orbit.adjusted
    assert span_dimension(values) == factor_span_dimension(values)


def test_span_dimension_examples():
    assert span_dimension([2, 2, 2, 2]) == 1
    assert span_dimension([2, -1]) == 2
    assert span_dimension([-1, 2, 5, 26, 677, 458330]) == 6
    assert span_dimension([]) == 0
    with pytest.raises(ValueError, match="values must be nonzero"):
        span_dimension([2, Fraction(0)])


def test_span_dimension_paths_agree():
    rng = random.Random(11)
    for _ in range(120):
        values = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 4000), rng.randint(1, 60))
            for _ in range(rng.randint(1, 7))
        ]
        assert factor_span_dimension(values) == span_dimension(values)


def test_span_dimension_budget_fallback():
    # a tiny budget cannot factor the semiprime; the span needs no budget
    p = 10**9 + 7
    q = 10**9 + 9
    with pytest.raises(BudgetExceeded):
        square_class(p * q, budget=10)
    assert span_dimension([p * q, q]) == 2


def record_extension(monkeypatch):
    """Make span_dimension record each prime it draws past the fixed list;
    the returned list grows by one per prime."""
    drawn = []

    def recorded(start):
        for q in primes_from(start):
            drawn.append(q)
            yield q

    monkeypatch.setattr(squares, "primes_from", recorded)
    return drawn


@pytest.mark.parametrize("height, n", [(9, 6), (5, 12)])
def test_character_rank_matches_the_gcd_free_basis_on_orbit_grids(monkeypatch, height, n):
    # every nondegenerate normal-form pair of the grid, rank-deficient ones
    # included; the characters below 2^8 and the exact kernel test decide
    # all of them
    grid = rationals_of_height(height)
    orbits = [adjusted_orbit(QuadPair.from_normal(c, alpha), n) for c in grid for alpha in grid]
    spans = [o.adjusted for o in orbits if o.degeneracy_index is None]
    drawn = record_extension(monkeypatch)
    dims = [span_dimension(values) for values in spans]
    assert drawn == []
    expected = [rank(coprime_base([v.numerator * v.denominator for v in values])[1]) for values in spans]
    assert dims == expected
    assert sum(d < n for d in dims) >= 300


def test_pseudo_square_is_cut_past_the_list(monkeypatch):
    # 1 + 8 * (the odd primes below 2^8) is 1 modulo each of them, so every
    # character of the list is +1 on it, but it is not a square: the exact
    # test rejects the kernel, and the characters go on past the list until
    # q = 263, the second prime past it, cuts it
    qs, _, _ = _characters()
    m = 1 + 8 * math.prod(qs)
    assert math.isqrt(m) ** 2 != m and not _square_product([m])
    drawn = record_extension(monkeypatch)
    assert span_dimension([m]) == 1
    assert drawn == [257, 263]
    assert pow(m % 257, 128, 257) == 1 and pow(m % 263, 131, 263) == 262
    assert span_dimension([m, m * 4]) == 1 and span_dimension([m, -m, 3]) == 3


def test_extension_matches_the_gcd_free_basis_on_pseudo_squares(monkeypatch):
    # every generator is 1 modulo 8 * (the odd primes below 2^8), so every
    # character of the list is +1 on each product of them, and only the
    # primes past the list can decide the span: pseudo-squares 1 + 8k * prod,
    # and values 263 * k = 1 mod 8 * prod, which the prime 263 divides
    qs, _, _ = _characters()
    modulus = 8 * math.prod(qs)
    inverse = pow(263, -1, modulus)
    generators = [1 + j * modulus for j in range(1, 25)]
    generators += [263 * (inverse + j * modulus) for j in range(12)]
    assert all(not is_square_int(g) for g in generators)
    rng = random.Random(32)
    drawn = record_extension(monkeypatch)
    full = deficient = divided = 0
    for _ in range(150):
        gens = rng.sample(generators, rng.randint(1, 4))
        values = []
        for _ in range(rng.randint(1, 6)):
            subset = [g for g in gens if rng.random() < 0.5] or gens[:1]
            values.append(rng.randint(1, 9) ** 2 * math.prod(subset))
        drawn.clear()
        dim = span_dimension(values)
        assert dim == rank(coprime_base(values)[1]), values
        assert drawn, values
        full += dim == len(values)
        deficient += dim < len(values)
        divided += 263 in drawn and any(v % 263 == 0 for v in values)
    assert full >= 40 and deficient >= 60 and divided >= 60
    m1, m2 = generators[:2]
    assert span_dimension([m1, m2, m1 * m2]) == 2
    assert span_dimension([generators[-1]]) == 1


def test_square_product_matches_the_formed_product():
    rng = random.Random(5)
    for _ in range(2000):
        ms = [rng.choice([-1, 1]) * rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:  # make the product a square up to sign
            ms.append(math.prod(ms))
        assert _square_product(ms) == is_square_int(math.prod(ms)), ms
    assert _square_product([10**200 + 7, 3 * (10**200 + 7), 3])
    assert not _square_product([10**200 + 7, 3 * (10**200 + 7), -3])
    # -3/(10^200 + 7) times -(10^200 + 7)/12, on numerators and denominators
    assert _square_product([-3, 10**200 + 7, -(10**200 + 7), 12])
    assert not _square_product([3, 10**200 + 7, 10**200 + 7, 6])


def test_character_tables_follow_eulers_criterion():
    qs, modulus, tables = _characters()
    assert qs == tuple(q for q in range(3, 256) if smallest_prime_factor(q) == q)
    assert modulus == math.prod(qs) and len(tables) == len(qs)
    for q, table in zip(qs, tables):
        assert len(table) == q
        assert [table[r] for r in range(q)] == [int(pow(r, q >> 1, q) == q - 1) for r in range(q)]


def test_character_tables_are_not_built_at_import():
    code = (
        "import arboreal, arboreal.cli\n"
        "from arboreal.primes import odd_primes\n"
        "from arboreal.squares import _characters\n"
        "print(odd_primes.cache_info().currsize, _characters.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(squares.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_all_valuations_even():
    assert all_valuations_even(49)
    assert all_valuations_even(-49)
    assert not all_valuations_even(8)
    with pytest.raises(ValueError):
        all_valuations_even(0)


def test_quad_element_validation():
    with pytest.raises(ValueError):
        QuadElement(1, 1, 4)  # a square
    with pytest.raises(ValueError):
        QuadElement(1, 1, 1)
    with pytest.raises(ValueError):
        QuadElement(1, 1, 0)
    assert QuadElement(1, 1, 8).d == 8  # not square-free, not a square
    assert QuadElement(1, 1, -4).d == -4


def test_is_square_in_quad_examples():
    assert is_square_in_quad(QuadElement(1, 1, 2)) is None  # 1 + sqrt(2)
    assert is_square_in_quad(QuadElement(3, 2, 2)) == (1, 1)  # (1 + sqrt(2))^2
    assert is_square_in_quad(QuadElement(0, -1, 2)) is None  # -sqrt(2)
    # d need not be square-free: 3 + sqrt(8) = (1 + sqrt(8)/2)^2
    assert is_square_in_quad(QuadElement(3, 1, 8)) == (1, Fraction(1, 2))


def test_is_square_in_quad_rational_cases():
    # 2 = (sqrt 2)^2 inside Q(sqrt 2)
    assert is_square_in_quad(QuadElement(2, 0, 2)) == (0, 1)
    assert is_square_in_quad(QuadElement(9, 0, 2)) == (3, 0)
    assert is_square_in_quad(QuadElement(-1, 0, 2)) is None
    # 2i = (1 + i)^2 inside Q(i)
    assert is_square_in_quad(QuadElement(0, 2, -1)) == (1, 1)


@given(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([2, 3, 5, -1, -2, 6]),
)
def test_quad_witness_squares_back(a, b, d):
    x = QuadElement(Fraction(a), Fraction(b), d)
    if x.is_zero:
        return
    witness = is_square_in_quad(x)
    if witness is not None:
        u, v = witness
        w = QuadElement(u, v, d)
        assert w * w == x


def test_integer_quad_square_test_matches_witness_search():
    # the integer predicate against is_square_in_quad on a grid of a + b sqrt(d),
    # plus the squares (u + v sqrt(d))^2 and their rational multiples by d,
    # so that both branches (b = 0 and b != 0) see squares and non-squares
    seen = set()
    for d in (2, 3, 5, 8, 12, -1, -2, -3, -4):
        grid = [(a, b) for a in range(-15, 16) for b in range(-15, 16) if (a, b) != (0, 0)]
        grid += [(u * u + d * v * v, 2 * u * v) for u in range(-6, 7) for v in range(-6, 7) if (u, v) != (0, 0)]
        grid += [(d * u * u, 0) for u in range(1, 7)]
        for a, b in grid:
            expected = is_square_in_quad(QuadElement(a, b, d)) is not None
            assert _is_square_in_quad_int(a, b, d) == expected, (a, b, d)
            seen.add((b == 0, expected))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_quad_independent_examples():
    one_plus = QuadElement(1, 1, 2)
    minus_rt2 = QuadElement(0, -1, 2)
    assert quad_independent([one_plus, minus_rt2]) == 2
    assert quad_independent([QuadElement(3, 2, 2)]) == 0
    # 2 is a square in Q(sqrt 2), so <2, -1> has dimension 1 there
    assert quad_independent([QuadElement(2, 0, 2), QuadElement(-1, 0, 2)]) == 1


def test_quad_independent_rejects_mixed_fields():
    with pytest.raises(ValueError):
        quad_independent([QuadElement(1, 1, 2), QuadElement(1, 1, 3)])


def test_factorize_smoke():
    assert factorize(2**4 * 3 * 49) == {2: 4, 3: 1, 7: 2}
    n = 1234567891 * 987654323  # two nine-to-ten-digit primes, beyond trial division
    assert factorize(n) == {1234567891: 1, 987654323: 1}


def test_smallest_prime_factor_beyond_trial_division():
    # trial division to 10^6 and a primality test, never rho: a composite
    # with no prime factor <= 10^6 gets None
    primes = primes_from(10**6 + 1)
    p, q = next(primes), next(primes)
    assert smallest_prime_factor(p * q) is None
    assert smallest_prime_factor(-2 * p * q) == 2
    assert smallest_prime_factor(p) == p
    big = next(primes_from(10**12 + 1))
    assert smallest_prime_factor(big) == big
