import itertools
import random
from fractions import Fraction

import pytest

from arboreal.cli import rationals_of_height
from arboreal.dynamics import QuadPair, adjusted_orbit
from arboreal.polys import factor_degrees, orbit_mod, pm_divmod, pm_mul
from arboreal.primes import primes_from


def test_orbit_mod_is_the_reduced_adjusted_orbit():
    # every pair of height <= 4, N <= 5 and the first 40 odd primes, against
    # the exact adjusted values: None when one is not a q-adic unit, else
    # each value reduced mod q
    grid = rationals_of_height(4)
    primes = list(itertools.islice(primes_from(3), 40))
    outcomes = set()
    for c, beta in itertools.product(grid, grid):
        adjusted = adjusted_orbit(QuadPair.from_normal(c, beta), 5).adjusted
        for N, q in itertools.product(range(1, 6), primes):
            values = adjusted[:N]
            if all(v.numerator % q and v.denominator % q for v in values):
                expected = [v.numerator * pow(v.denominator, -1, q) % q for v in values]
            else:
                expected = None
            assert orbit_mod(c, beta, q, N) == expected, (c, beta, q, N)
            outcomes.add(expected is None)
    assert outcomes == {True, False}
    # q = 3 divides den(c) and den(beta), yet c_1 = 1 is a unit; c_2 is not
    c, beta = Fraction(1, 3), Fraction(4, 3)
    assert orbit_mod(c, beta, 3, 1) == [1]
    assert orbit_mod(c, beta, 3, 2) is None


def test_factor_degrees_examples():
    assert factor_degrees([1, 0, 1], 3) == [2]  # x^2 + 1 is irreducible mod 3
    assert factor_degrees([1, 0, 1], 5) == [1, 1]  # and splits mod 5
    for p in (3, 5, 7):
        assert factor_degrees([0, 0, 1], p) is None  # x^2 is not square-free
    with pytest.raises(ValueError):
        factor_degrees([], 3)


def test_factor_degrees_distinct_linear_factors():
    p = 13
    for k in range(1, 8):
        f = [1]
        for root in range(k):
            f = pm_mul(f, [(-root) % p, 1], p)
        assert factor_degrees(f, p) == [1] * k


def test_pm_divmod_identity():
    rng = random.Random(5)
    for p in (3, 7, 101):
        for _ in range(200):
            f = [rng.randrange(p) for _ in range(rng.randint(0, 12))]
            g = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
            q, r = pm_divmod(f, g, p)
            assert len(r) < len(g)
            total = [0] * max(len(q) + len(g), len(f))
            for h in (pm_mul(q, g, p), r):
                for i, a in enumerate(h):
                    total[i] += a
            assert [a % p for a in total] == f + [0] * (len(total) - len(f))


def brute_force_degrees(f, p):
    """Degrees of the irreducible factors of the monic f, by dividing by every
    monic polynomial of degree <= deg/2 in increasing degree: a divisor found
    this way is irreducible, since its own factors were divided out first.
    None when some divisor divides twice (f is not square-free)."""
    degrees, rest = [], list(f)
    for d in range(1, len(f) // 2 + 1):
        if 2 * d > len(rest) - 1:
            break
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            q, r = pm_divmod(rest, g, p)
            while not r:
                if not pm_divmod(q, g, p)[1]:
                    return None
                degrees.append(d)
                rest = q
                q, r = pm_divmod(rest, g, p)
    if len(rest) > 1:
        degrees.append(len(rest) - 1)
    return sorted(degrees)


def random_monic(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [1]


def test_factor_degrees_matches_brute_force():
    # every monic polynomial of degree <= 5 over F_3, then seeded ones of
    # degree <= 8 over F_3, F_5 and F_7, a third of them with a square factor
    cases = [(list(low) + [1], 3) for deg in range(6) for low in itertools.product(range(3), repeat=deg)]
    rng = random.Random(16)
    for p in (3, 5, 7):
        for i in range(90):
            if i % 3:
                f = random_monic(rng, p, rng.randint(0, 8))
            else:
                g = random_monic(rng, p, rng.randint(1, 2))
                f = pm_mul(pm_mul(g, g, p), random_monic(rng, p, rng.randint(0, 4)), p)
            cases.append((f, p))
    outcomes = set()
    for f, p in cases:
        expected = brute_force_degrees(f, p)
        assert factor_degrees(f, p) == expected, (f, p)
        outcomes.add(expected is None)
        if expected is not None:
            # the leading coefficient does not matter
            assert factor_degrees([c * 2 % p for c in f], p) == expected
    assert outcomes == {True, False}


def random_irreducible(rng, p, deg):
    while True:
        f = random_monic(rng, p, deg)
        if brute_force_degrees(f, p) == [deg]:
            return f


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_degrees_on_prescribed_patterns(p):
    # products of distinct random irreducibles, up to degree 16 (level 4):
    # factors split off at d = 1, 2 and 3 and the search goes on past each
    # split, so x^p, h and the Frobenius rows are read after being reduced
    patterns = [(1, 6), (1, 3, 3), (1, 1, 2, 2, 6), (2, 6), (2, 3, 3), (1, 2, 3, 6), (3, 8), (3, 4, 4), (1, 2, 4, 4, 5)]
    rng = random.Random(p)
    for pattern in patterns:
        factors = []
        for deg in pattern:
            g = random_irreducible(rng, p, deg)
            while g in factors:
                g = random_irreducible(rng, p, deg)
            factors.append(g)
        f = [1]
        for g in factors:
            f = pm_mul(f, g, p)
        assert factor_degrees(f, p) == sorted(pattern), (pattern, f)
