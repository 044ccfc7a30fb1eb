"""Hypothesis settings for the test suite: the same examples on every run
(derandomized, no example database) and no per-example deadline, so property
tests neither flake on a slow or loaded machine nor vary between runs, and
the reference oracles that several test files share."""

import random
from fractions import Fraction

from hypothesis import settings

from arboreal.dynamics import QuadPair
from arboreal.f2 import rank
from arboreal.squares import square_class

settings.register_profile("repro", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("repro")


def factor_span_dimension(values):
    """The factor route to a span dimension in Q*/Q*^2, kept as a test
    oracle for span_dimension's quadratic-character route (coprime_base's
    gcd-free basis is the other): the rank of the square classes, which
    raises BudgetExceeded when factoring runs out."""
    return rank([square_class(v).to_vector() for v in values])


def reference_orbit(pair, N):
    """Raw and adjusted values and degeneracy index, stepped with pair.f on
    the general form: c_1 = b, c_n = f^n(a), shifted by alpha."""
    raw = [pair.b]
    z = pair.f(pair.a)
    for _ in range(N - 1):
        z = pair.f(z)
        raw.append(z)
    adjusted = [raw[0] + pair.alpha] + [c - pair.alpha for c in raw[1:]]
    degeneracy = next((i + 1 for i, c in enumerate(adjusted) if c == 0), None)
    return tuple(raw), tuple(adjusted), degeneracy


def reference_first_hit(c, z, target):
    """The first n >= 1 with g^n(z) = target for g = x^2 + c, or None, by a
    Fraction walk of its own: it stops at a repeated value, at |w| >
    max(|c|, 2, |z|, |target|) or at den(w) > den(target), the exits
    dynamics._first_hit documents for its general case."""
    c, z, target = Fraction(c), Fraction(z), Fraction(target)
    bound = max(abs(c), 2, abs(z), abs(target))
    seen = set()
    w, n = z, 0
    while True:
        w, n = w * w + c, n + 1
        if w == target:
            return n
        if w in seen or abs(w) > bound or w.denominator > target.denominator:
            return None
        seen.add(w)


def general_pairs(seed, count):
    """Seeded (a, b, alpha) with a != 0; every fourth alpha is f^m(a) for
    some m <= 4, so the orbit degenerates at index m."""
    rng = random.Random(seed)
    for i in range(count):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if i % 4 == 0:
            alpha = a
            for _ in range(rng.randint(1, 4)):
                alpha = QuadPair(a, b, 0).f(alpha)
        yield QuadPair(a, b, alpha)
