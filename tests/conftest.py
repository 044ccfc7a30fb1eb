"""Hypothesis settings for the test suite: the same examples on every run
(derandomized, no example database) and no per-example deadline, so property
tests neither flake on a slow or loaded machine nor vary between runs, and
the reference oracles that several test files share."""

import math
import random
from fractions import Fraction

from hypothesis import settings

from arboreal.curves import _lowest_terms, rhs_eval
from arboreal.dynamics import QuadPair, _divide_out
from arboreal.f2 import SIGN, F2Vector, base_label, rank
from arboreal.squares import is_square_int, sqrt_exact, square_class

settings.register_profile("repro", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("repro")


def factor_span_dimension(values):
    """The factor route to a span dimension in Q*/Q*^2, kept as a test
    oracle for span_dimension's quadratic-character route (coprime_base's
    gcd-free basis is the other): the rank of the square classes, which
    raises BudgetExceeded when factoring runs out."""
    return rank([square_class(v).to_vector() for v in values])


def coprime_base(values):
    """The gcd route to a span dimension, kept as a test oracle for
    span_dimension: a gcd-free basis of the nonzero integers values plus
    per-value GF(2) exponent vectors, so that rank(coprime_base(ms)[1]) is
    the dimension of their span in Q*/Q*^2 (D. J. Bernstein, "Factoring
    into coprimes in essentially linear time", J. Algorithms 54, 2005).

    Each value equals +- a square times the product of base elements whose
    label appears in its vector.  Base elements are pairwise coprime
    integers > 1 (not necessarily prime, not necessarily square-free); base
    elements that are perfect squares contribute no label.
    """
    for v in values:
        if v == 0:
            raise ValueError("values must be nonzero")
    base = []
    for v in values:
        stack = [abs(v)]
        while stack:
            n = stack.pop()
            if n == 1:
                continue
            for i, b in enumerate(base):
                g = math.gcd(n, b)
                if g > 1:
                    # Replacing (n, b) by g and the parts of n and b free of
                    # g keeps the generated multiplicative group and divides
                    # the product by at least g.
                    del base[i]
                    stack.extend((g, _divide_out(b, g)[0], _divide_out(n, g)[0]))
                    break
            else:
                base.append(n)
    base.sort()
    is_square = {b: is_square_int(b) for b in base}
    vectors = []
    for v in values:
        n = abs(v)
        labels = [SIGN] if v < 0 else []
        for b in base:
            n, e = _divide_out(n, b)
            if e % 2 and not is_square[b]:
                labels.append(base_label(b))
        if n != 1:
            raise AssertionError("coprime base does not span input %d" % v)
        vectors.append(F2Vector.from_labels(labels))
    return base, vectors


def unsieved_point_search(curve, H):
    """The point search without its residue sieve or its work cap, kept as a
    test oracle for naive_point_search: every lowest-terms x of height <= H
    takes the exact route, rhs_eval then sqrt_exact."""
    points = []
    for p, d in _lowest_terms(H):
        x = Fraction(p, d)
        val = rhs_eval(curve, x)
        y = sqrt_exact(val) if val >= 0 else None
        if y is not None:
            points += [(x, y), (x, -y)] if y else [(x, y)]
    return sorted(points)


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
