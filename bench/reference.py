"""Reference computations used only by the benchmark's output checks.

Nothing here imports `arboreal`: every check compares the program's output
with a computation made apart from it, or with a property the method must
have.  Rationals are `fractions.Fraction`; the normal form of a pair is
(x^2 + c, alpha).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# The paper's seven abelian normal forms (x^2, +-1) and (x^2 - 2, beta).
ABELIAN_PAIRS = frozenset(
    [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
    + [(Fraction(-2), Fraction(b)) for b in (0, 1, -1, 2, -2)]
)
PCF_C = frozenset(Fraction(c) for c in (0, -1, -2))


def height_grid(h: int) -> List[Fraction]:
    """Rationals p/q in lowest terms with |p| <= h and 1 <= q <= h, sorted."""
    out = []
    for q in range(1, max(h, 1) + 1):
        for p in range(-h, h + 1):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return sorted(out)


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def adjusted_orbit(c: Fraction, alpha: Fraction, n: int) -> List[Fraction]:
    """c_{1,alpha} = alpha - c and c_{k,alpha} = f^k(0) - alpha for f = x^2 + c."""
    values = [alpha - c]
    z = c
    for _ in range(n - 1):
        z = z * z + c
        values.append(z - alpha)
    return values


def degenerate(c: Fraction, alpha: Fraction, n: int) -> bool:
    """Whether one of the first n adjusted-orbit values vanishes."""
    return any(v == 0 for v in adjusted_orbit(c, alpha, n))


def _strip(n: int, g: int) -> int:
    while n % g == 0:
        n //= g
    return n


def coprime_basis(values: Sequence[int]) -> List[int]:
    """Pairwise coprime integers > 1 that generate every |value|.

    When a gcd g > 1 splits a pair (n, b), every power of g is divided out of
    both before the three parts go back on the work list.
    """
    base: List[int] = []
    for v in values:
        todo = [abs(v)]
        while todo:
            n = todo.pop()
            if n == 1:
                continue
            for i, b in enumerate(base):
                g = math.gcd(n, b)
                if g > 1:
                    del base[i]
                    todo.extend((g, _strip(n, g), _strip(b, g)))
                    break
            else:
                base.append(n)
    return sorted(base)


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of vectors given as integer bit masks."""
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def span_rank(values: Sequence[Fraction]) -> int:
    """Dimension of the span of nonzero rationals in Q*/Q*^2.

    Bit 0 is the sign; bit i+1 is the i-th non-square element of a coprime
    basis.  Distinct basis elements are coprime, so their square classes are
    independent unless the element itself is a square.
    """
    ints = [v.numerator * v.denominator for v in values]
    basis = coprime_basis(ints)
    rows = []
    for n in ints:
        row = 1 if n < 0 else 0
        n = abs(n)
        for i, b in enumerate(basis):
            e = 0
            while n % b == 0:
                n //= b
                e += 1
            if e % 2 and math.isqrt(b) ** 2 != b:
                row |= 1 << (i + 1)
        if n != 1:
            raise ArithmeticError("coprime basis does not generate %d" % n)
        rows.append(row)
    return gf2_rank(rows)


def sieve(limit: int) -> List[int]:
    """Primes <= limit, by crossing out multiples."""
    composite = [False] * (limit + 1)
    primes: List[int] = []
    for n in range(2, limit + 1):
        if not composite[n]:
            primes.append(n)
            for m in range(n * n, limit + 1, n):
                composite[m] = True
    return primes


def level3_roots_mod_p(c: Fraction, alpha: Fraction, p: int) -> int:
    """Number of x in F_p with f^3(x) = alpha, by trying every x."""
    cm = c.numerator * pow(c.denominator, -1, p) % p
    am = alpha.numerator * pow(alpha.denominator, -1, p) % p
    count = 0
    for x in range(p):
        z = x
        for _ in range(3):
            z = (z * z + cm) % p
        count += z == am
    return count


def curve_rhs(c: Fraction, alpha: Fraction, exponents: Sequence[int], x: Fraction) -> Fraction:
    """prod_e (f^e(x) - alpha) for f = x^2 + c."""
    out = Fraction(1)
    z = x
    for m in range(1, max(exponents) + 1):
        z = z * z + c
        if m in exponents:
            out *= z - alpha
    return out


def parse_pair(text: str) -> Tuple[Fraction, Fraction]:
    c, alpha = text.split(",")
    return Fraction(c), Fraction(alpha)
