"""Square classes of rationals, span dimensions, and squares in Q(sqrt(d)).

The image of a nonzero rational in Q*/Q*^2 is recorded as a sign together
with the square-free prime support.  Span dimensions are decided by
quadratic characters, which never factor: the sign and the Legendre symbol
at an odd prime q dividing no value are homomorphisms from the span to F_2,
so their common kernel holds every relation (a subset whose product is a
square), and once an exact square test passes on each vector of a basis of
that kernel, the two are equal (L. M. Adleman, "Factoring numbers using
singular integers", STOC 1991).  Spans are taken of integers in the
values' classes (_span_rank), each Legendre symbol at a prime below
_CHARACTER_BOUND is read from a per-prime table of non-residues built on
first use, and past it by Euler's criterion, and the characters are kept
in f2's bitmask echelon.  The primes never run out, so that one route
decides every span.  Prime factorization (square_class) runs only where
the output is itself a factorization, the square-class display; no
decision calls it.  Squareness in a quadratic field Q(sqrt(d)), for any
integer d that is not a square, reduces to rational square tests on the
norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .f2 import SIGN, F2Vector, _insert, _restrict, prime_label
from .primes import DEFAULT_BUDGET, factorize, odd_primes, primes_from

Rational = Union[int, Fraction]

_CHARACTER_BOUND = 256  # characters of the odd primes below it are table lookups
_STALL = 3  # characters in a row that leave the kernel unchanged before it is tested exactly


class DegenerateSquareWarning(UserWarning):
    """0 was tested for squareness: a vanishing orbit value, not a square."""


@dataclass(frozen=True)
class SquareClass:
    """Image of a nonzero rational in Q*/Q*^2: sign and square-free support."""

    sign: int
    primes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("prime support must be sorted and duplicate-free")

    @property
    def is_trivial(self) -> bool:
        return self.sign == 1 and not self.primes

    def to_vector(self) -> F2Vector:
        labels = [prime_label(p) for p in self.primes]
        if self.sign < 0:
            labels.append(SIGN)
        return F2Vector.from_labels(labels)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        support = set(self.primes) ^ set(other.primes)
        return SquareClass(self.sign * other.sign, tuple(sorted(support)))


def _frac(q: Rational) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def square_class(q: Rational, budget: int = DEFAULT_BUDGET) -> SquareClass:
    """Reduce q (nonzero) modulo rational squares.

    Factors numerator*denominator within `budget` units: one per trial
    candidate, and max(1, bits^2 >> 14) per Brent-rho step on a cofactor of
    `bits` bits (see primes).  Raises BudgetExceeded when that is too costly.
    Span dimensions never need this: see span_dimension.
    """
    q = _frac(q)
    if q == 0:
        raise ValueError("0 has no square class")
    n = q.numerator * q.denominator
    sign = 1 if n > 0 else -1
    odd = [p for p, e in factorize(abs(n), budget).items() if e % 2]
    return SquareClass(sign, tuple(sorted(odd)))


def is_square_int(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def sqrt_exact(q: Rational) -> Optional[Fraction]:
    """Exact nonnegative square root of q, or None when q is not a square."""
    q = _frac(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = math.isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def is_perfect_square(q: Rational) -> bool:
    """True iff q is the square of a rational; needs no factorization.

    By convention 0 returns True but raises DegenerateSquareWarning: callers
    must treat vanishing orbit values as degeneracy, not as squares.
    """
    q = _frac(q)
    if q == 0:
        warnings.warn("square test on 0 (vanishing value)", DegenerateSquareWarning)
        return True
    return sqrt_exact(q) is not None


def all_valuations_even(q: Rational) -> bool:
    """True iff v_p(q) is even at every prime, i.e. |q| is a rational square."""
    q = _frac(q)
    if q == 0:
        raise ValueError("0 has no valuations")
    return sqrt_exact(abs(q)) is not None


def _nonresidue_table(q: int) -> bytes:
    """q bytes, the r-th 1 exactly when r is a quadratic non-residue mod the
    odd prime q (0 for r = 0 and for the squares)."""
    table = bytearray([1]) * q
    table[0] = 0
    for x in range(1, q // 2 + 1):
        table[x * x % q] = 0
    return bytes(table)


@lru_cache(maxsize=1)
def _characters() -> Tuple[Tuple[int, ...], int, Tuple[bytes, ...]]:
    """The odd primes below _CHARACTER_BOUND, their product, modulo which a
    value is reduced once for all of them, and each prime's non-residue
    table, so a Legendre symbol is one lookup."""
    qs = odd_primes(_CHARACTER_BOUND)
    return qs, math.prod(qs), tuple(_nonresidue_table(q) for q in qs)


def _residue(factors: Iterable[int]) -> int:
    """The product of the integers factors modulo the primes' product, formed
    from their residues, so the product itself is never built."""
    modulus = _characters()[1]
    return math.prod(f % modulus for f in factors) % modulus


def _character_masks(residues: Sequence[int]) -> Iterator[int]:
    """For each odd prime q of the list that divides none of the values given
    by their residues, the bitmask of the values whose Legendre symbol at q
    is -1."""
    qs, _, tables = _characters()
    for q, table in zip(qs, tables):
        mask = 0
        for r in reversed(residues):
            r %= q
            if not r:
                break
            mask = mask << 1 | table[r]
        else:
            yield mask


def _square_product(ms: Sequence[int]) -> bool:
    """Whether the product of the nonzero integers ms is a square.  Its sign
    and its quadratic characters are read off the signs and residues of the
    factors first, and the product is formed and its integer square root
    taken only when every character is +1."""
    if sum(m < 0 for m in ms) % 2 or any(_character_masks([_residue(ms)])):
        return False
    return is_square_int(math.prod(ms))


def _extension_masks(ms: Sequence[int]) -> Iterator[int]:
    """_character_masks past the list: for each prime q >= _CHARACTER_BOUND
    that divides no m, the bitmask of the ms whose Legendre symbol at q is
    -1, read by Euler's criterion."""
    for q in primes_from(_CHARACTER_BOUND):
        mask = 0
        for m in reversed(ms):
            r = m % q
            if not r:
                break
            mask = mask << 1 | (pow(r, q >> 1, q) == q - 1)
        else:
            yield mask


def _span_rank(ms: Sequence[int]) -> int:
    """dim of the span of the nonzero integers ms in Q*/Q*^2, without
    factoring.

    The relations among the ms (the subsets whose product is a square) lie
    in the kernel of every quadratic character: the sign, and the Legendre
    symbol at each odd prime that divides no m, first those below
    _CHARACTER_BOUND and then the primes past it.  The characters are read
    one at a time, each as the bitmask of the ms on which it is -1, into
    f2's bitmask echelon (_insert), whose size is the rank of the characters
    read so far, that is len(ms) minus the dimension of their common kernel.
    Once that rank is len(ms), or has stayed as it was for _STALL primes in a
    row and each vector of a basis of the kernel (from _restrict) passes
    _square_product, the kernel is exactly the space of relations, and the
    dimension is that rank.  The route is total: a positive m that is not a
    square has infinitely many primes q with (m/q) = -1, so every kernel
    vector that is not a relation is cut after finitely many primes, and
    under GRH the first such q is about 2*log(4*m)^2 (E. Bach, "Explicit
    bounds for primality testing and related problems", Math. Comp. 55,
    1990).  The primes past the list are read only when those
    below it leave the kernel unverified.
    """
    if 0 in ms:
        raise ValueError("values must be nonzero")
    n = len(ms)
    masks = [sum(1 << i for i, m in enumerate(ms) if m < 0)]
    rows: Dict[int, int] = {}
    _insert(rows, masks[0])
    modulus = _characters()[1]
    unchanged = 0
    for mask in chain(_character_masks([m % modulus for m in ms]), _extension_masks(ms)):
        masks.append(mask)
        unchanged = 0 if _insert(rows, mask) else unchanged + 1
        if len(rows) == n:
            return n
        if unchanged == _STALL:
            kernel = reduce(_restrict, masks, [1 << i for i in range(n)])
            if all(_square_product([m for i, m in enumerate(ms) if b >> i & 1]) for b in kernel):
                return len(rows)


def span_dimension(values: Sequence[Rational]) -> int:
    """dim of the span of the (nonzero) values in Q*/Q*^2, without factoring:
    _span_rank of m = numerator*denominator, which has the value's square
    class.  The route is total on quadratic characters and an exact square
    test, so no budget applies (see _span_rank for Bach's bound)."""
    return _span_rank([v.numerator * v.denominator for v in map(_frac, values)])


@dataclass(frozen=True)
class QuadElement:
    """a + b*sqrt(d) with a, b rational and d an integer that is not a square.

    d need not be square-free: every test here uses d only through d*b^2, so
    Q(sqrt(d)) is the same field as Q(sqrt(d')) for d' the square-free part.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.d != int(self.d):
            raise ValueError(f"d must be an integer: {self.d}")
        object.__setattr__(self, "d", int(self.d))
        if is_square_int(self.d):
            raise ValueError(f"d must not be a square: {self.d}")

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def __mul__(self, other: "QuadElement") -> "QuadElement":
        if self.d != other.d:
            raise ValueError("elements live in different quadratic fields")
        return QuadElement(
            self.a * other.a + self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


def is_square_in_quad(x: QuadElement) -> Optional[Tuple[Fraction, Fraction]]:
    """Witness (u, v) with (u + v*sqrt(d))^2 = x, or None.

    For rational x test x or x*d for rational squareness; otherwise the norm
    a^2 - d b^2 must be a rational square n^2 and one of (a +- n)/2 must be a
    rational square.
    """
    if x.is_zero:
        raise ValueError("0 is excluded from square tests")
    if x.b == 0:
        u = sqrt_exact(x.a)
        if u is not None:
            return (u, Fraction(0))
        s = sqrt_exact(x.a * x.d)
        if s is not None:
            return (Fraction(0), s / x.d)
        return None
    n = sqrt_exact(x.norm())
    if n is None:
        return None
    for t in ((x.a + n) / 2, (x.a - n) / 2):
        if t == 0:
            continue
        u = sqrt_exact(t)
        if u is None or u == 0:
            continue
        v = x.b / (2 * u)
        if u * u + x.d * v * v == x.a and 2 * u * v == x.b:
            return (u, v)
    return None


def _is_square_in_quad_int(a: int, b: int, d: int) -> bool:
    """Whether a + b*sqrt(d) is a square in Q(sqrt(d)), for integers a, b, not
    both 0, and d not a square: is_square_in_quad on integers, without a
    witness.

    For b != 0 the norm a^2 - d b^2 must be a square n^2 and one of
    (a +- n)/2, that is one of 2(a +- n), a nonzero square; then u^2 =
    (a +- n)/2 and v = b/(2u) give (u + v*sqrt(d))^2 = a + b*sqrt(d).  For
    b = 0, a or a*d must be a square.
    """
    if b == 0:
        return is_square_int(a) or is_square_int(a * d)
    norm = a * a - d * b * b
    if norm < 0:
        return False
    n = math.isqrt(norm)
    return n * n == norm and any(t > 0 and is_square_int(t) for t in (2 * (a + n), 2 * (a - n)))


def quad_independent(xs: Sequence[QuadElement]) -> int:
    """Dimension of the span of xs in Q(sqrt(d))* mod squares.

    Tests all nonempty subset products for squareness; intended for desk
    scale (|xs| <= 10 or so).
    """
    if not xs:
        return 0
    d = xs[0].d
    for x in xs:
        if x.d != d:
            raise ValueError("elements live in different quadratic fields")
        if x.is_zero:
            raise ValueError("0 spans nothing")
    if len(xs) > 20:
        raise ValueError("subset-product search capped at 20 elements")
    k = len(xs)
    products: Dict[int, QuadElement] = {}
    square_masks = 0
    for mask in range(1, 1 << k):
        low = mask & (-mask)
        rest = mask ^ low
        prod = xs[low.bit_length() - 1] if not rest else products[rest] * xs[low.bit_length() - 1]
        products[mask] = prod
        if not prod.is_zero and is_square_in_quad(prod) is not None:
            square_masks += 1
    kernel_size = square_masks + 1
    dim_kernel = kernel_size.bit_length() - 1
    if 1 << dim_kernel != kernel_size:
        raise AssertionError("square subsets do not form a subspace")
    return k - dim_kernel
