"""Hyperelliptic curves attached to progressions of orbit indices, at desk
scale: right-hand-side evaluation, the square-product point construction,
and bounded-height rational point search.

The point search sieves its candidates by quadratic characters, as M.
Stoll's `ratpoints` does ("Rational points on curves", J. Theor. Nombres
Bordeaux 23, 2011): modulo each odd prime q < _SIEVE_BOUND at which a, c
and beta are q-integral, a q-byte table marks the residues u of x - a at
which the right-hand side is a nonzero non-residue, and an x that lands on
a marked residue is dropped before its exact value is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .dynamics import QuadPair, _check_depth, _first_hit, _in_critical_orbit, _orbit_prefix, adjusted_orbit
from .indexsets import IndexVector, is_progression
from .polys import reduce_mod
from .primes import BudgetExceeded, odd_primes
from .squares import _nonresidue_table, sqrt_exact

# Largest total right-hand-side degree over the x of one point search, the
# size of its exact work: `curve 1/3,2 --k 17 --search 2` (7 values of degree
# 2^18) stays within it, `--search 8` (about 80 such values) does not.
_SEARCH_DEGREE_CAP = 2**21
# Least degree charged for one x.  It was set when every x cost about 10 us
# of Fraction arithmetic and square testing; the residue sieve now drops most
# x for about 1 us of table lookups, but the charge and the cap still count
# every candidate, so the same searches are refused as before.
_SEARCH_X_DEGREE = 2**8
# The point search sieves by the odd primes below this bound.
_SIEVE_BOUND = 64


@dataclass(frozen=True)
class CurveSpec:
    """y^2 = prod_{j=1..l} (f^(k*j + i0)(x) - alpha)."""

    pair: QuadPair
    k: int
    l: int
    i0: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 1 or self.i0 < 1:
            raise ValueError("k, l, i0 must be positive")

    @property
    def exponents(self) -> List[int]:
        return [self.k * j + self.i0 for j in range(1, self.l + 1)]

    @property
    def rhs_degree(self) -> int:
        # sum of 2^(k*j + i0) over j = 1..l, a geometric series in 2^k
        k = self.k
        return ((1 << k * self.l) - 1) // ((1 << k) - 1) << (k + self.i0)

    @property
    def genus(self) -> int:
        # hyperelliptic genus of y^2 = squarefree degree-d polynomial
        return (self.rhs_degree - 1) // 2

    def describe(self) -> str:
        factors = " * ".join(f"(f^{e}(x) - alpha)" for e in self.exponents)
        return f"y^2 = {factors} for {self.pair.describe()}"


def is_smooth(curve: CurveSpec) -> bool:
    """No repeated roots on the right-hand side.

    Each factor f^m - alpha is separable iff no adjusted-orbit value up to m
    vanishes; two factors f^(m1) - alpha, f^(m2) - alpha (m1 < m2) share a
    root iff f^(m2-m1)(alpha) = alpha, so distinct factors stay coprime
    unless alpha is periodic with period P dividing some gap k*j, j < l.
    """
    c, beta = curve.pair.normal_form()
    hit = _in_critical_orbit(c, beta)  # the first vanishing adjusted value
    if hit is not None and hit <= curve.k * curve.l + curve.i0:
        return False
    period = _first_hit(c, beta, beta)  # in normal form, alpha's period is beta's
    return period is None or all(curve.k * j % period for j in range(1, curve.l))


def rhs_eval(curve: CurveSpec, x: Fraction) -> Fraction:
    """Exact value of the right-hand side at x.

    In normal form f^m(x) - alpha = g^m(x - a) - beta.  An exponent above
    MAX_ORBIT_N is a ValueError.
    """
    _check_depth(curve.k * curve.l + curve.i0, "exponents k*l+i0")
    exponents = curve.exponents  # increasing
    c, beta = curve.pair.normal_form()
    zs = _orbit_prefix(c, Fraction(x) - curve.pair.a, exponents[-1])
    return math.prod((zs[m - 1] - beta for m in exponents), start=Fraction(1))


@dataclass(frozen=True)
class ConstructedPoint:
    curve: CurveSpec
    x: Fraction
    y: Fraction
    product: Fraction  # the adjusted-orbit product the point came from


def _progression_curve(pair: QuadPair, v: IndexVector, i0: int, k: Optional[int] = None) -> CurveSpec:
    """The curve for (k, |support|, i0) that a progression support names.

    The support of v must be an arithmetic progression {s, s+k, ...} with
    s >= 2 and s - k - i0 >= 0; k defaults to the support's step.
    """
    support = tuple(v.support)
    if not support:
        raise ValueError("empty support names no curve")
    length = len(support)
    if k is None:
        if length < 2:
            raise ValueError("a singleton support needs an explicit k")
        k = support[1] - support[0]
    if not is_progression(v, k, length):
        raise ValueError("support must be an arithmetic progression")
    s = support[0]
    if s < 2:
        raise ValueError("support must start at index >= 2")
    if s - k - i0 < 0:
        raise ValueError(f"need s - k - i0 >= 0, got {s} - {k} - {i0}")
    return CurveSpec(pair, k, length, i0)


def construct_point(
    pair: QuadPair, v: IndexVector, i0: int, k: Optional[int] = None
) -> Optional[ConstructedPoint]:
    """Rational point from a square product of adjusted-orbit values.

    The support {s, s+k, ...} of v names a curve as in _progression_curve.
    When the product of c_{i,alpha} over the support is a square y0^2, the
    point (f^(s-k-i0)(critical point), y0) lands on that curve, because
    f^(k*j + i0)(x0) - alpha = c_{s + k*(j-1), alpha} exactly.
    Returns None when the product is not a square; a support index above
    MAX_ORBIT_N is a ValueError, and a vanishing c_{i,alpha} up to the last
    index a DegeneracyError.
    """
    curve = _progression_curve(pair, v, i0, k)
    support = tuple(v.support)
    _check_depth(support[-1], "support indices")
    orbit = adjusted_orbit(pair, support[-1])
    orbit.require_nondegenerate()
    prod = math.prod((orbit.adjusted[i - 1] for i in support), start=Fraction(1))
    y0 = sqrt_exact(prod)
    if y0 is None:
        return None
    # x0 = f^(s-k-i0)(a) = z_(s-k-i0) + a on the normal form's critical orbit
    c, _ = pair.normal_form()
    zs = [Fraction(0), *_orbit_prefix(c, Fraction(0), support[0] - curve.k - i0)]
    x0 = zs[-1] + pair.a
    assert rhs_eval(curve, x0) == prod, "orbit identity violated"
    return ConstructedPoint(curve, x0, y0, prod)


def _lowest_terms(H: int) -> Iterator[Tuple[int, int]]:
    """Each (p, q) with p/q in lowest terms, |p| <= H and 1 <= q <= H, once."""
    for q in range(1, H + 1):
        for p in range(-H, H + 1):
            if math.gcd(abs(p), q) == 1:
                yield p, q


def _grid_size(H: int) -> int:
    """How many (p, q) _lowest_terms(H) yields, without enumerating them: 0/1,
    and +-p/q for each of the 2*Phi(H) - 1 coprime (p, q) in [1, H]^2, where
    Phi(n) = phi(1) + ... + phi(n) is read off sum_{d<=n} Phi(n // d) =
    n(n+1)/2 over the distinct quotients n // d.

    At H = 0 the count is 1, the survey's grid {0}: _lowest_terms(0) is
    empty, and cli.rationals_of_height alone adds 0 to it.  Every
    point-search cap allows at least 4 values of x, so no search tells the
    two apart.
    """
    memo = {}

    def phi_sum(n: int) -> int:
        if n not in memo:
            total, d = n * (n + 1) // 2, 2
            while d <= n:
                top = n // (n // d)  # the last d' with the same quotient
                total -= (top - d + 1) * phi_sum(n // d)
                d = top + 1
            memo[n] = total
        return memo[n]

    return 4 * phi_sum(H) - 1 if H else 1


def _sieve_tables(curve: CurveSpec) -> List[Tuple[int, int, bytes]]:
    """(q, a mod q, table) for each odd prime q < _SIEVE_BOUND at which a, c
    and beta are q-integral, where table[u] is 1 exactly when
    prod_j (g^(k*j + i0)(u) - beta) is a nonzero non-residue mod q.  A prime
    whose table marks no residue is left out, so a right-hand side that is
    a square polynomial keeps no prime.
    """
    c, beta = curve.pair.normal_form()
    a = curve.pair.a
    exponents = set(curve.exponents)
    tables = []
    for q in odd_primes(_SIEVE_BOUND):
        a_mod, c_mod, beta_mod = (reduce_mod(v.numerator, v.denominator, q) for v in (a, c, beta))
        if a_mod is None or c_mod is None or beta_mod is None:
            continue
        step = [(z * z + c_mod) % q for z in range(q)]
        zs, prods = range(q), [1] * q
        for m in range(1, max(exponents) + 1):
            zs = [step[z] for z in zs]
            if m in exponents:
                prods = [r * (z - beta_mod) % q for r, z in zip(prods, zs)]
        nonresidue = _nonresidue_table(q)
        table = bytes(nonresidue[r] for r in prods)
        if any(table):
            tables.append((q, a_mod, table))
    return tables


def naive_point_search(curve: CurveSpec, H: int) -> List[Tuple[Fraction, Fraction]]:
    """All rational points with x = p/d in lowest terms, |p| <= H, d <= H.

    Enumerates Farey-style lowest-term fractions (so each x appears once),
    tests the right-hand side for exact squareness, and returns points sorted
    by (x, y), including both square roots when y != 0.  Before any value is
    formed, a top exponent above MAX_ORBIT_N is a ValueError, and a search
    whose x count times the right-hand side's degree, charged at least
    _SEARCH_X_DEGREE per x, exceeds _SEARCH_DEGREE_CAP raises BudgetExceeded;
    the count is of every candidate x, sieved or not.

    Each x first passes the residue sieve of `ratpoints` (module docstring):
    modulo each odd prime q < _SIEVE_BOUND at which a, c and beta are
    q-integral, and that does not divide d, x - a reduces to
    u = p * d^-1 - a mod q, and x is dropped at the first q whose table
    marks u.  This is sound: when q divides none of den(x), den(a), den(c)
    and den(beta), the right-hand side is q-integral and reduces to the
    table's value at u, and a rational that is a nonzero non-residue mod q
    is not a square.  The x that survive take the exact route, so the
    points are the same as without the sieve.
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    _check_depth(curve.k * curve.l + curve.i0, "exponents k*l+i0")
    degree = curve.rhs_degree
    charge = max(degree, _SEARCH_X_DEGREE)
    limit = _SEARCH_DEGREE_CAP // charge  # the most x the cap allows
    # the 2H + 1 integers -H..H reject a huge H before the exact count
    if 2 * H + 1 > limit or _grid_size(H) > limit:
        floor = f", each charged as degree {charge}" if charge > degree else ""
        raise BudgetExceeded(
            f"point search capped at a total right-hand-side degree of {_SEARCH_DEGREE_CAP} "
            f"over the searched x: height {H} has more than {limit} values of x at degree {degree}{floor}",
            (limit + 1) * charge,
            _SEARCH_DEGREE_CAP,
        )
    tables = _sieve_tables(curve)
    points: List[Tuple[Fraction, Fraction]] = []
    sieve_d, sieve = 0, []
    for p, d in _lowest_terms(H):
        if d != sieve_d:  # _lowest_terms yields one denominator at a time
            sieve_d = d
            sieve = [(q, pow(d, -1, q), a_mod, table) for q, a_mod, table in tables if d % q]
        if any(table[(p * inverse - a_mod) % q] for q, inverse, a_mod, table in sieve):
            continue
        x = Fraction(p, d)
        val = rhs_eval(curve, x)
        if val < 0:
            continue
        y = sqrt_exact(val)
        if y is None:
            continue
        points.append((x, y))
        if y:
            points.append((x, -y))
    points.sort()
    return points
