"""Arithmetic modulo an odd prime: orbit residues and polynomials over F_p.

Coefficient lists are ascending (f[i] multiplies x^i) with entries in
[0, p).  There is no Q[x] arithmetic: level_poly builds the level polynomial
of a quadratic pair directly mod p, and rationals enter only through
reduce_mod and orbit_mod.  The degrees are small (2^level for the level
polynomial), so products are schoolbook; factor_degrees saves work by
reducing through one remainder routine with a monic divisor and by reusing
the Frobenius map h -> h^p as a matrix (von zur Gathen and Shoup, "Computing
Frobenius maps and factoring polynomials", Comput. Complexity 2, 1992).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from operator import mul
from typing import FrozenSet, List, Optional, Sequence, Tuple

ModPoly = List[int]
_ZERO_CYCLE_CACHE = 4096  # (c mod p, p) keys whose cycle of 0 is kept


def degree(f: Sequence) -> int:
    return len(f) - 1


def reduce_mod(num: int, den: int, p: int) -> Optional[int]:
    """The rational num/den modulo p, or None when p divides den."""
    return num * pow(den, -1, p) % p if den % p else None


def orbit_mod(c, beta, q: int, N: int) -> Optional[List[int]]:
    """[c_{1,beta}, ..., c_{N,beta}] mod the odd prime q, or None when one is
    not a q-adic unit.  When q divides den(c) or den(beta), c_1 = beta - c is
    reduced in lowest terms, and N >= 2 gives None, since c_1 or c_1 + c_2 =
    c^2 is then not a unit."""
    c_mod = reduce_mod(c.numerator, c.denominator, q)
    beta_mod = reduce_mod(beta.numerator, beta.denominator, q)
    if c_mod is None or beta_mod is None:
        shift = beta - c
        c1 = reduce_mod(shift.numerator, shift.denominator, q) if N == 1 else None
        return [c1] if c1 else None
    values, z = [], 0
    for n in range(1, N + 1):  # z = z_n mod q
        z = (z * z + c_mod) % q
        if z == beta_mod:
            return None
        values.append((beta_mod - z if n == 1 else z - beta_mod) % q)
    return values


@lru_cache(maxsize=_ZERO_CYCLE_CACHE)
def _zero_cycle(c_mod: int, p: int) -> Optional[FrozenSet[int]]:
    """The cycle of 0 under x^2 + c_mod modulo p, or None when 0 is not
    periodic.  The orbit stops at its first repeated value: 0 is periodic
    exactly when that value is 0.  Cached per (c mod p, p), so its memory is
    bounded by _ZERO_CYCLE_CACHE entries of fewer than p residues each.
    """
    seen = set()
    z = 0
    while True:
        z = (z * z + c_mod) % p
        if z in seen:
            return None
        seen.add(z)
        if z == 0:
            return frozenset(seen)


def _residue_condition(num: int, den: int, cycle: Optional[FrozenSet[int]], p: int) -> Optional[str]:
    """The ramification test's residue condition for alpha = num/den at the
    odd prime p: "a" when p | den, "b" when alpha mod p lies on the cycle of
    0 mod p, else None.  The caller excludes the exact orbit of 0 from (b)."""
    alpha_mod = reduce_mod(num, den, p)
    if alpha_mod is None:
        return "a"
    if cycle is not None and alpha_mod in cycle:
        return "b"
    return None


def level_poly(c, beta, level: int, p: int) -> Optional[ModPoly]:
    """f^level(x) - beta modulo the odd prime p, for f = x^2 + c.

    Iterates g <- g^2 + c in F_p[x] and adds c - beta instead of c at the
    last step, so the result is monic of degree 2^level.  Returns None when
    p divides den(c - beta), or den(c) with level >= 2: these are exactly the
    primes dividing the denominator of some rational coefficient, since at
    level n >= 2 the x^(2^n - 2) coefficient is 2^(n-1) c.
    """
    shift = c - beta
    last = reduce_mod(shift.numerator, shift.denominator, p)
    c_mod = reduce_mod(c.numerator, c.denominator, p) if level >= 2 else 0
    if last is None or c_mod is None:
        return None
    g = [0, 1]
    for n in range(level, 0, -1):
        g = pm_mul(g, g, p)
        g[0] = (g[0] + (c_mod if n > 1 else last)) % p
    return g


def pm_trim(f: ModPoly) -> ModPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def pm_mul(f: ModPoly, g: ModPoly, p: int) -> ModPoly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return pm_trim([c % p for c in out])


def pm_divmod(f: ModPoly, g: ModPoly, p: int) -> Tuple[ModPoly, ModPoly]:
    """(q, r) with f = q*g + r and deg r < deg g; g[-1] must be nonzero."""
    r = pm_trim(list(f))
    q = [0] * max(0, len(r) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    low = g[:-1]
    while len(r) >= len(g):
        coeff = r.pop() * inv % p  # the leading term cancels exactly
        shift = len(r) - len(low)
        q[shift] = coeff
        for j, b in enumerate(low, shift):
            r[j] = (r[j] - coeff * b) % p
        pm_trim(r)
    return q, r


def pm_derivative(f: ModPoly, p: int) -> ModPoly:
    return pm_trim([i * c % p for i, c in enumerate(f)][1:])


def _monic(f: ModPoly, p: int) -> ModPoly:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _square(f: ModPoly) -> List[int]:
    """f^2 with coefficients not yet reduced mod p."""
    out = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        if a:
            out[2 * i] += a * a
            twice = 2 * a
            for j in range(i + 1, len(f)):
                out[i + j] += twice * f[j]
    return out


def _rem(f: Sequence[int], g: ModPoly, p: int) -> ModPoly:
    """f mod the monic g, for f with any integer coefficients.

    Since g is monic, each quotient coefficient is the leading coefficient
    reduced mod p, and the rest is reduced once at the end.
    """
    n = len(g) - 1
    r = list(f)
    low = g[:-1]
    for base in range(len(r) - n - 1, -1, -1):
        coeff = r.pop() % p
        if coeff:
            for j, b in enumerate(low, base):
                r[j] -= coeff * b
    return pm_trim([c % p for c in r])


def _gcd(a: ModPoly, b: ModPoly, p: int) -> ModPoly:
    """The monic gcd of a and b (a monic), by Euclid on monic divisors."""
    while b:
        b = _monic(b, p)
        a, b = b, _rem(a, b, p)
    return a


def _x_to_the_p(f: ModPoly, p: int) -> ModPoly:
    """x^p mod the monic f of degree >= 2, by left-to-right square-and-shift:
    a set bit multiplies by x, a shift plus at most one reduction step."""
    h = [0, 1]
    for bit in bin(p)[3:]:
        h = _rem(_square(h), f, p)
        if bit == "1":
            h = _rem([0] + h, f, p)
    return h


def _frobenius_rows(xp: ModPoly, f: ModPoly, p: int) -> List[ModPoly]:
    """x^(ip) mod f for i < deg f."""
    rows = [[1], xp]
    while len(rows) < degree(f):
        rows.append(_rem(pm_mul(rows[-1], xp, p), f, p))
    return rows


def factor_degrees(f: ModPoly, p: int) -> Optional[List[int]]:
    """Sorted degrees of the irreducible factors of square-free f mod p.

    Returns None when f mod p is not square-free (bad reduction), and raises
    ValueError for the zero polynomial.  Distinct-degree factorization:
    gcd(f, x^(p^d) - x) collects the factors of degree d once those of lower
    degree are divided out.  x^p comes from square-and-shift; from d = 2 on,
    h -> h^p mod f is the linear map h -> sum h_i x^(ip) (h_i^p = h_i in
    F_p), applied with a matrix of rows x^(ip) mod f built once from x^p.
    When a gcd splits off factors, h, x^p and the rows are reduced modulo
    the new f.
    """
    f = pm_trim(list(f))
    if not f:
        raise ValueError("zero polynomial")
    f = _monic(f, p)
    if degree(_gcd(f, pm_derivative(f, p), p)) > 0:
        return None
    degrees: List[int] = []
    h = xp = rows = None
    d = 0
    while degree(f) > 0:
        d += 1
        if 2 * d > degree(f):
            degrees.append(degree(f))
            break
        if d == 1:
            h = xp = _x_to_the_p(f, p)
        else:
            if rows is None:
                rows = _frobenius_rows(xp, f, p)
            columns = zip_longest(*rows, fillvalue=0)
            h = pm_trim([sum(map(mul, h, col)) % p for col in columns])
        diff = h + [0] * (2 - len(h))  # h - x
        diff[1] = (diff[1] - 1) % p
        g = _gcd(f, pm_trim(diff), p)
        if degree(g) > 0:
            degrees.extend([d] * (degree(g) // d))
            f = pm_divmod(f, g, p)[0]
            h, xp = _rem(h, f, p), _rem(xp, f, p)
            if rows is not None:
                rows = [_rem(row, f, p) for row in rows[: degree(f)]]
    return sorted(degrees)
