"""Dense polynomials over F_p, for the Frobenius cycle-type oracle.

Coefficient lists are ascending (f[i] multiplies x^i) with entries in
[0, p).  There is no Q[x] arithmetic: level_poly builds the level polynomial
of a quadratic pair directly mod p, and rationals enter only through
reduce_mod.  Only small degrees (iterates of a quadratic up to level 3) pass
through here, so everything is the plain schoolbook algorithm.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

ModPoly = List[int]


def degree(f: Sequence) -> int:
    return len(f) - 1


def reduce_mod(num: int, den: int, p: int) -> Optional[int]:
    """The rational num/den modulo p, or None when p divides den."""
    return num * pow(den, -1, p) % p if den % p else None


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
                out[j] = (out[j] + a * b) % p
    return pm_trim(out)


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


def pm_gcd(f: ModPoly, g: ModPoly, p: int) -> ModPoly:
    a, b = pm_trim(list(f)), pm_trim(list(g))
    while b:
        a, b = b, pm_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pm_powmod(base: ModPoly, e: int, mod: ModPoly, p: int) -> ModPoly:
    result = [1]
    base = pm_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pm_divmod(pm_mul(result, base, p), mod, p)[1]
        base = pm_divmod(pm_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def pm_derivative(f: ModPoly, p: int) -> ModPoly:
    return pm_trim([i * c % p for i, c in enumerate(f)][1:])


def factor_degrees(f: ModPoly, p: int) -> Optional[List[int]]:
    """Sorted degrees of the irreducible factors of square-free f mod p.

    Returns None when f mod p is not square-free (bad reduction).  Uses
    distinct-degree factorization: x^(p^d) - x collects all factors of
    degree dividing d.
    """
    f = pm_trim(list(f))
    if not f:
        raise ValueError("zero polynomial")
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    if degree(pm_gcd(f, pm_derivative(f, p), p)) > 0:
        return None
    degrees: List[int] = []
    h = [0, 1]  # x
    d = 0
    while degree(f) > 0:
        d += 1
        if 2 * d > degree(f):
            degrees.append(degree(f))
            break
        h = pm_powmod(h, p, f, p)
        diff = h + [0] * (2 - len(h))  # h - x
        diff[1] = (diff[1] - 1) % p
        g = pm_gcd(f, pm_trim(diff), p)
        if degree(g) > 0:
            degrees.extend([d] * (degree(g) // d))
            f, r = pm_divmod(f, g, p)
            assert not r
            h = pm_divmod(h, f, p)[1]
    return sorted(degrees)
