"""Budgeted integer factorization and small prime utilities.

Orbit values double in bit length per iteration step, so unbudgeted
factorization is a hang.  Every factorization here counts elementary
operations (trial probes, rho iterations) against an explicit budget and
raises BudgetExceeded when the bound is hit; callers then leave the factored
output out.  The large-factor splitter draws its random starts from a
generator keyed by n alone, so a factorization of n spends the same budget
in every run.  Only factorize spends a budget: smallest_prime_factor stops
at trial division and a primality test.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, Iterator, List, Optional

TRIAL_LIMIT = 10**6
DEFAULT_BUDGET = 2_000_000

# Miller-Rabin witnesses, also the small primes probed first: deterministic
# for n < 3,317,044,064,679,887,385,961,981; for larger n the same witnesses
# make the test a (very strong) probable-prime check.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class BudgetExceeded(Exception):
    """Factorization ran out of its operation budget."""


def sieve(limit: int) -> List[int]:
    """All primes <= limit, by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def primes_from(start: int) -> Iterator[int]:
    """Primes >= start in increasing order."""
    n = max(2, start)
    if n > 2 and n % 2 == 0:
        n += 1
    while True:
        if is_probable_prime(n):
            yield n
        n += 1 if n == 2 else 2


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, overwhelmingly safe above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # steps between 7, 11, 13, 17, 19, 23, 29, 31, 37, ...


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int) -> None:
        self.left = budget

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded("factorization budget exhausted")


def _brent_rho(n: int, budget: _Budget) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    for attempt in range(64):
        rng = random.Random(f"{n}:0:{attempt}")  # fixed key: n always costs the same
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget.spend(r)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget.spend(min(m, r - k))
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget.spend()
        if g != n:
            return g
    raise BudgetExceeded("rho failed to split %d" % n)


def _split(n: int, out: Dict[int, int], mult: int, budget: _Budget) -> None:
    if n == 1:
        return
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + mult
        return
    root = math.isqrt(n)
    if root * root == n:
        _split(root, out, 2 * mult, budget)
        return
    d = _brent_rho(n, budget)
    _split(d, out, mult, budget)
    _split(n // d, out, mult, budget)


def _trial_divide(n: int, out: Dict[int, int], meter: _Budget, first: bool = False) -> int:
    """Move the prime factors p <= TRIAL_LIMIT of n > 0 into out as {p: e}.

    Probes 2, 3, 5 and then the wheel of residues prime to 30, one budget
    operation each, and returns the cofactor left.  With `first` it returns
    right after the first prime factor found.
    """
    d = 2
    steps = itertools.chain((1, 2, 2), itertools.cycle(_WHEEL))
    while d <= TRIAL_LIMIT and d * d <= n:
        meter.spend()
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
            if first:
                break
        d += next(steps)
    return n


def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Dict[int, int]:
    """Prime factorization {p: e} of |n|; n must be nonzero.

    Trial division up to 10^6, then Brent rho on what remains.  Raises
    BudgetExceeded once the operation count is spent.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    meter = _Budget(budget)
    out: Dict[int, int] = {}
    _split(_trial_divide(abs(n), out, meter), out, 1, meter)
    return out


def smallest_prime_factor(n: int) -> Optional[int]:
    """Smallest prime factor of |n| > 1 by trial division up to TRIAL_LIMIT.

    With none found, the cofactor if it is prime, else None: this never
    factors, so only a composite with no prime factor <= TRIAL_LIMIT gets None.
    """
    n = abs(n)
    if n <= 1:
        raise ValueError("need |n| > 1")
    out: Dict[int, int] = {}
    # at most TRIAL_LIMIT probes, so this meter never runs out
    rest = _trial_divide(n, out, _Budget(TRIAL_LIMIT), first=True)
    if out:
        return min(out)
    return rest if is_probable_prime(rest) else None
