"""Budgeted integer factorization and small prime utilities.

Orbit values double in bit length per iteration step, so unbudgeted
factorization is a hang.  Every factorization here charges its work to an
explicit budget of units and raises BudgetExceeded when the budget is spent;
callers then leave the factored output out.  Trial division finds the
primes up to TRIAL_LIMIT by one gcd per block of about 2^15 integers against
the product of the block's primes, but still charges one unit per wheel
candidate it passes, counted in closed form, so the budget runs out on
exactly the inputs where probing each candidate would.  A Brent-rho step on
n is one modular squaring and one modular product, whose cost grows with the
square of n's length, so it is charged max(1, bits(n)^2 >> 14) units: one up
to 181 bits, about (bits/128)^2 above.  Each block of steps is charged before
it runs, so the budget bounds time and not only the step count.  The
large-factor splitter draws its random starts from a generator keyed by n
alone, so a factorization of n spends the same budget in every run.  Only
factorize spends a budget: smallest_prime_factor stops at trial division and
a primality test.

Miller-Rabin with the prime bases 2 to 41 is deterministic below psi_13 =
3,317,044,064,679,887,385,961,981 (J. Sorenson and J. Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017); the bases 2 to
37 alone are not, since psi_12 = 318,665,857,834,031,151,167,461 =
399,165,290,221 * 798,330,580,441 passes all of them.  Above psi_13 it is a
(very strong) probable-prime test.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

TRIAL_LIMIT = 10**6
DEFAULT_BUDGET = 2_000_000

# Miller-Rabin witnesses, also the small primes probed first: deterministic
# below psi_13 (see the module docstring); for larger n the same witnesses
# make the test a (very strong) probable-prime check.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class BudgetExceeded(Exception):
    """A bounded computation ran out of its budget: factorization's units, or
    a curve point search's total right-hand-side degree.

    `spent` is the count charged when it stopped, `budget` the count it was
    given.
    """

    def __init__(self, message: str, spent: int, budget: int) -> None:
        super().__init__(message)
        self.spent = spent
        self.budget = budget


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


@lru_cache(maxsize=8)
def odd_primes(bound: int) -> Tuple[int, ...]:
    """The odd primes <= bound, sieved on the first call for each bound."""
    return tuple(sieve(bound)[1:])


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
    """Miller-Rabin on the bases 2 to 41; deterministic below psi_13 =
    3,317,044,064,679,887,385,961,981 (about 3.3e24), overwhelmingly safe
    above."""
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


_RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)  # residues prime to 30
_BLOCK = 1 << 15  # integers per trial-division block


class _Budget:
    __slots__ = ("left", "budget")

    def __init__(self, budget: int) -> None:
        self.left = self.budget = budget

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise self.exceeded("factorization budget exhausted")

    def exceeded(self, message: str) -> BudgetExceeded:
        return BudgetExceeded(message, self.budget - self.left, self.budget)


def _brent_rho(n: int, budget: _Budget) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    Each step is charged w units, the bit cost given in the module
    docstring, and each block of steps before it runs, so no step runs once
    the budget is spent.
    """
    w = max(1, n.bit_length() ** 2 >> 14)
    for attempt in range(64):
        rng = random.Random(f"{n}:0:{attempt}")  # fixed key: n always costs the same
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            budget.spend(r * w)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                budget.spend(steps * w)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                budget.spend(w)
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise budget.exceeded("rho failed to split %d" % n)


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


def _candidates_upto(x: int) -> int:
    """How many trial candidates (2, 3, 5, then each d >= 7 prime to 30) are <= x."""
    wheel = 8 * (x // 30) + bisect_right(_RESIDUES, x % 30) - 1  # less 1, which is no candidate
    return (x >= 2) + (x >= 3) + (x >= 5) + max(0, wheel)


def _product(xs: List[int]) -> int:
    """Product of xs, multiplied in balanced pairwise rounds."""
    while len(xs) > 1:
        it = iter(xs)
        xs = [a * b for a, b in itertools.zip_longest(it, it, fillvalue=1)]
    return xs[0]


@lru_cache(maxsize=1)
def _block_table() -> Tuple[Tuple[int, int], ...]:
    """(lo, product of the primes in [lo, next lo)) for each block of _BLOCK
    integers covering [2, TRIAL_LIMIT]: 31 blocks, 1.44 Mbit of products.

    Built on first use by a segmented sieve, so no list of all the primes
    up to TRIAL_LIMIT is ever held.
    """
    base = sieve(math.isqrt(TRIAL_LIMIT))
    table = []
    for lo in range(0, TRIAL_LIMIT + 1, _BLOCK):
        size = min(_BLOCK, TRIAL_LIMIT + 1 - lo)
        flags = bytearray([1]) * size
        for p in base:
            start = max(p * p, -(-lo // p) * p) - lo
            flags[start::p] = bytes(len(range(start, size, p)))
        if lo == 0:
            flags[0] = flags[1] = 0
        table.append((max(lo, 2), _product(list(itertools.compress(range(lo, lo + size), flags)))))
    return tuple(table)


def _primes_of(g: int, lo: int) -> Iterator[int]:
    """The primes of g > 0 in ascending order, for g with no odd prime
    factor below lo (lo even): trial division by 2 and by the odd d > lo,
    which stops at the square root of what is left, so a lone prime costs
    no probe at all."""
    if g % 2 == 0:
        yield 2
        while g % 2 == 0:
            g //= 2
    d = lo + 1
    while d * d <= g:
        if g % d == 0:
            yield d
            while g % d == 0:
                g //= d
        d += 2
    if g > 1:
        yield g


def _trial_divide(n: int, out: Dict[int, int], meter: _Budget, first: bool = False) -> int:
    """Move the prime factors p <= TRIAL_LIMIT of n > 0 into out as {p: e}.

    Charges one budget operation per trial candidate d (2, 3, 5 and then the
    wheel of residues prime to 30) with d <= TRIAL_LIMIT and d^2 <= n, for n
    as it shrinks while factors are divided out, and returns the cofactor
    left.  With `first` it returns right after the first prime factor found.

    It finds the primes without probing each candidate: while the trial
    range stays inside the first block it splits n itself, and past that
    it splits gcd(n, P) for each block product P from _block_table.  The
    candidates are charged in bulk by _candidates_upto, up to each prime
    found and then up to the final bound.  The charges equal one per probe,
    so the budget runs out on the same inputs and leaves the same count for
    rho.
    """
    limit = min(TRIAL_LIMIT, math.isqrt(n))
    # below the first block, split n itself (gcd(n, n) = n) and build no table
    blocks = [(2, n)] if limit < _BLOCK else _block_table()
    charged = 0  # the candidates <= charged are paid for
    for lo, product in blocks:
        if lo > limit:
            break
        for p in _primes_of(math.gcd(n, product), lo):
            if p > limit:
                break
            meter.spend(_candidates_upto(p) - _candidates_upto(charged))
            charged = p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            if first:
                return n
            limit = min(TRIAL_LIMIT, math.isqrt(n))
    meter.spend(max(0, _candidates_upto(limit) - _candidates_upto(charged)))
    return n


def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Dict[int, int]:
    """Prime factorization {p: e} of |n|; n must be nonzero.

    Trial division up to 10^6, then Brent rho on what remains.  Raises
    BudgetExceeded once `budget` units are spent (see the module docstring);
    a negative budget is a ValueError.
    """
    if budget < 0:
        raise ValueError(f"factoring budget must be nonnegative, got {budget}")
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
