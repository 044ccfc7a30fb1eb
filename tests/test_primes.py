"""Trial division by block gcds against the per-candidate loop it replaced."""

import itertools
import math
import random

import pytest

from arboreal import primes
from arboreal.cli import main
from arboreal.primes import (
    TRIAL_LIMIT,
    BudgetExceeded,
    _BLOCK,
    _Budget,
    _trial_divide,
    factorize,
    is_probable_prime,
)


def probe_each(n, out, meter, first=False):
    """Reference: probe 2, 3, 5 and the wheel prime to 30 one candidate at a
    time, one budget operation each, while d <= TRIAL_LIMIT and d^2 <= n."""
    d = 2
    steps = itertools.chain((1, 2, 2), itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6)))
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


def next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


def prev_prime(n):
    while not is_probable_prime(n):
        n -= 1
    return n


# the primes on either side of every block boundary, and at TRIAL_LIMIT
EDGE_PRIMES = sorted(
    {p for lo in range(_BLOCK, TRIAL_LIMIT, _BLOCK) for p in (prev_prime(lo - 1), next_prime(lo))}
    | {999_983, next_prime(TRIAL_LIMIT)}
)


def cases():
    rng = random.Random(12)
    small = [2, 3, 5, 7, 11, 13, 31, 97, 32_749, 32_771, 65_521, 999_979, 999_983]
    yield from (2, 3, 4, 6, 25, 49, 10**6, (10**6 + 3) ** 2)
    edges = math.prod(EDGE_PRIMES)  # every prime next to a block boundary or TRIAL_LIMIT
    yield edges
    yield edges * next_prime(10**40)
    for _ in range(6):  # seeded n of 2 to 700 bits
        bits = rng.randint(2, 700)
        yield rng.getrandbits(bits) | 1 << (bits - 1)
    for p in small + EDGE_PRIMES[::8]:  # prime powers, alone and times a cofactor
        yield p ** rng.randint(2, 5)
        yield p ** rng.randint(1, 3) * next_prime(rng.getrandbits(rng.randint(20, 36)))
    for _ in range(12):  # several edge primes, some repeated, and a cofactor
        n = 1
        for p in rng.sample(small + EDGE_PRIMES, rng.randint(1, 5)):
            n *= p ** rng.randint(1, 3)
        yield n * rng.choice([1, 3, next_prime(rng.getrandbits(rng.randint(25, 400)))])
    for _ in range(8):  # the d^2 > n stop inside a block, before or after a division
        lo = rng.randrange(_BLOCK, 6 * _BLOCK, _BLOCK)
        q1 = next_prime(rng.randrange(lo, lo + _BLOCK // 2))
        q2 = next_prime(rng.randrange(q1 + 1, lo + _BLOCK))
        yield q1 * q2
        yield rng.choice([2, 7, 32_771]) * q1 * q2
        yield next_prime(q1 * q1 + rng.randrange(q1))


def run(divide, n, budget, first):
    meter = _Budget(budget)
    out = {}
    try:
        rest = divide(n, out, meter, first)
    except BudgetExceeded:
        return None
    return rest, out, meter.left


@pytest.mark.parametrize("first", [False, True])
def test_block_gcds_match_the_per_candidate_loop(first):
    for n in cases():
        rest, out, left = run(probe_each, n, 10**7, first)
        probes = 10**7 - left
        assert run(_trial_divide, n, 10**7, first) == (rest, out, left), n
        # the budget runs out on exactly the same n: at the probe count, not at one less
        assert run(_trial_divide, n, probes, first) == (rest, out, 0), n
        if probes:
            assert run(_trial_divide, n, probes - 1, first) is None, n


def test_budget_exceeded_carries_spent_and_budget():
    p, q = next_prime(10**6 + 10), next_prime(2 * 10**6)
    with pytest.raises(BudgetExceeded) as info:
        factorize(p * q, budget=10)
    assert info.value.budget == 10
    assert info.value.spent > 10
    assert str(info.value) == "factorization budget exhausted"


def test_negative_budget_is_a_value_error():
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        factorize(12, budget=-1)
    assert factorize(1, budget=0) == {}


def test_block_table_is_built_only_past_the_first_block(capsys):
    primes._block_table.cache_clear()
    try:
        for argv in (
            ["classify", "-1,-1/2"],
            ["survey", "--c-height", "3", "--alpha-height", "3"],
            ["pcf", "1/6"],
        ):
            assert main(argv) == 0
            assert primes._block_table.cache_info().currsize == 0, argv
        assert main(["abdim", "1/3,2", "-N", "6"]) == 0
        assert primes._block_table.cache_info().currsize == 1
    finally:
        capsys.readouterr()


def test_factorize_splits_a_perfect_square_past_trial_division():
    # both primes lie past the trial limit, so _split meets (p*q)^2 whole and
    # takes its square root before rho
    p = next_prime(TRIAL_LIMIT + 1)
    q = next_prime(p + 1)
    assert (p, q) == (1_000_003, 1_000_033)
    assert factorize((p * q) ** 2) == {p: 2, q: 2}
