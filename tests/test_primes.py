"""Trial division by block gcds against the per-candidate loop it replaced,
and the bit-cost charge of Brent rho."""

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
    _brent_rho,
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


# p * q with p = 16777259, the first prime past 2^24, which rho finds in a few
# thousand steps, and q the first prime past 2^bits + 12345
RHO_P = 16_777_259


def rho_composite(bits):
    return RHO_P * next_prime(2**bits + 12345)


def rho_spent(n, budget):
    """What _brent_rho(n) charged: on a split, or when it ran out."""
    meter = _Budget(budget)
    try:
        assert _brent_rho(n, meter) == RHO_P
    except BudgetExceeded as exc:
        assert exc.budget == budget
        return exc.spent
    return budget - meter.left


def test_rho_charges_one_unit_per_step_up_to_181_bits():
    # the step counts of the unweighted charge: a cofactor of at most 181
    # bits spends exactly what it spent when every step cost one unit
    n = rho_composite(156)
    assert n.bit_length() == 181
    assert rho_spent(n, 10**6) == 3454  # the steps to split n
    # out of budget: the same spent as when each block was charged after it ran
    assert [rho_spent(n, b) for b in (0, 1151, 3453)] == [1, 1534, 3454]


def test_rho_charges_w_per_step_above_181_bits():
    n = rho_composite(337)
    assert n.bit_length() == 362
    w = 362**2 >> 14
    assert w == 7
    assert rho_spent(n, 10**6) == 13566 * w  # 13566 steps to split n
    assert [rho_spent(n, b) for b in (0, 4522 * w, 13565 * w)] == [w, 6142 * w, 13566 * w]


class Modulus(int):
    """An odd composite that counts the reductions modulo itself."""

    reductions = 0

    def __rmod__(self, other):
        Modulus.reductions += 1
        return other % int(self)


class CountingBudget(_Budget):
    """A meter that logs, at each charge, the reductions done so far."""

    __slots__ = ("log",)

    def __init__(self, budget):
        super().__init__(budget)
        self.log = []

    def spend(self, n=1):
        self.log.append((Modulus.reductions, n))
        super().spend(n)


@pytest.mark.parametrize("bits", [156, 337])
def test_no_rho_step_runs_before_it_is_charged(bits):
    # a rho step reduces once or twice modulo n: none runs before the first
    # charge, and between two charges at most twice the steps the earlier one
    # paid for, so the charge that overdraws the budget comes before its steps
    n = rho_composite(bits)
    w = max(1, n.bit_length() ** 2 >> 14)
    steps = rho_spent(n, 10**6) // w
    for budget in (0, w * (steps // 3), w * (steps - 1)):
        Modulus.reductions = 0
        meter = CountingBudget(budget)
        with pytest.raises(BudgetExceeded):
            _brent_rho(Modulus(n), meter)
        log = meter.log + [(Modulus.reductions, None)]
        assert log[0][0] == 0
        for (before, charge), (after, _) in zip(log, log[1:]):
            assert charge % w == 0
            assert after - before <= 2 * charge // w


# psi_12, the least strong pseudoprime to the prime bases 2 to 37, and
# psi_13 for the bases 2 to 41 (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_miller_rabin_is_exact_below_psi_13():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_probable_prime(PSI_12)
    assert is_probable_prime(399165290221) and is_probable_prime(798330580441)
    assert factorize(PSI_12, 20_000_000) == {399165290221: 1, 798330580441: 1}
    # the bound is sharp: psi_13 passes every base up to 41
    assert PSI_13 == 1287836182261 * 2575672364521 and is_probable_prime(PSI_13)
