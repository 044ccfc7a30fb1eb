import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import general_pairs, reference_first_hit, reference_orbit

from arboreal import polys
from arboreal.cli import rationals_of_height
from arboreal.dynamics import (
    MAX_ORBIT_N,
    DegeneracyError,
    PCF,
    PCI,
    QuadPair,
    _first_hit,
    _in_critical_orbit,
    _valuation,
    adjusted_orbit,
    in_post_critical_orbit,
    is_exceptional,
    is_pcf,
    iterate,
    orbit_valuations,
    verify_pcf,
)
from arboreal.primes import primes_from

F = Fraction


def test_parse_forms():
    assert QuadPair.parse("1,2,0") == QuadPair(1, 2, 0)
    assert QuadPair.parse("-2,1") == QuadPair(0, 2, 1)  # x^2 - 2 with alpha = 1
    assert QuadPair.parse("-1,-1/2").alpha == F(-1, 2)
    with pytest.raises(ValueError):
        QuadPair.parse("1")
    with pytest.raises(ValueError):
        QuadPair.parse("1,2,3,4")


@pytest.mark.parametrize("text", ["1,,3", "1,2,3,", ",1,3", "1, ,3"])
def test_parse_rejects_blank_fields(text):
    # a blank field is not dropped: "1,,3" is not the normal-form pair (1, 3)
    with pytest.raises(ValueError, match=f"expected 'a,b,alpha' or 'c,alpha', got {text!r}"):
        QuadPair.parse(text)


def test_normal_form_example():
    # (x-1)^2 - 2 with basepoint 0 is conjugate to (x^2 - 3, -1)
    assert QuadPair(1, 2, 0).normal_form() == (F(-3), F(-1))


def test_normal_form_fixed_point():
    pair = QuadPair.from_normal(F(5, 7), F(2))
    assert pair.normal_form() == (F(5, 7), F(2))


def test_normal_form_preserves_adjusted_orbit():
    degenerate = 0
    for pair in general_pairs(5, 200):
        c, beta = pair.normal_form()
        normal = QuadPair.from_normal(c, beta)
        for N in (1, 2, 5, 8):
            raw, adjusted, degeneracy = reference_orbit(pair, N)
            orbit = adjusted_orbit(pair, N)
            assert orbit.raw == raw and orbit.adjusted == adjusted
            assert orbit.degeneracy_index == degeneracy
            assert adjusted_orbit(normal, N).adjusted == adjusted
        degenerate += reference_orbit(pair, 8)[2] is not None
    assert degenerate >= 50


def test_adjusted_orbit_examples():
    assert adjusted_orbit(QuadPair.from_normal(-1, F(-1, 2)), 3).adjusted == (
        F(1, 2),
        F(1, 2),
        F(-1, 2),
    )
    assert adjusted_orbit(QuadPair.from_normal(-2, 0), 5).adjusted == (2, 2, 2, 2, 2)
    orbit = adjusted_orbit(QuadPair.from_normal(0, 1), 4)
    assert orbit.adjusted == (1, -1, -1, -1)
    assert orbit.degeneracy_index is None


def test_raw_orbit_satisfies_the_recurrence():
    # on the normal form the raw values obey c_{n+1} = c_n^2 + c with c_1 = -c
    rng = random.Random(8)
    for _ in range(50):
        c = F(rng.randint(-20, 20), rng.randint(1, 6))
        raw = adjusted_orbit(QuadPair.from_normal(c, 0), 6).raw
        assert raw[0] == -c
        recomputed = -raw[0]
        for n in range(1, 6):
            recomputed = recomputed * recomputed + c
            assert raw[n] == recomputed


def test_adjusted_orbit_degeneracy_index():
    # (x^2 - 1, 0): c_2 = 0 so c_{2,0} vanishes
    orbit = adjusted_orbit(QuadPair.from_normal(-1, 0), 4)
    assert orbit.degeneracy_index == 2
    with pytest.raises(DegeneracyError):
        orbit.require_nondegenerate()


def test_in_post_critical_orbit():
    assert in_post_critical_orbit(QuadPair.from_normal(0, 0))  # (x^2, 0)
    assert in_post_critical_orbit(QuadPair.from_normal(-1, 0))
    assert not in_post_critical_orbit(QuadPair.from_normal(-1, F(-1, 2)))
    # non-integral c: denominators of the orbit grow without bound
    assert not in_post_critical_orbit(QuadPair.from_normal(F(-1, 2), F(5)))
    assert in_post_critical_orbit(QuadPair.from_normal(F(-1, 2), F(-1, 4)))  # f^2(0)
    # integral orbit never meets a non-integral basepoint
    assert not in_post_critical_orbit(QuadPair.from_normal(-1, F(1, 3)))


def test_critical_orbit_hit_is_the_degeneracy_index():
    # every pair of height <= 6, with N cycling through 1..MAX_ORBIT_N: the
    # walk's first hit, when it is at most N, is where adjusted_orbit first
    # finds a vanishing value
    grid = rationals_of_height(6)
    pairs = [(c, beta) for c in grid for beta in grid]
    assert len(pairs) == 2209
    seen = set()
    for i, (c, beta) in enumerate(pairs):
        N = 1 + i % MAX_ORBIT_N
        hit = _in_critical_orbit(c, beta)
        expected = adjusted_orbit(QuadPair.from_normal(c, beta), N).degeneracy_index
        assert (hit if hit is not None and hit <= N else None) == expected
        assert in_post_critical_orbit(QuadPair.from_normal(c, beta)) == (hit is not None)
        seen.add("none" if hit is None else "within" if hit <= N else "past")
    assert seen == {"none", "within", "past"}


def test_is_pcf_census_known_cases():
    assert is_pcf(QuadPair.from_normal(-1, 0)) == PCF(0, 2)
    assert is_pcf(QuadPair.from_normal(0, 0)) == PCF(0, 1)
    assert is_pcf(QuadPair.from_normal(-2, 0)) == PCF(2, 1)


def test_is_pcf_escape_witness():
    verdict = is_pcf(QuadPair.from_normal(1, 0))
    assert isinstance(verdict, PCI)
    assert verdict.witness == "escape"
    assert verdict.index == 3 and verdict.value == 5


def test_is_pcf_valuation_witness():
    verdict = is_pcf(QuadPair.from_normal(F(1, 2), 0))
    assert isinstance(verdict, PCI)
    assert verdict.witness == "valuation"
    assert verdict.index == 1 and verdict.prime == 2


def test_pcf_certificates_replay():
    for c in (0, -1, -2):
        pair = QuadPair.from_normal(c, 0)
        verdict = is_pcf(pair)
        assert isinstance(verdict, PCF)
        assert verify_pcf(pair, verdict)


def test_pcf_replay_depth_is_capped():
    # (x^2, 0): every iterate is 0, so only the cap can stop a deep replay
    pair = QuadPair.from_normal(0, 0)
    assert verify_pcf(pair, PCF(0, MAX_ORBIT_N))
    with pytest.raises(ValueError, match=f"<= {MAX_ORBIT_N}, got {MAX_ORBIT_N + 1}"):
        verify_pcf(pair, PCF(1, MAX_ORBIT_N))


def test_first_hit_exits():
    assert _first_hit(F(-1), F(0), F(-1)) == 1  # z_1 = c
    assert _first_hit(F(-1), F(0), F(0)) == 2  # 0 has period 2 under x^2 - 1
    assert _first_hit(F(-2), F(0), F(0)) is None  # 0 -> -2 -> 2 -> 2 repeats
    assert _first_hit(F(1), F(0), F(1, 3)) is None  # integers, then escape
    assert _first_hit(F(1), F(0), F(26)) == 4  # 1, 2, 5, 26: past 2, below |target|
    assert _first_hit(F(-3, 4), F(-1, 2), F(-1, 2)) == 1  # a fixed point
    # 1/2 -> 0 -> -1/4 under x^2 - 1/4: the first step lowers the denominator
    # and the walk ends when it rises past den(1/2)
    assert _first_hit(F(-1, 4), F(1, 2), F(1, 2)) is None


def test_first_hit_integral_orbit_skips_non_integral_target(monkeypatch):
    steps = []

    def counting_iterate(c, z):
        for w in iterate(c, z):
            steps.append(w)
            yield w

    monkeypatch.setattr("arboreal.dynamics.iterate", counting_iterate)
    # every iterate of 0 under x^2 + 1 is an integer, so 1/3 is never hit
    assert _first_hit(F(1), F(0), F(1, 3)) is None
    assert steps == []
    assert _first_hit(F(1), F(0), F(26)) == 4 and len(steps) == 4


def test_first_hit_matches_reference_walk():
    # both uses, the critical orbit (z = 0) and the period (z = target), on
    # every (c, t) of height <= 10, against the Fraction walk
    grid = rationals_of_height(10)
    cases = hits = 0
    for c in grid:
        for t in grid:
            for z in (F(0), t):
                got = _first_hit(c, z, t)
                assert got == reference_first_hit(c, z, t), (c, z, t)
                cases += 1
                hits += got is not None
    assert (cases, hits) == (32258, 167)


def test_first_hit_huge_denominator():
    D = 10**60 + 7
    c = F(1, D)
    zs = list(itertools.islice(iterate(c, F(0)), 4))
    # z_3 + 1 has z_3's denominator but is missed; D^3 is no D^(2^(n-1))
    targets = zs + [zs[2] + 1, F(1, D**3), F(0), F(5)]
    assert [_first_hit(c, F(0), t) for t in targets] == [1, 2, 3, 4, None, None, None, None]
    for t in targets:
        for z in (F(0), t):
            assert _first_hit(c, z, t) == reference_first_hit(c, z, t)


def test_first_hit_steps_only_the_candidate_index(monkeypatch):
    # z = 0, non-integral c: den(z_n) = den(c)^(2^(n-1)), so the walk forms
    # z_1..z_n for the one n that matches den(target), and nothing when no
    # n does
    steps = []

    def counting_iterate(c, z):
        for w in iterate(c, z):
            steps.append(w)
            yield w

    grid = rationals_of_height(6)
    cases = []
    for c in grid:
        if c.denominator > 1:
            orbit = list(itertools.islice(iterate(c, F(0)), 4))
            cases += [(c, t) for t in grid + orbit + [orbit[-1] - 1]]
    monkeypatch.setattr("arboreal.dynamics.iterate", counting_iterate)
    stepped = set()
    for c, t in cases:
        candidate = next((n for n in range(1, 6) if c.denominator ** (1 << (n - 1)) == t.denominator), None)
        steps.clear()
        hit = _first_hit(c, F(0), t)
        assert len(steps) == (candidate or 0)
        assert hit in (None, candidate)
        stepped.add(len(steps))
    assert stepped == {0, 1, 2, 3, 4}


def test_pcf_integral_sweep():
    pcf = [c for c in range(-60, 61) if isinstance(is_pcf(QuadPair.from_normal(c, 0)), PCF)]
    assert pcf == [-2, -1, 0]


def test_is_exceptional_examples():
    assert is_exceptional(QuadPair(3, -3, 3))  # (x-3)^2 + 3 with alpha = 3
    assert not is_exceptional(QuadPair.from_normal(0, 1))
    assert not is_exceptional(QuadPair.from_normal(-2, 0))


# --- exact Q[x] reference: ascending Fraction coefficient lists -------------


def exact_iterates(c, depth):
    """f^1(x), ..., f^depth(x) over Q for f = x^2 + c, iterating g <- g^2 + c."""
    g, iterates = [F(0), F(1)], []
    for _ in range(depth):
        square = [F(0)] * (2 * len(g) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(g):
                square[i + j] += a * b
        square[0] += c
        g = square
        iterates.append(g)
    return iterates


def _exact_rem(f, g):
    r = list(f)
    while len(r) >= len(g):
        coeff = r[-1] / g[-1]
        shift = len(r) - len(g)
        for i, b in enumerate(g):
            r[shift + i] -= coeff * b
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def distinct_root_count(f):
    """deg f - deg gcd(f, f') for f of degree >= 1 over Q."""
    a, b = f, [i * x for i, x in enumerate(f)][1:]
    while b:
        a, b = b, _exact_rem(a, b)
    return len(f) - len(a)


def backward_orbit_sizes(pair, depth):
    """Independent oracle: count distinct preimages of alpha over the
    algebraic closure via squarefree degrees of the iterate polynomials."""
    c, beta = pair.normal_form()
    return [distinct_root_count([f[0] - beta] + f[1:]) for f in exact_iterates(c, depth)]


def test_fp_level_poly_against_exact_reduction():
    """polys.level_poly is None exactly when p divides a denominator of the
    exact level polynomial, and is its coefficientwise reduction otherwise.
    The good-reduction predicate (polys.orbit_mod is not None: every
    c_{i,beta}, i <= n, a p-adic unit) holds exactly when the reduction
    exists and is square-free."""
    values = rationals_of_height(4)
    primes = list(itertools.islice(primes_from(3), 40))
    for c in values:
        for (n, iterate), beta in itertools.product(enumerate(exact_iterates(c, 3), 1), values):
            exact = [iterate[0] - beta] + iterate[1:]
            den = math.lcm(*(q.denominator for q in exact))
            scaled = [q.numerator * (den // q.denominator) for q in exact]
            for p in primes:
                got = polys.level_poly(c, beta, n, p)
                if den % p == 0:  # p divides some coefficient's denominator
                    assert got is None, (c, beta, n, p)
                else:
                    inv = pow(den, -1, p)
                    assert got == [a * inv % p for a in scaled], (c, beta, n, p)
                good = got is not None and polys.factor_degrees(got, p) is not None
                assert (polys.orbit_mod(c, beta, p, n) is not None) == good, (c, beta, n, p)


def test_exceptional_matches_preimage_counting():
    rng = random.Random(6)
    pairs = [QuadPair(3, -3, 3), QuadPair(0, 0, 0), QuadPair(F(1, 2), F(-1, 2), F(1, 2))]
    for _ in range(40):
        pairs.append(
            QuadPair(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        )
    for pair in pairs:
        collapsed = all(size == 1 for size in backward_orbit_sizes(pair, 3))
        assert is_exceptional(pair) == collapsed


def test_orbit_valuations_negative_pattern():
    report = orbit_valuations(F(1, 2), 2, 6)
    assert report.pattern == "negative"
    assert report.values == (-1, -2, -4, -8, -16, -32)
    assert report.conformant


def test_orbit_valuations_rigid_pattern():
    report = orbit_valuations(5, 2, 12)
    assert report.pattern == "rigid"
    assert report.n0 == 2
    assert report.conformant
    assert report.values == tuple(1 if n % 2 == 0 else 0 for n in range(1, 13))

    report = orbit_valuations(3, 3, 12)
    assert report.n0 == 1
    assert report.conformant
    assert report.values == (1,) * 12


def test_orbit_valuations_no_positive_index():
    report = orbit_valuations(1, 7, 8)
    if report.n0 is None:
        assert report.values == (0,) * 8
    assert report.conformant


def test_orbit_valuations_vanishing_error():
    with pytest.raises(DegeneracyError):
        orbit_valuations(-1, 3, 12)  # c_2 = 0 for x^2 - 1
    with pytest.raises(DegeneracyError):
        orbit_valuations(0, 3, 2)


def test_orbit_valuations_rejects_composite():
    with pytest.raises(ValueError):
        orbit_valuations(5, 6, 4)


def test_valuation_matches_repeated_division():
    def one_at_a_time(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    rng = random.Random(3)
    for p in (2, 3, 5, 7, 101):
        for _ in range(60):
            unit = rng.choice([-1, 1]) * rng.randrange(1, 10**12)
            k, j = rng.randrange(0, 300), rng.randrange(0, 300)
            q = F(unit * p**k, rng.randrange(1, 10**6) * p**j)
            expected = one_at_a_time(q.numerator, p) - one_at_a_time(q.denominator, p)
            assert _valuation(q, p) == expected
    report = orbit_valuations(F(1, 3), 3, 18)
    assert report.values == tuple(-(1 << n) for n in range(18)) and report.conformant
