"""Finite-level dynamical Galois data for quadratic pairs over Q.

Covers: containment of the arboreal image in a maximal subgroup M_v (a
square test on a product of adjusted-orbit values), the dimension of the
orbit span modulo squares, the exact level-2 splitting-field group, a
Frobenius cycle-type sampler used only as a cross-validation oracle, a local
infinite-ramification test at odd primes, and the abelian-pair classifier
with replayable certificates.

The sampler reads good reduction off the adjusted orbit: an odd prime p is
good for f^n(x) - beta exactly when c_{1,beta}, ..., c_{n,beta} are p-adic
units, by the discriminant formula for quadratic iterates (R. Jones, J.
London Math. Soc. 78, 2008).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice, takewhile
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from . import polys
from .dynamics import (
    DegeneracyError,
    PCI,
    QuadPair,
    _in_critical_orbit,
    _valuation,
    adjusted_orbit,
    in_post_critical_orbit,
    is_exceptional,
    is_pcf,
)
from .indexsets import _support_of
from .primes import is_probable_prime, primes_from, sieve
from .squares import (
    QuadElement,
    is_perfect_square,
    is_square_int,
    is_square_in_quad,
    quad_independent,
    span_dimension,
    sqrt_exact,
)

Rational = Union[int, Fraction]

DEFAULT_ORBIT_BUDGET = 24  # largest support index contained_in_Mv accepts
DEFAULT_PRIME_BOUND = 100  # odd primes scanned by the local ramification test
DEFAULT_DIM_N = 12  # orbit values spanned by the faithful-node certificate
_BACKWARD_DEPTH = 8  # backward-orbit levels walked for a quadratic field
_ZERO_CYCLE_CACHE = 4096  # (c mod p, p) keys whose cycle of 0 is kept
_SIEVE_LIMIT = 10**5  # the ramification test sieves its primes up to here


class GroupId(Enum):
    C1 = "C1"
    C2 = "C2"
    V4 = "V4"
    C4 = "C4"
    D8 = "D8"

    @property
    def order(self) -> int:
        return {"C1": 1, "C2": 2, "V4": 4, "C4": 4, "D8": 8}[self.value]

    @property
    def abelian(self) -> bool:
        return self is not GroupId.D8


def contained_in_Mv(pair: QuadPair, v, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> bool:
    """Whether the arboreal image lies in the maximal subgroup named by v.

    Equivalent to the product of the adjusted-orbit values over the support
    of v being a rational square.  The empty support names the full group and
    returns True for any pair; otherwise the basepoint must avoid the
    post-critical orbit.
    """
    support = _support_of(v)
    if not support:
        return True
    if support[0] < 1:
        raise ValueError("support indices are positive")
    if support[-1] > orbit_budget:
        raise ValueError(f"support index {support[-1]} exceeds orbit budget {orbit_budget}")
    if in_post_critical_orbit(pair):
        raise DegeneracyError("basepoint lies in the post-critical orbit")
    orbit = adjusted_orbit(pair, support[-1])
    prod = Fraction(1)
    for i in support:
        prod *= orbit.adjusted[i - 1]
    return is_perfect_square(prod)


def ab_dimension(pair: QuadPair, N: int) -> int:
    """dim of the span of the first N adjusted-orbit values modulo squares."""
    orbit = adjusted_orbit(pair, N)
    orbit.require_nondegenerate(N)
    return span_dimension(orbit.adjusted)


# --- exact level-2 group ----------------------------------------------------


def _radicand_field(q: Fraction) -> Tuple[int, Fraction]:
    """(d, m) with q = d * m^2: d = num(q) * den(q) and m = 1/den(q).

    Square-free d is not needed, so nothing is factored; d is a square
    exactly when q is.
    """
    return q.numerator * q.denominator, Fraction(1, q.denominator)


@dataclass(frozen=True)
class Level2Data:
    group: GroupId
    c1: Fraction
    c2: Fraction
    case: str
    details: dict
    phi_image: FrozenSet[Tuple[int, int]]  # realized (phi_1, phi_2) values


def level2_data(pair: QuadPair) -> Level2Data:
    """Galois group of the level-2 splitting field, with its case analysis.

    On the normal form (x^2 + c, beta) the level-2 polynomial is the
    biquadratic x^4 + 2c x^2 + q with q = c_{2,beta}, and the roots are
    +-sqrt(d) for d = -c +- sqrt(c_{1,beta}):

      * both classes of c_{1,beta}, c_{2,beta} nontrivial and distinct -> D8;
      * c_{1,beta} a rational square s^2 -> splitting field generated by
        sqrt(-c + s), sqrt(-c - s): C1/C2/V4 by rational square tests;
      * otherwise d lives in K = Q(sqrt(c_{1,beta})); if d is a square in K
        the quartic splits over K and the group is C2; else the group has
        order 4, V4 when q is a square and C4 when c_{1,beta} * q is.

    K is written Q(sqrt(num * den)) for c_{1,beta} = num/den, which needs no
    factorization: sqrt(c_{1,beta}) = sqrt(num * den) / den.
    """
    c, beta = pair.normal_form()
    c1 = beta - c
    c2 = c * c + c - beta
    if c1 == 0 or c2 == 0:
        raise DegeneracyError("level-2 data needs nonvanishing c_1 and c_2")
    sq1 = sqrt_exact(c1) is not None
    sq2 = sqrt_exact(c2) is not None
    sq12 = sqrt_exact(c1 * c2) is not None
    phi1 = 0 if sq1 else 1
    phi2 = 0 if sq2 else 1

    def image(*gens: Tuple[int, int]) -> FrozenSet[Tuple[int, int]]:
        span = {(0, 0)}
        for g in gens:
            span |= {(a ^ g[0], b ^ g[1]) for (a, b) in span}
        return frozenset(span)

    if not sq1 and not sq2 and not sq12:
        return Level2Data(GroupId.D8, c1, c2, "independent-classes", {}, image((1, 0), (0, 1)))

    if sq1:
        s = sqrt_exact(c1)
        d_plus, d_minus = -c + s, -c - s
        sqp = sqrt_exact(d_plus) is not None
        sqm = sqrt_exact(d_minus) is not None
        details = {"d_plus": d_plus, "d_minus": d_minus}
        if sqp and sqm:
            group = GroupId.C1
        elif sqp or sqm or sq2:
            # one rational root pair, or conjugate quadratic subfields
            group = GroupId.C2
        else:
            group = GroupId.V4
        return Level2Data(group, c1, c2, "rational-halves", details, image((0, phi2)))

    d, m = _radicand_field(c1)
    d_plus = QuadElement(-c, m, d)
    witness = is_square_in_quad(d_plus)
    if witness is not None:
        return Level2Data(
            GroupId.C2, c1, c2, "splits-over-quadratic",
            {"d": d, "witness": witness}, image((1, 0)),
        )
    if sq2:
        return Level2Data(GroupId.V4, c1, c2, "biquadratic-V4", {"d": d}, image((1, 0)))
    assert sq12, "one of the three square tests must succeed here"
    return Level2Data(GroupId.C4, c1, c2, "biquadratic-C4", {"d": d}, image((1, 1)))


def level2_galois(pair: QuadPair) -> GroupId:
    return level2_data(pair).group


# --- Frobenius sampling oracle ----------------------------------------------

# Partition sets realizable by each group acting on the four level-2 roots,
# one set per conjugacy flavor inside the level-2 tree group.
_FLAVORS: Dict[GroupId, Tuple[FrozenSet[Tuple[int, ...]], ...]] = {
    GroupId.C1: (frozenset({(1, 1, 1, 1)}),),
    GroupId.C2: (
        frozenset({(1, 1, 1, 1), (1, 1, 2)}),
        frozenset({(1, 1, 1, 1), (2, 2)}),
    ),
    GroupId.V4: (
        frozenset({(1, 1, 1, 1), (2, 2)}),
        frozenset({(1, 1, 1, 1), (1, 1, 2), (2, 2)}),
    ),
    GroupId.C4: (frozenset({(1, 1, 1, 1), (2, 2), (4,)}),),
    GroupId.D8: (frozenset({(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)}),),
}


@dataclass(frozen=True)
class FrobeniusReport:
    level: int
    primes: Tuple[int, ...]
    partitions: Dict[Tuple[int, ...], int]
    compatible: Optional[FrozenSet[GroupId]]


def _level_data(pair: QuadPair, level: int) -> Tuple[Fraction, Fraction, Tuple[Fraction, ...]]:
    """(c, beta, (c_{1,beta}, ..., c_{level,beta})); DegeneracyError when one
    vanishes, since the level polynomial is then square-free modulo no prime.
    """
    orbit = adjusted_orbit(pair, level)
    orbit.require_nondegenerate(level)
    c, beta = pair.normal_form()
    return c, beta, orbit.adjusted


def _good_reduction(adjusted: Sequence[Fraction], p: int) -> bool:
    """Whether the odd prime p is good: every adjusted value is a p-adic unit."""
    return all(v.numerator % p and v.denominator % p for v in adjusted)


def good_primes(pair: QuadPair, level: int, count: int) -> List[int]:
    """First `count` odd primes of good reduction for the level polynomial.

    p is good when it divides no denominator of f^level(x) - beta, for the
    normal form (x^2 + c, beta), and that polynomial is square-free mod p.
    Its discriminant is +-2^e prod_{i <= level} c_{i,beta}^(2^(level-i))
    (Jones 2008), so an odd p is good exactly when c_{1,beta}, ...,
    c_{level,beta} are p-adic units: nothing is built or factored.  Raises
    ValueError for a negative count and DegeneracyError when an
    adjusted-orbit value vanishes by `level`.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    _, _, adjusted = _level_data(pair, level)
    good = (p for p in primes_from(3) if _good_reduction(adjusted, p))
    return list(islice(good, count))


def frobenius_sample(pair: QuadPair, level: int, primes: Sequence[int]) -> FrobeniusReport:
    """Degree partitions of the level polynomial modulo good primes.

    An independent, Chebotarev-style oracle: with enough primes every
    Frobenius class appears, so the observed partition set matches the
    cycle-type set of some flavor of the true group.  The compatible set
    collects the level-2 groups with a flavor matching exactly; at level 3 no
    group catalogue is attached (sampling evidence only).  Never used as
    ground truth.  The prime 2 and the odd primes at which some c_{n,beta},
    n <= level, is not a p-adic unit (bad reduction, Jones 2008) are skipped.
    """
    if level not in (2, 3):
        raise ValueError("sampling supports levels 2 and 3")
    c, beta, adjusted = _level_data(pair, level)
    partitions: Dict[Tuple[int, ...], int] = {}
    used: List[int] = []
    for p in primes:
        if p == 2 or not _good_reduction(adjusted, p):
            continue
        key = tuple(polys.factor_degrees(polys.level_poly(c, beta, level, p), p))
        partitions[key] = partitions.get(key, 0) + 1
        used.append(p)
    if not used:
        raise ValueError("no primes of good reduction supplied")
    compatible: Optional[FrozenSet[GroupId]] = None
    if level == 2:
        observed = frozenset(partitions)
        compatible = frozenset(
            gid for gid, flavors in _FLAVORS.items() if observed in flavors
        )
    return FrobeniusReport(level, tuple(used), partitions, compatible)


# --- local ramification test ------------------------------------------------


@dataclass(frozen=True)
class PoonenResult:
    """Outcome of the odd-place infinite-ramification test for x^2 + c."""

    condition: Optional[str]  # "a", "b", or None for inconclusive
    p: int
    details: str

    @property
    def infinitely_ramified(self) -> bool:
        return self.condition is not None


@lru_cache(maxsize=_ZERO_CYCLE_CACHE)
def _zero_cycle(c_mod: int, p: int) -> Optional[FrozenSet[int]]:
    """The cycle of 0 under x^2 + c_mod modulo p, or None when 0 is not
    periodic.  The orbit stops at its first repeated value: 0 is periodic
    exactly when that value is 0.
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


def _poonen_at(c: Fraction, alpha: Fraction, c_mod: int, p: int) -> PoonenResult:
    """poonen_check for an odd prime p and c_mod = c mod p, both already known."""
    alpha_mod = polys.reduce_mod(alpha, p)
    if alpha_mod is None:
        return PoonenResult("a", p, f"v_{p}(alpha) = {_valuation(alpha, p)} < 0")
    cycle = _zero_cycle(c_mod, p)
    if cycle is None:
        return PoonenResult(None, p, "0 is not periodic modulo p")
    if alpha_mod not in cycle:
        return PoonenResult(None, p, "alpha misses the modular orbit of 0")
    if _in_critical_orbit(c, alpha):
        return PoonenResult(None, p, "alpha lies in the exact orbit of 0")
    return PoonenResult(
        "b", p, f"0 periodic mod {p} with period {len(cycle)}, alpha on the orbit"
    )


def poonen_check(c: Rational, alpha: Rational, p: int) -> PoonenResult:
    """Infinite ramification of the local tower at an odd prime p.

    Requires v_p(c) >= 0.  Fires when (a) v_p(alpha) < 0, or (b) 0 is
    periodic modulo p, alpha meets that modular orbit, and alpha is not in
    the exact orbit of 0.  Either condition rules out an abelian image, since
    an infinitely ramified pro-2 extension of Q_p is non-abelian.  The cycle
    of 0 mod p is cached per (c mod p, p) in at most _ZERO_CYCLE_CACHE
    entries, each holding fewer than p residues.
    """
    c, alpha = Fraction(c), Fraction(alpha)
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"the test needs an odd prime, got {p}")
    c_mod = polys.reduce_mod(c, p)
    if c_mod is None:
        raise ValueError("the test needs v_p(c) >= 0")
    return _poonen_at(c, alpha, c_mod, p)


@lru_cache(maxsize=8)
def _sieved_odd_primes(bound: int) -> Tuple[int, ...]:
    return tuple(sieve(bound)[1:])


def _odd_primes_upto(bound: int) -> Iterator[int]:
    """Odd primes <= bound: sieved up to _SIEVE_LIMIT, tested one by one above."""
    yield from _sieved_odd_primes(min(bound, _SIEVE_LIMIT))
    if bound > _SIEVE_LIMIT:
        yield from takewhile(lambda p: p <= bound, primes_from(_SIEVE_LIMIT + 1))


def nonabelian_prime_search(
    pair: QuadPair, bound: int = DEFAULT_PRIME_BOUND
) -> Optional[Tuple[int, str, Fraction]]:
    """First odd prime <= bound where the local test fires, scanning the
    normal-form basepoint and, when the first preimage is rational, both
    rational preimages.  Returns (prime, condition, basepoint) or None.

    c is reduced once per prime, and the cycle of 0 mod p comes from the
    cache poonen_check shares, keyed by (c mod p, p): its memory is bounded
    by the cache size (_ZERO_CYCLE_CACHE) times the period, which is below
    `bound`.
    """
    c, beta = pair.normal_form()
    basepoints = [beta]
    shift = sqrt_exact(beta - c)
    if shift is not None and shift != 0:
        basepoints.extend([shift, -shift])
    for p in _odd_primes_upto(bound):
        c_mod = polys.reduce_mod(c, p)
        if c_mod is None:  # v_p(c) < 0
            continue
        for bp in basepoints:
            result = _poonen_at(c, bp, c_mod, p)
            if result.infinitely_ramified:
                return p, result.condition, bp
    return None


# --- abelian classification --------------------------------------------------

_ABELIAN_TABLE = {
    (Fraction(0), Fraction(1)): "powering-map",
    (Fraction(0), Fraction(-1)): "powering-map",
    (Fraction(-2), Fraction(0)): "degree-2-chebyshev",
    (Fraction(-2), Fraction(1)): "degree-2-chebyshev",
    (Fraction(-2), Fraction(-1)): "degree-2-chebyshev",
    (Fraction(-2), Fraction(2)): "degree-2-chebyshev",
    (Fraction(-2), Fraction(-2)): "degree-2-chebyshev",
}


def _independent_classes(c1: Fraction, c2: Fraction) -> bool:
    """Whether none of c1, c2, c1*c2 (nonzero) is a rational square.

    num/den is a square exactly when num*den is, so the three tests run on
    integers; Level2D8Cert.replay decides the same through sqrt_exact.
    """
    q1 = c1.numerator * c1.denominator
    q2 = c2.numerator * c2.denominator
    return not (is_square_int(q1) or is_square_int(q2) or is_square_int(q1 * q2))


@dataclass(frozen=True)
class Level2D8Cert:
    c1: Fraction
    c2: Fraction

    kind = "Level2D8"

    def replay(self) -> bool:
        return (
            self.c1 != 0
            and self.c2 != 0
            and sqrt_exact(self.c1) is None
            and sqrt_exact(self.c2) is None
            and sqrt_exact(self.c1 * self.c2) is None
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "c1": str(self.c1), "c2": str(self.c2)}


@dataclass(frozen=True)
class PoonenPrimeCert:
    prime: int
    condition: str
    c: Fraction
    basepoint: Fraction

    kind = "PoonenPrime"

    def replay(self) -> bool:
        result = poonen_check(self.c, self.basepoint, self.prime)
        return result.condition == self.condition

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "prime": self.prime,
            "condition": self.condition,
            "c": str(self.c),
            "basepoint": str(self.basepoint),
        }


@dataclass(frozen=True)
class FaithfulNode2DimCert:
    c1: Fraction
    values: Tuple[Fraction, ...]

    kind = "FaithfulNode2Dim"

    def replay(self) -> bool:
        if self.c1 == 0 or any(v == 0 for v in self.values):
            return False
        if sqrt_exact(self.c1) is not None:
            return False
        return span_dimension(self.values) >= 2

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "c1": str(self.c1),
            "values": [str(v) for v in self.values],
        }


@dataclass(frozen=True)
class QuadFieldD8Cert:
    d: int  # num * den of the radicand: not a square, not always square-free
    chain: Tuple[Fraction, ...]  # rational backward orbit from the basepoint
    radicand: Fraction  # final preimage equation x^2 = radicand, irrational
    e1: Tuple[Fraction, Fraction]  # c_{1,s} as (rational, sqrt-coefficient)
    e2: Tuple[Fraction, Fraction]

    kind = "QuadFieldD8"

    def replay(self) -> bool:
        x1 = QuadElement(self.e1[0], self.e1[1], self.d)
        x2 = QuadElement(self.e2[0], self.e2[1], self.d)
        return quad_independent([x1, x2]) == 2

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "chain": [str(t) for t in self.chain],
            "radicand": str(self.radicand),
            "c1_shifted": [str(self.e1[0]), str(self.e1[1])],
            "c2_shifted": [str(self.e2[0]), str(self.e2[1])],
        }


Certificate = Union[Level2D8Cert, PoonenPrimeCert, FaithfulNode2DimCert, QuadFieldD8Cert]


@dataclass(frozen=True)
class AbelianVerdict:
    status: str  # "abelian" | "nonabelian" | "not_applicable"
    tag: Optional[str]
    certificate: Optional[Certificate]
    provenance: str
    note: Optional[str] = None

    @property
    def is_abelian(self) -> Optional[bool]:
        if self.status == "abelian":
            return True
        if self.status == "nonabelian":
            return False
        return None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "tag": self.tag,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "provenance": self.provenance,
            "note": self.note,
        }


def replay_certificate(cert: Certificate) -> bool:
    return cert.replay()


def _quad_field_search(c: Fraction, beta: Fraction) -> Optional[QuadFieldD8Cert]:
    """Walk the rational backward orbit of beta, _BACKWARD_DEPTH levels deep;
    at the first irrational preimage sqrt(t - c) test the two shifted orbit
    values for independence modulo squares in Q(sqrt(d)).
    """
    c1_raw = -c
    c2_raw = c * c + c
    queue: List[Tuple[Fraction, Tuple[Fraction, ...]]] = [(beta, (beta,))]
    visited = {beta}
    for _ in range(_BACKWARD_DEPTH):
        next_queue: List[Tuple[Fraction, Tuple[Fraction, ...]]] = []
        for t, chain in queue:
            radicand = t - c
            if radicand == 0:
                child = Fraction(0)
                if child not in visited:
                    visited.add(child)
                    next_queue.append((child, chain + (child,)))
                continue
            s = sqrt_exact(radicand)
            if s is not None:
                for child in (s, -s):
                    if child not in visited:
                        visited.add(child)
                        next_queue.append((child, chain + (child,)))
                continue
            d, m = _radicand_field(radicand)
            e1 = QuadElement(c1_raw, m, d)
            e2 = QuadElement(c2_raw, -m, d)
            if quad_independent([e1, e2]) == 2:
                return QuadFieldD8Cert(
                    d, chain, radicand, (e1.a, e1.b), (e2.a, e2.b)
                )
        queue = next_queue
        if not queue:
            break
    return None


def classify_abelian(
    pair: QuadPair,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    dim_N: int = DEFAULT_DIM_N,
) -> AbelianVerdict:
    """Decide whether the dynamical Galois group of the pair is abelian.

    Exceptional basepoints are not applicable (their group is finite, trivial
    after a finite base extension).  The abelian pairs are exactly the seven
    normal forms (x^2, +-1) and (x^2 - 2, beta) with beta in {0, +-1, +-2};
    everything else is non-abelian and the classifier attaches the first
    replayable certificate it finds, trying in order: the level-2 D8
    criterion, the local ramification test, the level-0 faithful-node
    dimension argument, and the level-2 computation over a quadratic field
    reached through the rational backward orbit.  `prime_bound` caps the
    odd primes of the ramification test and `dim_N` the orbit values of the
    dimension argument; the backward orbit is walked _BACKWARD_DEPTH levels
    deep.  No step factors an integer, so the verdict never depends on a
    factoring budget.  dim_N < 1 or prime_bound < 0 is a ValueError.
    """
    if dim_N < 1 or prime_bound < 0:
        raise ValueError(f"need dim_N >= 1 and prime_bound >= 0, got {dim_N} and {prime_bound}")
    c, beta = pair.normal_form()
    if is_exceptional(pair):
        return AbelianVerdict(
            "not_applicable",
            "exceptional",
            None,
            "finite-backward-orbit",
            "the group is finite exactly for exceptional basepoints",
        )
    tag = _ABELIAN_TABLE.get((c, beta))
    if tag is not None:
        return AbelianVerdict("abelian", tag, None, "abelian-pair-table", None)

    c1 = beta - c
    c2 = c * c + c - beta

    # 1. level-2 D8 criterion
    if c1 != 0 and c2 != 0 and _independent_classes(c1, c2):
        return AbelianVerdict("nonabelian", None, Level2D8Cert(c1, c2), "level2-d8", None)

    # 2. local ramification at an odd prime
    found = nonabelian_prime_search(pair, prime_bound)
    if found is not None:
        p, condition, basepoint = found
        cert2 = PoonenPrimeCert(p, condition, c, basepoint)
        return AbelianVerdict("nonabelian", None, cert2, "local-ramification", None)

    # 3. faithful root plus a >= 2-dimensional orbit span
    if sqrt_exact(c1) is None and not in_post_critical_orbit(pair):
        orbit = adjusted_orbit(pair, dim_N)
        for n in range(2, dim_N + 1):
            values = orbit.adjusted[:n]
            if span_dimension(values) >= 2:
                cert3 = FaithfulNode2DimCert(c1, values)
                return AbelianVerdict("nonabelian", None, cert3, "level0-faithful-dimension", None)

    # 4. level-2 computation over a quadratic field from the backward orbit
    cert4 = _quad_field_search(c, beta)
    if cert4 is not None:
        return AbelianVerdict("nonabelian", None, cert4, "quadratic-field-level2", None)

    # No certificate: the verdict still follows from the classification.
    verdict = is_pcf(pair)
    if isinstance(verdict, PCI):
        note = (
            "post-critically infinite (witness: %s at step %d), and abelian "
            "images force post-critical finiteness" % (verdict.witness, verdict.index)
        )
        return AbelianVerdict("nonabelian", None, None, "pci-forces-nonabelian", note)
    return AbelianVerdict(
        "nonabelian",
        None,
        None,
        "abelian-table-complement",
        "outside the exhaustive abelian list; no finite certificate within budgets",
    )
