"""Finite-level dynamical Galois data for quadratic pairs over Q.

Covers: containment of the arboreal image in a maximal subgroup M_v (a
square test on a product of adjusted-orbit values), the dimension of the
orbit span modulo squares, the exact level-2 splitting-field group, a
Frobenius cycle-type sampler used only as a cross-validation oracle, a local
infinite-ramification test at odd primes, and the abelian-pair classifier
with replayable certificates.  Containment and the span dimension read
the square classes of the adjusted orbit off an integer walk
(_orbit_classes), and build no orbit value.

The sampler reads good reduction off polys.orbit_mod: an odd prime p is
good for f^n(x) - beta exactly when c_{1,beta}, ..., c_{n,beta} are p-adic
units, by the discriminant formula for quadratic iterates (R. Jones, J.
London Math. Soc. 78, 2008).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from .dynamics import (
    DegeneracyError,
    PCI,
    QuadPair,
    _as_json,
    _check_depth,
    _in_critical_orbit,
    _valuation,
    in_post_critical_orbit,
    is_exceptional,
    is_pcf,
    iterate,
)
from .indexsets import _support_of
from .polys import _residue_condition, _zero_cycle, factor_degrees, level_poly, orbit_mod, reduce_mod
from .primes import is_probable_prime, odd_primes, primes_from
from .squares import (
    QuadElement,
    _is_square_in_quad_int,
    _span_rank,
    _square_product,
    is_square_int,
    quad_independent,
    span_dimension,
    sqrt_exact,
)

Rational = Union[int, Fraction]

DEFAULT_PRIME_BOUND = 100  # odd primes scanned by the local ramification test
DEFAULT_DIM_N = 12  # orbit values spanned by the faithful-node certificate
_BACKWARD_DEPTH = 8  # backward-orbit levels walked for a quadratic field
MAX_PRIME_BOUND = 10**6  # largest prime_bound: the ramification test sieves up to it
MAX_GOOD_PRIMES = 10**4  # largest good_primes count: 10^4 level-2 primes take about 1.7 s


class GroupId(Enum):
    C1 = "C1"
    C2 = "C2"
    V4 = "V4"
    C4 = "C4"
    D8 = "D8"

    @property
    def abelian(self) -> bool:
        return self is not GroupId.D8


def contained_in_Mv(pair: QuadPair, v) -> bool:
    """Whether the arboreal image lies in the maximal subgroup named by v.

    Equivalent to the product of the adjusted-orbit values over the support
    of v being a rational square, that is the product of their classes
    from _orbit_classes, which squares._square_product decides by quadratic
    characters before any exact test.  The empty support names the full
    group and returns True for any pair; otherwise the basepoint must avoid
    the post-critical orbit, and a support index above MAX_ORBIT_N is a
    ValueError, whatever the pair.
    """
    support = _support_of(v)
    if not support:
        return True
    if support[0] < 1:
        raise ValueError("support indices are positive")
    _check_depth(support[-1], "support indices")
    if in_post_critical_orbit(pair):
        raise DegeneracyError("basepoint lies in the post-critical orbit")
    ms = list(islice(_orbit_classes(*_terms(pair)), support[-1]))
    return _square_product([ms[i - 1] for i in support])


def _nondegenerate_form(pair: QuadPair, N: int) -> Tuple[Fraction, Fraction]:
    """The normal form (c, beta).  ValueError when N < 1 or N > MAX_ORBIT_N,
    then DegeneracyError when c_{n,beta} vanishes for some n <= N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_depth(N, "N")
    c, beta = pair.normal_form()
    n = _in_critical_orbit(c, beta)
    if n is not None and n <= N:
        raise DegeneracyError(f"c_{n} equals the basepoint shift (vanishing value)")
    return c, beta


def ab_dimension(pair: QuadPair, N: int) -> int:
    """dim of the span of the first N adjusted-orbit values modulo squares,
    read off their classes from _orbit_classes: no orbit value is built.
    N < 1 or N > MAX_ORBIT_N is a ValueError, and a vanishing value a
    DegeneracyError, both from _nondegenerate_form."""
    _nondegenerate_form(pair, N)
    return _span_rank(list(islice(_orbit_classes(*_terms(pair)), N)))


# --- exact level-2 group ----------------------------------------------------


def _terms(pair: QuadPair) -> Tuple[int, int, int, int]:
    """(a, b, r, s) with c = a/b and beta = r/s, the normal form in lowest
    terms, b and s positive."""
    c, beta = pair.normal_form()
    return c.numerator, c.denominator, beta.numerator, beta.denominator


def _level2_classes(a: int, b: int, r: int, s: int) -> Tuple[int, int]:
    """(q1, q2) = ((rb - as)sb, (a^2 s + abs - rb^2)s) for c = a/b, beta = r/s:
    in the square classes of c_1 = beta - c = (rb - as)/(sb) and c_2 = c^2 +
    c - beta = (a^2 s + abs - rb^2)/(b^2 s), and 0 exactly when they are.
    The first two items of _orbit_classes, without a generator."""
    return (r * b - a * s) * s * b, (a * a * s + a * b * s - r * b * b) * s


def _orbit_classes(a: int, b: int, r: int, s: int) -> Iterator[int]:
    """Integers m_1, m_2, ... in the square classes of c_1, c_2, ... for c =
    a/b and beta = r/s (b, s > 0), each 0 exactly when its c_n is, with no
    Fraction and no gcd.

    The first two items are _level2_classes.  Past them the critical orbit
    z_n = Z_n/D_n is stepped on integers from Z_2 = a(a + b) and D_2 = b^2:
    D_{n+1} = D_n^2 and Z_{n+1} = Z_n^2 + a D_{n+1}/b.  For n >= 2, D_n =
    b^(2^(n-1)) is a square, so c_n = z_n - beta = (Z_n s - r D_n)/(D_n s)
    has the class of m_n = (Z_n s - r D_n)s.
    """
    yield from _level2_classes(a, b, r, s)
    Z, D = a * (a + b), b * b
    while True:
        D_next = D * D
        Z = Z * Z + a * (D_next // b)
        D = D_next
        yield (Z * s - r * D) * s


def _shifted_values(c: Fraction, radicand: Fraction) -> Tuple[int, int, int, int]:
    """(d, A1, A2, B) for e1 = -c + sqrt(radicand) and e2 = c^2 + c -
    sqrt(radicand) in Q(sqrt(d)), d = num * den of the non-square radicand
    (unfactored).  With c = a/b and R = den(radicand), sqrt(radicand) =
    sqrt(d)/R, and scaling by the square (bR)^2 makes e1 = A1 + B*sqrt(d)
    and e2 = A2 - B*sqrt(d): A1 = -abR^2, A2 = (a^2 + ab)R^2, B = b^2 R."""
    a, b = c.numerator, c.denominator
    R = radicand.denominator
    return radicand.numerator * R, -a * b * R * R, (a * a + a * b) * R * R, b * b * R


def _independent_classes(q1: int, q2: int) -> bool:
    """Whether rationals c1, c2 (nonzero) have independent classes in
    Q*/Q*^2, none of c1, c2, c1*c2 being a square, given q1 and q2 that are
    num*den of c1 and c2 times nonzero squares.  Asked by level 2,
    classifier steps 1 and 3 and the survey.

    num/den is a square exactly when num*den is, and so is any square
    multiple of it: the three tests run on integers, with no fraction
    reduced.  The certificates replay through sqrt_exact and span_dimension.
    """
    return not (is_square_int(q1) or is_square_int(q2) or is_square_int(q1 * q2))


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

    Every test runs on integers: the classes of _level2_classes, and d and
    -c + sqrt(c_{1,beta}) = e1 of _shifted_values, with one norm test.
    """
    c, beta = pair.normal_form()
    q1, q2 = _level2_classes(*_terms(pair))
    if q1 == 0 or q2 == 0:
        raise DegeneracyError("level-2 data needs nonvanishing c_1 and c_2")
    c1 = beta - c
    c2 = c * c + c - beta

    def image(*gens: Tuple[int, int]) -> FrozenSet[Tuple[int, int]]:
        span = {(0, 0)}
        for g in gens:
            span |= {(a ^ g[0], b ^ g[1]) for (a, b) in span}
        return frozenset(span)

    if _independent_classes(q1, q2):
        return Level2Data(GroupId.D8, c1, c2, "independent-classes", {}, image((1, 0), (0, 1)))

    sq2 = is_square_int(q2)
    s = sqrt_exact(c1)
    if s is not None:
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
        return Level2Data(group, c1, c2, "rational-halves", details, image((0, 0 if sq2 else 1)))

    d, a1, _, b1 = _shifted_values(c, c1)
    if _is_square_in_quad_int(a1, b1, d):
        return Level2Data(GroupId.C2, c1, c2, "splits-over-quadratic", {"d": d}, image((1, 0)))
    if sq2:
        return Level2Data(GroupId.V4, c1, c2, "biquadratic-V4", {"d": d}, image((1, 0)))
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


def good_primes(pair: QuadPair, level: int, count: int) -> List[int]:
    """First `count` odd primes of good reduction for the level polynomial.

    p is good when it divides no denominator of f^level(x) - beta, for the
    normal form (x^2 + c, beta), and that polynomial is square-free mod p.
    Its discriminant is +-2^e prod_{i <= level} c_{i,beta}^(2^(level-i))
    (Jones 2008), so an odd p is good exactly when c_{1,beta}, ...,
    c_{level,beta} are p-adic units, which polys.orbit_mod reads mod p.
    Raises ValueError for a count outside 0..MAX_GOOD_PRIMES, then the errors
    of _nondegenerate_form(pair, level), before any prime is scanned.
    """
    if not 0 <= count <= MAX_GOOD_PRIMES:
        raise ValueError(f"count must be nonnegative and <= {MAX_GOOD_PRIMES}, got {count}")
    c, beta = _nondegenerate_form(pair, level)
    good = (p for p in primes_from(3) if orbit_mod(c, beta, p, level) is not None)
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
    c, beta = _nondegenerate_form(pair, level)
    partitions: Dict[Tuple[int, ...], int] = {}
    used: List[int] = []
    for p in primes:
        if p == 2 or orbit_mod(c, beta, p, level) is None:
            continue
        key = tuple(factor_degrees(level_poly(c, beta, level, p), p))
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


def poonen_check(c: Rational, alpha: Rational, p: int) -> PoonenResult:
    """Infinite ramification of the local tower at an odd prime p.

    Requires v_p(c) >= 0.  Fires when (a) v_p(alpha) < 0, or (b) 0 is
    periodic modulo p, alpha meets that modular orbit, and alpha is not in
    the exact orbit of 0.  Either condition rules out an abelian image, since
    an infinitely ramified pro-2 extension of Q_p is non-abelian.  The
    residues and the cycle of 0 mod p come from polys.
    """
    c, alpha = Fraction(c), Fraction(alpha)
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"the test needs an odd prime, got {p}")
    c_mod = reduce_mod(c.numerator, c.denominator, p)
    if c_mod is None:
        raise ValueError("the test needs v_p(c) >= 0")
    cycle = _zero_cycle(c_mod, p)
    condition = _residue_condition(alpha.numerator, alpha.denominator, cycle, p)
    if condition == "a":
        details = f"v_{p}(alpha) = {_valuation(alpha, p)} < 0"
    elif cycle is None:
        details = "0 is not periodic modulo p"
    elif condition is None:
        details = "alpha misses the modular orbit of 0"
    elif _in_critical_orbit(c, alpha) is not None:
        condition, details = None, "alpha lies in the exact orbit of 0"
    else:
        details = f"0 periodic mod {p} with period {len(cycle)}, alpha on the orbit"
    return PoonenResult(condition, p, details)


def nonabelian_prime_search(
    pair: QuadPair, bound: int = DEFAULT_PRIME_BOUND
) -> Optional[Tuple[int, str, Fraction]]:
    """First odd prime <= bound where the local test fires, scanning the
    normal-form basepoint and, when the first preimage is rational, both
    rational preimages.  Returns (prime, condition, basepoint) or None.

    The primes come from a cached sieve: a bound above MAX_PRIME_BOUND is a
    ValueError.  Each basepoint's exact-orbit question is asked once, before
    the scan, and a basepoint on the exact orbit of 0 is dropped: it never
    fires at a prime p with v_p(c) >= 0, the only primes scanned, since
    b = z_n is a polynomial in c with integer coefficients, so (a) cannot
    hold, and (b) excludes b by definition.  The scan then reads residues
    only, from polys: c and each basepoint mod p, and the cycle of 0 mod p.
    """
    c, beta = pair.normal_form()
    basepoints = [beta]
    shift = sqrt_exact(beta - c)
    if shift is not None and shift != 0:
        basepoints.extend([shift, -shift])
    if bound > MAX_PRIME_BOUND:
        raise ValueError(f"need prime_bound <= {MAX_PRIME_BOUND}, got {bound}")
    points = [(bp, bp.numerator, bp.denominator) for bp in basepoints if _in_critical_orbit(c, bp) is None]
    c_num, c_den = c.numerator, c.denominator
    for p in odd_primes(bound):
        c_mod = reduce_mod(c_num, c_den, p)
        if c_mod is None:  # v_p(c) < 0
            continue
        cycle = _zero_cycle(c_mod, p)
        for bp, num, den in points:
            condition = _residue_condition(num, den, cycle, p)
            if condition is not None:
                return p, condition, bp
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


@dataclass(frozen=True)
class QuadFieldD8Cert:
    d: int  # num * den of the radicand: not a square, not always square-free
    chain: Tuple[Fraction, ...]  # rational backward orbit from the basepoint
    radicand: Fraction  # final preimage equation x^2 = radicand, irrational
    c1_shifted: Tuple[Fraction, Fraction]  # c_{1,s} as (rational, sqrt-coefficient)
    c2_shifted: Tuple[Fraction, Fraction]

    kind = "QuadFieldD8"

    def replay(self) -> bool:
        x1 = QuadElement(*self.c1_shifted, self.d)
        x2 = QuadElement(*self.c2_shifted, self.d)
        return quad_independent([x1, x2]) == 2


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
        return _as_json(self)


def replay_certificate(cert: Certificate) -> bool:
    return cert.replay()


def _quad_field_search(c: Fraction, beta: Fraction) -> Optional[QuadFieldD8Cert]:
    """Walk the rational backward orbit of beta, _BACKWARD_DEPTH levels deep;
    at the first irrational preimage sqrt(t - c) test the two shifted orbit
    values for independence modulo squares in Q(sqrt(d)).

    The values e1, e2 of _shifted_values(c, t - c) are independent exactly
    when none of e1, e2 and e1*e2 is a square (none is 0: B != 0), each
    decided by squares._is_square_in_quad_int.  e1*e2 has sqrt(d) part
    B(A2 - A1) = a(a + 2b) b^2 R^3, rational exactly at c = a/b in {0, -2}.
    The certificate writes sqrt(t - c) as sqrt(d)/R and replays the same
    test over QuadElements.
    """
    queue: List[Tuple[Fraction, Tuple[Fraction, ...]]] = [(beta, (beta,))]
    visited = {beta}
    for _ in range(_BACKWARD_DEPTH):
        next_queue: List[Tuple[Fraction, Tuple[Fraction, ...]]] = []
        for t, chain in queue:
            radicand = t - c
            s = sqrt_exact(radicand)
            if s is not None:
                for child in (s, -s):
                    if child not in visited:
                        visited.add(child)
                        next_queue.append((child, chain + (child,)))
                continue
            d, a1, a2, b1 = _shifted_values(c, radicand)
            if not (
                _is_square_in_quad_int(a1, b1, d)
                or _is_square_in_quad_int(a2, -b1, d)
                or _is_square_in_quad_int(a1 * a2 - d * b1 * b1, b1 * (a2 - a1), d)
            ):
                m = Fraction(1, radicand.denominator)
                return QuadFieldD8Cert(d, chain, radicand, (-c, m), (c * c + c, -m))
        queue = next_queue
        if not queue:
            break
    return None


# status and provenance of a level-2 D8 verdict, which the survey also
# reaches on integers without building the verdict
D8_STATUS = "nonabelian"
D8_PROVENANCE = "level2-d8"


def _check_settings(prime_bound: int, dim_N: int) -> None:
    """ValueError unless 0 <= prime_bound <= MAX_PRIME_BOUND and dim_N >= 1."""
    if dim_N < 1 or not 0 <= prime_bound <= MAX_PRIME_BOUND:
        raise ValueError(
            f"need dim_N >= 1 and {MAX_PRIME_BOUND} >= prime_bound >= 0, got {dim_N} and {prime_bound}"
        )


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
    factoring budget.  dim_N < 1, prime_bound < 0 or prime_bound >
    MAX_PRIME_BOUND is a ValueError, whichever step the pair reaches.
    """
    _check_settings(prime_bound, dim_N)
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

    terms = _terms(pair)
    q1, q2 = _level2_classes(*terms)
    c1 = beta - c

    # 1. level-2 D8 criterion
    if q1 and q2 and _independent_classes(q1, q2):
        return AbelianVerdict(D8_STATUS, None, Level2D8Cert(c1, c * c + c - beta), D8_PROVENANCE, None)

    # 2. local ramification at an odd prime
    found = nonabelian_prime_search(pair, prime_bound)
    if found is not None:
        p, condition, basepoint = found
        cert2 = PoonenPrimeCert(p, condition, c, basepoint)
        return AbelianVerdict("nonabelian", None, cert2, "local-ramification", None)

    # 3. faithful root plus a >= 2-dimensional orbit span: with c1 not a
    # square, span(c_1..c_n) >= 2 first at the first c_n outside {1, c1};
    # the classes are tested on integers, and c_1..c_n built for the
    # certificate only
    if not is_square_int(q1) and not in_post_critical_orbit(pair):
        classes = islice(_orbit_classes(*terms), 1, dim_N)  # m_2, ..., m_dim_N
        for n, m in enumerate(classes, start=2):
            if _independent_classes(q1, m):
                values = (c1, *(z - beta for z in islice(iterate(c, c), n - 1)))
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
