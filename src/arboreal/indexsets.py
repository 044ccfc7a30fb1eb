"""Finite-support index vectors, finite families standing in for infinite
sets of maximal-subgroup labels, progression and coprimality predicates, and
the Bertrand-postulate family.

A family here is always a finite prefix of the infinite set the theory
quantifies over, so coprimality reports carry explicit witness sequences and
an unboundedness flag rather than a claim.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .f2 import F2Vector, in_span, index_label
from .primes import sieve

MAX_BERTRAND_TERM = 5 * 10**4  # largest Bertrand term: `bertrand --upto 50000 --check-coprime` takes about 2.5 s


def _is_interval(support: Sequence[int]) -> bool:
    """Whether a sorted support of distinct indices is {first, ..., last}."""
    return bool(support) and support[-1] - support[0] + 1 == len(support)


def parse_ints(text: str, what: str) -> List[int]:
    """Comma-separated integers; a bad token is a ValueError naming `what`."""
    values = []
    for token in text.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{what}: {token.strip()!r} is not an integer") from None
    return values


def _support_of(v) -> Tuple[int, ...]:
    """Sorted support of an IndexVector or of a bare iterable of levels."""
    support = getattr(v, "support", v)
    return tuple(sorted(set(support)))


class IndexVector:
    """Finite sorted set of positive integers; a range stays range-backed,
    so prefix vectors {1..n} stay O(1) in memory."""

    __slots__ = ("support",)

    def __init__(self, support: Iterable[int]):
        if isinstance(support, range):
            if support.step < 1 or (len(support) and support[0] < 1):
                raise ValueError("support must be increasing positive integers")
            seq: Sequence[int] = support
        else:
            seq = tuple(sorted(set(int(i) for i in support)))
            if seq and seq[0] < 1:
                raise ValueError("support must be positive integers")
        self.support = seq

    @classmethod
    def prefix(cls, n: int) -> "IndexVector":
        """The vector with support {1, ..., n}."""
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> "IndexVector":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"index vectors look like '{{1,4,5}}', got {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls(())
        return cls(parse_ints(inner, f"index vector {text!r}"))

    @property
    def is_zero(self) -> bool:
        return len(self.support) == 0

    def to_f2(self) -> F2Vector:
        return F2Vector.from_labels(index_label(i) for i in self.support)

    def __len__(self) -> int:
        return len(self.support)

    def __iter__(self):
        return iter(self.support)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexVector):
            return NotImplemented
        s, t = self.support, other.support
        if isinstance(s, range) and isinstance(t, range):
            return s == t  # compares start, length and step only
        return len(s) == len(t) and all(a == b for a, b in zip(s, t))

    def __hash__(self) -> int:
        # Equal supports hash equal in either storage; a range-backed
        # interval hashes without building its tuple.
        s = self.support
        return hash((s[0], len(s)) if _is_interval(s) else tuple(s))

    def __repr__(self) -> str:
        if len(self.support) > 8:
            return f"IndexVector(<{len(self.support)} indices, max {self.support[-1]}>)"
        return "IndexVector({%s})" % ",".join(str(i) for i in self.support)


@dataclass
class IndexFamily:
    """A finite list of pairwise distinct index vectors."""

    members: List[IndexVector] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for m in self.members:
            if m in seen:
                raise ValueError(f"duplicate member {m!r}")
            seen.add(m)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def is_progression(v: IndexVector, k: int, length: int) -> bool:
    """Whether the support is exactly {s, s+k, ..., s+(length-1)k}."""
    if k < 1 or length < 1:
        raise ValueError("k and length must be positive")
    if len(v) != length:
        return False
    s = v.support
    return all(s[i + 1] - s[i] == k for i in range(length - 1))


@dataclass(frozen=True)
class ProgressingReport:
    ok: bool
    offenders: Tuple[int, ...]  # member indices failing the progression shape
    span_results: Tuple[Tuple[bool, Optional[Tuple[int, ...]], bool], ...]
    # per target: (in span?, certificate indices, is a progression?)


def progressing_witness(
    family: IndexFamily,
    k: int,
    length: int,
    span_targets: Sequence[IndexVector] = (),
) -> ProgressingReport:
    """Check the progression shape over a family, or over requested span
    elements.

    Plain mode: every member must be a (k, length)-progression.  Span mode
    additionally checks each requested target: it must lie in the GF(2) span
    of the members (witnessed by a summing certificate) and be a
    (k, length)-progression itself.
    """
    offenders = tuple(
        i for i, m in enumerate(family.members) if not is_progression(m, k, length)
    )
    span_results = []
    if span_targets:
        basis = [m.to_f2() for m in family.members]
        for target in span_targets:
            cert = in_span(target.to_f2(), basis)
            span_results.append(
                (cert is not None, cert, is_progression(target, k, length))
            )
    ok = not offenders and all(inside and prog for inside, _, prog in span_results)
    return ProgressingReport(ok, offenders, tuple(span_results))


@dataclass(frozen=True)
class MCoprimeReport:
    ok: bool
    witnesses: Tuple[Optional[int], ...]
    max_witness_sequence: Tuple[int, ...]  # prefix maxima over found witnesses
    unbounded_evidence: bool
    failures: Tuple[int, ...]  # member indices with no witness


def _witness_valid(i: int, support: Sequence[int], M: int) -> bool:
    """gcd(i, j) = 1 for every j in the support above M other than i.

    On an interval [first, last] the others above M fill [L, last], with
    L = max(first, M + 1), so i > M is valid iff i = 1 or its smallest prime
    factor exceeds b = max(i - L, last - i) (the nearest multiples of p | i
    are i - p and i + p): trial division up to min(b, isqrt(i)), then i > b
    in case i is prime.  Other supports take the gcd passes, the tests'
    reference for this rule.
    """
    if _is_interval(support):
        b = max(i - max(support[0], M + 1), support[-1] - i)
        return i == 1 or (i > b and all(i % d for d in range(2, min(b, math.isqrt(i)) + 1)))
    # Cheap pass: small shared factors show up against early support entries.
    scanned = 0
    for j in support:
        if j <= M or j == i:
            continue
        if math.gcd(i, j) > 1:
            return False
        scanned += 1
        if scanned >= 128:
            break
    else:
        return True
    # Full pass: gcd(i, prod of the others) = gcd(i, prod mod i).
    r = 1
    for j in support:
        if j <= M or j == i:
            continue
        r = r * j % i
        if r == 0:
            return i == 1  # i divides the product; only i = 1 stays coprime
    return math.gcd(i, r) == 1


def m_coprime_witness(family: IndexFamily, M: int) -> MCoprimeReport:
    """Largest-index coprimality witnesses above the threshold M.

    For each member, the witness is the largest support index i > M with
    gcd(i, j) = 1 for every other support index j > M.  A finite family can
    only evidence unboundedness, never establish it: the flag records that
    the maximal witness over the whole family strictly exceeds the maximal
    witness over its first half, i.e. the witnesses were still growing.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    witnesses: List[Optional[int]] = []
    failures: List[int] = []
    for idx, member in enumerate(family.members):
        found: Optional[int] = None
        for i in reversed(member.support):
            if i <= M:
                break
            if _witness_valid(i, member.support, M):
                found = i
                break
        witnesses.append(found)
        if found is None:
            failures.append(idx)
    found_seq = [w for w in witnesses if w is not None]
    prefix_max: List[int] = []
    for w in found_seq:
        prefix_max.append(w if not prefix_max else max(prefix_max[-1], w))
    half = len(found_seq) // 2
    unbounded = half >= 1 and prefix_max[-1] > prefix_max[half - 1]
    return MCoprimeReport(
        not failures, tuple(witnesses), tuple(prefix_max), unbounded, tuple(failures)
    )


@dataclass(frozen=True)
class BertrandFamily:
    family: IndexFamily
    witnesses: Tuple[int, ...]


def bertrand_family(a: Sequence[int]) -> BertrandFamily:
    """Members with support {1..a_n} plus coprimality witnesses.

    The witness for a_n = 1 is 1; otherwise it is the largest prime
    p <= a_n, and 2p > a_n must hold (Bertrand's postulate guarantees it, so
    a failure is a build-stopping bug).  A term above MAX_BERTRAND_TERM is a
    ValueError: the primes up to the last term are sieved.
    """
    if not a:
        raise ValueError("need at least one term")
    if a[-1] > MAX_BERTRAND_TERM:
        raise ValueError(f"need terms <= {MAX_BERTRAND_TERM}, got {a[-1]}")
    prev = 0
    for t in a:
        if t <= prev:
            raise ValueError("terms must be strictly increasing positive integers")
        prev = t
    limit = a[-1]
    primes = sieve(limit)
    members = []
    witnesses = []
    for term in a:
        members.append(IndexVector.prefix(term))
        if term == 1:
            witnesses.append(1)
            continue
        pos = bisect.bisect_right(primes, term)
        if pos == 0:
            raise AssertionError("no prime at most %d" % term)
        p = primes[pos - 1]
        if 2 * p <= term:
            raise AssertionError("postulate violation: largest prime %d <= %d/2" % (p, term))
        witnesses.append(p)
    return BertrandFamily(IndexFamily(members), tuple(witnesses))
