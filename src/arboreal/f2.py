"""Sparse vectors over GF(2) with tagged labels, plus exact linear algebra.

Labels carry a fixed total order

    SIGN < Prime(2) < Prime(3) < ... < Base(...) < Index(1) < Index(2) < ...

and the package's one elimination kernel is an echelon of int bitmasks
keyed by their top bit (_insert).  rank and in_span give each label of a
call the bit of its place in that order (never of its value, so a label
of 10^10 costs one bit), the smallest label the top bit, so elimination
pivots on the smallest label of a support and every result is
deterministic for any input order.  Its three users are index vectors
(labels: positive integers), the gcd-free fallback for square classes
(labels: sign marker and primes, or opaque coprime-base elements), and the
span sketch of squares._span_rank, whose bits are the span's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

_KIND_SIGN = 0
_KIND_PRIME = 1
_KIND_BASE = 2
_KIND_INDEX = 3

_KIND_NAMES = {_KIND_SIGN: "sign", _KIND_PRIME: "p", _KIND_BASE: "b", _KIND_INDEX: "i"}


class Label(NamedTuple):
    kind: int
    value: int

    def __str__(self) -> str:
        if self.kind == _KIND_SIGN:
            return "sign"
        return f"{_KIND_NAMES[self.kind]}:{self.value}"

    def __repr__(self) -> str:
        return f"Label({self})"


SIGN = Label(_KIND_SIGN, 0)


def prime_label(p: int) -> Label:
    if p < 2:
        raise ValueError(f"not a prime: {p}")
    return Label(_KIND_PRIME, p)


def base_label(b: int) -> Label:
    if b <= 1:
        raise ValueError(f"base elements must exceed 1: {b}")
    return Label(_KIND_BASE, b)


def index_label(i: int) -> Label:
    if i < 1:
        raise ValueError(f"indices are positive: {i}")
    return Label(_KIND_INDEX, i)


@dataclass(frozen=True)
class F2Vector:
    """A finite subset of labels, read as a vector of GF(2)^(labels)."""

    support: frozenset

    def __post_init__(self) -> None:
        kinds = {lab.kind for lab in self.support} - {_KIND_SIGN}
        if len(kinds) > 1:
            raise ValueError("mixed label kinds in one vector: %s" % sorted(self.support))

    @classmethod
    def from_labels(cls, labels: Iterable[Label]) -> "F2Vector":
        return cls(frozenset(labels))

    @property
    def is_zero(self) -> bool:
        return not self.support

    def sorted_labels(self) -> tuple:
        return tuple(sorted(self.support))

    def __add__(self, other: "F2Vector") -> "F2Vector":
        return F2Vector(self.support ^ other.support)

    def __len__(self) -> int:
        return len(self.support)

    def __str__(self) -> str:
        return "{" + ",".join(str(l) for l in self.sorted_labels()) + "}"

    def to_json(self) -> list:
        return [str(l) for l in self.sorted_labels()]


ZERO = F2Vector(frozenset())


def _insert(rows: Dict[int, int], mask: int) -> bool:
    """Reduce the bitmask mask by the echelon rows, keyed by their top bit,
    and keep what is left; True when it was independent of them."""
    while mask:
        row = rows.get(mask.bit_length())
        if row is None:
            rows[mask.bit_length()] = mask
            return True
        mask ^= row
    return False


def _restrict(kernel: List[int], mask: int) -> List[int]:
    """The part of the span of the independent bitmasks kernel on which the
    character with bitmask mask is +1, as independent bitmasks: one pivot
    elimination, which drops at most one vector."""
    hit = [b for b in kernel if (b & mask).bit_count() & 1]
    if not hit:
        return kernel
    return [b for b in kernel if not (b & mask).bit_count() & 1] + [b ^ hit[0] for b in hit[1:]]


def _masks(vectors: Sequence[F2Vector]) -> List[int]:
    """The vectors as bitmasks over their labels, each bit given by the
    label's place in the sorted order, the smallest label the top bit, so
    _insert pivots on the smallest label of a support."""
    order = sorted(set().union(*(v.support for v in vectors)), reverse=True)
    bit = {label: 1 << k for k, label in enumerate(order)}
    return [sum(bit[label] for label in v.support) for v in vectors]


def rank(vectors: Sequence[F2Vector]) -> int:
    """Dimension of the GF(2)-span of the given vectors."""
    rows: Dict[int, int] = {}
    return sum(_insert(rows, mask) for mask in _masks(vectors))


def in_span(v: F2Vector, vectors: Sequence[F2Vector]) -> Optional[tuple]:
    """Certificate that v lies in the span of `vectors`, or None.

    The certificate is a sorted tuple of indices into `vectors` whose sum is
    exactly v; the zero vector yields the empty tuple.  Check membership with
    `is not None` (the empty certificate is falsy).
    """
    *masks, target = _masks([*vectors, v])
    n = len(masks)
    rows: Dict[int, int] = {}
    # the low n bits of a row name the inputs that sum to it
    for i, mask in enumerate(masks):
        _insert(rows, mask << n | 1 << i)
    target <<= n
    while target >> n:
        row = rows.get(target.bit_length())
        if row is None:
            return None
        target ^= row
    return tuple(i for i in range(n) if target >> i & 1)
