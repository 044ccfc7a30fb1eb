"""Finite truncations of the automorphism group of the rooted binary tree.

Elements are portraits: one GF(2) label vector per level, where the node at
level k indexed by the integer value of its (k-1)-bit path prefix (most
significant bit = level-1 choice) swaps its two children iff its bit is set.
Acting on a leaf, bit i of the image is leaf_i XOR the label of the original
prefix of length i-1.  Composition is "right acts first":
act(compose(g, h), x) = act(g, act(h, x)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .indexsets import _support_of

# Largest depth verify_noncommutation accepts: a depth-16 portrait already
# has 2^16 - 1 = 65,535 label bits.
MAX_VERIFY_DEPTH = 16

# Deepest depth verify_noncommutation scans exhaustively when no sample is
# given: 2^7 portraits at depth 3, 2^15 at depth 4.
EXHAUSTIVE_DEPTH = 3

# verify_noncommutation's default sample is DEFAULT_SAMPLE_WORK >> depth pairs
# (a fixed pairs-times-leaves budget): 100,000 at depth 4, 24 at depth 16.
DEFAULT_SAMPLE_WORK = 100_000 << 4
DEFAULT_SEED = 0


class CapExceeded(Exception):
    """Subgroup closure grew past the requested cap."""


@dataclass(frozen=True)
class TreeAut:
    """Depth-n portrait; levels[k-1] is a bitmask over the 2^(k-1) level-k nodes."""

    depth: int
    levels: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if len(self.levels) != self.depth:
            raise ValueError("need one label vector per level")
        for k, mask in enumerate(self.levels, start=1):
            if mask < 0 or mask >> (1 << (k - 1)):
                raise ValueError(f"level {k} labels exceed {1 << (k - 1)} bits")

    @classmethod
    def identity(cls, depth: int) -> "TreeAut":
        return cls(depth, (0,) * depth)

    @classmethod
    def from_strings(cls, bits: Sequence[str]) -> "TreeAut":
        """Parse ["1", "10", "1001", ...]; char j of level k is the node-j bit."""
        levels = []
        for k, s in enumerate(bits, start=1):
            if len(s) != 1 << (k - 1) or set(s) - {"0", "1"}:
                raise ValueError(f"level {k} wants {1 << (k - 1)} bits, got {s!r}")
            mask = 0
            for j, ch in enumerate(s):
                if ch == "1":
                    mask |= 1 << j
            levels.append(mask)
        return cls(len(bits), tuple(levels))

    def to_strings(self) -> List[str]:
        return [
            "".join("1" if (self.levels[k] >> j) & 1 else "0" for j in range(1 << k))
            for k in range(self.depth)
        ]

    def label(self, level: int, node: int) -> int:
        return (self.levels[level - 1] >> node) & 1

    @property
    def is_identity(self) -> bool:
        return not any(self.levels)

    def __str__(self) -> str:
        return "[" + ",".join(self.to_strings()) + "]"


def act_node(g: TreeAut, node: int, length: int) -> int:
    """Image of the level-(length+1) node `node` (a length-bit prefix) under g."""
    if length > g.depth:
        raise ValueError("prefix longer than depth")
    out = 0
    prefix = 0
    for i in range(length):
        bit = (node >> (length - 1 - i)) & 1
        image = bit ^ g.label(i + 1, prefix)
        out = (out << 1) | image
        prefix = (prefix << 1) | bit
    return out


def act(g: TreeAut, leaf: str) -> str:
    """Apply g to a leaf given as a bitstring of length depth."""
    if len(leaf) != g.depth or set(leaf) - {"0", "1"}:
        raise ValueError(f"leaf must be {g.depth} bits, got {leaf!r}")
    node = int(leaf, 2) if leaf else 0
    image = act_node(g, node, g.depth)
    return format(image, f"0{g.depth}b")


def _level_perms(levels: Sequence[int]) -> Iterator[List[int]]:
    """Yield perm[j] = image of the m-bit prefix j for m = 0, 1, ..., each
    built only when asked for, from the level masks of a portrait."""
    perm = [0]
    yield perm
    for mask in levels[:-1]:
        nxt: List[int] = []
        for parent, image in enumerate(perm):
            flip = (mask >> parent) & 1
            nxt += ((image << 1) | flip, (image << 1) | (flip ^ 1))
        perm = nxt
        yield perm


def _compose_level(gmask: int, hmask: int, hperm: List[int]) -> int:
    """Level mask of g after h, from their masks and h's prefix permutation."""
    for j, image in enumerate(hperm):
        if (gmask >> image) & 1:
            hmask ^= 1 << j
    return hmask


def compose(g: TreeAut, h: TreeAut) -> TreeAut:
    """g after h: label at node w is label_h(w) XOR label_g(h(w))."""
    if g.depth != h.depth:
        raise ValueError("depth mismatch")
    parts = zip(g.levels, h.levels, _level_perms(h.levels))
    return TreeAut(g.depth, tuple(_compose_level(gm, hm, perm) for gm, hm, perm in parts))


def _commute(s: Sequence[int], t: Sequence[int]) -> bool:
    """Whether the portraits with level masks s and t commute.

    Compares level k of s after t and of t after s, extending both prefix
    permutations one level at a time and stopping at the first difference.
    """
    levels = zip(s, t, _level_perms(s), _level_perms(t))
    next(levels)  # level 1 of either product is s_1 XOR t_1
    for sm, tm, sperm, tperm in levels:
        if _compose_level(sm, tm, tperm) != _compose_level(tm, sm, sperm):
            return False
    return True


def inverse(g: TreeAut) -> TreeAut:
    """The unique h with compose(g, h) = compose(h, g) = identity: h's label
    at perm[j] is g's label at j, for perm g's prefix permutation."""
    levels: List[int] = []
    for mask, perm in zip(g.levels, _level_perms(g.levels)):
        inv = 0
        for j, image in enumerate(perm):
            if (mask >> j) & 1:
                inv |= 1 << image
        levels.append(inv)
    return TreeAut(g.depth, tuple(levels))


def phi(k: int, g: TreeAut) -> int:
    """Character summing the level-k labels; a homomorphism to GF(2)."""
    if not 1 <= k <= g.depth:
        raise ValueError(f"level {k} out of range 1..{g.depth}")
    return g.levels[k - 1].bit_count() & 1


def abelianization(g: TreeAut) -> Tuple[int, ...]:
    return tuple(phi(k, g) for k in range(1, g.depth + 1))


def tilde_phi(k: int, g: TreeAut) -> int:
    """Half-level character, defined on portraits with zero abelianization.

    Sums the first 2^(k-2) labels of level k, for 2 <= k <= depth.
    """
    if not 2 <= k <= g.depth:
        raise ValueError(f"level {k} out of range 2..{g.depth}")
    if any(abelianization(g)):
        raise ValueError("tilde_phi needs zero abelianization")
    half = 1 << (k - 2)
    return (g.levels[k - 1] & ((1 << half) - 1)).bit_count() & 1


def in_Mv(g: TreeAut, v) -> bool:
    """Whether g lies in the maximal subgroup cut out by the index vector v.

    v is an index vector (or bare iterable of positive levels); membership
    means the XOR over the support of phi(i, g) vanishes.
    """
    support = _support_of(v)
    if support and support[-1] > g.depth:
        raise ValueError("support index exceeds depth")
    acc = 0
    for i in support:
        acc ^= phi(i, g)
    return acc == 0


def _splitter(depth: int) -> Callable[[int], Tuple[int, ...]]:
    """Split a portrait mask into level masks: level k+1 holds the 2^k bits
    from bit 2^k - 1 on, so phi_1 is bit 0 of the portrait mask."""
    fields = [((1 << k) - 1, (1 << (1 << k)) - 1) for k in range(depth)]
    return lambda mask: tuple([(mask >> shift) & width for shift, width in fields])


def enumerate_group(depth: int) -> Iterator[TreeAut]:
    """All 2^(2^depth - 1) elements, in increasing portrait-mask order."""
    split = _splitter(depth)
    return (TreeAut(depth, split(mask)) for mask in range(1 << ((1 << depth) - 1)))


@dataclass(frozen=True)
class SubgroupGens:
    depth: int
    generators: Tuple[TreeAut, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.depth != self.depth:
                raise ValueError("generator depth mismatch")


def closure(gens: SubgroupGens, cap: int = 200_000) -> List[TreeAut]:
    """Breadth-first closure of the generators; deterministic sorted output."""
    seen = {TreeAut.identity(gens.depth)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens.generators:
                y = compose(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen, key=lambda t: t.levels)


def level(gens: SubgroupGens) -> int:
    """Least n such that the image of the subgroup in depth n+1 is nontrivial."""
    nontrivial = [n for g in gens.generators for n, mask in enumerate(g.levels) if mask]
    if not nontrivial:
        raise ValueError("trivial subgroup has no level")
    return min(nontrivial)


def faithful_nodes(gens: SubgroupGens) -> List[str]:
    """Nodes at distance level(gens) under which some element swaps halves.

    Every element fixes those nodes pointwise, so the level-(n+1) labels form
    a homomorphic image and checking generators suffices.
    """
    n = level(gens)
    width = 1 << n
    mask = 0
    for g in gens.generators:
        mask |= g.levels[n]
    return [format(j, f"0{n}b") if n else "" for j in range(width) if (mask >> j) & 1]


def restrict(g: TreeAut, node: str) -> TreeAut:
    """Portrait of the subtree below `node`; g must fix the node."""
    if set(node) - {"0", "1"}:
        raise ValueError(f"node must be a bitstring, got {node!r}")
    m = len(node)
    if m >= g.depth:
        raise ValueError("node too deep to leave a subtree")
    idx = int(node, 2) if node else 0
    if act_node(g, idx, m) != idx:
        raise ValueError(f"element moves node {node!r}")
    levels = []
    for k in range(1, g.depth - m + 1):
        width = 1 << (k - 1)
        block = (g.levels[m + k - 1] >> (idx * width)) & ((1 << width) - 1)
        levels.append(block)
    return TreeAut(g.depth - m, tuple(levels))


def verify_noncommutation(
    depth: int, sample: Optional[int] = None, seed: int = DEFAULT_SEED
) -> Tuple[List[Tuple[TreeAut, TreeAut]], int]:
    """Search for commuting pairs that the half-swap criterion forbids.

    Scans ordered pairs (sigma, tau) with phi_1(tau) = 1 and the class of
    sigma outside {0, class of tau}; any commuting such pair is returned as a
    counterexample.  Exhaustive for depth <= EXHAUSTIVE_DEPTH; beyond that
    (or when `sample` is given) a seeded random sample of pairs is examined,
    by default DEFAULT_SAMPLE_WORK >> depth of them.  Returns the
    counterexample list plus the number of ordered pairs scanned.  Raises
    ValueError for a negative sample or a depth outside 1..MAX_VERIFY_DEPTH.

    Works on level masks: the characters are label parities, and _commute
    decides commutation level by level, with `compose` as its test oracle.
    A TreeAut is built only for a counterexample.
    """
    if not 1 <= depth <= MAX_VERIFY_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_VERIFY_DEPTH}, got {depth}")
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be nonnegative, got {sample}")
    counterexamples: List[Tuple[TreeAut, TreeAut]] = []
    split, size = _splitter(depth), 1 << ((1 << depth) - 1)

    def check(s: Tuple[int, ...], t: Tuple[int, ...]) -> None:
        ab_s = [m.bit_count() & 1 for m in s]
        if any(ab_s) and ab_s != [m.bit_count() & 1 for m in t] and _commute(s, t):
            counterexamples.append((TreeAut(depth, s), TreeAut(depth, t)))

    if sample is None and depth <= EXHAUSTIVE_DEPTH:
        elements = [split(mask) for mask in range(size)]
        taus = elements[1::2]  # the odd portrait masks, where phi_1 = 1
        for sigma in elements:
            for tau in taus:
                check(sigma, tau)
        return counterexamples, len(elements) ** 2

    if sample is None:
        sample = DEFAULT_SAMPLE_WORK >> depth
    draw = random.Random(seed).randrange
    for _ in range(sample):
        sigma, tau = draw(size), draw(size)  # consecutive draws, sigma first
        if tau & 1:
            check(split(sigma), split(tau))
    return counterexamples, sample
