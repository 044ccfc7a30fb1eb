"""Quadratic pairs over Q: normal forms, adjusted orbits, PCF and
exceptional-point decisions, and orbit valuations.

A pair is f = (x-a)^2 - b with basepoint alpha.  Its adjusted orbit is
c_1 = -f(a) = b and c_n = f^n(a) for n >= 2, shifted by the basepoint as
c_{1,alpha} = c_1 + alpha and c_{n,alpha} = c_n - alpha.  Conjugating by
x -> x + a gives the normal form (x^2 + c, beta) with c = -(a+b) and
beta = alpha - a; adjusted orbits agree termwise, so every decision
procedure below works on the normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Optional, Tuple, Union

from .primes import is_probable_prime, smallest_prime_factor
from .squares import _divide_out, _frac

Rational = Union[int, Fraction]

# Deepest exact orbit index, checked in _check_depth: c_n has about 2^n digits,
# and (x^2 + 1/3, 2) at N = 18 prints 0.5 MB in about 0.4 s.
MAX_ORBIT_N = 18


class DegeneracyError(Exception):
    """The basepoint lies in the post-critical orbit (a vanishing c_{n,alpha})."""


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(s: str) -> Fraction:
    """An integer or p/q, with an optional sign ("−", U+2212, reads as "-").

    Decimal and exponent forms are a ValueError: Fraction("1e10000000")
    alone builds a ten-million-digit integer.
    """
    given = s.strip()  # the CLI may have prefixed a space
    text = given.replace("−", "-")
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected an integer or p/q, got {given!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {given!r}") from None


def _as_json(value):
    """The JSON form of a library result.  A dataclass becomes {"kind": ...}
    (when its class has a kind) plus one key per field, a Fraction its text
    and a tuple or list a list, recursively; anything else is returned as it
    is."""
    if is_dataclass(value):
        record = {"kind": value.kind} if hasattr(value, "kind") else {}
        for f in fields(value):
            record[f.name] = _as_json(getattr(value, f.name))
        return record
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_as_json(v) for v in value]
    return value


@dataclass(frozen=True)
class QuadPair:
    """f = (x - a)^2 - b with basepoint alpha.

    The normal form is computed once, here: the classifier reads it several
    times per pair.
    """

    a: Fraction
    b: Fraction
    alpha: Fraction

    def __post_init__(self) -> None:
        a, b, alpha = _frac(self.a), _frac(self.b), _frac(self.alpha)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)
        # from_normal pairs have a = 0: skip two Fraction operations per pair
        object.__setattr__(self, "_normal", (-(a + b), alpha - a) if a else (-b, alpha))

    @classmethod
    def from_normal(cls, c: Rational, alpha: Rational) -> "QuadPair":
        return cls(Fraction(0), -_frac(c), _frac(alpha))

    @classmethod
    def parse(cls, text: str) -> "QuadPair":
        """Parse "a,b,alpha", or "c,alpha" for the normal form x^2 + c."""
        parts = text.split(",")
        if all(p.strip() for p in parts):  # a blank field is an error, not a shorter pair
            if len(parts) == 2:
                return cls.from_normal(parse_rational(parts[0]), parse_rational(parts[1]))
            if len(parts) == 3:
                return cls(*(parse_rational(p) for p in parts))
        raise ValueError(f"expected 'a,b,alpha' or 'c,alpha', got {text!r}")

    def f(self, x: Rational) -> Fraction:
        x = _frac(x)
        return (x - self.a) ** 2 - self.b

    def normal_form(self) -> Tuple[Fraction, Fraction]:
        """(c, beta) with (x^2 + c, beta) conjugate to this pair over Q."""
        return self._normal

    def describe(self) -> str:
        c, beta = self.normal_form()
        return f"(x^2 + {c}, {beta})"


@dataclass(frozen=True)
class AdjustedOrbit:
    raw: Tuple[Fraction, ...]
    adjusted: Tuple[Fraction, ...]
    degeneracy_index: Optional[int]

    def require_nondegenerate(self) -> None:
        idx = self.degeneracy_index
        if idx is not None:
            raise DegeneracyError(f"c_{idx} equals the basepoint shift (vanishing value)")


def iterate(c: Rational, z: Rational) -> Iterator[Rational]:
    """g(z), g(g(z)), ... for g = x^2 + c; the critical orbit is iterate(c, 0).

    Every rational orbit in the package is read from here, and integer
    orbits too: with int c and z it yields ints.  Squaring with ** skips the
    two gcds of Fraction multiplication: a reduced fraction's square is
    reduced.
    """
    while True:
        z = z**2 + c
        yield z


def _check_depth(top: int, what: str) -> None:
    """The one depth check, asked before any orbit value is built: ValueError
    when `top`, the deepest index asked for, exceeds MAX_ORBIT_N."""
    if top > MAX_ORBIT_N:
        raise ValueError(f"need {what} <= {MAX_ORBIT_N}, got {top}")


def _orbit_prefix(c: Fraction, z: Fraction, n: int) -> List[Fraction]:
    """[g(z), ..., g^n(z)] for g = x^2 + c: the one exact orbit list, so n
    above MAX_ORBIT_N is a ValueError."""
    _check_depth(n, "N")
    return list(islice(iterate(c, z), n))


def _first_hit(c: Fraction, z: Fraction, target: Fraction) -> Optional[int]:
    """The first n >= 1 with g^n(z) = target for g = x^2 + c, or None.

    Used for z = 0 (does the critical orbit reach target?) and for
    z = target (target's period).  Two cases decide on integers:
    - c and z integral: every iterate is an integer, so a non-integral
      target is never hit and no step is taken; otherwise the walk below
      runs on the numerators, through the same iterate.
    - z = 0 and c not integral: den(z_n) = den(c)^(2^(n-1)), since the
      numerator of z_{n-1}^2 + c is prime to den(c).  So only the one n with
      den(c)^(2^(n-1)) = den(target) can hit, found by squaring den(c);
      z_n is compared with target there, and no other iterate is formed.
    Otherwise (the period of a non-integral target under non-integral c)
    the walk stops at a repeated value, at |w| > max(|c|, 2, |z|, |target|),
    after which absolute values strictly increase, or at den(w) >
    den(target), since every point of a rational cycle has the same
    denominator.  The walk ends, since only finitely many rationals have
    bounded size and bounded denominator.
    """
    if c.denominator == 1 and z.denominator == 1:
        if target.denominator > 1:
            return None
        c, z, target = c.numerator, z.numerator, target.numerator
    elif z == 0:
        den, n = c.denominator, 1
        while den < target.denominator:
            den *= den
            n += 1
        if den != target.denominator:
            return None
        return n if next(islice(iterate(c, z), n - 1, None)) == target else None
    bound = max(abs(c), 2, abs(z), abs(target))
    den = target.denominator
    seen = set()
    for n, w in enumerate(iterate(c, z), start=1):
        if w == target:
            return n
        if w in seen or abs(w) > bound or w.denominator > den:
            return None
        seen.add(w)


def adjusted_orbit(pair: QuadPair, N: int) -> AdjustedOrbit:
    """First N raw and basepoint-adjusted orbit values, flagging degeneracy.

    Read off the normal form's critical orbit z_n: c_1 = b, c_n = z_n + a,
    c_{1,alpha} = beta - z_1 and c_{n,alpha} = z_n - beta.  N above
    MAX_ORBIT_N is a ValueError.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    c, beta = pair.normal_form()
    zs = _orbit_prefix(c, Fraction(0), N)
    raw = [pair.b] + [z + pair.a for z in zs[1:]]
    adjusted = [beta - zs[0]] + [z - beta for z in zs[1:]]
    degeneracy = next((i + 1 for i, v in enumerate(adjusted) if v == 0), None)
    return AdjustedOrbit(tuple(raw), tuple(adjusted), degeneracy)


def in_post_critical_orbit(pair: QuadPair) -> bool:
    """Decide whether alpha lies in {f(a), f^2(a), ...}, by the bounded walk
    _first_hit on the critical orbit of the normal form."""
    return _in_critical_orbit(*pair.normal_form()) is not None


def _in_critical_orbit(c: Fraction, beta: Fraction) -> Optional[int]:
    """The first n with z_n = beta on the critical orbit of x^2 + c, or None:
    the index at which c_{n,beta} first vanishes."""
    return _first_hit(c, Fraction(0), beta)


@dataclass(frozen=True)
class PCF:
    """The critical orbit is finite, entering a cycle."""

    preperiod: int
    period: int

    kind = "pcf"


@dataclass(frozen=True)
class PCI:
    """The critical orbit is infinite, with a replayable witness.

    witness "valuation": c is non-integral at `prime`, so orbit denominators
    blow up doubly exponentially; `prime` is the smallest prime of den(c), or
    None when den(c) is composite with no prime factor up to trial division's
    10^6 (any of its primes is a witness, so none is searched for).
    witness "escape": |value| = |c_index| exceeds max(|c|, 2), after which
    absolute values strictly increase.
    """

    witness: str
    index: int
    value: Fraction
    prime: Optional[int] = None

    kind = "pci"


def is_pcf(pair: QuadPair) -> Union[PCF, PCI]:
    """Total decision procedure for post-critical finiteness over Q."""
    c, _ = pair.normal_form()
    if c.denominator > 1:
        return PCI("valuation", 1, -c, smallest_prime_factor(c.denominator))
    bound = max(abs(c), 2)
    seen = {Fraction(0): 0}
    for n, z in enumerate(iterate(c, Fraction(0)), start=1):
        if abs(z) > bound:
            # escape soundness: past the bound the orbit strictly grows
            assert abs(next(iterate(c, z))) > abs(z)
            return PCI("escape", n, z)
        if z in seen:
            return PCF(seen[z], n - seen[z])
        seen[z] = n


def verify_pcf(pair: QuadPair, verdict: PCF) -> bool:
    """Replay a PCF certificate: the orbit returns to its cycle entry."""
    c, _ = pair.normal_form()
    zs = [Fraction(0), *_orbit_prefix(c, Fraction(0), verdict.preperiod + verdict.period)]
    return zs[verdict.preperiod] == zs[-1]


def is_exceptional(pair: QuadPair) -> bool:
    """Whether the full backward orbit of alpha under f is finite.

    Over Q this happens exactly for the normal form (x^2, 0), i.e. b = -a and
    alpha = a: a backward-orbit collapse needs every preimage set to be a
    single point, so x^2 = beta - c forces beta = c, and then x^2 = c - c
    forces c = 0.  Cross-checked by brute-force preimage counting in tests.
    """
    c, beta = pair.normal_form()
    return c == 0 and beta == 0


def _valuation(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("0 has no valuation")
    # _divide_out divides out p^(2^k) from the largest k down: orbit
    # valuations reach 2^17 by depth 18
    return _divide_out(q.numerator, p)[1] - _divide_out(q.denominator, p)[1]


@dataclass(frozen=True)
class ValuationReport:
    c: Fraction
    p: int
    values: Tuple[int, ...]
    pattern: str  # "negative" (v(c_1) < 0) or "rigid" (v(c_1) >= 0)
    n0: Optional[int]
    conformant: bool
    mismatches: Tuple[int, ...]


def orbit_valuations(c: Rational, p: int, N: int) -> ValuationReport:
    """Exact p-adic valuations of the raw orbit of x^2 + c, with conformance.

    With v = v_p: if v(c_1) < 0 the valuations must follow v(c_n) =
    2^(n-1) v(c_1); otherwise, with n0 the first index of positive valuation,
    v(c_m) = v(c_n0) exactly when n0 | m and 0 otherwise.
    """
    c = _frac(c)
    _check_depth(N, "N")  # a deep N is reported first, then p, before any value is built
    if N >= 1 and not is_probable_prime(p):  # N < 1 is adjusted_orbit's error
        raise ValueError(f"{p} is not prime")
    orbit = adjusted_orbit(QuadPair.from_normal(c, 0), N)
    if orbit.degeneracy_index is not None:
        raise DegeneracyError(f"c_{orbit.degeneracy_index} = 0: the orbit vanishes")
    values = tuple(_valuation(cn, p) for cn in orbit.raw)
    mismatches: List[int] = []
    if values[0] < 0:
        pattern = "negative"
        n0 = None
        for n, v in enumerate(values, start=1):
            if v != (1 << (n - 1)) * values[0]:
                mismatches.append(n)
    else:
        pattern = "rigid"
        n0 = next((n for n, v in enumerate(values, start=1) if v > 0), None)
        for n, v in enumerate(values, start=1):
            expected = 0 if n0 is None or n % n0 else values[n0 - 1]
            if v != expected:
                mismatches.append(n)
    return ValuationReport(c, p, values, pattern, n0, not mismatches, tuple(mismatches))
