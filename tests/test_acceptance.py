"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact (zero tolerance unless stated) and every
wall-clock budget is asserted.
"""

import random
import time
from fractions import Fraction

import pytest
from conftest import factor_span_dimension

from arboreal.cli import run_survey
from arboreal.curves import construct_point, naive_point_search
from arboreal.dynamics import DegeneracyError, PCF, QuadPair, adjusted_orbit, is_pcf, orbit_valuations
from arboreal.galois import (
    GroupId,
    classify_abelian,
    contained_in_Mv,
    frobenius_sample,
    good_primes,
    level2_data,
    level2_galois,
    replay_certificate,
)
from arboreal.indexsets import IndexVector, bertrand_family, m_coprime_witness
from arboreal.primes import sieve
from arboreal.squares import (
    QuadElement,
    is_square_in_quad,
    quad_independent,
    span_dimension,
    sqrt_exact,
    square_class,
)
from arboreal.treegroup import verify_noncommutation

F = Fraction


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return False


def test_criterion_1_abelian_survey_grid():
    """The height-5 grid marks Abelian exactly the seven listed pairs."""
    with Budget("1 abelian-survey", 60):
        result = run_survey(5, 5)
        abelian = {(r["c"], r["alpha"]) for r in result["abelian_pairs"]}
        assert abelian == {
            ("0", "1"),
            ("0", "-1"),
            ("-2", "0"),
            ("-2", "1"),
            ("-2", "-1"),
            ("-2", "2"),
            ("-2", "-2"),
        }
        assert result["counts"]["abelian"] == 7


def test_criterion_2_recorded_orbit_and_certificate():
    """adjusted_orbit((x^2-1, -1/2), 3) = (1/2, 1/2, -1/2) exactly, and the
    classifier returns NonAbelian with a FaithfulNode2Dim certificate."""
    with Budget("2 orbit-and-certificate", 1):
        pair = QuadPair.from_normal(-1, F(-1, 2))
        assert adjusted_orbit(pair, 3).adjusted == (F(1, 2), F(1, 2), F(-1, 2))
        verdict = classify_abelian(pair)
        assert verdict.status == "nonabelian"
        assert verdict.certificate.kind == "FaithfulNode2Dim"
        assert replay_certificate(verdict.certificate)


def test_criterion_3_d8_detections():
    """Both (x^2-1, 1) and (x^2-1, -2) give D8 at level 2, cross-validated by
    Frobenius sampling over the first 100 good primes."""
    with Budget("3 d8-detections", 5):
        for beta in (1, -2):
            pair = QuadPair.from_normal(-1, beta)
            assert level2_galois(pair) is GroupId.D8
            report = frobenius_sample(pair, 2, good_primes(pair, 2, 100))
            assert GroupId.D8 in report.compatible
            assert GroupId.C4 not in report.compatible
            assert GroupId.V4 not in report.compatible


def test_criterion_4_pcf_census():
    """Over all c of height <= 50, PCF holds exactly for c in {0, -1, -2}."""
    with Budget("4 pcf-census", 30):
        pcf = []
        values = {
            F(p, q)
            for q in range(1, 51)
            for p in range(-50, 51)
            if abs(F(p, q).numerator) <= 50 and F(p, q).denominator <= 50
        }
        for c in sorted(values):
            if isinstance(is_pcf(QuadPair.from_normal(c, 0)), PCF):
                pcf.append(c)
        assert pcf == [F(-2), F(-1), F(0)]


def test_criterion_5_noncommutation_depth3():
    """verify_noncommutation(3) is empty over all 16384 ordered pairs."""
    with Budget("5 noncommutation", 10):
        counterexamples, scanned = verify_noncommutation(3)
        assert counterexamples == []
        assert scanned == 16384


def test_criterion_6_containment_consistency():
    """contained_in_Mv agrees with the fixed-field prediction from the exact
    level-2 group for 200 seeded pairs and every v with support in {1, 2}."""
    with Budget("6 containment-consistency", 30):
        rng = random.Random(0)
        checked = 0
        while checked < 200:
            c = F(rng.randint(-9, 9), rng.randint(1, 3))
            beta = F(rng.randint(-9, 9), rng.randint(1, 3))
            pair = QuadPair.from_normal(c, beta)
            c1, c2 = beta - c, c * c + c - beta
            if c1 == 0 or c2 == 0:
                continue
            orbit = adjusted_orbit(pair, 2)
            if orbit.degeneracy_index is not None:
                continue
            from arboreal.dynamics import in_post_critical_orbit

            if in_post_critical_orbit(pair):
                continue
            data = level2_data(pair)
            # reducibility of f - alpha, via the factored square class (an
            # independent code path from the isqrt-based product test)
            reducible = c1 > 0 and square_class(c1).is_trivial
            assert contained_in_Mv(pair, {1}) == reducible
            for support, char in (({1}, (1, 0)), ({2}, (0, 1)), ({1, 2}, (1, 1))):
                predicted = all(
                    ((a & char[0]) ^ (b & char[1])) == 0 for a, b in data.phi_image
                )
                assert contained_in_Mv(pair, support) == predicted
            assert contained_in_Mv(pair, ())
            checked += 1


def test_criterion_7_divisibility_conformance():
    """Valuation patterns hold for all c in {+-1..+-10, +-1/2, +-1/3},
    primes p <= 97, N = 12.  The orbit of c = -1 vanishes at step 2, so the
    operation must refuse it; every other grid point must conform."""
    with Budget("7 divisibility-conformance", 30):
        cs = [F(s) * v for v in list(range(1, 11)) + [F(1, 2), F(1, 3)] for s in (1, -1)]
        primes = sieve(97)[1:]  # odd primes up to 97
        for c in cs:
            if c == -1:
                with pytest.raises(DegeneracyError):
                    orbit_valuations(c, 3, 12)
                continue
            for p in primes:
                report = orbit_valuations(c, p, 12)
                assert report.conformant, (c, p, report)


def test_criterion_8_bertrand_construction():
    """bertrand_family(a_n = n, n <= 10^4) is 0-coprime with witnesses p_n
    and 2 p_n > a_n for all n >= 2."""
    with Budget("8 bertrand", 30):
        terms = list(range(1, 10001))
        built = bertrand_family(terms)
        assert all(2 * w > n for n, w in zip(terms, built.witnesses) if n >= 2)
        report = m_coprime_witness(built.family, 0)
        assert report.ok
        assert tuple(report.witnesses) == built.witnesses
        assert report.unbounded_evidence


def test_criterion_9_quadratic_field_computation():
    """quad_independent([1 + sqrt2, -sqrt2]) = 2 and both elements are
    individually non-square in Q(sqrt 2)."""
    with Budget("9 quadratic-field", 1):
        one_plus = QuadElement(1, 1, 2)
        minus_rt2 = QuadElement(0, -1, 2)
        assert is_square_in_quad(one_plus) is None
        assert is_square_in_quad(minus_rt2) is None
        assert quad_independent([one_plus, minus_rt2]) == 2


def test_criterion_10_oracle_equivalence_suite():
    """Multiplicativity over 10^4 random rationals, agreement of the two
    span-dimension routes over 500 random lists, and construct_point versus
    naive_point_search over 50 curve specs at height 50."""
    with Budget("10 oracle-equivalence", 120):
        rng = random.Random(0)
        for _ in range(10_000):
            q1 = F(rng.choice([-1, 1]) * rng.randint(1, 5000), rng.randint(1, 200))
            q2 = F(rng.choice([-1, 1]) * rng.randint(1, 5000), rng.randint(1, 200))
            assert square_class(q1 * q2) == square_class(q1) * square_class(q2)

        for _ in range(500):
            values = [
                F(rng.choice([-1, 1]) * rng.randint(1, 3000), rng.randint(1, 50))
                for _ in range(rng.randint(1, 6))
            ]
            assert factor_span_dimension(values) == span_dimension(values)

        specs = 0
        constructed = 0
        while specs < 50:
            pair = QuadPair.from_normal(rng.randint(-5, 5), rng.randint(-5, 5))
            k = rng.randint(1, 2)
            length = rng.randint(1, 2)
            i0 = 1
            s = rng.randint(max(2, k + i0), k + i0 + 2)
            support = IndexVector(range(s, s + k * length, k))
            orbit = adjusted_orbit(pair, max(support))
            if orbit.degeneracy_index is not None:
                continue
            specs += 1
            prod = F(1)
            for i in support:
                prod *= orbit.adjusted[i - 1]
            point = construct_point(pair, support, i0, k=k)
            assert (point is not None) == (prod > 0 and sqrt_exact(prod) is not None)
            if point is None:
                continue
            constructed += 1
            assert rhs_matches(point)
            if abs(point.x.numerator) <= 50 and point.x.denominator <= 50:
                assert (point.x, point.y) in naive_point_search(point.curve, 50)
        assert constructed >= 3


def rhs_matches(point):
    from arboreal.curves import rhs_eval

    return rhs_eval(point.curve, point.x) == point.y * point.y
