import math
import random
import re
import time

import pytest

from arboreal.indexsets import (
    MAX_BERTRAND_TERM,
    IndexFamily,
    IndexVector,
    bertrand_family,
    is_progression,
    m_coprime_witness,
    progressing_witness,
)
from arboreal.indexsets import _is_interval, _witness_valid


def test_parse_and_zero():
    assert list(IndexVector.parse("{1,4,5}")) == [1, 4, 5]
    assert IndexVector.parse("{}").is_zero
    with pytest.raises(ValueError):
        IndexVector.parse("1,4,5")
    with pytest.raises(ValueError):
        IndexVector({0, 2})


def test_prefix_vectors_are_cheap():
    v = IndexVector.prefix(10**6)
    assert len(v) == 10**6
    assert isinstance(v.support, range)
    assert v == IndexVector.prefix(10**6)


def test_interval_equality_is_constant_time():
    big = IndexVector.prefix(10**7)
    assert big == IndexVector.prefix(10**7)  # one range comparison, not 10^7
    assert big != IndexVector.prefix(10**7 - 1)
    with pytest.raises(ValueError, match="duplicate"):
        IndexFamily([big, IndexVector.prefix(10**7)])
    # a range-backed support still equals the same support stored as a tuple
    assert IndexVector.prefix(5) == IndexVector({1, 2, 3, 4, 5})
    assert IndexVector({1, 2, 3, 4, 5}) == IndexVector.prefix(5)
    assert IndexVector.prefix(5) != IndexVector({1, 2, 3, 4, 6})
    assert IndexVector(range(1, 10, 2)) == IndexVector({1, 3, 5, 7, 9})
    assert IndexVector.prefix(0) == IndexVector(())


def test_parse_names_the_bad_index():
    for text, token in (("{1,,2}", "''"), ("{1,x}", "'x'")):
        with pytest.raises(ValueError, match=re.escape(f"index vector '{text}': {token} is not an integer")):
            IndexVector.parse(text)


def test_is_progression():
    assert is_progression(IndexVector({3, 5, 7}), 2, 3)
    assert not is_progression(IndexVector({1, 2, 4}), 1, 3)
    assert is_progression(IndexVector({6}), 5, 1)
    assert not is_progression(IndexVector({}), 1, 1)
    with pytest.raises(ValueError):
        is_progression(IndexVector({1}), 0, 1)


def test_progressing_witness_family():
    family = IndexFamily([IndexVector({i, i + 1, i + 2}) for i in range(3, 101)])
    assert progressing_witness(family, 1, 3).ok

    bad = IndexFamily([IndexVector({1, 2}), IndexVector({2, 4})])
    report = progressing_witness(bad, 1, 2)
    assert not report.ok
    assert report.offenders == (1,)


def test_progressing_witness_span_mode():
    family = IndexFamily([IndexVector({1, 2}), IndexVector({2, 3})])
    target = IndexVector({1, 3})  # the GF(2) sum of the members
    report = progressing_witness(family, 2, 2, span_targets=[target])
    inside, cert, prog = report.span_results[0]
    assert inside and cert == (0, 1) and prog
    # the members themselves have difference 1, so they are offenders at k=2
    assert report.offenders == (0, 1)
    assert not report.ok

    clean = progressing_witness(family, 1, 2, span_targets=[IndexVector({1, 2})])
    assert clean.ok


def test_m_coprime_examples():
    assert not m_coprime_witness(IndexFamily([IndexVector({2, 4, 6})]), 0).ok
    report = m_coprime_witness(IndexFamily([IndexVector({2, 3})]), 0)
    assert report.ok and report.witnesses == (3,)


def test_m_coprime_threshold():
    # {4, 6} has no witness at M = 0, but above M = 4 the index 6 is alone
    family = IndexFamily([IndexVector({4, 6})])
    assert not m_coprime_witness(family, 0).ok
    assert m_coprime_witness(family, 4).ok
    with pytest.raises(ValueError):
        m_coprime_witness(family, -1)


def test_m_coprime_witnesses_stay_valid_at_higher_threshold():
    family = IndexFamily(
        [IndexVector({2, 3}), IndexVector({2, 3, 25}), IndexVector({5, 7, 9})]
    )
    base = m_coprime_witness(family, 0)
    higher = m_coprime_witness(family, 1)
    for w, w2 in zip(base.witnesses, higher.witnesses):
        if w is not None and w > 1:
            assert w2 is not None and w2 >= w


def test_bertrand_examples():
    assert bertrand_family([1, 2, 3, 4, 5]).witnesses == (1, 2, 3, 3, 5)
    assert bertrand_family([10]).witnesses == (7,)
    assert bertrand_family([2, 4, 8, 16]).witnesses == (2, 3, 7, 13)
    with pytest.raises(ValueError):
        bertrand_family([3, 3])
    with pytest.raises(ValueError):
        bertrand_family([])


def test_bertrand_terms_are_capped():
    assert MAX_BERTRAND_TERM == 5 * 10**4
    built = bertrand_family([2, MAX_BERTRAND_TERM])
    assert built.witnesses == (2, 49999)
    with pytest.raises(ValueError, match=f"need terms <= {MAX_BERTRAND_TERM}, got {MAX_BERTRAND_TERM + 1}"):
        bertrand_family([2, MAX_BERTRAND_TERM + 1])


def test_bertrand_passes_m_coprime():
    built = bertrand_family(list(range(1, 120)))
    report = m_coprime_witness(built.family, 0)
    assert report.ok
    assert tuple(report.witnesses) == built.witnesses
    assert report.unbounded_evidence
    assert all(2 * w > n for n, w in zip(range(1, 120), built.witnesses) if n >= 2)


def test_unbounded_evidence_rejects_flat_families():
    family = IndexFamily([IndexVector({2, 7}), IndexVector({3, 7}), IndexVector({4, 7})])
    report = m_coprime_witness(family, 0)
    assert report.ok
    assert not report.unbounded_evidence  # witnesses are all 7


def test_family_rejects_duplicates():
    with pytest.raises(ValueError):
        IndexFamily([IndexVector({1, 2}), IndexVector({2, 1})])
    # range-backed against tuple-backed storage of the same support
    with pytest.raises(ValueError):
        IndexFamily([IndexVector.prefix(3000), IndexVector({7}), IndexVector(list(range(1, 3001)))])
    with pytest.raises(ValueError):
        IndexFamily([IndexVector(range(2, 4000, 2)), IndexVector(list(range(2, 4000, 2)))])


def test_family_duplicate_check_is_linear():
    # every member shares its length, first and last index
    members = [IndexVector({1, i, 3002}) for i in range(2, 3002)]
    start = time.perf_counter()
    assert len(IndexFamily(members)) == 3000
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        IndexFamily(members + [IndexVector({1, 1500, 3002})])


def _brute_valid(i, support, M):
    return all(math.gcd(i, j) == 1 for j in support if j > M and j != i)


def test_interval_rule_matches_brute_force():
    rng = random.Random(6)
    intervals = [(1, 1), (7, 7), (1, 2), (1, 60), (100, 101)]
    for _ in range(40):
        first = rng.randint(1, 300)
        intervals.append((first, rng.randint(first, min(300, first + 150))))
    for first, last in intervals:
        ints = list(range(first, last + 1))
        storages = (IndexVector(range(first, last + 1)), IndexVector(ints))
        assert isinstance(storages[0].support, range)
        assert isinstance(storages[1].support, tuple)
        # a tuple-backed subset that is no interval takes the gcd passes
        subset = IndexVector(rng.sample(ints, len(ints) // 2) + [first, last])
        thresholds = {0, first - 1, last, last + 7, rng.randint(0, 120), rng.randint(0, 120)}
        for M in thresholds:
            for v in storages + (subset,):
                valid = [i for i in v if i > M and _brute_valid(i, v.support, M)]
                assert [i for i in v if i > M and _witness_valid(i, v.support, M)] == valid
                expected = max(valid) if valid else None
                assert m_coprime_witness(IndexFamily([v]), M).witnesses == (expected,)
        assert all(_is_interval(v.support) for v in storages)
        assert _is_interval(subset.support) == (len(subset) == len(ints))


def test_interval_rule_every_threshold_up_to_120():
    for first, last in ((1, 130), (40, 125), (90, 97)):
        v = IndexVector.prefix(last) if first == 1 else IndexVector(range(first, last + 1))
        for M in range(121):
            valid = [i for i in v if i > M and _brute_valid(i, v.support, M)]
            assert [i for i in v if i > M and _witness_valid(i, v.support, M)] == valid


def test_prefix_witness_needs_no_scan_of_the_support():
    start = time.perf_counter()
    report = m_coprime_witness(IndexFamily([IndexVector.prefix(10**7)]), 0)
    assert report.witnesses == (9_999_991,)
    assert time.perf_counter() - start < 1.0


def test_full_coprimality_pass_matches_brute_force():
    # non-interval supports whose 128 smallest other indices above M are all
    # coprime to the candidate i, so the cheap pass cannot decide and the
    # full pass (gcd with the product of the others mod i) does; i is the
    # largest index, so m_coprime_witness decides it first
    rng = random.Random(15)
    outcomes = set()
    for _ in range(60):
        M = rng.choice([0, 0, rng.randint(1, 40)])
        i = rng.choice([d for d in range(1500, 3000) if not all(d % p for p in (2, 3, 5, 7))])
        low = [j for j in range(M + 1, 1000) if math.gcd(i, j) == 1]
        support = set(rng.sample(low, rng.randint(129, 200)))
        high = rng.sample(range(1000, i), rng.randint(2, 399 - len(support)))
        if rng.random() < 0.5:
            high = [j for j in high if math.gcd(i, j) == 1]
        support |= set(high) | {i}
        v = IndexVector(support)
        others = [j for j in v.support if j > M and j != i]
        assert not _is_interval(v.support) and 130 <= len(v) <= 400 and len(others) > 128
        assert all(math.gcd(i, j) == 1 for j in others[:128])
        valid = _brute_valid(i, v.support, M)
        assert _witness_valid(i, v.support, M) == valid
        expected = max((j for j in v if j > M and _brute_valid(j, v.support, M)), default=None)
        assert m_coprime_witness(IndexFamily([v]), M).witnesses == (expected,)
        assert (expected == i) == valid
        outcomes.add(valid)
    assert outcomes == {True, False}
