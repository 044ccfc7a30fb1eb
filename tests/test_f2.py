import random

import pytest
from hypothesis import given, strategies as st

from arboreal.f2 import (
    SIGN,
    F2Vector,
    ZERO,
    base_label,
    in_span,
    index_label,
    prime_label,
    rank,
)


def pv(*primes):
    return F2Vector.from_labels(prime_label(p) for p in primes)


def iv(*indices):
    return F2Vector.from_labels(index_label(i) for i in indices)


def test_add_is_symmetric_difference():
    assert pv(2, 3) + pv(3, 5) == pv(2, 5)


def test_add_self_inverse():
    v = pv(2, 7)
    assert v + v == ZERO


def test_add_identity():
    v = iv(1, 4)
    assert ZERO + v == v


def test_rank_examples():
    sign = F2Vector.from_labels([SIGN])
    assert rank([sign, pv(2), sign + pv(2)]) == 2
    assert rank([]) == 0
    assert rank([pv(2), pv(5), pv(2, 13), pv(677)]) == 4


def test_in_span_certificate():
    cert = in_span(pv(2, 5), [pv(2), pv(5)])
    assert cert == (0, 1)


def test_in_span_absent():
    assert in_span(pv(3), [pv(2)]) is None


def test_in_span_zero_vector():
    assert in_span(ZERO, [pv(2), pv(3)]) == ()
    assert in_span(ZERO, []) == ()


def test_label_total_order():
    labels = [index_label(1), base_label(6), prime_label(3), prime_label(2), SIGN]
    assert sorted(labels) == [SIGN, prime_label(2), prime_label(3), base_label(6), index_label(1)]


def test_mixed_kinds_rejected():
    with pytest.raises(ValueError):
        F2Vector.from_labels([prime_label(2), index_label(1)])
    # SIGN may accompany primes or base labels
    F2Vector.from_labels([SIGN, prime_label(2)])
    F2Vector.from_labels([SIGN, base_label(6)])


label_sets = st.sets(st.integers(min_value=1, max_value=12), max_size=6).map(
    lambda s: F2Vector.from_labels(index_label(i) for i in s)
)


@given(label_sets, label_sets, label_sets)
def test_add_laws(u, v, w):
    assert u + v == v + u
    assert (u + v) + w == u + (v + w)
    assert u + u == ZERO


@given(st.lists(label_sets, max_size=8))
def test_rank_bounds_and_permutation_invariance(vs):
    r = rank(vs)
    assert 0 <= r <= len(vs)
    assert rank(list(reversed(vs))) == r


@given(st.lists(label_sets, min_size=1, max_size=8), st.data())
def test_certificates_resum(vs, data):
    picks = data.draw(st.lists(st.sampled_from(range(len(vs))), max_size=6))
    target = ZERO
    for i in set(picks):
        target = target + vs[i]
    cert = in_span(target, vs)
    assert cert is not None
    total = ZERO
    for i in cert:
        total = total + vs[i]
    assert total == target


def _draw_family(rng):
    """Up to 10 vectors of one label kind: sign/prime, base, or index labels,
    the last including indices near 10^18; repeats and sums of earlier
    members make many families dependent."""
    kind = rng.choice(["prime", "base", "index"])
    if kind == "index":
        pool = [index_label(i) for i in (1, 2, 3, 5, 8, 10**18 - 1, 10**18, 10**18 + 7)]
    elif kind == "prime":
        pool = [SIGN] + [prime_label(p) for p in (2, 3, 5, 7, 11, 10**9 + 7)]
    else:
        pool = [SIGN] + [base_label(b) for b in (6, 10, 15, 35, 10**12 + 39, 10**18 + 9)]

    def draw():
        return F2Vector.from_labels(rng.sample(pool, rng.randint(0, 4)))

    vs = [draw() for _ in range(rng.randint(0, 10))]
    if vs and rng.random() < 0.5:
        total = ZERO
        for v in rng.sample(vs, rng.randint(1, len(vs))):
            total = total + v
        vs.insert(rng.randrange(len(vs) + 1), total)
    return vs[:10], draw


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_the_subset_span(seed):
    # the span by XOR over all subsets, with no elimination at all
    rng = random.Random(seed)
    for _ in range(100):
        vs, draw = _draw_family(rng)
        span = {frozenset()}
        for v in vs:
            span |= {s ^ v.support for s in span}
        assert 2 ** rank(vs) == len(span)
        targets = [F2Vector(s) for s in rng.sample(sorted(span, key=sorted), min(len(span), 4))]
        for t in targets + [draw() for _ in range(4)]:
            cert = in_span(t, vs)
            assert (cert is not None) == (t.support in span)
            if cert is not None:
                assert list(cert) == sorted(set(cert))
                total = ZERO
                for i in cert:
                    total = total + vs[i]
                assert total == t
