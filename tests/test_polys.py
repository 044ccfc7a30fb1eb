import random

import pytest

from arboreal.polys import factor_degrees, pm_divmod, pm_mul


def test_factor_degrees_examples():
    assert factor_degrees([1, 0, 1], 3) == [2]  # x^2 + 1 is irreducible mod 3
    assert factor_degrees([1, 0, 1], 5) == [1, 1]  # and splits mod 5
    for p in (3, 5, 7):
        assert factor_degrees([0, 0, 1], p) is None  # x^2 is not square-free
    with pytest.raises(ValueError):
        factor_degrees([], 3)


def test_factor_degrees_distinct_linear_factors():
    p = 13
    for k in range(1, 8):
        f = [1]
        for root in range(k):
            f = pm_mul(f, [(-root) % p, 1], p)
        assert factor_degrees(f, p) == [1] * k


def test_pm_divmod_identity():
    rng = random.Random(5)
    for p in (3, 7, 101):
        for _ in range(200):
            f = [rng.randrange(p) for _ in range(rng.randint(0, 12))]
            g = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
            q, r = pm_divmod(f, g, p)
            assert len(r) < len(g)
            total = [0] * max(len(q) + len(g), len(f))
            for h in (pm_mul(q, g, p), r):
                for i, a in enumerate(h):
                    total[i] += a
            assert [a % p for a in total] == f + [0] * (len(total) - len(f))
