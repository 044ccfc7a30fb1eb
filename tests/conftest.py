"""Hypothesis settings for the test suite: the same examples on every run
(derandomized, no example database) and no per-example deadline, so property
tests neither flake on a slow or loaded machine nor vary between runs."""

from hypothesis import settings

from arboreal.f2 import rank
from arboreal.squares import square_class

settings.register_profile("repro", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("repro")


def factor_span_dimension(values):
    """The factor route to a span dimension in Q*/Q*^2, kept as the test
    oracle for span_dimension's gcd-free route: the rank of the square
    classes, which raises BudgetExceeded when factoring runs out."""
    return rank([square_class(v).to_vector() for v in values])
