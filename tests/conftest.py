"""Hypothesis settings for the test suite: the same examples on every run
(derandomized, no example database) and no per-example deadline, so property
tests neither flake on a slow or loaded machine nor vary between runs."""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("repro")
