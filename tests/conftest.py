"""Shared test settings.

``pytest --hypothesis-profile=deep`` runs every property test that keeps
Hypothesis' default example count with 30 times as many examples; the
default profile stays as it is.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=30 * settings.default.max_examples)
