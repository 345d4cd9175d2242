"""Test-wide settings: property-based tests run a fixed, bounded sample.

``derandomize`` draws the same examples on every run, so the suite is
deterministic; ``max_examples`` keeps it fast; ``deadline=None`` because a
single slow example on a loaded machine is not a failure.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("deterministic")
