"""Shared pytest set-up: a deterministic hypothesis profile.

``derandomize=True`` draws every example from a fixed seed, so a property
test passes or fails the same way on every run; ``deadline=None`` keeps
slow shared machines from failing examples on time alone.
"""

from hypothesis import settings

settings.register_profile("rmtdiff", derandomize=True, deadline=None)
settings.load_profile("rmtdiff")
