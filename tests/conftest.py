"""Shared test settings.

Property tests run under a derandomized hypothesis profile with no example
database, so every run of the suite tries the same examples and leaves no
``.hypothesis/`` directory behind.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
