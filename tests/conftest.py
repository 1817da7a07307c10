"""Shared test settings.

Property tests run under a derandomized hypothesis profile with no example
database, so every run of the suite tries the same examples. Hypothesis
still writes a ``.hypothesis/`` directory (its ``constants/`` cache), which
``.gitignore`` keeps out of the repository.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
