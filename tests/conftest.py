"""Shared test settings.

Property tests run under a derandomized hypothesis profile with no example
database, so every run of the suite tries the same examples. The profile
skips the shrink phase: a failing test reports the first failing example
at once instead of minimizing it, which can take minutes when every example
fails. Hypothesis still writes a ``.hypothesis/`` directory (its
``constants/`` cache), which ``.gitignore`` keeps out of the repository.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("deterministic")
