"""Settings for the generated (Hypothesis) tests: derandomized, with no example
database and no deadline, so every run draws the same cases and writes nothing."""

from hypothesis import settings

settings.register_profile("oracles", derandomize=True, database=None, deadline=None)
settings.load_profile("oracles")
