"""Shared test settings.

Every hypothesis test draws the same examples on every run: the default
profile is derandomized, keeps no example database and sets no
deadline (the solver tests run whole grids per example).
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
