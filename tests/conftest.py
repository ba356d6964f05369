"""Hypothesis profiles for the test suite.

The default, ``fixed``, draws the same examples on every run
(``derandomize=True``) and keeps no example database, so a test passes or
fails on the code alone. ``HYPOTHESIS_PROFILE=fresh`` draws new random
examples instead, and prints each failing example's reproduction blob: run
it to search for failures that the fixed draw does not reach.
"""

import os

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("fresh", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))
