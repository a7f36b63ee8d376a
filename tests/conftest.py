import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, without a
# per-example deadline, so property tests are reproducible on shared runners
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
