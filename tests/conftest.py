"""Hypothesis profiles for the test suite.

HYPOTHESIS_PROFILE=ci selects `ci`, which derives every example from the
test itself, so a failure in CI replays exactly on any machine. Without
it, runs draw fresh random examples as usual.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
