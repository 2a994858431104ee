"""Property tests draw the same examples on every run: one Hypothesis
profile, loaded before the test modules build their settings."""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
