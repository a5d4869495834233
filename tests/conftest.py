"""Settings shared by the test modules."""

from hypothesis import settings

# Few, reproducible examples keep the suite fast and deterministic.
settings.register_profile(
    "tier1", max_examples=10, deadline=None, derandomize=True, database=None
)
settings.load_profile("tier1")
