"""Settings shared by the test modules."""

from hypothesis import settings

# Few, reproducible examples keep the suite fast and deterministic.
# derandomize=True seeds each property test from a hash of its source, so
# any edit to a @given test's body changes the examples it draws.
settings.register_profile(
    "tier1", max_examples=10, deadline=None, derandomize=True, database=None
)
settings.load_profile("tier1")
