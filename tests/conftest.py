"""Shared test configuration: one deterministic hypothesis profile."""

from hypothesis import settings

# Derandomized so every run tries the same examples, and no per-example
# deadline, so a slow or busy host cannot fail a property on timing alone.
settings.register_profile("psitomo", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("psitomo")
