import os

from hypothesis import settings

# On a CI runner: no per-example deadline, so a slow machine cannot fail a
# property test, and a fixed example sequence, so runs are reproducible.
settings.register_profile("ci", deadline=None, derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
