"""Shared test configuration.

The `ci` hypothesis profile derandomizes the property tests, so a failing
draw in CI replays exactly; select it with `--hypothesis-profile=ci`.  Local
runs keep the default profile and its random draws.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
