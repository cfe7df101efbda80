"""Hypothesis profiles for the test suite.

``ci`` runs every phase but shrinking: a failing property reports the first
falsifying example it finds instead of minimising it, which on the
``ORACLE_SETTINGS`` properties of ``test_linalg.py`` takes minutes.  Each
test keeps its own ``max_examples``, so a passing run draws the same
examples as with the default profile.  Select it with
``pytest --hypothesis-profile=ci``.
"""

from hypothesis import Phase, settings

settings.register_profile("ci", phases=[p for p in Phase if p is not Phase.shrink])
