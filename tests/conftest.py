"""Hypothesis profiles.  The default profile runs locally; CI selects `ci`
with --hypothesis-profile=ci, which draws more examples, from a fixed seed,
for every property test that leaves max_examples to the profile (the bitwise
differential tests among them).  `tests/mutants.py` selects `mutants`: a
fixed seed, and a failing example reported as found, without shrinking it."""
from hypothesis import Phase, settings

settings.register_profile("ci", max_examples=500, derandomize=True, deadline=None)
settings.register_profile("mutants", derandomize=True, deadline=None,
                          phases=(Phase.explicit, Phase.generate))
