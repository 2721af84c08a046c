"""Acceptance battery: every claim of `hammingsupport.claims` at its stated scale.

The claims are the ones `hammingsupport selfcheck --scale full` runs; each
gets a fresh generator seeded like selfcheck, so a failure reproduces there.
Tolerances are zero everywhere (exact rational arithmetic).
"""

import random

import pytest

from hammingsupport.claims import CLAIMS, SEED


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.name for claim in CLAIMS])
def test_claim(claim):
    claim.check(random.Random(SEED), True)
