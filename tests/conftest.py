"""Shared test configuration.

Hypothesis is run in derandomized mode so that the property-based tests are
deterministic across runs and machines (the generated examples depend only
on the test code, not on a random seed).

Chaos tests draw their randomness (which scenario to run, when to kill a
worker) from ``REPRO_CHAOS_SEED`` instead: the default ``0`` keeps every
ordinary run deterministic, while the nightly CI chaos lane exports a
randomized seed so fault-injection coverage walks the input space over
time.  The seed is echoed in the pytest header (and by the CI job summary),
so any nightly failure is reproducible with
``REPRO_CHAOS_SEED=<seed> python -m pytest ...``.

The spelling corpora (``heart_pair``, ``spelling_batches``) are shared by
the engine and serve tests that pin every spelling to its own answer.
"""

import os
import random

import pytest
from hypothesis import HealthCheck
from hypothesis import settings

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: Two spellings of one predicate whose answers differ in the last bit
#: (the disjunction's clause order reaches ``log_add``).
HEART_PAIR = (
    "cholesterol < 170.0 or fatigue == 1",
    "fatigue == 1 or cholesterol < 170.0",
)

#: Per served model: batches mixing duplicate texts with reordered
#: spellings; each ``or`` pair's answers differ in the last bit.
SPELLING_BATCHES = {
    "noisy_or": [
        "disease_0 == 1 or symptom_0 == 1",
        "symptom_0 == 1 or disease_0 == 1",
        "disease_0 == 1 or symptom_0 == 1",
        "disease_1 == 1 and disease_0 == 1",
        "disease_0 == 1 and disease_1 == 1",
        "symptom_1 == 1 or disease_1 == 1",
        "symptom_0 == 1 or disease_0 == 1",
    ],
    "heart_disease": [
        HEART_PAIR[1],
        HEART_PAIR[0],
        HEART_PAIR[1],
        "heart_disease == 1 or chest_pain == 1",
        "chest_pain == 1 or heart_disease == 1",
        "fatigue == 1 and cholesterol < 170.0",
        HEART_PAIR[0],
    ],
    "hmm20": [
        "Z[0] == 1 or Z[3] == 0",
        "Z[3] == 0 or Z[0] == 1",
        "X[1] > 1.5 or Y[2] == 3",
        "Y[2] == 3 or X[1] > 1.5",
        "Z[0] == 1 or Z[3] == 0",
        "Z[5] == 1 and X[1] > 1.5",
        "Y[2] == 3 or X[1] > 1.5",
    ],
}


@pytest.fixture
def heart_pair():
    return HEART_PAIR


@pytest.fixture
def spelling_batches():
    return SPELLING_BATCHES


#: Seed of the chaos tests' PRNG (see module docstring).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def pytest_report_header(config):
    return "REPRO_CHAOS_SEED=%d" % (CHAOS_SEED,)


@pytest.fixture(scope="session")
def chaos_seed():
    """``REPRO_CHAOS_SEED``, for fixtures wider than one test."""
    return CHAOS_SEED


@pytest.fixture
def chaos_rng():
    """A fresh PRNG seeded from ``REPRO_CHAOS_SEED`` (per-test, so test
    order cannot change which values a given test draws)."""
    return random.Random(CHAOS_SEED)
