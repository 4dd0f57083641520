"""Seeded input generators of the benchmark (serve traffic and library jobs).

Everything a run sends is built here from ``--seed`` alone, without
importing the program under test, so a change to ``repro.workloads``
cannot change what the benchmark sends.  Each generator returns plain
JSON-able data; :func:`digest` fingerprints it so two commits can be
shown to have replayed identical inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from typing import Dict
from typing import List

#: Catalog models the serve workloads register (hmm20 plus the Table-1
#: networks and the Fig-2 GPA model).
SERVE_MODELS = [
    "hmm20", "indian_gpa", "hiring", "alarm", "grass", "noisy_or",
    "clinical_trial", "heart_disease",
]

HMM_STEPS = 20


def _hmm_vars():
    continuous = {"X[%d]" % t: (2.0, 18.0) for t in range(HMM_STEPS)}
    counts = {"Y[%d]" % t: [2, 5, 8, 11] for t in range(HMM_STEPS)}
    binary = {"Z[%d]" % t: [0, 1] for t in range(HMM_STEPS)}
    binary["separated"] = [0, 1]
    return continuous, dict(counts, **binary)


#: Per model: (continuous variables -> (low, high) threshold range,
#: discrete variables -> values).  Every discrete value listed has
#: positive probability, so an equality on it is a valid condition.
VARIABLES = {
    "hmm20": _hmm_vars(),
    "indian_gpa": ({"GPA": (0.5, 3.9)}, {"Perfect": [0, 1]}),
    "hiring": (
        {"college_rank": (2.0, 25.0), "years_experience": (4.0, 16.0)},
        {"ethnicity": [0, 1], "hire": [0, 1]},
    ),
    "alarm": ({}, {name: [0, 1] for name in (
        "alarm", "burglary", "earthquake", "john_calls", "mary_calls")}),
    "grass": (
        {"temp": (10.0, 32.0)},
        {name: [0, 1] for name in (
            "cloudy", "dry_out", "rain", "sprinkler", "wet_grass", "wet_roof")},
    ),
    "noisy_or": ({}, dict(
        {"disease_%d" % i: [0, 1] for i in range(4)},
        **{"symptom_%d" % i: [0, 1] for i in range(4)},
    )),
    "clinical_trial": (
        {"prob_control": (0.05, 0.95), "prob_treated": (0.05, 0.95)},
        dict({"is_effective": [0, 1]},
             **{"treated[%d]" % i: [0, 1] for i in range(20)},
             **{"control[%d]" % i: [0, 1] for i in range(20)}),
    ),
    "heart_disease": (
        {"cholesterol": (170.0, 260.0), "blood_pressure": (105.0, 150.0)},
        {name: [0, 1] for name in (
            "smoker", "exercise", "heart_disease", "chest_pain", "fatigue",
            "abnormal_ecg")},
    ),
}


def digest(data) -> str:
    """sha256 (first 16 hex digits) of the canonical JSON of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# serve_hot: a fixed key space of unconditioned queries, Zipf-drawn.
# ---------------------------------------------------------------------------

def literals(model: str, grid: int) -> List[str]:
    continuous, discrete = VARIABLES[model]
    out = []
    for name, (low, high) in sorted(continuous.items()):
        for i in range(grid):
            value = round(low + (high - low) * i / max(1, grid - 1), 3)
            out.append("%s < %r" % (name, value))
    for name, values in sorted(discrete.items()):
        out.extend("%s == %d" % (name, value) for value in values)
    return out


def _assignments(model: str, grid: int) -> List[Dict]:
    continuous, discrete = VARIABLES[model]
    out = []
    for name, (low, high) in sorted(continuous.items()):
        for i in range(grid):
            out.append({name: round(low + (high - low) * i / max(1, grid - 1), 3)})
    for name, values in sorted(discrete.items()):
        out.extend({name: value} for value in values)
    return out


#: Two-literal conjunctions kept per model in the hot key space.
MAX_PAIRS_PER_MODEL = 120


def hot_key_space() -> List[Dict]:
    """The fixed key space of serve_hot (independent of the seed).

    Per model: every single literal (``logprob`` and ``prob``), a fixed
    sample of two-literal conjunctions (``logprob``), and single-variable
    densities (``logpdf``).
    """
    keys: List[Dict] = []
    for model in SERVE_MODELS:
        singles = literals(model, grid=3)
        for literal in singles:
            keys.append({"model": model, "kind": "logprob", "event": literal})
            keys.append({"model": model, "kind": "prob", "event": literal})
        pairs = [
            (a, b) for a, b in itertools.combinations(singles, 2)
            if a.split()[0] != b.split()[0]
        ]
        # A fixed (seed-independent) sample caps the pairwise blow-up of
        # the wide models.
        pairs = random.Random("pairs|" + model).sample(
            pairs, min(len(pairs), MAX_PAIRS_PER_MODEL)
        )
        for a, b in pairs:
            keys.append(
                {"model": model, "kind": "logprob", "event": "%s and %s" % (a, b)}
            )
        for assignment in _assignments(model, grid=3):
            keys.append({"model": model, "kind": "logpdf", "assignment": assignment})
    return keys


def hot_ranks(n_keys: int) -> List[int]:
    """The fixed popularity order of the key space (rank -> key index).

    Independent of the seed, so every seed has the same hot set and the
    seed only drives the draws."""
    ranks = list(range(n_keys))
    random.Random("hot-ranks").shuffle(ranks)
    return ranks


def zipf_stream(n_keys: int, count: int, rng: random.Random, s: float = 1.1) -> List[int]:
    """``count`` key indices drawn from a Zipf(s) law over :func:`hot_ranks`."""
    ranks = hot_ranks(n_keys)
    weights = [1.0 / (rank + 1) ** s for rank in range(n_keys)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    return [ranks[bisect.bisect_left(cumulative, rng.random() * total)]
            for _ in range(count)]


# ---------------------------------------------------------------------------
# serve_fresh: distinct evidence every request, plus session streams.
# ---------------------------------------------------------------------------

#: Models with a continuous variable, so thresholds make every query new.
FRESH_MODELS = ["hmm20", "hiring", "grass", "clinical_trial", "heart_disease",
                "indian_gpa"]

#: Session models and how many observe/query rounds one session runs.
SESSION_MODELS = ["hmm20", "heart_disease", "hiring"]
SESSION_ROUNDS = 3
TENANTS = ["t0", "t1", "t2", "t3"]


class _Fresh:
    """Draws literals whose thresholds never repeat within one stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen = set()

    def value(self, model: str, name: str) -> float:
        """A value of ``name`` in its range, never drawn before."""
        low, high = VARIABLES[model][0][name]
        while True:
            value = round(self.rng.uniform(low, high), 6)
            if (name, value) not in self.seen:
                self.seen.add((name, value))
                return value

    def threshold(self, model: str, name: str) -> str:
        return "%s %s %r" % (name, self.rng.choice("<>"), self.value(model, name))

    def discrete(self, model: str, exclude=()) -> str:
        discrete = VARIABLES[model][1]
        names = sorted(set(discrete) - set(exclude))
        name = self.rng.choice(names)
        return "%s == %d" % (name, self.rng.choice(discrete[name]))

    def continuous_name(self, model: str, exclude=()) -> str:
        return self.rng.choice(sorted(set(VARIABLES[model][0]) - set(exclude)))


def fresh_query(fresh: _Fresh, model: str, shape: str) -> Dict:
    """One distinct query of ``shape`` (prior / logpdf / conditioned) that
    can never be a ResultCache hit: every one carries a new threshold."""
    rng = fresh.rng
    if shape == "prior":
        event = fresh.threshold(model, fresh.continuous_name(model))
        if VARIABLES[model][1] and rng.random() < 0.5:
            event = "%s and %s" % (event, fresh.discrete(model))
        return {"model": model, "kind": rng.choice(["logprob", "prob"]), "event": event}
    if shape == "logpdf":
        name = fresh.continuous_name(model)
        return {"model": model, "kind": "logpdf",
                "assignment": {name: fresh.value(model, name)}}
    # Conditioned: fresh continuous evidence, query on another variable.
    evidence_var = fresh.continuous_name(model)
    condition = fresh.threshold(model, evidence_var)
    event = fresh.discrete(model) if VARIABLES[model][1] else \
        fresh.threshold(model, fresh.continuous_name(model, (evidence_var,)))
    return {"model": model, "kind": rng.choice(["logprob", "prob"]),
            "event": event, "condition": condition}


def session_script(fresh: _Fresh, name: str, model: str) -> Dict:
    """One session: create, ``SESSION_ROUNDS`` x (observe, query), delete.

    Observations are fresh thresholds on continuous variables; a variable
    observed twice is only narrowed within what earlier observes left, so
    every observe has positive probability under its prefix posterior and
    no step can fail.  Queries read discrete marginals of the posterior.
    """
    rng = fresh.rng
    ranges = {name_: list(bounds) for name_, bounds in VARIABLES[model][0].items()}
    steps = []
    for _ in range(SESSION_ROUNDS):
        var = rng.choice(sorted(ranges))
        low, high = ranges[var]
        value = round(low + (high - low) * rng.uniform(0.2, 0.8), 6)
        if rng.random() < 0.5:
            event, ranges[var][1] = "%s < %r" % (var, value), value
        else:
            event, ranges[var][0] = "%s > %r" % (var, value), value
        steps.append({"verb": "observe", "event": event})
        steps.append({"verb": rng.choice(["query", "logprob"]),
                      "event": fresh.discrete(model)})
    return {"tenant": rng.choice(TENANTS), "session": name, "model": model,
            "steps": steps}


#: One cycle of serve_fresh arrivals: a prior query per model, three
#: densities, two conditioned queries per model and two sessions.  Each
#: cycle is shuffled, so any stretch of a few cycles has the same mix.
FRESH_CYCLE = (
    [("prior", m) for m in FRESH_MODELS]
    + [("logpdf", None)] * 3
    + [("conditioned", m) for m in FRESH_MODELS] * 2
    + [("session", None)] * 2
)


def fresh_stream(seed: int, count: int) -> List[Dict]:
    """``count`` arrivals, each a one-shot query or a whole session script,
    in seeded-shuffled :data:`FRESH_CYCLE` blocks."""
    rng = random.Random("fresh|%d" % (seed,))
    fresh = _Fresh(rng)
    out: List[Dict] = []
    rotation = itertools.count()
    while len(out) < count:
        cycle = list(FRESH_CYCLE)
        rng.shuffle(cycle)
        for shape, model in cycle:
            turn = next(rotation)
            if shape == "session":
                fresh_model = SESSION_MODELS[turn % len(SESSION_MODELS)]
                out.append({"session": session_script(
                    fresh, "s%d-%d" % (seed, len(out)), fresh_model)})
            else:
                model = model or FRESH_MODELS[turn % len(FRESH_MODELS)]
                out.append({"query": fresh_query(fresh, model, shape)})
    return out[:count]


# ---------------------------------------------------------------------------
# paper_library: seeded job stream over the paper's evaluation programs.
# ---------------------------------------------------------------------------

#: Table-2 tasks in the stream (decision tree, population): every tree on
#: the independent population, the smaller trees on the Bayes nets.  The
#: heaviest pairs are left out so a run holds enough jobs for a p90.
FAIRNESS_TASKS = [
    ("DT4", "independent"), ("DT14", "independent"), ("DT16", "independent"),
    ("DT16a", "independent"), ("DT44", "independent"),
    ("DT4", "bayes_net_1"), ("DT4", "bayes_net_2"),
    ("DT14", "bayes_net_1"), ("DT16", "bayes_net_1"),
]

#: Small-scale Table-4 benchmarks (names as built at scale 0.05).
PSI_TASKS = ["Digit Recognition", "Gamma Transforms", "Student Interviews2",
             "Student Interviews3", "Markov Switching3"]


def library_round(rng: random.Random) -> List[Dict]:
    """One shuffled round of jobs: every fairness task and PSI benchmark
    once, one HMM smoothing job per size, two each of the transform,
    rare-event and GPA jobs.  Parameters come from small fixed menus, so
    a run computes each distinct job's reference once."""
    jobs: List[Dict] = [
        {"job": "fairness", "tree": tree, "population": population}
        for tree, population in FAIRNESS_TASKS
    ]
    jobs += [{"job": "hmm", "n_step": n, "data_seed": rng.randrange(8)} for n in (3, 4, 5)]
    jobs += [{"job": "psi", "name": name} for name in PSI_TASKS]
    for _ in range(2):
        jobs.append({"job": "transforms", "bound": rng.choice([2.0, 3.0, 4.0, 5.0]),
                     "x_split": rng.choice([-1.0, 0.25, 2.0, 4.0])})
        jobs.append({"job": "rare", "x": rng.choice([3.8, 4.2, 4.6, 5.0, 5.5]),
                     "y": rng.choice([11, 13, 15])})
        jobs.append({"job": "gpa", "grid": sorted(rng.sample(range(1, 120), 8))})
    rng.shuffle(jobs)
    return jobs


def library_stream(seed: int, count: int) -> List[Dict]:
    rng = random.Random("library|%d" % (seed,))
    jobs: List[Dict] = []
    while len(jobs) < count:
        jobs.extend(library_round(rng))
    return jobs[:count]
