"""Discrete exactness oracle: random finite-domain programs against
brute-force enumeration.

A seeded corpus of small SPPL programs (nominal and bounded discrete
leaves, ``if``/``else``, ``switch`` and ``condition``) is compiled by the
engine and, separately, run by an enumerator written here.  The
enumerator shares no code with the engine: it walks every execution of
the program with exact ``fractions.Fraction`` weights and evaluates
events as plain Python predicates on concrete values, without
``repro.sets`` or the ``repro.events`` solver.  Its semantics are the
translation's: an ``if`` mixes its branches with the probabilities of
their guards, and ``condition`` renormalizes what it keeps.

Every engine answer -- ``logprob``, the posterior marginals of
``condition`` and ``constrain``, and ``logpdf`` -- must agree within
:data:`RTOL` relative error, with the model's query cache on and with
``cache=False``.  Small state spaces enumerated completely give a referee
for the inference code that no differential between two engine paths
gives.

The corpus is drawn from ``REPRO_CHAOS_SEED`` (see ``conftest.py``): the
default seed keeps tier-1 runs deterministic, and nightly chaos runs draw
a fresh corpus under a printed seed, replayable with
``REPRO_CHAOS_SEED=<seed> python -m pytest tests/test_exact_oracle.py``.
"""

import math
import operator
import random
from fractions import Fraction
from math import comb

import pytest

from repro.engine import SpplModel

#: Relative error allowed between an engine answer and the exact value.
RTOL = 1e-12

#: Programs in the corpus.
CORPUS_SIZE = 500

NOMINALS = ["a", "b", "c", "d"]

COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class ZeroMass(Exception):
    """A ``condition`` that keeps no execution."""


# ---------------------------------------------------------------------------
# Leaf distributions: SPPL text and exact probability mass function.
# ---------------------------------------------------------------------------

def _weights_text(weights):
    return "{%s}" % ", ".join("%r: %d" % (k, w) for k, w in weights.items())


def _normalized(weights):
    total = sum(weights.values())
    return {k: Fraction(w, total) for k, w in weights.items()}


def random_leaf(rng, nominal):
    """``(SPPL text, {value: exact probability})`` of a random leaf."""
    if nominal:
        values = rng.sample(NOMINALS, rng.randint(1, 3))
        weights = {v: rng.randint(1, 9) for v in sorted(values)}
        return "choice(%s)" % _weights_text(weights), _normalized(weights)
    family = rng.choice(["discrete", "bernoulli", "randint", "binomial", "atomic"])
    if family == "discrete":
        values = rng.sample(range(4), rng.randint(1, 3))
        weights = {v: rng.randint(1, 9) for v in sorted(values)}
        return "discrete(%s)" % _weights_text(weights), _normalized(weights)
    if family == "bernoulli":
        p = Fraction(rng.randint(1, 9), 10)
        return "bernoulli(p=%s)" % float(p), {0: 1 - p, 1: p}
    if family == "randint":
        low = rng.randint(0, 2)
        high = low + rng.randint(1, 3)
        n = high - low
        return "randint(%d, %d)" % (low, high), {
            v: Fraction(1, n) for v in range(low, high)
        }
    if family == "binomial":
        n = rng.randint(1, 3)
        p = Fraction(rng.randint(1, 9), 10)
        return "binomial(%d, %s)" % (n, float(p)), {
            k: comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)
        }
    value = rng.randint(0, 3)
    return "atomic(%d)" % value, {value: Fraction(1)}


# ---------------------------------------------------------------------------
# Events: SPPL text and a plain Python predicate.
# ---------------------------------------------------------------------------

def random_event(rng, variables, depth=0):
    """``(SPPL text, predicate on a dict of concrete values)``."""
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        (left, lp), (right, rp) = (
            random_event(rng, variables, depth + 1) for _ in range(2)
        )
        if rng.random() < 0.5:
            return "(%s) and (%s)" % (left, right), lambda w: lp(w) and rp(w)
        return "(%s) or (%s)" % (left, right), lambda w: lp(w) or rp(w)
    if depth < 2 and roll < 0.4:
        inner, ip = random_event(rng, variables, depth + 1)
        return "not (%s)" % (inner,), lambda w: not ip(w)
    name = rng.choice(sorted(variables))
    nominal, support = variables[name]
    if nominal:
        pool = sorted(support) + ["z"]
    else:
        pool = sorted(support) + [-1, 4, 1.5]
    if rng.random() < 0.3:
        values = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        text = "{%s}" % ", ".join(repr(v) for v in sorted(values, key=str))
        return "%s in %s" % (name, text), lambda w: w[name] in values
    op = rng.choice(["==", "!="] if nominal else sorted(COMPARISONS))
    value = rng.choice(pool)
    compare = COMPARISONS[op]
    return "%s %s %r" % (name, op, value), lambda w: compare(w[name], value)


# ---------------------------------------------------------------------------
# Programs: SPPL source and the enumerator.
# ---------------------------------------------------------------------------

class Program:
    """One random program: its SPPL source and its exact distribution.

    Statements are drawn one at a time and enumerated as they are drawn.
    A statement whose ``condition`` keeps no execution is redrawn up to
    twice; after that the program stops there with ``zero`` set, and the
    engine must refuse to compile it.
    """

    def __init__(self, rng, index, seed):
        self.rng = rng
        self.index = index
        self.seed = seed
        self.models = None
        self.variables = {}  # name -> (nominal, support seen in any branch)
        self.worlds = {(): Fraction(1)}
        self.zero = False
        lines = []
        for i in range(rng.randint(3, 7)):
            kind = "sample" if i == 0 else rng.choice(
                ["sample", "if", "switch", "condition"])
            for _ in range(3):
                saved = dict(self.variables)
                drawn = []
                statement = getattr(self, "_" + kind)(drawn)
                try:
                    worlds = run([statement], self.worlds)
                    break
                except ZeroMass:
                    self.variables = saved
            else:
                self.zero = True
            lines += drawn
            if self.zero:
                break
            self.worlds = worlds
        self.source = "\n".join(lines) + "\n"

    def _new_name(self, offset=0):
        return "V%d" % (len(self.variables) + offset,)

    def _declare(self, name, nominal, support):
        seen = self.variables.get(name, (nominal, set()))[1]
        self.variables[name] = (nominal, seen | set(support))

    def _sample(self, lines, indent="", name=None, nominal=None):
        name = name or self._new_name()
        if nominal is None:
            nominal = self.rng.random() < 0.3
        text, pmf = random_leaf(self.rng, nominal)
        lines.append("%s%s ~ %s" % (indent, name, text))
        self._declare(name, nominal, pmf)
        return ("sample", name, pmf)

    def _condition(self, lines, indent=""):
        text, predicate = random_event(self.rng, self.variables)
        lines.append("%scondition(%s)" % (indent, text))
        return ("condition", predicate)

    def _if(self, lines):
        # Every branch samples the same new variables (restriction R2).
        rng = self.rng
        scope = dict(self.variables)
        names = [self._new_name(i) for i in range(rng.randint(1, 2))]
        kinds = {name: rng.random() < 0.3 for name in names}
        n_branches = rng.randint(2, 3)
        branches = []
        for b in range(n_branches):
            if b == n_branches - 1:
                lines.append("else:")
                guard = None
            else:
                text, guard = random_event(rng, scope)
                lines.append("%s (%s):" % ("if" if b == 0 else "elif", text))
            body = [self._sample(lines, "    ", name, kinds[name]) for name in names]
            if rng.random() < 0.3:
                body.append(self._condition(lines, "    "))
            branches.append((guard, body))
        return ("if", branches)

    def _switch(self, lines):
        rng = self.rng
        subject = rng.choice(sorted(self.variables))
        values = sorted(self.variables[subject][1])
        name = self._new_name()
        table = {}
        for value in values:
            keys = rng.sample(range(4), rng.randint(1, 3))
            table[value] = {k: rng.randint(1, 9) for k in sorted(keys)}
        constant = "T_%s" % (name,)
        lines.append("%s = {%s}" % (constant, ", ".join(
            "%r: %s" % (v, _weights_text(w)) for v, w in table.items())))
        lines.append("for v in switch(%s, %r):" % (subject, values))
        lines.append("    %s ~ discrete(%s[v])" % (name, constant))
        self._declare(name, False, set().union(*map(set, table.values())))
        return ("if", [
            (lambda w, value=value: w[subject] == value,
             [("sample", name, _normalized(table[value]))])
            for value in values
        ])


def _normalize(worlds):
    total = sum(worlds.values())
    if total == 0:
        raise ZeroMass()
    return {w: p / total for w, p in worlds.items()}


def run(statements, worlds):
    """The distribution over executions after ``statements``: a dict from
    sorted ``(name, value)`` tuples to exact probabilities."""
    for statement in statements:
        if statement[0] == "sample":
            _, name, pmf = statement
            worlds = {
                tuple(sorted(world + ((name, value),))): p * q
                for world, p in worlds.items()
                for value, q in pmf.items()
            }
        elif statement[0] == "condition":
            predicate = statement[1]
            worlds = _normalize(
                {w: p for w, p in worlds.items() if predicate(dict(w))}
            )
        else:
            mixed = {}
            remaining = worlds
            for guard, body in statement[1]:
                chosen = {
                    w: p for w, p in remaining.items()
                    if guard is None or guard(dict(w))
                }
                remaining = {w: p for w, p in remaining.items() if w not in chosen}
                mass = sum(chosen.values())
                if mass == 0:
                    continue
                for world, p in run(body, _normalize(chosen)).items():
                    mixed[world] = mixed.get(world, 0) + mass * p
            worlds = _normalize(mixed)
    return worlds


def mass(worlds, predicate):
    return sum(p for w, p in worlds.items() if predicate(dict(w)))


# ---------------------------------------------------------------------------
# The corpus.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus(chaos_seed):
    rng = random.Random("exact-oracle|%d" % (chaos_seed,))
    programs = [Program(rng, i, chaos_seed) for i in range(CORPUS_SIZE)]
    for program in programs:
        if program.zero:
            continue
        cached = SpplModel.from_source(program.source)
        program.models = {True: cached, False: SpplModel(cached.spe, cache=False)}
    return programs


def _label(program, detail=""):
    return "program %d (REPRO_CHAOS_SEED=%d) %s\n%s" % (
        program.index, program.seed, detail, program.source)


def assert_close(actual, exact, label):
    exact = float(exact)
    if exact == 0.0:
        assert actual == 0.0, label
    else:
        assert abs(actual - exact) <= RTOL * exact, "%r vs exact %r: %s" % (
            actual, exact, label)


def assert_marginals(posterior, worlds, program, label):
    """Every ``V == x`` of the posterior against the enumerated one."""
    for name, (nominal, support) in sorted(program.variables.items()):
        for value in sorted(support) + (["z"] if nominal else [4]):
            event = "%s == %r" % (name, value)
            exact = mass(worlds, lambda w: w[name] == value)
            assert_close(posterior.prob(event), exact, label + " | " + event)


def _queries(program, salt):
    """A per-program rng, so each test draws the same queries whichever
    order tests run in."""
    return random.Random("%d|%d|%s" % (program.seed, program.index, salt))


def _assignment(rng, program):
    names = sorted(program.variables)
    chosen = rng.sample(names, rng.randint(1, len(names)))
    assignment = {}
    for name in chosen:
        nominal, support = program.variables[name]
        pool = sorted(support) + ["z" if nominal else 5]
        assignment[name] = rng.choice(pool)
    return assignment


def _matches(assignment):
    return lambda w: all(w[k] == v for k, v in assignment.items())


def test_corpus_compiles_and_refuses_zero_mass_conditions(corpus):
    compiled = [p for p in corpus if p.models is not None]
    assert len(compiled) >= CORPUS_SIZE // 2
    for program in corpus:
        if program.zero:
            with pytest.raises(ValueError):
                SpplModel.from_source(program.source)


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
def test_logprob_matches_enumeration(corpus, cache):
    for program in corpus:
        if program.models is None:
            continue
        model = program.models[cache]
        rng = _queries(program, "logprob")
        for _ in range(3):
            text, predicate = random_event(rng, program.variables)
            exact = mass(program.worlds, predicate)
            label = _label(program, "logprob(%s)" % (text,))
            logp = model.logprob(text)
            if exact == 0:
                assert logp == -math.inf, label
            else:
                assert_close(math.exp(logp), exact, label)


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
def test_condition_posterior_marginals(corpus, cache):
    for program in corpus:
        if program.models is None:
            continue
        rng = _queries(program, "condition")
        for _ in range(4):
            text, predicate = random_event(rng, program.variables)
            if mass(program.worlds, predicate) > 0:
                break
        else:
            continue
        posterior = program.models[cache].condition(text)
        worlds = _normalize(
            {w: p for w, p in program.worlds.items() if predicate(dict(w))}
        )
        assert_marginals(
            posterior, worlds, program, _label(program, "condition(%s)" % (text,))
        )


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
def test_logpdf_matches_enumeration(corpus, cache):
    for program in corpus:
        if program.models is None:
            continue
        rng = _queries(program, "logpdf")
        for _ in range(2):
            assignment = _assignment(rng, program)
            exact = mass(program.worlds, _matches(assignment))
            label = _label(program, "logpdf(%r)" % (assignment,))
            logp = program.models[cache].logpdf(assignment)
            if exact == 0:
                assert logp == -math.inf, label
            else:
                assert_close(math.exp(logp), exact, label)


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
def test_constrain_posterior_marginals(corpus, cache):
    for program in corpus:
        if program.models is None:
            continue
        rng = _queries(program, "constrain")
        for _ in range(4):
            assignment = _assignment(rng, program)
            if mass(program.worlds, _matches(assignment)) > 0:
                break
        else:
            continue
        posterior = program.models[cache].constrain(assignment)
        predicate = _matches(assignment)
        worlds = _normalize(
            {w: p for w, p in program.worlds.items() if predicate(dict(w))}
        )
        assert_marginals(
            posterior, worlds, program, _label(program, "constrain(%r)" % (assignment,))
        )
