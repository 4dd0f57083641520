"""Unit tests for the textual SPPL parser."""

import math

import numpy as np
import pytest

from repro.compiler import SpplParseError
from repro.compiler import compile_sppl
from repro.compiler import parse_sppl
from repro.transforms import Id

X = Id("X")
Y = Id("Y")
Z = Id("Z")


class TestBasicParsing:
    def test_sample_statement(self):
        model = compile_sppl("X ~ normal(0, 1)")
        assert model.scope == frozenset(["X"])
        assert model.prob(X <= 0) == pytest.approx(0.5)

    def test_keyword_arguments(self):
        model = compile_sppl("X ~ bernoulli(p=0.25)")
        assert model.prob(X == 1) == pytest.approx(0.25)

    def test_constant_assignment_is_not_random(self):
        model = compile_sppl("mu = 3\nX ~ normal(mu, 1)")
        assert model.scope == frozenset(["X"])
        assert model.prob(X <= 3) == pytest.approx(0.5)

    def test_constant_lists_and_indexing(self):
        source = """
mus = [0, 10]
X ~ normal(mus[1], 1)
"""
        model = compile_sppl(source)
        assert model.prob(X <= 10) == pytest.approx(0.5)

    def test_atomic_constant_binding(self):
        model = compile_sppl("X ~ 4")
        assert model.prob(X == 4) == pytest.approx(1.0)

    def test_string_constant_binding(self):
        model = compile_sppl("X ~ 'hello'")
        assert model.prob(X == "hello") == pytest.approx(1.0)

    def test_transform_binding(self):
        source = """
X ~ uniform(0, 2)
Z ~ 3*X + 1
"""
        model = compile_sppl(source)
        assert model.prob(Z <= 4) == pytest.approx(0.5)

    def test_transform_with_equals_sign(self):
        source = """
X ~ uniform(0, 2)
Z = 3*X + 1
"""
        model = compile_sppl(source)
        assert model.prob(Z <= 4) == pytest.approx(0.5)

    def test_sqrt_and_power(self):
        source = """
X ~ uniform(0, 4)
Z ~ 5*sqrt(X) + 11
"""
        model = compile_sppl(source)
        assert model.prob(Z <= 16) == pytest.approx(0.25)

    def test_external_constants(self):
        model = compile_sppl("X ~ normal(mu, 1)", constants={"mu": 7})
        assert model.prob(X <= 7) == pytest.approx(0.5)

    def test_comments_and_docstrings_ignored(self):
        source = '''
"""A documented program."""
# a comment
X ~ uniform(0, 1)  # inline comment
'''
        model = compile_sppl(source)
        assert model.scope == frozenset(["X"])


class TestControlFlow:
    def test_if_else(self):
        source = """
X ~ uniform(0, 10)
if X < 4:
    Y ~ bernoulli(p=0.9)
else:
    Y ~ bernoulli(p=0.1)
"""
        model = compile_sppl(source)
        assert model.prob(Y == 1) == pytest.approx(0.4 * 0.9 + 0.6 * 0.1)

    def test_elif_chain(self):
        source = """
X ~ uniform(0, 9)
if X < 3:
    Y ~ 0
elif X < 6:
    Y ~ 1
else:
    Y ~ 2
"""
        model = compile_sppl(source)
        for value in (0, 1, 2):
            assert model.prob(Y == value) == pytest.approx(1.0 / 3.0)

    def test_bare_variable_test_means_equal_one(self):
        source = """
B ~ bernoulli(p=0.3)
if B:
    Y ~ 1
else:
    Y ~ 0
"""
        model = compile_sppl(source)
        assert model.prob(Y == 1) == pytest.approx(0.3)

    def test_chained_comparison(self):
        source = """
X ~ uniform(0, 10)
condition(2 < X < 4)
"""
        model = compile_sppl(source)
        assert model.prob(X < 3) == pytest.approx(0.5)

    def test_boolean_operators(self):
        source = """
X ~ uniform(0, 1)
Y ~ uniform(0, 1)
if (X < 0.5) and (Y < 0.5):
    Z ~ 1
else:
    Z ~ 0
"""
        model = compile_sppl(source)
        assert model.prob(Z == 1) == pytest.approx(0.25)

    def test_not_operator(self):
        source = """
X ~ uniform(0, 1)
if not (X < 0.25):
    Z ~ 1
else:
    Z ~ 0
"""
        model = compile_sppl(source)
        assert model.prob(Z == 1) == pytest.approx(0.75)

    def test_for_loop_over_array(self):
        source = """
n = 3
X = array(n)
X[0] ~ bernoulli(p=0.5)
for t in range(1, n):
    if X[t-1] == 1:
        X[t] ~ bernoulli(p=0.9)
    else:
        X[t] ~ bernoulli(p=0.1)
"""
        model = compile_sppl(source)
        assert model.scope == frozenset(["X[0]", "X[1]", "X[2]"])
        assert model.prob(Id("X[2]") == 1) == pytest.approx(0.5)

    def test_switch_iterator(self):
        source = """
mus = [0, 10]
B ~ bernoulli(p=0.5)
for b in switch(B, [0, 1]):
    X ~ normal(mus[b], 1)
"""
        model = compile_sppl(source)
        assert model.prob(X > 5) == pytest.approx(0.5, abs=1e-6)

    def test_condition_statement(self):
        source = """
X ~ normal(0, 1)
condition(X > 0)
"""
        model = compile_sppl(source)
        assert model.prob(X > 1) == pytest.approx(0.3173105 / 2 / 0.5, rel=1e-4)

    def test_membership_condition(self):
        source = """
N ~ choice({'a': 0.2, 'b': 0.3, 'c': 0.5})
condition(N in {'a', 'b'})
"""
        model = compile_sppl(source)
        assert model.prob(Id("N") == "a") == pytest.approx(0.4)


class TestParserErrors:
    def test_unknown_name(self):
        with pytest.raises(SpplParseError):
            compile_sppl("X ~ normal(unknown_constant, 1)")

    def test_unsupported_statement(self):
        with pytest.raises(SpplParseError):
            parse_sppl("while True:\n    pass")

    def test_invalid_syntax(self):
        with pytest.raises(SpplParseError):
            parse_sppl("X ~ ~ normal(0,1) :::")

    def test_comparing_two_random_variables_rejected(self):
        source = """
X ~ normal(0, 1)
Y ~ normal(0, 1)
condition(X < Y)
"""
        with pytest.raises(SpplParseError):
            parse_sppl(source)

    def test_loop_over_non_constant_rejected(self):
        source = """
X ~ normal(0, 1)
for i in X:
    Y ~ normal(0, 1)
"""
        with pytest.raises(SpplParseError):
            parse_sppl(source)

    def test_polynomial_degree_bound_applies_to_programs(self):
        with pytest.raises(SpplParseError, match="degree"):
            parse_sppl("X ~ uniform(0, 2)\nY = X ** 100000")

    def test_array_index_must_be_integer(self):
        source = """
X = array(3)
X[0.5] ~ normal(0, 1)
"""
        with pytest.raises(SpplParseError):
            parse_sppl(source)


class TestParseEventScope:
    def test_indexed_scope_names_enable_subscript_syntax(self):
        # Serving boundary: scope names like "X[0]" (loop-translated
        # arrays) make "X" resolvable as an array in query strings.
        from repro.compiler import SpplParser

        parser = SpplParser()
        event = parser.parse_event("X[1] < 0.5", scope=["X[0]", "X[1]", "Y"])
        assert event.get_symbols() == {"X[1]"}

    def test_subscript_and_plain_names_combine(self):
        from repro.compiler import SpplParser

        event = SpplParser().parse_event(
            "X[0] < 0.5 and Y == 1", scope=["X[0]", "Y"]
        )
        assert event.get_symbols() == {"X[0]", "Y"}

    def test_model_level_textual_query_on_indexed_variables(self):
        from repro.workloads import hmm

        model = hmm.model(2)
        assert model.logprob("X[0] < 0.5") == model.logprob(Id("X[0]") < 0.5)

    def test_unknown_subscript_base_still_rejected(self):
        from repro.compiler import SpplParser

        with pytest.raises(SpplParseError):
            SpplParser().parse_event("W[0] < 1", scope=["X[0]"])


class TestFlippedComparisons:
    def test_constant_on_left(self):
        model = compile_sppl("X ~ uniform(0, 10)\ncondition(3 > X)")
        assert model.prob(X < 1.5) == pytest.approx(0.5)

    def test_constant_on_left_equality(self):
        model = compile_sppl("N ~ choice({'a': 0.5, 'b': 0.5})\ncondition('a' == N)")
        assert model.prob(Id("N") == "a") == pytest.approx(1.0)


class TestParserMatchesCommandDsl:
    def test_indian_gpa_equivalence(self):
        from repro.workloads import indian_gpa

        model = indian_gpa.model()
        assert model.prob(Id("Perfect") == 1) == pytest.approx(0.125)
        assert model.prob(Id("GPA") <= 4) == pytest.approx(0.5 * 0.9 * 0.4 + 0.5)
