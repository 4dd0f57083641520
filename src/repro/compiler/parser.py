"""Textual front-end for SPPL programs.

Programs are written in a Python-like surface syntax (the syntax used in the
paper's figures), for example::

    Nationality ~ choice({'India': 0.5, 'USA': 0.5})
    if (Nationality == 'India'):
        Perfect ~ bernoulli(p=0.10)
        if Perfect:
            GPA ~ atomic(10)
        else:
            GPA ~ uniform(0, 10)
    else:
        Perfect ~ bernoulli(p=0.15)
        if Perfect:
            GPA ~ atomic(4)
        else:
            GPA ~ uniform(0, 4)

Supported constructs:

* ``x ~ D(...)``      sample a variable from a distribution,
* ``x ~ <expr>``      define a derived variable (numeric transform) or an
  atomic constant,
* ``x = <expr>``      parse-time constants (numbers, lists, dicts),
* ``x = array(n)``    declare an array of ``n`` random variables ``x[i]``,
* ``if/elif/else``    probabilistic branching,
* ``for i in range(a, b):``   bounded loops (unrolled at parse time),
* ``for v in switch(x, values):``  the switch-cases macro of Eq. 4,
* ``condition(<event>)``     truncate the prior to an event.

The parser re-uses the Python ``ast`` module: the only lexical extension is
the ``~`` binding operator, which is rewritten to an ordinary assignment
before parsing.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Dict
from typing import List
from typing import Optional

from ..distributions import DISTRIBUTION_CONSTRUCTORS
from ..distributions import Distribution
from ..distributions import atomic
from ..distributions import choice
from ..errors import SpplParseError
from ..events import Event
from ..sets import Interval
from ..sets import interval
from ..transforms import Identity
from ..transforms import PolynomialDegreeError
from ..transforms import Transform
from ..transforms import exp as exp_transform
from ..transforms import log as log_transform
from ..transforms import sqrt as sqrt_transform
from ..spe import SPE
from .commands import Assign
from .commands import Command
from .commands import Condition
from .commands import IfElse
from .commands import Sample
from .commands import Sequence
from .commands import Skip
from .commands import compile_command

_SAMPLE_PATTERN = re.compile(
    r"(?P<lhs>[A-Za-z_]\w*(?:\[[^\]]+\])?)\s*~(?![=~])\s*(?P<rhs>[^#\n]+)"
)


def _rewrite_sample_operator(source: str) -> str:
    """Rewrite ``x ~ e`` into ``x = __sample__(e)`` so Python can parse it."""
    lines = []
    for line in source.splitlines():
        rewritten = _SAMPLE_PATTERN.sub(
            lambda m: "%s = __sample__(%s)" % (m.group("lhs"), m.group("rhs").rstrip()),
            line,
        )
        lines.append(rewritten)
    return "\n".join(lines)


def binspace(low: float, high: float, n: int) -> List[Interval]:
    """Partition ``[low, high]`` into ``n`` equal-width intervals (Lst. 4)."""
    if n < 1:
        raise ValueError("binspace requires at least one bin.")
    _check_sequence_length(n)
    edges = [low + (high - low) * i / n for i in range(n + 1)]
    bins = []
    for i in range(n):
        left_open = i > 0
        bins.append(Interval(edges[i], edges[i + 1], left_open, False))
    return bins


class _SwitchIterator:
    """Marker returned by ``switch(x, values)`` inside a ``for`` statement."""

    def __init__(self, subject, values):
        self.subject = subject
        self.values = list(values)


class _ArrayReference:
    """Marker for a declared array of random variables."""

    def __init__(self, name: str, length: int):
        self.name = name
        self.length = length


#: Folded integer constants must fit a float: ``2 ** 1024`` already does not.
_MAX_CONSTANT_BITS = 1024


#: Longest ``range``, ``binspace`` or repeated or concatenated sequence an
#: expression may build: event text runs in the serving process.
_MAX_SEQUENCE_LENGTH = 10 ** 6
_SEQUENCES = (list, tuple, str)


def _check_sequence_length(length) -> None:
    if length > _MAX_SEQUENCE_LENGTH:
        raise SpplParseError("Sequence of %s items exceeds the limit of %d."
                             % (length, _MAX_SEQUENCE_LENGTH))


def _bounded_range(*args) -> range:
    """``range`` that refuses more than ``_MAX_SEQUENCE_LENGTH`` items."""
    values = range(*args)
    try:
        _check_sequence_length(len(values))
    except OverflowError:  # more items than a machine word can count
        _check_sequence_length(math.inf)
    return values


def _check_constant_bits(bits: int) -> None:
    if bits > _MAX_CONSTANT_BITS:
        raise SpplParseError(
            "Integer constant of at least %d bits is outside the float range."
            % (bits,)
        )


class SpplParser:
    """Parser translating SPPL source text into the command IR."""

    def __init__(self, constants: Dict[str, object] = None):
        self.constants: Dict[str, object] = dict(constants or {})
        self.randoms: set = set()
        self.arrays: Dict[str, int] = {}
        self.functions = dict(DISTRIBUTION_CONSTRUCTORS)
        self.functions.update(
            {
                "sqrt": sqrt_transform,
                "exp": exp_transform,
                "log": log_transform,
                "abs": abs,
                "binspace": binspace,
                "range": _bounded_range,
                "len": len,
                "min": min,
                "max": max,
                "sum": sum,
            }
        )

    # -- Entry points ---------------------------------------------------------

    def parse(self, source: str) -> Command:
        """Parse SPPL source text into a single command."""
        rewritten = _rewrite_sample_operator(source)
        try:
            module = ast.parse(rewritten)
        except SyntaxError as error:
            raise SpplParseError("Invalid SPPL syntax: %s" % (error,)) from error
        return self._parse_block(module.body)

    def parse_event(self, text: str, scope=None) -> Event:
        """Parse a textual event (e.g. ``"X > 1 and Y == 'a'"``).

        ``scope`` names the random variables the event may mention; when
        given, it is added to the parser's set of known random variables
        for this (and subsequent) calls.  Scope names of the indexed form
        ``base[i]`` (how ``for``-loop arrays translate, e.g. the HMM's
        ``X[0]``) additionally register ``base`` as an array, so query
        strings can use the natural subscript syntax ``"X[0] < 0.5"``.
        This is the public API for turning user-facing query strings into
        :class:`~repro.events.Event` values -- used by
        :meth:`repro.engine.SpplModel.logprob` and friends, and by the
        serve wire layer on every textual query.
        """
        if scope is not None:
            self.randoms = self.randoms | set(scope)
            for name in scope:
                match = re.match(r"^([A-Za-z_]\w*)\[(\d+)\]$", name)
                if match:
                    base, index = match.group(1), int(match.group(2))
                    self.arrays[base] = max(self.arrays.get(base, 0), index + 1)
        try:
            expression = ast.parse(text, mode="eval").body
        except SyntaxError as error:
            raise SpplParseError(
                "Invalid event syntax %r: %s" % (text, error)
            ) from error
        return self._to_event(self._eval(expression))

    # -- Statements -----------------------------------------------------------

    def _parse_block(self, statements) -> Command:
        commands: List[Command] = []
        for statement in statements:
            commands.append(self._parse_statement(statement))
        return Sequence(commands)

    def _parse_statement(self, node) -> Command:
        if isinstance(node, ast.Assign):
            return self._parse_assign(node)
        if isinstance(node, ast.If):
            return self._parse_if(node)
        if isinstance(node, ast.For):
            return self._parse_for(node)
        if isinstance(node, ast.Expr):
            return self._parse_expression_statement(node)
        if isinstance(node, ast.Pass):
            return Skip()
        raise SpplParseError(
            "Unsupported statement at line %d: %s"
            % (getattr(node, "lineno", -1), type(node).__name__)
        )

    def _parse_assign(self, node: ast.Assign) -> Command:
        if len(node.targets) != 1:
            raise SpplParseError("Multiple assignment targets are not supported.")
        target = node.targets[0]
        value = node.value

        is_sample = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "__sample__"
        )
        if is_sample:
            inner = value.args[0]
            return self._bind_random(target, self._eval(inner))

        # Array declaration: x = array(n)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "array"
            and isinstance(target, ast.Name)
        ):
            length = int(self._eval(value.args[0]))
            self.arrays[target.id] = length
            return Skip()

        evaluated = self._eval(value)
        if isinstance(evaluated, (Distribution, Transform, Event)):
            return self._bind_random(target, evaluated)
        if isinstance(target, ast.Name):
            self.constants[target.id] = evaluated
            return Skip()
        return self._bind_random(target, evaluated)

    def _bind_random(self, target, evaluated) -> Command:
        symbol = self._target_symbol(target)
        self.randoms.add(symbol)
        if isinstance(evaluated, Distribution):
            return Sample(symbol, evaluated)
        if isinstance(evaluated, Transform):
            return Assign(symbol, evaluated)
        if isinstance(evaluated, str):
            return Sample(symbol, choice({evaluated: 1.0}))
        if isinstance(evaluated, bool):
            return Sample(symbol, atomic(int(evaluated)))
        if isinstance(evaluated, (int, float)):
            return Sample(symbol, atomic(float(evaluated)))
        raise SpplParseError(
            "Cannot bind %r to %r: expected a distribution, transform or constant."
            % (symbol, evaluated)
        )

    def _target_symbol(self, target) -> str:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Subscript):
            if not isinstance(target.value, ast.Name):
                raise SpplParseError("Only simple array subscripts are supported.")
            name = target.value.id
            index = self._eval(target.slice)
            if not isinstance(index, (int, float)) or int(index) != index:
                raise SpplParseError("Array index must be an integer constant.")
            return "%s[%d]" % (name, int(index))
        raise SpplParseError("Unsupported assignment target: %r." % (target,))

    def _parse_if(self, node: ast.If) -> Command:
        branches = []
        current: Optional[ast.If] = node
        while True:
            event = self._to_event(self._eval(current.test))
            body = self._parse_block(current.body)
            branches.append((event, body))
            orelse = current.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                current = orelse[0]
                continue
            if orelse:
                branches.append((None, self._parse_block(orelse)))
            else:
                branches.append((None, Skip()))
            break
        return IfElse(branches)

    def _parse_for(self, node: ast.For) -> Command:
        if not isinstance(node.target, ast.Name):
            raise SpplParseError("Loop targets must be simple names.")
        loop_var = node.target.id
        iterator = self._eval(node.iter)

        if isinstance(iterator, _SwitchIterator):
            return self._expand_switch(loop_var, iterator, node.body)

        if isinstance(iterator, range):
            values = list(iterator)
        elif isinstance(iterator, (list, tuple)):
            values = list(iterator)
        else:
            raise SpplParseError(
                "for-loops must iterate over range(...), a constant list, or "
                "switch(...)."
            )
        commands: List[Command] = []
        saved = self.constants.get(loop_var, _MISSING)
        for value in values:
            self.constants[loop_var] = value
            commands.append(self._parse_block(node.body))
        self._restore_constant(loop_var, saved)
        return Sequence(commands)

    def _expand_switch(self, loop_var: str, iterator: _SwitchIterator, body) -> Command:
        subject = iterator.subject
        if not isinstance(subject, Transform):
            raise SpplParseError("switch() requires a random variable as its subject.")
        branches = []
        saved = self.constants.get(loop_var, _MISSING)
        for value in iterator.values:
            self.constants[loop_var] = value
            guard = self._case_event(subject, value)
            branches.append((guard, self._parse_block(body)))
        self._restore_constant(loop_var, saved)
        return IfElse(branches)

    @staticmethod
    def _case_event(subject: Transform, value) -> Event:
        if isinstance(value, Interval):
            return subject << value
        if isinstance(value, (set, frozenset, list, tuple)):
            return subject << set(value)
        return subject == value

    def _restore_constant(self, name: str, saved) -> None:
        if saved is _MISSING:
            self.constants.pop(name, None)
        else:
            self.constants[name] = saved

    def _parse_expression_statement(self, node: ast.Expr) -> Command:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "condition"
        ):
            if len(value.args) != 1:
                raise SpplParseError("condition(...) takes exactly one argument.")
            event = self._to_event(self._eval(value.args[0]))
            return Condition(event)
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return Skip()  # docstring
        raise SpplParseError(
            "Unsupported expression statement at line %d." % (getattr(node, "lineno", -1),)
        )

    # -- Expressions ----------------------------------------------------------

    def _eval(self, node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self._eval_name(node.id)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unaryop(node)
        if isinstance(node, ast.BoolOp):
            return self._eval_boolop(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Dict):
            return {
                self._eval(k): self._eval(v) for k, v in zip(node.keys, node.values)
            }
        if isinstance(node, (ast.List, ast.Tuple)):
            return [self._eval(item) for item in node.elts]
        if isinstance(node, ast.Set):
            return {self._eval(item) for item in node.elts}
        if isinstance(node, ast.Index):  # pragma: no cover - legacy Python AST
            return self._eval(node.value)
        raise SpplParseError("Unsupported expression: %s." % (ast.dump(node),))

    def _eval_name(self, name: str):
        if name in self.constants:
            return self.constants[name]
        if name in self.arrays:
            return _ArrayReference(name, self.arrays[name])
        if name in self.randoms:
            return Identity(name)
        if name in self.functions:
            return self.functions[name]
        if name == "switch":
            return _SwitchIterator
        if name in ("inf", "INF"):
            return math.inf
        if name in ("pi",):
            return math.pi
        raise SpplParseError("Unknown name %r." % (name,))

    def _eval_subscript(self, node: ast.Subscript):
        base = self._eval(node.value)
        index = self._eval(node.slice)
        if isinstance(base, _ArrayReference):
            if not isinstance(index, (int, float)) or int(index) != index:
                raise SpplParseError("Array index must be an integer constant.")
            return Identity("%s[%d]" % (base.name, int(index)))
        return base[index]

    def _eval_binop(self, node: ast.BinOp):
        left = self._eval(node.left)
        right = self._eval(node.right)
        if isinstance(node.op, ast.Add):
            if isinstance(left, _SEQUENCES) and isinstance(right, _SEQUENCES):
                _check_sequence_length(len(left) + len(right))
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            for items, count in ((left, right), (right, left)):
                if isinstance(items, _SEQUENCES) and isinstance(count, int):
                    _check_sequence_length(len(items) * count)
            product = left * right
            if isinstance(product, int):
                _check_constant_bits(product.bit_length())
            return product
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Pow):
            if isinstance(left, int) and isinstance(right, int) and right > 0:
                # |left| ** right >= 2 ** ((bits(|left|) - 1) * right): reject
                # before Python computes a power of millions of digits.
                _check_constant_bits((abs(left).bit_length() - 1) * right + 1)
            try:
                return left ** right
            except (PolynomialDegreeError, OverflowError) as error:
                raise SpplParseError(str(error)) from error
        if isinstance(node.op, ast.FloorDiv):
            return left // right
        if isinstance(node.op, ast.Mod):
            return left % right
        raise SpplParseError("Unsupported binary operator: %r." % (node.op,))

    def _eval_unaryop(self, node: ast.UnaryOp):
        operand = self._eval(node.operand)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return +operand
        if isinstance(node.op, ast.Not):
            return self._to_event(operand).negate()
        raise SpplParseError("Unsupported unary operator: %r." % (node.op,))

    def _eval_boolop(self, node: ast.BoolOp):
        operands = [self._to_event(self._eval(value)) for value in node.values]
        result = operands[0]
        for operand in operands[1:]:
            if isinstance(node.op, ast.And):
                result = result & operand
            else:
                result = result | operand
        return result

    def _eval_compare(self, node: ast.Compare):
        operands = [self._eval(node.left)] + [self._eval(c) for c in node.comparators]
        results = []
        for left, op, right in zip(operands[:-1], node.ops, operands[1:]):
            results.append(self._compare(left, op, right))
        if len(results) == 1:
            return results[0]
        events = [self._to_event(r) for r in results]
        combined = events[0]
        for event in events[1:]:
            combined = combined & event
        return combined

    def _compare(self, left, op, right):
        left_random = isinstance(left, Transform)
        right_random = isinstance(right, Transform)
        if not left_random and not right_random:
            return self._python_compare(left, op, right)
        if left_random and right_random:
            raise SpplParseError(
                "Comparisons between two random expressions are not supported "
                "(restriction R3)."
            )
        if right_random:
            left, right = right, left
            op = _FLIPPED_COMPARISONS.get(type(op), op)
            if not isinstance(op, ast.cmpop):
                op = op()
        if isinstance(op, ast.Lt):
            return left < right
        if isinstance(op, ast.LtE):
            return left <= right
        if isinstance(op, ast.Gt):
            return left > right
        if isinstance(op, ast.GtE):
            return left >= right
        if isinstance(op, ast.Eq):
            return left == right
        if isinstance(op, ast.NotEq):
            return left != right
        if isinstance(op, ast.In):
            return left << (set(right) if isinstance(right, (list, tuple)) else right)
        raise SpplParseError("Unsupported comparison operator: %r." % (op,))

    @staticmethod
    def _python_compare(left, op, right):
        if isinstance(op, ast.Lt):
            return left < right
        if isinstance(op, ast.LtE):
            return left <= right
        if isinstance(op, ast.Gt):
            return left > right
        if isinstance(op, ast.GtE):
            return left >= right
        if isinstance(op, ast.Eq):
            return left == right
        if isinstance(op, ast.NotEq):
            return left != right
        if isinstance(op, ast.In):
            return left in right
        raise SpplParseError("Unsupported constant comparison: %r." % (op,))

    def _eval_call(self, node: ast.Call):
        func = self._eval(node.func)
        args = [self._eval(arg) for arg in node.args]
        kwargs = {kw.arg: self._eval(kw.value) for kw in node.keywords}
        if func is _SwitchIterator:
            return _SwitchIterator(*args, **kwargs)
        if func is abs and args and isinstance(args[0], Transform):
            return abs(args[0])
        for value in list(args) + list(kwargs.values()):
            if isinstance(value, Transform) and isinstance(func, type(atomic)):
                pass
        try:
            return func(*args, **kwargs)
        except TypeError as error:
            raise SpplParseError(
                "Error calling %r with arguments %r %r: %s" % (func, args, kwargs, error)
            ) from error

    def _to_event(self, value) -> Event:
        if isinstance(value, Event):
            return value
        if isinstance(value, Transform):
            return value == 1
        raise SpplParseError("Expected a predicate, got %r." % (value,))


_MISSING = object()

_FLIPPED_COMPARISONS = {
    ast.Lt: ast.Gt(),
    ast.LtE: ast.GtE(),
    ast.Gt: ast.Lt(),
    ast.GtE: ast.LtE(),
    ast.Eq: ast.Eq(),
    ast.NotEq: ast.NotEq(),
}


def parse_sppl(source: str, constants: Dict[str, object] = None) -> Command:
    """Parse SPPL source text into a command."""
    return SpplParser(constants=constants).parse(source)


def compile_sppl(source: str, constants: Dict[str, object] = None) -> SPE:
    """Parse and translate SPPL source text into its prior sum-product expression."""
    return compile_command(parse_sppl(source, constants=constants))


def parse_event(text: str, scope=None) -> Event:
    """Parse a textual event against a scope of random variables."""
    return SpplParser().parse_event(text, scope=scope)
