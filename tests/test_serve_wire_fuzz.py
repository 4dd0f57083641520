"""Seeded fuzzing of the NDJSON request-line parser.

The trust-boundary property: whatever bytes arrive as one ``/v1/query``
line, :func:`repro.serve.wire.parse_request_line` returns a
:class:`~repro.serve.wire.Request` or raises
:class:`~repro.serve.wire.WireError`, never anything else.  Any other
exception escapes the per-line error path and fails every line of the
body it arrived in.

Examples are drawn from ``REPRO_CHAOS_SEED`` (see ``conftest.py``):
ordinary runs are deterministic, and the nightly chaos lane walks new
inputs with a randomized seed.
"""

import json
import os

from hypothesis import given
from hypothesis import seed
from hypothesis import settings
from hypothesis import strategies as st

from repro.serve import wire

#: The chaos seed ``conftest.py`` reports in the pytest header.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def assert_request_or_wire_error(line: bytes) -> None:
    try:
        request = wire.parse_request_line(line)
    except wire.WireError:
        return
    assert isinstance(request, wire.Request)


json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=16)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)

#: Request-shaped objects: every wire field present or absent, each
#: holding a well-typed value, a near miss, or an arbitrary JSON value.
request_objects = st.fixed_dictionaries(
    {},
    optional={
        "id": json_values,
        "model": st.sampled_from(["indian_gpa", ""]) | json_values,
        "kind": st.sampled_from(sorted(wire.KINDS) + ["bogus"]) | json_values,
        "event": st.sampled_from(["GPA > 3", ""]) | json_values,
        "condition": st.sampled_from(["GPA > 3", None]) | json_values,
        "assignment": st.dictionaries(st.text(max_size=8), json_scalars, max_size=3)
        | json_values,
        "n": st.integers(-2, 5) | json_values,
        "seed": st.integers() | json_values,
        "tenant": st.sampled_from(["acme", "bad tenant!"]) | json_values,
        "trace": json_values,
    },
)

#: Nested openers, from shallow to far past the decoder's recursion limit.
nesting_bombs = st.builds(
    lambda opener, depth: opener * depth,
    st.sampled_from([b"[", b'{"a":', b'{"model":[']),
    st.integers(1, 200000),
)


class TestParseRequestLineFuzz:
    @seed(CHAOS_SEED)
    @settings(max_examples=300)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, line):
        assert_request_or_wire_error(line)

    @seed(CHAOS_SEED)
    @settings(max_examples=300)
    @given(json_values)
    def test_arbitrary_json_values(self, value):
        assert_request_or_wire_error(json.dumps(value).encode())

    @seed(CHAOS_SEED)
    @settings(max_examples=300)
    @given(request_objects)
    def test_request_shaped_objects(self, data):
        assert_request_or_wire_error(json.dumps(data).encode())

    @seed(CHAOS_SEED)
    @settings(max_examples=50)
    @given(nesting_bombs)
    def test_nesting_bombs(self, line):
        assert_request_or_wire_error(line)
