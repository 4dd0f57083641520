"""Wire-format tests: NDJSON request parsing and response encoding."""

import json
import math

import pytest

from repro.serve import wire


class TestParseRequest:
    def test_logprob_request(self):
        request = wire.parse_request_line(
            b'{"id": 7, "model": "m", "kind": "logprob", "event": "X < 1"}'
        )
        assert request.id == 7
        assert request.model == "m"
        assert request.kind == "logprob"
        assert request.payload == "X < 1"
        assert request.condition is None

    def test_condition_and_retired_no_batch_flag_ignored(self):
        # Old clients still send ``no_batch``; like any unknown field it
        # is ignored, and the request parses and batches normally.
        request = wire.parse_request_line(
            b'{"model": "m", "kind": "prob", "event": "X < 1", '
            b'"condition": "Y > 0", "no_batch": true}'
        )
        assert request.condition == "Y > 0"
        assert not hasattr(request, "no_batch")

    def test_logpdf_request(self):
        request = wire.parse_request_line(
            b'{"model": "m", "kind": "logpdf", "assignment": {"X": 1.5}}'
        )
        assert request.payload == {"X": 1.5}

    def test_sample_request(self):
        request = wire.parse_request_line(
            b'{"model": "m", "kind": "sample", "n": 3, "seed": 0}'
        )
        assert request.payload == {"n": 3, "seed": 0}

    def test_sample_defaults(self):
        request = wire.parse_request_line(b'{"model": "m", "kind": "sample"}')
        assert request.payload == {"n": None, "seed": None}

    @pytest.mark.parametrize(
        "line",
        [
            b"not json at all",
            b'"just a string"',
            b'{"kind": "logprob", "event": "X < 1"}',  # no model
            b'{"model": "m", "kind": "wat", "event": "X < 1"}',  # bad kind
            b'{"model": "m", "kind": "logprob"}',  # no event
            b'{"model": "m", "kind": "logprob", "event": 3}',  # non-text event
            b'{"model": "m", "kind": "logpdf"}',  # no assignment
            b'{"model": "m", "kind": "logpdf", "assignment": {}}',
            b'{"model": "m", "kind": "sample", "n": 0}',
            b'{"model": "m", "kind": "sample", "n": true}',
            b'{"model": "m", "kind": "sample", "seed": "x"}',
            b'{"model": "m", "kind": "logprob", "event": "E", "condition": 1}',
        ],
    )
    def test_rejected_lines(self, line):
        with pytest.raises(wire.WireError):
            wire.parse_request_line(line)


class TestValueEncoding:
    def test_finite_floats_round_trip_bit_exact(self):
        for value in (0.1, -1.5e-300, 7.234817e12, math.pi, -0.0):
            over_wire = json.loads(json.dumps(wire.encode_value(value)))
            assert wire.decode_value(over_wire) == value

    def test_non_finite_floats(self):
        assert wire.encode_value(math.inf) == "inf"
        assert wire.encode_value(-math.inf) == "-inf"
        assert wire.encode_value(math.nan) == "nan"
        assert wire.decode_value("-inf") == -math.inf
        assert math.isnan(wire.decode_value("nan"))

    def test_containers_and_numpy_scalars(self):
        import numpy as np

        encoded = wire.encode_value(
            {"a": [np.int64(3), np.float64(0.5)], "b": (True, "s", None)}
        )
        assert encoded == {"a": [3, 0.5], "b": [True, "s", None]}
        assert json.dumps(encoded)  # JSON-serializable

    def test_unencodable_value_raises(self):
        with pytest.raises(wire.WireError):
            wire.encode_value(object())


class TestResponses:
    def test_ok_response_round_trip(self):
        line = wire.encode_response("r1", wire.ok(-math.inf))
        decoded = wire.decode_response_line(line)
        assert decoded["id"] == "r1"
        assert decoded["ok"] is True
        assert wire.decode_value(decoded["value"]) == -math.inf

    def test_error_response(self):
        line = wire.encode_response(2, wire.error(ValueError("boom")))
        decoded = wire.decode_response_line(line)
        assert decoded["ok"] is False
        assert decoded["error_kind"] == "ValueError"
        assert decoded["error"] == "boom"

    def test_error_results_replicates(self):
        results = wire.error_results(RuntimeError("x"), 3)
        assert len(results) == 3
        assert all(result[0] == "error" for result in results)

    def test_malformed_response_line_raises(self):
        with pytest.raises(wire.WireError):
            wire.decode_response_line(b'{"id": 1}')
