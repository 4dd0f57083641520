"""Newline-delimited JSON wire format of the inference service.

One request (and one response) per line, plain JSON, no pickling::

    {"id": 7, "model": "hmm20", "kind": "logprob", "event": "X_0 < 0.5"}
    {"id": 7, "ok": true, "value": -0.6931471805599453}

Request fields:

* ``id``        -- opaque, echoed verbatim on the response (optional),
* ``model``     -- registry name of the target model,
* ``kind``      -- ``logprob`` | ``prob`` | ``logpdf`` | ``sample``,
* ``event``     -- textual event for ``logprob``/``prob``, parsed at the
  boundary with the compiler's :func:`repro.compiler.parse_event` grammar
  (the same strings :meth:`repro.engine.SpplModel.logprob` accepts),
* ``assignment``-- ``{variable: value}`` dict for ``logpdf``,
* ``condition`` -- optional textual event; the query runs against the
  posterior ``model.condition(condition)``.  The condition string is also
  the consistent-hash routing key, so a chain of queries against one
  posterior lands on one cache-warm worker shard,
* ``n``/``seed``-- for ``sample`` (``n`` omitted = one assignment),
* ``trace``     -- request an execution trace regardless of the service's
  sampling rate; the completed span tree is retrievable from
  ``GET /v1/trace/<trace_id>`` while it lives in the flight recorder.

Unknown fields are ignored, among them ``no_batch`` from older clients
(the scheduler holds a request only while its key has a batch in flight).

Response fields: ``id`` (echoed), ``ok``; ``value`` on success, ``error``
(message) and ``error_kind`` (exception class name, e.g.
``ZeroProbabilityError``) on failure; every line additionally echoes the
service-assigned ``trace`` id (sampled or not), so clients can always
correlate a response with server-side telemetry.

Floats cross the wire bit-exactly: JSON round-trips finite floats through
shortest-repr, and the non-finite values JSON cannot express are encoded
as the strings ``"inf"``/``"-inf"``/``"nan"`` (``logprob`` of an
impossible event is exactly ``-inf``).
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict
from typing import List
from typing import Optional
from typing import Tuple

#: Query kinds the service understands (``prob`` batches with ``logprob``
#: evaluation and exponentiates at the boundary).
KINDS = ("logprob", "prob", "logpdf", "sample")

#: Tenant every request without an explicit tenant belongs to.
DEFAULT_TENANT = "public"

#: Valid tenant and session names: short, URL- and metrics-label-safe.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class WireError(ValueError):
    """A request line that cannot be parsed into a valid request."""


class Request:
    """One parsed wire request (validated shape, unresolved model/event)."""

    __slots__ = ("id", "model", "kind", "payload", "condition", "trace",
                 "tenant", "affinity")

    def __init__(self, id, model: str, kind: str, payload, condition=None,
                 trace: bool = False, tenant: str = DEFAULT_TENANT,
                 affinity: Optional[str] = None):
        self.id = id
        self.model = model
        self.kind = kind
        self.payload = payload
        #: ``None``, a textual event, or a **chain**: a tuple of textual
        #: events applied as successive exact ``condition`` steps (the
        #: session tier's posterior chains travel this way).
        self.condition = condition
        #: ``True`` when the wire request asked for a trace; the HTTP
        #: layer replaces it with the live :class:`repro.obs.Trace` when
        #: the request is sampled (explicitly or by rate), and the
        #: scheduler only ever checks it for a Trace instance.
        self.trace = trace
        #: Tenant the request is accounted against (quotas, fair-share
        #: admission, per-tenant shed counters).
        self.tenant = tenant
        #: Routing-key override: session requests pin their whole chain
        #: to one shard by routing on the session identity instead of
        #: the (growing) condition text.
        self.affinity = affinity


def parse_request(data: Dict) -> Request:
    """Validate a decoded request object into a :class:`Request`."""
    if not isinstance(data, dict):
        raise WireError("Request must be a JSON object, got %s." % type(data).__name__)
    model = data.get("model")
    if not isinstance(model, str) or not model:
        raise WireError("Request needs a non-empty string 'model' field.")
    kind = data.get("kind")
    if kind not in KINDS:
        raise WireError(
            "Unknown query kind %r (expected one of %s)." % (kind, ", ".join(KINDS))
        )
    condition = data.get("condition")
    if condition is not None and not isinstance(condition, str):
        raise WireError("'condition' must be a textual event.")
    if kind in ("logprob", "prob"):
        payload = data.get("event")
        if not isinstance(payload, str) or not payload:
            raise WireError("%r query needs a textual 'event' field." % (kind,))
    elif kind == "logpdf":
        payload = data.get("assignment")
        if not isinstance(payload, dict) or not payload:
            raise WireError("'logpdf' query needs a non-empty 'assignment' object.")
    else:  # sample
        n = data.get("n")
        if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
            raise WireError("'sample' field 'n' must be a positive integer.")
        seed = data.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise WireError("'sample' field 'seed' must be an integer.")
        payload = {"n": n, "seed": seed}
    tenant = data.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not NAME_RE.match(tenant):
        raise WireError(
            "'tenant' must match %s." % (NAME_RE.pattern,)
        )
    return Request(
        data.get("id"), model, kind, payload, condition,
        trace=bool(data.get("trace")), tenant=tenant,
    )


def parse_request_line(line: bytes) -> Request:
    """Decode one NDJSON request line."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as error:
        # A nesting-depth bomb is malformed input like any other: it
        # fails its own line, never the body it arrived in.
        raise WireError("Request line is not valid JSON: %s" % (error,)) from error
    return parse_request(data)


# ---------------------------------------------------------------------------
# Condition chains and session message shapes.
# ---------------------------------------------------------------------------

def condition_key(condition) -> Optional[str]:
    """One stable string for a condition (text or chain) — the routing
    and cache-labeling form.  Chains join their steps with a unit
    separator, which cannot appear in a parseable event text."""
    if condition is None or isinstance(condition, str):
        return condition
    return "\x1f".join(condition)


def normalize_condition(condition):
    """Canonicalize a wire condition: chains become tuples (hashable batch
    keys), one-step chains collapse to their single event text, and JSON
    transports that decoded a chain as a list round-trip correctly."""
    if condition is None or isinstance(condition, str):
        return condition
    chain = tuple(condition)
    if not chain:
        return None
    if len(chain) == 1:
        return chain[0]
    return chain


def parse_session_name(value, field: str = "session") -> str:
    """Validate a tenant/session name field from a session message body."""
    if not isinstance(value, str) or not NAME_RE.match(value):
        raise WireError(
            "%r must be a name matching %s." % (field, NAME_RE.pattern)
        )
    return value


def session_response(session) -> Dict:
    """The canonical wire shape describing one session (list/create/observe
    responses all return it, so clients parse a single schema)."""
    return {
        "tenant": session.tenant,
        "session": session.name,
        "model": session.model,
        "observes": len(session.chain),
        "chain": list(session.chain),
        "queries": session.queries,
        "idle_s": round(session.idle_s, 3),
    }


# ---------------------------------------------------------------------------
# Values and responses.
# ---------------------------------------------------------------------------

def encode_value(value):
    """JSON-safe encoding of a query result (bit-exact for floats)."""
    if isinstance(value, float):
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, (str, bool, int)) or value is None:
        return value
    # numpy scalars (np.float64 subclasses float and is handled above;
    # np.int64/np.bool_ are not JSON-serializable): fall back on item().
    item = getattr(value, "item", None)
    if callable(item):
        return encode_value(item())
    raise WireError("Cannot encode result value %r." % (value,))


def decode_value(value):
    """Inverse of :func:`encode_value` for scalar results."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


def model_spec(registered) -> Dict:
    """The spec a worker shard loads a registered model from.

    Content-addressed when the registry attached a compiled blob: the
    spec ships the ``.spz`` path plus digest and every shard mmaps the
    same physical file (one copy of the compiled tables across the whole
    pool).  Otherwise the full serialized payload crosses the shard socket and
    the shard deserializes its own graph.
    """
    spec = {
        "digest": registered.digest,
        "cache_size": registered.cache_size,
    }
    blob_path = getattr(registered, "blob_path", None)
    if blob_path is not None:
        spec["path"] = blob_path
    else:
        spec["payload"] = registered.payload
    return spec


#: A backend result: ``("ok", value)`` or ``("error", kind, message)``.
Result = Tuple


def ok(value) -> Result:
    return ("ok", value)


def error(exception: BaseException) -> Result:
    return ("error", type(exception).__name__, str(exception))


def error_results(exception: BaseException, count: int) -> List[Result]:
    """The same failure for every request of a batch (e.g. a zero-probability
    condition shared by the whole batch)."""
    return [error(exception)] * count


def encode_response(request_id, result: Result, trace_id: Optional[str] = None) -> bytes:
    """Encode one response line for a request's result."""
    if result[0] == "ok":
        body = {"id": request_id, "ok": True, "value": encode_value(result[1])}
    else:
        body = {
            "id": request_id,
            "ok": False,
            "error_kind": result[1],
            "error": result[2],
        }
    if trace_id is not None:
        body["trace"] = trace_id
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def encode_error_line(
    request_id, message: str, kind: str = "WireError",
    trace_id: Optional[str] = None,
) -> bytes:
    """Encode a response line for a request that never reached a backend."""
    return encode_response(request_id, ("error", kind, message), trace_id=trace_id)


#: Clamp bounds of the adaptive ``retry_after_ms``: never advise a
#: back-off shorter than the wire round trip, never park a client for
#: more than a few seconds on one shed.
RETRY_AFTER_MIN_MS = 5
RETRY_AFTER_MAX_MS = 5000


def compute_retry_after_ms(p95_seconds: float, utilization: float) -> int:
    """Advisory back-off from live latency and queue depth (pure).

    ``clamp(p95 x (1 + utilization))``: a client that waits about one
    p95 service latency gives the queue time to drain one depth's worth
    of work; the utilization factor (queued / queue bound, may exceed 1
    when several batch keys are saturated) stretches the advice as the
    backlog grows, so retries arrive after the congestion they would
    have joined.
    """
    scaled_ms = p95_seconds * 1e3 * (1.0 + max(0.0, utilization))
    return int(min(RETRY_AFTER_MAX_MS, max(RETRY_AFTER_MIN_MS, math.ceil(scaled_ms))))


def overloaded_response(request_id, retry_after_ms: int) -> Dict:
    """The canonical shed-response object (single definition of the shape).

    Used both by the server when encoding per-key shed lines and by the
    client when synthesizing a response object for a connection-level
    HTTP 429, so the two kinds of shed are indistinguishable to callers.
    """
    return {
        "id": request_id,
        "ok": False,
        "error_kind": "Overloaded",
        "error": "overloaded",
        "retry_after_ms": int(retry_after_ms),
    }


def encode_overloaded_line(
    request_id, retry_after_ms: int, trace_id: Optional[str] = None
) -> bytes:
    """Encode the 429-style shed line for a request refused by backpressure.

    The line keeps the normal error shape (``ok: false`` with
    ``error_kind: "Overloaded"``) so existing clients fail it cleanly, and
    adds ``retry_after_ms`` so well-behaved callers can back off.
    """
    body = overloaded_response(request_id, retry_after_ms)
    if trace_id is not None:
        body["trace"] = trace_id
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Latency observability.
# ---------------------------------------------------------------------------

class LatencyHistogram:
    """Log-bucketed latency histogram with server-side percentiles.

    Bucket ``i`` counts latencies whose whole-microsecond value has bit
    length ``i`` — geometric buckets doubling from 1 µs, with bucket 63
    open-ended (every realistic service latency lands well inside the
    range; sub-second requests use only the first ~20 buckets).
    Recording is two integer ops and a
    list increment, cheap enough for the scheduler's per-request hot
    path, and the fixed 64-bucket layout needs no locking discipline
    beyond the event loop's single-threadedness.

    ``quantile(q)`` returns the **upper bound** of the bucket holding the
    q-th ranked observation (a ≤ one-bucket overestimate, never an
    underestimate), so p50/p95/p99 derived from it are conservative.
    """

    __slots__ = ("counts", "count", "total")

    BUCKETS = 64

    def __init__(self):
        self.counts = [0] * self.BUCKETS
        self.count = 0
        #: Sum of recorded seconds — the Prometheus ``_sum`` series, so
        #: rate(sum)/rate(count) yields mean latency over any window.
        self.total = 0.0

    def record(self, seconds: float) -> None:
        index = int(seconds * 1e6).bit_length()
        if index >= self.BUCKETS:
            index = self.BUCKETS - 1
        self.counts[index] += 1
        self.count += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Upper-bound latency (seconds) of the q-th quantile (0 < q <= 1)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return (1 << index) / 1e6
        return (1 << (self.BUCKETS - 1)) / 1e6

    def summary(self) -> Dict[str, float]:
        """Count plus p50/p95/p99 in milliseconds (the stats-endpoint shape)."""
        return {
            "count": self.count,
            "p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "p95_ms": round(self.quantile(0.95) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
        }


def decode_response_line(line: bytes) -> Dict:
    """Decode one NDJSON response line (values stay wire-encoded; use
    :func:`decode_value` on scalar ``value`` fields)."""
    data = json.loads(line)
    if not isinstance(data, dict) or "ok" not in data:
        raise WireError("Malformed response line %r." % (line,))
    return data
