"""JSON serialization of sum-product expressions.

Models translated from SPPL programs (and in particular *conditioned*
posteriors, which can be expensive to recompute) can be saved to disk and
reloaded later.  The representation is a flat table of nodes keyed by
*structural identity* (the hash-consing layer of
:mod:`~repro.spe.interning`), so structure sharing survives a round trip
and structurally-equal subtrees are stored once even when the in-memory
graph had not been deduplicated.  Decoding routes nodes back through the
interning table, so a loaded model physically shares subgraphs with any
structurally-equal model already alive in the process.  Both traversals are
iterative, so arbitrarily deep expressions (de)serialize without hitting
the recursion limit.  The encoding is plain JSON with no pickling of code.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict
from typing import List

from ..distributions import AtomicDistribution
from ..distributions import DiscreteDistribution
from ..distributions import DiscreteFinite
from ..distributions import Distribution
from ..distributions import NominalDistribution
from ..distributions import RealDistribution
from ..distributions.families import freeze
from ..distributions.families import is_discrete_family
from ..distributions.families import is_family
from ..transforms import Abs
from ..transforms import Exp
from ..transforms import Identity
from ..transforms import Log
from ..transforms import Poly
from ..transforms import Radical
from ..transforms import Reciprocal
from ..transforms import Transform
from .base import SPE
from .interning import maybe_intern
from .leaf import Leaf
from .product_node import ProductSPE
from .sum_node import SumSPE


class SerializationError(ValueError):
    """Raised when an expression cannot be (de)serialized."""


# ---------------------------------------------------------------------------
# Transforms.
# ---------------------------------------------------------------------------

def transform_to_dict(transform: Transform) -> Dict:
    """Encode a transform as a JSON-compatible dictionary."""
    if isinstance(transform, Identity):
        return {"kind": "identity", "symbol": transform.token}
    if isinstance(transform, Poly):
        return {
            "kind": "poly",
            "coeffs": list(transform.coeffs),
            "subexpr": transform_to_dict(transform.subexpr),
        }
    if isinstance(transform, Reciprocal):
        return {"kind": "reciprocal", "subexpr": transform_to_dict(transform.subexpr)}
    if isinstance(transform, Abs):
        return {"kind": "abs", "subexpr": transform_to_dict(transform.subexpr)}
    if isinstance(transform, Radical):
        return {
            "kind": "radical",
            "degree": transform.degree,
            "subexpr": transform_to_dict(transform.subexpr),
        }
    if isinstance(transform, Exp):
        return {
            "kind": "exp",
            "base": transform.base,
            "subexpr": transform_to_dict(transform.subexpr),
        }
    if isinstance(transform, Log):
        return {
            "kind": "log",
            "base": transform.base,
            "subexpr": transform_to_dict(transform.subexpr),
        }
    raise SerializationError("Cannot serialize transform %r." % (transform,))


def transform_from_dict(data: Dict) -> Transform:
    """Decode a transform from its dictionary encoding."""
    kind = data["kind"]
    if kind == "identity":
        return Identity(data["symbol"])
    if "subexpr" not in data:
        raise SerializationError("Unknown transform kind %r." % (kind,))
    subexpr = transform_from_dict(data["subexpr"])
    if kind == "poly":
        return Poly(subexpr, data["coeffs"])
    if kind == "reciprocal":
        return Reciprocal(subexpr)
    if kind == "abs":
        return Abs(subexpr)
    if kind == "radical":
        return Radical(subexpr, data["degree"])
    if kind == "exp":
        return Exp(subexpr, data["base"])
    if kind == "log":
        return Log(subexpr, data["base"])
    raise SerializationError("Unknown transform kind %r." % (kind,))


# ---------------------------------------------------------------------------
# Distributions.
# ---------------------------------------------------------------------------

def distribution_to_dict(dist: Distribution) -> Dict:
    """Encode a primitive distribution as a JSON-compatible dictionary."""
    if isinstance(dist, AtomicDistribution):
        return {"kind": "atomic", "value": dist.value}
    if isinstance(dist, NominalDistribution):
        return {"kind": "nominal", "probabilities": dict(dist.probabilities)}
    if isinstance(dist, DiscreteFinite):
        return {
            "kind": "finite",
            "probabilities": {repr(k): v for k, v in dist.probabilities.items()},
        }
    if isinstance(dist, (RealDistribution, DiscreteDistribution)):
        frozen = dist.dist
        return {
            "kind": "discrete_scipy" if isinstance(dist, DiscreteDistribution) else "real_scipy",
            "family": frozen.name,
            "args": list(frozen.args),
            "kwds": dict(frozen.kwds),
            "lo": _encode_float(dist.lo),
            "hi": _encode_float(dist.hi),
            "name": dist.name,
        }
    raise SerializationError("Cannot serialize distribution %r." % (dist,))


def distribution_from_dict(data: Dict) -> Distribution:
    """Decode a primitive distribution from its dictionary encoding."""
    kind = data["kind"]
    if kind == "atomic":
        return AtomicDistribution(data["value"])
    if kind == "nominal":
        return NominalDistribution(data["probabilities"])
    if kind == "finite":
        return DiscreteFinite({float(k): v for k, v in data["probabilities"].items()})
    if kind in ("real_scipy", "discrete_scipy"):
        frozen = _family_from_dict(data, kind == "discrete_scipy")
        lo = _decode_float(data["lo"])
        hi = _decode_float(data["hi"])
        if kind == "discrete_scipy":
            return DiscreteDistribution(frozen, lo=lo, hi=hi, name=data.get("name"))
        return RealDistribution(frozen, lo=lo, hi=hi, name=data.get("name"))
    raise SerializationError("Unknown distribution kind %r." % (kind,))


def _family_from_dict(data: Dict, discrete: bool):
    """The frozen family a ``*_scipy`` record names.

    A payload is untrusted, so the family must be a distribution (see
    :func:`~repro.distributions.families.is_family`) of the record's kind,
    and its parameters plain numbers; nothing else is looked up or called.
    """
    name, args, kwds = data["family"], data["args"], data["kwds"]
    if not is_family(name):
        raise SerializationError("Unknown distribution family %r." % (name,))
    if is_discrete_family(name) != discrete:
        raise SerializationError(
            "Family %r is not %s." % (name, "discrete" if discrete else "continuous"))
    if (not isinstance(args, list) or not isinstance(kwds, dict)
            or not all(_is_number(v) for v in args + list(kwds.values()))):
        raise SerializationError("Parameters of family %r must be numbers." % (name,))
    try:
        return freeze(name, *args, **kwds)
    except TypeError as error:
        raise SerializationError(
            "Bad parameters for family %r: %s" % (name, error)) from error


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _encode_float(value: float):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _decode_float(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


# ---------------------------------------------------------------------------
# Expressions.
# ---------------------------------------------------------------------------

def spe_to_dict(spe: SPE) -> Dict:
    """Encode an expression graph (preserving sharing) as a dictionary.

    The graph is first resolved against the interning table, so nodes are
    identified structurally: subtrees that are structurally equal -- even
    when the caller's graph holds physically distinct copies -- serialize
    to a single entry of the node table.  ``order`` lists the nodes
    children-first, which lets the decoder rebuild iteratively.

    Under :class:`~repro.spe.interning.no_interning` the encoder falls
    back to identity-based node naming (and the decoder likewise skips
    interning), so deliberately-unshared graphs -- e.g. the Table 1 /
    ablation baselines -- round-trip with their sharing degree intact and
    without registering subtrees in the global unique table.
    """
    root_node = maybe_intern(spe)
    nodes: Dict[str, Dict] = {}
    order: List[str] = []
    identifiers: Dict[int, str] = {}

    stack: List[SPE] = [root_node]
    while stack:
        node = stack[-1]
        if node._uid in identifiers:
            stack.pop()
            continue
        if not isinstance(node, (Leaf, SumSPE, ProductSPE)):
            raise SerializationError("Cannot serialize node %r." % (node,))
        pending = [c for c in node.children_nodes() if c._uid not in identifiers]
        if pending:
            stack.extend(pending)
            continue
        name = "node_%d" % (len(identifiers),)
        identifiers[node._uid] = name
        if isinstance(node, Leaf):
            spec = {
                "kind": "leaf",
                "symbol": node.symbol,
                "distribution": distribution_to_dict(node.dist),
                "env": {
                    derived: transform_to_dict(expr) for derived, expr in node.env.items()
                },
            }
        elif isinstance(node, SumSPE):
            spec = {
                "kind": "sum",
                "children": [identifiers[child._uid] for child in node.children],
                "log_weights": list(node.log_weights),
            }
        else:
            spec = {
                "kind": "product",
                "children": [identifiers[child._uid] for child in node.children],
            }
        nodes[name] = spec
        order.append(name)
        stack.pop()

    return {
        "format": "repro-spe",
        "version": 2,
        "root": identifiers[root_node._uid],
        "nodes": nodes,
        "order": order,
    }


def spe_from_dict(data: Dict) -> SPE:
    """Decode an expression graph from its dictionary encoding.

    Rebuilt nodes are routed back through the interning table, so the
    loaded expression physically shares subgraphs with any
    structurally-equal expression alive in the process.  Accepts both the
    legacy (version 1) and the structural (version 2) encodings.
    """
    if data.get("format") != "repro-spe":
        raise SerializationError("Not a serialized sum-product expression.")
    nodes = data["nodes"]
    built: Dict[str, SPE] = {}

    def construct(name: str) -> SPE:
        spec = nodes[name]
        kind = spec.get("kind")
        # Child lookups may legitimately raise KeyError when the "order"
        # fast path runs on an incomplete list (the caller falls back);
        # missing spec fields, by contrast, mean a corrupt payload.
        children = [built[child] for child in spec.get("children", [])]
        try:
            if kind == "leaf":
                return Leaf(
                    spec["symbol"],
                    distribution_from_dict(spec["distribution"]),
                    env={
                        derived: transform_from_dict(encoded)
                        for derived, encoded in spec["env"].items()
                    },
                )
            if kind == "sum":
                return SumSPE(children, spec["log_weights"])
            if kind == "product":
                return ProductSPE(children)
        except KeyError as error:
            raise SerializationError(
                "Malformed %r node spec %r: missing field %s." % (kind, name, error)
            ) from error
        raise SerializationError("Unknown node kind %r." % (kind,))

    # Fast path: the encoder's "order" field lists nodes children-first,
    # so a single linear pass builds the graph.
    order = data.get("order")
    if order:
        try:
            for name in order:
                built[name] = construct(name)
        except KeyError:
            built.clear()  # order incomplete/corrupt: fall back below

    if data["root"] not in built:
        # Children-first iterative build for payloads without a usable
        # order: a node is constructed once every child it names is built.
        stack: List[str] = [data["root"]]
        expanding = set()
        while stack:
            name = stack[-1]
            if name in built:
                stack.pop()
                continue
            if name not in nodes:
                raise SerializationError("Dangling node reference %r." % (name,))
            pending = [
                child
                for child in nodes[name].get("children", [])
                if child not in built
            ]
            if pending:
                if expanding.intersection(pending) or name in pending:
                    raise SerializationError(
                        "Cyclic node references at %r." % (name,)
                    )
                expanding.add(name)
                stack.extend(pending)
                continue
            built[name] = construct(name)
            expanding.discard(name)
            stack.pop()

    return maybe_intern(built[data["root"]])


def spe_to_json(spe: SPE, indent: int = None) -> str:
    """Encode an expression as a JSON string."""
    return json.dumps(spe_to_dict(spe), indent=indent)


def spe_digest(spe: SPE) -> str:
    """Content digest of an expression's canonical serialized form.

    Two expressions have equal digests iff their structural encodings are
    identical — same graph shape, same parameters bit-for-bit (floats are
    encoded with ``repr``-exact round-tripping).  Because the encoder
    names nodes deterministically (children-first traversal order) and
    the digest serializes with sorted keys, the digest is stable across
    processes; serve worker processes use it to verify at startup that
    their deserialized copy of a model is bit-identical to the parent's
    (a serializer round-trip fidelity check, not just a smoke test).
    """
    payload = json.dumps(
        spe_to_dict(spe), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spe_from_json(text: str) -> SPE:
    """Decode an expression from a JSON string."""
    return spe_from_dict(json.loads(text))
