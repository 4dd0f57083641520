"""The multi-stage SPPL inference workflow: model, condition, query.

:class:`SpplModel` packages a translated sum-product expression together
with the three queries of Fig. 1:

* ``simulate`` / ``sample``  -- draw program variables from the joint,
* ``prob`` / ``logprob``     -- exact probability of an event,
* ``condition`` / ``observe`` -- a *new model* for the posterior.

Because conditioning returns another :class:`SpplModel`, expensive stages
(translation, conditioning on a dataset) are computed once and reused across
any number of downstream queries — the multi-stage workflow the paper
contrasts with single-stage solvers such as PSI (Fig. 7).

Every model owns a persistent :class:`~repro.spe.QueryCache` keyed on
structural node uids (see :mod:`repro.spe.interning`), so traversal results
survive across queries; posterior models returned by ``condition`` /
``constrain`` *share* their parent's cache, so sub-expressions common to
prior and posterior are never recomputed.  Textual queries additionally
hit a small per-model parsed-event cache: parsing ``"X > 1"`` costs more
than a cached traversal, and services replay the same query strings, so
repeated text resolves to the same :class:`~repro.events.Event` without
re-parsing.  Because the keys are structural,
one cache may also safely be shared between separately compiled,
structurally-equal models.  The batched entry points
(:meth:`~SpplModel.logprob_batch`, :meth:`~SpplModel.logpdf_batch`,
:meth:`~SpplModel.sample_columns`) amortize a whole workload over a single
traversal cache or a single vectorized sampling pass.
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict
from typing import Iterable
from typing import List
from typing import Optional
from typing import Sequence
from typing import Union

import numpy as np

from .. import obs
from ..compiler import Command
from ..compiler import SpplParser
from ..compiler import compile_command
from ..compiler import compile_sppl
from ..compiler import render_spe
from ..events import Event
from ..spe import Memo
from ..spe import QueryCache
from ..spe import SPE
from ..spe import ZeroProbabilityError
from ..spe import interning_enabled

EventLike = Union[Event, str]

#: Bound of the per-model parsed-event cache (distinct query strings).
EVENT_CACHE_ENTRIES = 4096


def parse_event(text: str, scope: Iterable[str]) -> Event:
    """Parse a textual event (e.g. ``"X > 1 and Y == 'a'"``) against a scope."""
    return SpplParser().parse_event(text, scope=scope)


class SpplModel:
    """A probabilistic model backed by a sum-product expression.

    ``cache`` controls the persistent query cache: ``None`` (default)
    creates a fresh :class:`~repro.spe.QueryCache`, an existing
    ``QueryCache`` is adopted (sharing entries with whichever models
    already use it), and ``False`` disables persistent caching (every
    query runs with a throwaway scratch memo — useful for measurement and
    differential testing).  ``cache_size`` bounds the total entry count of
    a freshly created cache (default
    :data:`~repro.spe.DEFAULT_CACHE_ENTRIES`; ``cache_size=None`` keeps
    that default, pass a ``QueryCache(max_entries=None)`` for an unbounded
    cache); least-recently-used entries are evicted past the bound and
    recomputed bit-identically when queried again.

    ``intern`` (default True) resolves the expression against the global
    unique table, so the model's cache keys (structural uids) are shared
    with every structurally-equal model in the process; ``model.spe`` is
    then the canonical representative, which may be a different (smaller)
    object than the expression passed in.  Pass ``intern=False`` to keep
    a deliberately-unshared graph as-is, e.g. when measuring the
    ``TranslationOptions(dedup=False)`` ablation baselines through the
    model layer.

    Every query is evaluated as written: ``prob``/``logprob``, their
    batched forms and ``condition`` run one traversal of the expression
    (or the compiled kernel's equivalent sweep), so the library, the
    serve tier and the kernel return the same answer bit for bit.
    """

    def __init__(
        self,
        spe: SPE,
        cache: Optional[QueryCache] = None,
        intern: bool = True,
        cache_size: Optional[int] = None,
    ):
        if not isinstance(spe, SPE):
            raise TypeError("SpplModel requires a sum-product expression.")
        from ..spe import intern as intern_spe

        self.spe = intern_spe(spe) if (intern and interning_enabled()) else spe
        if cache is None:
            if cache_size is None:
                self._cache: Optional[QueryCache] = QueryCache()
            else:
                self._cache = QueryCache(max_entries=cache_size)
        elif cache is False:
            if cache_size is not None:
                raise ValueError("cache_size is meaningless with cache=False.")
            self._cache = None
        elif isinstance(cache, Memo):
            if cache_size is not None:
                raise ValueError(
                    "Pass cache_size only when the model creates its own "
                    "cache; an adopted cache keeps its existing bound."
                )
            self._cache = cache
        else:
            raise TypeError(
                "cache must be a QueryCache/Memo, None, or False; got %r." % (cache,)
            )
        self._event_cache = QueryCache(max_entries=EVENT_CACHE_ENTRIES)
        # Optional compiled columnar kernel (see repro.spe.compiled);
        # batched queries route through it when attached.
        self._compiled = None

    # -- Construction ---------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, constants: Dict[str, object] = None) -> "SpplModel":
        """Translate an SPPL source program into a model."""
        return cls(compile_sppl(source, constants=constants))

    @classmethod
    def from_command(cls, command: Command) -> "SpplModel":
        """Translate a command-IR program into a model."""
        return cls(compile_command(command))

    @classmethod
    def from_spz(
        cls,
        path,
        cache_size: Optional[int] = None,
        expected_digest: Optional[str] = None,
    ) -> "SpplModel":
        """Load a model from a compiled ``.spz`` blob, mmap-backed.

        The expression graph is rebuilt from the blob's embedded payload
        (and verified against the stamped digest), while batched queries
        run directly off the read-only mapped arrays — many processes
        loading the same blob share one physical copy of the tables.
        """
        from ..spe import load_spz

        handle = load_spz(path, expected_digest=expected_digest)
        model = cls(handle.root, cache_size=cache_size)
        model._compiled = handle
        return model

    # -- Compiled kernel ------------------------------------------------------

    @property
    def compiled(self):
        """The attached :class:`~repro.spe.CompiledSPE`, or None."""
        return self._compiled

    def compiled_info(self) -> Optional[Dict[str, object]]:
        """Describe the attached compiled kernel (None when not compiled)."""
        if self._compiled is None or self._compiled.closed:
            return None
        return self._compiled.describe()

    def compile(self, path=None, force: bool = False):
        """Compile the model into the columnar kernel and attach it.

        Without ``path`` the kernel lives on in-process arrays.  With
        ``path`` the blob is written to disk (skipped when a file with
        the same content already exists — blobs are content-addressed by
        the expression digest — unless ``force``) and the attached kernel
        is backed by a read-only mmap of that file, so other processes
        compiling or loading the same model share the physical pages.
        Returns the attached :class:`~repro.spe.CompiledSPE`.
        """
        from ..spe import compile_spe
        from ..spe import load_spz

        handle = compile_spe(self.spe)
        if path is not None:
            import os

            if force or not os.path.exists(path):
                handle.save(path)
            digest = handle.digest
            handle.close()
            handle = load_spz(path, expected_digest=digest)
        self.attach_compiled(handle)
        return handle

    def attach_compiled(self, handle) -> None:
        """Adopt a compiled kernel; it must match this model's expression.

        The previously attached kernel (if any) is closed.
        """
        from ..spe import spe_digest

        if handle.closed:
            raise ValueError("Cannot attach a closed CompiledSPE handle.")
        if handle.digest != spe_digest(self.spe):
            raise ValueError(
                "Compiled kernel digest %s does not match this model."
                % (handle.digest,)
            )
        previous, self._compiled = self._compiled, handle
        if previous is not None and previous is not handle:
            previous.close()

    def detach_compiled(self) -> None:
        """Close and drop the attached compiled kernel (if any)."""
        previous, self._compiled = self._compiled, None
        if previous is not None:
            previous.close()

    # -- Cache management -----------------------------------------------------

    @property
    def cache(self) -> Optional[QueryCache]:
        """The persistent query cache (None when caching is disabled)."""
        return self._cache

    def cache_stats(self) -> Dict[str, int]:
        """Entry counts plus hit/miss/eviction counters of the cache.

        A read-only snapshot.  The monotone ``evictions`` counter is the
        eviction-pressure signal; a scraper derives its rate.
        """
        if self._cache is None:
            stats: Dict[str, int] = {"enabled": 0}
        else:
            stats = dict(self._cache.stats())
            stats["enabled"] = 1
            stats["hits"] = self._cache.hits
            stats["misses"] = self._cache.misses
        stats["event_cache_entries"] = self._event_cache.total_entries()
        return stats

    def clear_event_cache(self) -> None:
        """Drop the parsed-event LRU (textual queries re-parse on next use)."""
        self._event_cache.clear()

    def clear_cache(self, everything: bool = False) -> None:
        """Drop cached traversal results for this model (releases posteriors).

        By default clearing is **scoped to this model's reachable
        sub-expressions**: on a posterior model sharing its parent's cache,
        ``clear_cache()`` drops only entries keyed on uids the posterior
        can reach, so entries exclusive to the parent (or to unrelated
        models sharing the cache) survive.  Entries for sub-expressions
        physically shared between parent and posterior are dropped too --
        scoping is conservative, never stale.  Pass ``everything=True`` to
        wipe the shared cache entirely (the pre-bounded-cache behavior).
        """
        if self._cache is None:
            return
        self._cache.clear(None if everything else self.spe.reachable_uids())

    def _memo(self, memo: Memo = None) -> Memo:
        if memo is not None:
            return memo
        if self._cache is not None:
            return self._cache
        return Memo()

    # -- Introspection --------------------------------------------------------

    @property
    def variables(self) -> List[str]:
        """Names of the program variables defined by the model."""
        return sorted(self.spe.scope)

    def size(self) -> int:
        """Number of unique nodes in the underlying expression graph."""
        return self.spe.size()

    def tree_size(self) -> int:
        """Size of the fully-unrolled (unoptimized) expression tree."""
        return self.spe.tree_size()

    def to_source(self) -> str:
        """Render the model back into SPPL source code (Appendix E)."""
        return render_spe(self.spe)

    def __repr__(self) -> str:
        return "SpplModel(variables=%s, size=%d)" % (self.variables, self.size())

    # -- Queries --------------------------------------------------------------

    def _resolve_event(self, event: EventLike) -> Event:
        """Resolve a textual or structured event against the model scope.

        Textual events are memoized in a small LRU (events are immutable,
        parsing is deterministic in the scope, and ``ast`` parsing costs
        more than a warm traversal, so services replaying query strings
        skip it entirely on repeats).
        """
        if isinstance(event, Event):
            return event
        if isinstance(event, str):
            key = ("event", event)
            cached = self._event_cache.get(key)
            if cached is not None:
                obs.bump("event_cache.hits")
                return cached
            obs.bump("event_cache.misses")
            parsed = parse_event(event, self.spe.scope)
            self._event_cache.put(key, parsed)
            return parsed
        raise TypeError("Expected an Event or event string, got %r." % (event,))

    @contextlib.contextmanager
    def _traced_cache_deltas(self, tracer):
        """Attribute query-cache hit/miss deltas to the current span.

        Reads the cache's monotone counters directly (never
        :meth:`cache_stats`, which advances the eviction-rate mark as a
        side effect), so tracing observes without perturbing.
        """
        cache = self._cache
        if cache is None:
            yield
            return
        hits, misses = cache.hits, cache.misses
        try:
            yield
        finally:
            tracer.bump("query_cache.hits", cache.hits - hits)
            tracer.bump("query_cache.misses", cache.misses - misses)

    def logprob(self, event: EventLike, memo: Memo = None) -> float:
        """Exact log probability of an event."""
        return self.spe.logprob(self._resolve_event(event), memo=self._memo(memo))

    def prob(self, event: EventLike, memo: Memo = None) -> float:
        """Exact probability of an event."""
        return self.spe.prob(self._resolve_event(event), memo=self._memo(memo))

    def logprob_batch(self, events: Sequence[EventLike], memo: Memo = None) -> List[float]:
        """Exact log probabilities of many events in one pass.

        With a compiled kernel attached (:meth:`compile`) and no explicit
        memo, the batch runs as vectorized columnar sweeps — bit-identical
        to the interpreted traversal, typically an order of magnitude
        faster.  Otherwise the events share one cached traversal pass.
        """
        use_kernel = (
            memo is None and self._compiled is not None and not self._compiled.closed
        )
        tracer = obs.current()
        if tracer is not None:
            route = "compiled" if use_kernel else "interpreted"
            with tracer.span("engine.logprob_batch", route=route, n=len(events)):
                with self._traced_cache_deltas(tracer):
                    return self._logprob_batch_impl(events, memo, use_kernel)
        return self._logprob_batch_impl(events, memo, use_kernel)

    def _logprob_batch_impl(
        self, events: Sequence[EventLike], memo: Memo, use_kernel: bool
    ) -> List[float]:
        resolved = [self._resolve_event(event) for event in events]
        if use_kernel:
            return self._compiled.logprob_batch(resolved)
        memo = self._memo(memo)
        return [self.spe.logprob(event, memo=memo) for event in resolved]

    def prob_batch(self, events: Sequence[EventLike], memo: Memo = None) -> List[float]:
        """Exact probabilities of many events in one cached pass.

        Exponentiates with :func:`math.exp`, as :meth:`prob` does, so each
        entry equals ``prob`` of the same event bit for bit.
        """
        return [math.exp(lp) for lp in self.logprob_batch(events, memo=memo)]

    def logpdf(self, assignment: Dict[str, object], memo: Memo = None) -> float:
        """Log density of a point assignment to non-transformed variables."""
        return self.spe.logpdf(assignment, memo=self._memo(memo))

    def logpdf_batch(
        self, assignments: Sequence[Dict[str, object]], memo: Memo = None
    ) -> List[float]:
        """Log densities of many point assignments in one pass.

        Routed through the compiled kernel when one is attached and the
        batch fits its columnar fast path (uniform keys, no transformed
        variables); the kernel declines otherwise -- a ragged batch
        included -- and the batch falls back to the cached interpreted
        traversal.
        """
        tracer = obs.current()
        if tracer is not None:
            with tracer.span("engine.logpdf_batch", n=len(assignments)) as node:
                with self._traced_cache_deltas(tracer):
                    values, route = self._logpdf_batch_impl(assignments, memo)
                node.annotate(route=route)
                return values
        return self._logpdf_batch_impl(assignments, memo)[0]

    def _logpdf_batch_impl(
        self, assignments: Sequence[Dict[str, object]], memo: Memo
    ) -> "tuple":
        """The routed evaluation; returns ``(values, route)`` for tracing."""
        if memo is None and self._compiled is not None and not self._compiled.closed:
            routed = self._compiled.logpdf_batch(assignments)
            if routed is not None:
                return routed, "compiled"
        memo = self._memo(memo)
        return (
            [self.spe.logpdf(assignment, memo=memo) for assignment in assignments],
            "interpreted",
        )

    def _spawn(self, posterior: SPE) -> "SpplModel":
        """Wrap a posterior expression, inheriting the cache."""
        return SpplModel(
            posterior, cache=self._cache if self._cache is not None else False
        )

    def condition(self, event: EventLike) -> "SpplModel":
        """Return a new model for the posterior given a positive-probability event.

        The posterior model shares this model's query cache: traversal
        results for sub-expressions common to prior and posterior are
        reused across the whole ``condition → query`` chain.

        Raises :class:`~repro.spe.ZeroProbabilityError` (a ``ValueError``)
        when the event has probability zero; the shared cache is left
        uncorrupted (no partial entries) by the failure.
        """
        posterior = self.spe.condition(self._resolve_event(event), memo=self._memo())
        return self._spawn(posterior)

    def constrain(self, assignment: Dict[str, object]) -> "SpplModel":
        """Return a new model given equality observations (may be measure zero).

        Raises :class:`~repro.spe.ZeroProbabilityError` -- the same
        exception type as :meth:`condition` -- when the assignment has zero
        density, leaving the shared cache uncorrupted.
        """
        posterior = self.spe.constrain(assignment, memo=self._memo())
        return self._spawn(posterior)

    #: ``observe`` is an alias for :meth:`constrain`, matching common PPL APIs.
    observe = constrain

    def sample(self, n: int = None, rng=None, seed: int = None):
        """Draw samples of all program variables.

        Returns a single assignment dict when ``n`` is None, otherwise a
        list.  The ``n``-sample path is vectorized: each visited leaf draws
        its whole batch with one numpy/scipy call (see
        :meth:`sample_columns` for the columnar fast path that skips the
        per-row dict materialization entirely).
        """
        rng = self._rng(rng, seed)
        return self.spe.sample(rng, n)

    #: ``simulate`` is the paper's name for forward sampling.
    simulate = sample

    def sample_columns(self, n: int, rng=None, seed: int = None) -> Dict[str, np.ndarray]:
        """Draw ``n`` joint samples as columns (one numpy array per variable).

        Row ``i`` across all columns is one joint sample.  This is the
        fastest bulk-sampling surface: no per-row dictionaries are built.
        """
        rng = self._rng(rng, seed)
        if self._compiled is not None and not self._compiled.closed:
            return self._compiled.sample_columns(rng, n)
        return self.spe.sample_bulk(rng, n)

    def sample_subset(self, symbols: Iterable[str], n: int = None, rng=None, seed: int = None):
        """Draw samples of a subset of the program variables."""
        rng = self._rng(rng, seed)
        return self.spe.sample_subset(symbols, rng, n)

    @staticmethod
    def _rng(rng, seed: Optional[int]):
        if rng is not None:
            return rng
        return np.random.default_rng(seed)

    # -- Derived exact queries -------------------------------------------------

    def expectation(self, symbol: str) -> float:
        """Exact expectation of a numeric, non-transformed variable."""
        from ..spe import expectation

        return expectation(self.spe, symbol)

    def variance(self, symbol: str) -> float:
        """Exact variance of a numeric, non-transformed variable."""
        from ..spe import variance

        return variance(self.spe, symbol)

    def mutual_information(self, event_a: EventLike, event_b: EventLike) -> float:
        """Exact mutual information (nats) between the indicators of two events."""
        from ..spe import mutual_information

        return mutual_information(
            self.spe,
            self._resolve_event(event_a),
            self._resolve_event(event_b),
            memo=self._memo(),
        )

    def probability_table(self, symbol: str, values: Iterable) -> Dict[object, float]:
        """Exact marginal probabilities of each value of a variable."""
        from ..spe import probability_table

        return probability_table(self.spe, symbol, values, memo=self._memo())

    def cdf_table(self, symbol: str, grid: Iterable[float]) -> Dict[float, float]:
        """Exact marginal CDF of a numeric variable on a grid of points."""
        from ..spe import cdf_table

        return cdf_table(self.spe, symbol, list(grid), memo=self._memo())

    def entropy(self, symbol: str, values: Iterable) -> float:
        """Exact entropy (nats) of a finite-valued variable."""
        from ..spe import entropy

        return entropy(self.spe, symbol, values, memo=self._memo())

    def support(self, symbol: str):
        """The values a finite-valued variable can take."""
        from ..spe import marginal_support

        return marginal_support(self.spe, symbol)

    def to_dot(self) -> str:
        """Graphviz DOT source for the underlying expression graph."""
        from ..spe import to_dot

        return to_dot(self.spe)

    # -- Persistence -------------------------------------------------------------

    def to_json(self, indent: int = None) -> str:
        """Serialize the model (including conditioned posteriors) to JSON."""
        from ..spe import spe_to_json

        return spe_to_json(self.spe, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SpplModel":
        """Reconstruct a model from :meth:`to_json` output."""
        from ..spe import spe_from_json

        return cls(spe_from_json(text))

    def save(self, path) -> None:
        """Write the serialized model to a file path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "SpplModel":
        """Load a model previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class ChainBoundError(ValueError):
    """A :class:`PosteriorChain` refused an observe past ``max_steps``."""


class PosteriorChain:
    """A bounded handle over an incremental ``condition`` chain.

    Streaming evidence is a sequence of exact conditions, each applied to
    the *current* posterior::

        chain = PosteriorChain(model)
        chain.observe("X[0] > 4.0")          # filtering step
        chain.observe("Y[0] == 6")
        chain.current.logprob("Z[0] == 1")   # smoothing query

    Semantically ``chain.current`` is exactly
    ``model.condition(e_1).condition(e_2)...condition(e_k)`` — the same
    interned posteriors, bit-identical answers — but the handle adds the
    **step bound** a long-lived server-side session needs: ``max_steps``
    caps the chain length (each step retains a posterior graph); past it
    :meth:`observe` raises :class:`ChainBoundError` instead of growing
    without limit.  A closed chain (:meth:`close`) refuses further
    observes.

    The chain pins nothing in the model's cache: every traversal keeps
    the entries it reads in a working set of its own, so the shared
    cache stays within its bound while the chain is open, and a step
    result evicted between observes is recomputed bit-identically when a
    later query needs it.

    Deterministic replay: :attr:`events` records every accepted observe
    in order, so an identical chain can be re-established anywhere
    (e.g. on a respawned worker shard) by replaying the events — exact
    conditioning has no hidden state.
    """

    #: Default bound on accepted observes per chain.
    DEFAULT_MAX_STEPS = 256

    __slots__ = ("root", "events", "max_steps", "_current", "closed")

    def __init__(self, model: "SpplModel", events: Iterable = (),
                 max_steps: int = DEFAULT_MAX_STEPS):
        if max_steps < 1:
            raise ValueError("max_steps must be positive.")
        self.root = model
        self.events: List = []
        self.max_steps = max_steps
        self._current = model
        self.closed = False
        for event in events:
            self.observe(event)

    @property
    def current(self) -> "SpplModel":
        """The posterior after every accepted observe (the root if none)."""
        return self._current

    def __len__(self) -> int:
        return len(self.events)

    def observe(self, event: EventLike) -> "SpplModel":
        """Condition the current posterior on ``event``; returns the new one.

        A failing condition (zero probability, parse error) leaves the
        chain exactly as it was: the event is recorded only after the
        posterior exists.
        """
        if self.closed:
            raise ChainBoundError("Chain is closed.")
        if len(self.events) >= self.max_steps:
            raise ChainBoundError(
                "Chain is at its step bound (%d observes)." % (self.max_steps,)
            )
        posterior = self._current.condition(event)
        self.events.append(event)
        self._current = posterior
        return posterior

    def close(self) -> None:
        """Refuse further observes (idempotent)."""
        self.closed = True

    def __enter__(self) -> "PosteriorChain":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
