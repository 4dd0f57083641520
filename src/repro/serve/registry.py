"""Model registry: named models with per-model cache budgets.

The registry is the service's source of truth for which models exist and
how much query-cache memory each may use.  Models come from two places:

* the **workloads catalog** -- every paper benchmark by name
  (``hmm20`` for a 20-step hierarchical HMM, ``indian_gpa``, and the
  Table 1 networks ``hiring``/``alarm``/``grass``/``noisy_or``/
  ``clinical_trial``/``heart_disease``), or
* a **serialized SPE file** written with
  :meth:`repro.engine.SpplModel.save` (structural-key JSON).

Each registered model keeps, besides the live :class:`SpplModel`:

* ``payload`` -- its canonical serialized form (the exact bytes worker
  processes deserialize, so every shard holds a bit-identical graph), and
* ``digest`` -- the :func:`repro.spe.spe_digest` of that form, which
  workers recompute after deserializing to prove round-trip fidelity.

:class:`RegistryJournal` makes the dynamic lifecycle **durable**: an
append-only on-disk NDJSON journal of register/unregister events whose
payloads are digest-verified on replay, so models registered on a live
service survive a restart (``--registry-journal PATH``).
"""

from __future__ import annotations

import json
import os
import re
from collections import OrderedDict
from pathlib import Path
from typing import Callable
from typing import Dict
from typing import List
from typing import Optional

from ..engine import SpplModel
from ..spe import DEFAULT_CACHE_ENTRIES
from ..spe import spe_digest
from ..spe import spe_from_json


class RegistryError(KeyError):
    """Unknown model name or malformed catalog specification."""

    def __str__(self) -> str:
        # KeyError renders its message repr-quoted; these are user-facing.
        return self.args[0] if self.args else ""


class RegisteredModel:
    """A served model plus the serialized payload its worker shards load.

    When the registry was given a ``blob_dir``, ``blob_path`` names the
    content-addressed compiled ``.spz`` blob (``<digest>.spz``) every
    worker shard mmaps instead of deserializing ``payload``; otherwise it
    is ``None`` and shards ship the full payload.
    """

    __slots__ = (
        "name", "model", "payload", "digest", "cache_size", "blob_path",
    )

    def __init__(self, name: str, model: SpplModel, cache_size: Optional[int]):
        self.name = name
        self.model = model
        self.cache_size = cache_size
        self.payload = model.to_json()
        self.digest = spe_digest(model.spe)
        self.blob_path = None

    def describe(self) -> Dict:
        """Static description for the ``/v1/models`` endpoint."""
        description = {
            "variables": self.model.variables,
            "nodes": self.model.size(),
            "digest": self.digest,
            "cache_max_entries": self.cache_size,
        }
        if self.blob_path is not None:
            description["blob_path"] = self.blob_path
            description["compiled"] = self.model.compiled_info()
        return description


def _catalog_builders() -> Dict[str, Callable[[], SpplModel]]:
    from ..compiler import compile_command
    from ..workloads import indian_gpa
    from ..workloads import table1_models

    def from_command(builder):
        return lambda: SpplModel(compile_command(builder()))

    return {
        "indian_gpa": indian_gpa.model,
        "hiring": from_command(table1_models.hiring),
        "alarm": from_command(table1_models.alarm),
        "grass": from_command(table1_models.grass),
        "noisy_or": from_command(table1_models.noisy_or),
        "clinical_trial": from_command(table1_models.clinical_trial_table1),
        "heart_disease": from_command(table1_models.heart_disease),
    }


#: ``hmm<N>`` catalog names, e.g. ``hmm20`` = 20-step hierarchical HMM.
_HMM_PATTERN = re.compile(r"^hmm(\d{1,3})$")


class ModelRegistry:
    """Named models, each with its own query-cache budget.

    ``default_cache_size`` bounds the :class:`~repro.spe.QueryCache` of
    models registered without an explicit budget (default: the library's
    :data:`~repro.spe.DEFAULT_CACHE_ENTRIES`).  Budgets are per model;
    the service's total cache memory is the sum over registered models
    (and, with a worker pool, each shard holds its own caches with the
    same per-model budgets).

    ``plan`` is accepted for callers written against the retired query
    planner: ``"off"`` and ``"validated"`` are both the one query path
    every model runs, and the value is not stored.  Any other value
    raises ``ValueError``.
    """

    def __init__(
        self,
        default_cache_size: Optional[int] = None,
        blob_dir=None,
        plan: str = "off",
    ):
        self.default_cache_size = (
            DEFAULT_CACHE_ENTRIES if default_cache_size is None else default_cache_size
        )
        if plan not in ("off", "validated"):
            raise ValueError("plan must be 'off' or 'validated'; got %r." % (plan,))
        #: When set, every prepared model is compiled into a
        #: content-addressed ``.spz`` blob (``<digest>.spz``) under this
        #: directory and the live model queries through the mmap'd
        #: kernel; worker shards are seeded with the blob path + digest
        #: instead of the serialized payload, so all shards share one
        #: physical copy of the compiled tables.
        self.blob_dir = None if blob_dir is None else Path(blob_dir)
        self._models: Dict[str, RegisteredModel] = {}

    # -- Registration ---------------------------------------------------------

    def register(
        self, name: str, model: SpplModel, cache_size: Optional[int] = None
    ) -> RegisteredModel:
        """Register a live model under ``name`` with a cache budget.

        The model is re-wrapped so its cache bound matches the budget
        (an already-adopted cache is never resized behind its owner's
        back)."""
        return self.publish(self.prepare(name, model, cache_size=cache_size))

    def prepare(
        self, name: str, model: SpplModel, cache_size: Optional[int] = None
    ) -> RegisteredModel:
        """Build a :class:`RegisteredModel` without publishing it.

        The two-step ``prepare`` / :meth:`publish` split lets a running
        service ship the prepared payload to every worker shard and
        collect digest acks *before* the name becomes queryable, so a
        failed registration is never observable through ``/v1/query``.
        """
        if not isinstance(name, str) or not name:
            raise RegistryError("Model name must be a non-empty string.")
        if name in self._models:
            raise RegistryError("Model %r is already registered." % (name,))
        if not isinstance(model, SpplModel):
            raise TypeError("register() needs an SpplModel, got %r." % (model,))
        budget = self.default_cache_size if cache_size is None else cache_size
        model = SpplModel(model.spe, cache_size=budget)
        registered = RegisteredModel(name, model, budget)
        if self.blob_dir is not None:
            self._attach_blob(registered)
        return registered

    def _attach_blob(self, registered: RegisteredModel) -> None:
        """Compile the model into a content-addressed ``.spz`` blob.

        The blob is named by the expression digest, so re-registering a
        structurally-equal model (or restarting the service) reuses the
        existing file rather than rewriting it, and the attached kernel
        is backed by a read-only mmap of that file.
        """
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        path = self.blob_dir / (registered.digest + ".spz")
        registered.model.compile(path=str(path))
        registered.blob_path = str(path)

    def publish(self, registered: RegisteredModel) -> RegisteredModel:
        """Make a prepared model visible to lookups."""
        if registered.name in self._models:
            raise RegistryError(
                "Model %r is already registered." % (registered.name,)
            )
        self._models[registered.name] = registered
        return registered

    def unregister(self, name: str) -> RegisteredModel:
        """Remove a model from the registry (new lookups fail immediately).

        Returns the removed entry so the caller can finish in-flight work
        against the live model before tearing down worker copies.
        """
        try:
            return self._models.pop(name)
        except KeyError:
            raise RegistryError(
                "Unknown model %r (registered: %s)."
                % (name, ", ".join(sorted(self._models)) or "<none>")
            ) from None

    def register_catalog(
        self, spec: str, cache_size: Optional[int] = None
    ) -> RegisteredModel:
        """Register a workloads-catalog model by name (e.g. ``hmm20``)."""
        return self.register(spec, self._build_catalog(spec), cache_size=cache_size)

    def register_file(
        self, path, name: Optional[str] = None, cache_size: Optional[int] = None
    ) -> RegisteredModel:
        """Register a model from a serialized SPE file (``SpplModel.save``)."""
        with open(path, "r", encoding="utf-8") as handle:
            spe = spe_from_json(handle.read())
        if name is None:
            name = re.sub(r"\.(json|spe)$", "", str(path).rsplit("/", 1)[-1])
        return self.register(name, SpplModel(spe), cache_size=cache_size)

    def build_catalog(self, spec: str) -> SpplModel:
        """Build (without registering) a workloads-catalog model by name.

        Used by the live-registration endpoint, which must prepare the
        model and collect worker acks before publishing the name.
        """
        return self._build_catalog(spec)

    def _build_catalog(self, spec: str) -> SpplModel:
        match = _HMM_PATTERN.match(spec)
        if match:
            from ..workloads import hmm

            return hmm.model(int(match.group(1)))
        builders = _catalog_builders()
        if spec not in builders:
            raise RegistryError(
                "Unknown catalog model %r (expected hmm<N>, %s)."
                % (spec, ", ".join(sorted(builders)))
            )
        return builders[spec]()

    # -- Lookup ---------------------------------------------------------------

    def get(self, name: str) -> RegisteredModel:
        try:
            return self._models[name]
        except KeyError:
            raise RegistryError(
                "Unknown model %r (registered: %s)."
                % (name, ", ".join(sorted(self._models)) or "<none>")
            ) from None

    def names(self) -> List[str]:
        return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        return len(self._models)

    def describe(self) -> Dict[str, Dict]:
        """Static description of every model (``/v1/models``)."""
        return {name: reg.describe() for name, reg in sorted(self._models.items())}


# ---------------------------------------------------------------------------
# Durable registry: the on-disk lifecycle journal.
# ---------------------------------------------------------------------------

class JournalError(RuntimeError):
    """A journal record whose payload cannot be trusted (digest mismatch)."""


#: Compact once at least this many dead records accumulate *and* the dead
#: outnumber the live entries (unregister-heavy churn would otherwise grow
#: the file without bound while the live set stays small).
JOURNAL_COMPACT_MIN_DEAD = 8


class RegistryJournal:
    """Append-only on-disk journal of dynamic register/unregister events.

    One JSON record per line::

        {"op": "register", "name": ..., "payload": ..., "digest": ..., "cache_size": ...}
        {"op": "register", "name": ..., "path": "<blob>.spz", "digest": ..., "cache_size": ...}
        {"op": "unregister", "name": ...}

    Register records are **content-addressed** when the registry keeps
    compiled blobs (``blob_dir``): instead of embedding the full
    serialized payload, the record carries the path of the model's
    ``<digest>.spz`` blob.  Restore re-reads the canonical payload out
    of the blob (hash-verified against the journaled digest) and then
    runs the same digest verification as payload records — a missing or
    corrupted blob raises :class:`JournalError` rather than silently
    serving the wrong model.

    Write-ahead-log discipline:

    * **Appends are durable**: each record is flushed and fsynced before
      the lifecycle endpoint acknowledges, so an acked registration
      survives a crash.
    * **Replay is torn-tail tolerant**: a crash mid-append leaves a
      partial (or otherwise undecodable) last line; replay stops cleanly
      at the last valid record and the tail is truncated away before the
      next append, so the file always ends on a record boundary.
      Anything *after* the first bad record is untrustworthy by WAL
      convention and is discarded with it.
    * **Restore is digest-verified**: every surviving payload is
      deserialized and its :func:`repro.spe.spe_digest` recomputed; a
      mismatch with the journaled digest raises :class:`JournalError`
      rather than silently serving a corrupted model.
    * **Replay is idempotent**: restoring twice (or restoring on top of
      startup ``--model`` flags) skips names the registry already holds.
    * **Compaction**: when dead records (unregisters and the registers
      they cancel) dominate the live set, the journal is rewritten as
      one register record per live model via an atomic ``os.replace``.
    """

    def __init__(self, path, compact_min_dead: int = JOURNAL_COMPACT_MIN_DEAD):
        self.path = Path(path)
        self.compact_min_dead = compact_min_dead
        self.compactions = 0
        self.truncated_bytes = 0
        self._live: "OrderedDict[str, Dict]" = OrderedDict()
        self._dead = 0
        self._events = 0
        self._valid_bytes = 0
        self._replayed = False
        self._needs_truncate = False
        self._handle = None

    # -- Replay / restore -----------------------------------------------------

    def replay(self) -> Dict[str, Dict]:
        """Read the journal; returns the net surviving register specs.

        Read-only: the torn tail (if any) is measured here but only
        physically truncated right before the next append.
        """
        self._live = OrderedDict()
        self._dead = 0
        self._events = 0
        self._valid_bytes = 0
        self.truncated_bytes = 0
        if self.path.exists():
            data = self.path.read_bytes()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                if newline < 0:
                    break  # unterminated tail: a crash mid-append
                entry = self._decode(data[offset:newline])
                if entry is None:
                    break  # undecodable record: stop at the last valid one
                offset = newline + 1
                self._valid_bytes = offset
                self._apply(entry)
            self.truncated_bytes = len(data) - self._valid_bytes
        self._needs_truncate = self.truncated_bytes > 0
        self._replayed = True
        return {name: dict(spec) for name, spec in self._live.items()}

    def restore(self, registry: ModelRegistry) -> List[str]:
        """Rebuild the surviving journaled models into ``registry``.

        Each payload is deserialized and digest-verified before it is
        published.  Names the registry already holds (startup flags, or
        an earlier restore) are skipped, which makes a double replay +
        restore idempotent.  Returns the names actually restored.
        """
        if not self._replayed:
            self.replay()
        restored = []
        for name, spec in self._live.items():
            if name in registry:
                continue
            payload = spec.get("payload")
            if payload is None:
                # Content-addressed record: the canonical payload lives
                # inside the compiled blob, hash-verified on read.
                from ..spe import read_spz_payload

                try:
                    payload = read_spz_payload(
                        spec["path"], expected_digest=spec["digest"]
                    )
                except Exception as error:
                    raise JournalError(
                        "Journaled model %r cannot be restored from blob "
                        "%s: %s: %s"
                        % (name, spec["path"], type(error).__name__, error)
                    ) from error
            spe = spe_from_json(payload)
            digest = spe_digest(spe)
            if digest != spec["digest"]:
                raise JournalError(
                    "Journaled model %r fails digest verification: journal "
                    "says %s, payload rebuilds to %s."
                    % (name, spec["digest"], digest)
                )
            registry.publish(
                registry.prepare(name, SpplModel(spe), cache_size=spec["cache_size"])
            )
            restored.append(name)
        return restored

    # -- Recording ------------------------------------------------------------

    def record_register(self, registered: RegisteredModel) -> None:
        """Journal one successful live registration (durable before ack).

        Models with an attached compiled blob are recorded by blob path
        (content-addressed, the blob embeds the canonical payload);
        everything else embeds the payload in the record.
        """
        entry = {
            "op": "register",
            "name": registered.name,
            "digest": registered.digest,
            "cache_size": registered.cache_size,
        }
        if registered.blob_path is not None:
            entry["path"] = registered.blob_path
        else:
            entry["payload"] = registered.payload
        self._append(entry)

    def record_unregister(self, name: str) -> None:
        """Journal one successful live unregistration (durable before ack)."""
        self._append({"op": "unregister", "name": name})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def stats(self) -> Dict:
        """Journal health for the ``/v1/stats`` endpoint."""
        return {
            "path": str(self.path),
            "live": len(self._live),
            "dead": self._dead,
            "events": self._events,
            "compactions": self.compactions,
            "truncated_bytes": self.truncated_bytes,
        }

    def metrics_samples(self):
        """Journal health as ``(counters, gauges)`` sample lists.

        The same numbers :meth:`stats` reports, mapped to stable dotted
        metric names with the correct Prometheus instrument type (the
        cumulative event/compaction/truncation tallies are counters; the
        live/dead record counts describe the file's current state and
        are gauges).  Rendered by ``GET /metrics``.
        """
        counters = [
            ("repro.journal.events", None, self._events),
            ("repro.journal.compactions", None, self.compactions),
            ("repro.journal.truncated_bytes", None, self.truncated_bytes),
        ]
        gauges = [
            ("repro.journal.live_records", None, len(self._live)),
            ("repro.journal.dead_records", None, self._dead),
        ]
        return counters, gauges

    # -- Internals ------------------------------------------------------------

    @staticmethod
    def _decode(line: bytes) -> Optional[Dict]:
        """One record, or ``None`` for anything that cannot be trusted."""
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError):  # incl. UnicodeDecodeError
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) \
                or not entry["name"]:
            return None
        if entry.get("op") == "unregister":
            return entry
        if entry.get("op") == "register":
            cache_size = entry.get("cache_size")
            source_ok = isinstance(entry.get("payload"), str) or \
                isinstance(entry.get("path"), str)
            if source_ok and isinstance(entry.get("digest"), str) \
                    and (cache_size is None or isinstance(cache_size, int)):
                return entry
        return None

    def _apply(self, entry: Dict) -> None:
        """Fold one record into the net live/dead state."""
        self._events += 1
        name = entry["name"]
        if entry["op"] == "register":
            if self._live.pop(name, None) is not None:
                self._dead += 1  # the superseded register
            spec = {
                "digest": entry["digest"],
                "cache_size": entry.get("cache_size"),
            }
            if "payload" in entry:
                spec["payload"] = entry["payload"]
            else:
                spec["path"] = entry["path"]
            self._live[name] = spec
        else:
            if self._live.pop(name, None) is not None:
                self._dead += 2  # the register it cancels, plus itself
            else:
                self._dead += 1  # an unregister with nothing to cancel

    def _append(self, entry: Dict) -> None:
        if not self._replayed:
            self.replay()
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._needs_truncate and self.path.exists():
                # Drop the torn tail so the new record starts on a
                # record boundary (appending after a partial line would
                # corrupt both records on the next replay).
                with open(self.path, "r+b") as handle:
                    handle.truncate(self._valid_bytes)
                self._needs_truncate = False
                self.truncated_bytes = 0
            self._handle = open(self.path, "ab")
        line = (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
        try:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            # A failed append (ENOSPC, transient EIO) may have left part
            # of the record on disk; un-truncated, the fragment would
            # glue onto the next successful record and take it (and
            # everything after) down on replay.  Close the handle and
            # force a truncate back to the last durable record before
            # any future append.
            self.close()
            self._needs_truncate = True
            raise
        self._valid_bytes = self._handle.tell()
        self._apply(entry)
        if self._dead >= self.compact_min_dead and self._dead > len(self._live):
            self.compact()

    def compact(self) -> None:
        """Rewrite the journal as one register record per live model.

        Atomic: the replacement is fully written and fsynced to a
        sibling temp file, then ``os.replace``d over the journal, so a
        crash mid-compaction leaves either the old or the new file.
        """
        temp = self.path.with_name(self.path.name + ".compact")
        with open(temp, "wb") as handle:
            for name, spec in self._live.items():
                entry = {"op": "register", "name": name, **spec}
                handle.write(
                    (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
                )
            handle.flush()
            os.fsync(handle.fileno())
        self.close()
        os.replace(temp, self.path)
        self._handle = open(self.path, "ab")
        self._valid_bytes = self._handle.tell()
        self._dead = 0
        self._events = len(self._live)
        self.truncated_bytes = 0
        self._needs_truncate = False
        self.compactions += 1
