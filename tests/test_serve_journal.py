"""Registry-journal durability tests: replay, corruption, compaction.

The journal is the write-ahead log of the dynamic model lifecycle.  These
tests pin its WAL discipline: a torn tail (crash mid-append) is dropped
cleanly at the last valid record, replay + restore is idempotent, a
payload whose recomputed digest mismatches the journaled one is refused,
and unregister-heavy churn triggers compaction without changing the net
state.
"""

import json

import pytest

from repro.engine import SpplModel
from repro.serve import JournalError
from repro.serve import ModelRegistry
from repro.serve import RegistryJournal
from repro.workloads import indian_gpa


@pytest.fixture()
def registered_spec():
    """A real registered model's journal-ready spec (payload + digest)."""
    registry = ModelRegistry()
    registered = registry.register_catalog("indian_gpa")
    return registered


def journal_at(tmp_path, **kwargs):
    return RegistryJournal(tmp_path / "registry.journal", **kwargs)


class TestReplayBasics:
    def test_missing_file_replays_empty(self, tmp_path):
        journal = journal_at(tmp_path)
        assert journal.replay() == {}
        assert journal.stats()["events"] == 0

    def test_register_then_unregister_nets_out(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        assert set(journal.replay()) == {"indian_gpa"}
        journal.record_unregister("indian_gpa")
        journal.close()
        assert RegistryJournal(journal.path).replay() == {}

    def test_restore_rebuilds_a_queryable_model(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()

        registry = ModelRegistry()
        restored = RegistryJournal(journal.path).restore(registry)
        assert restored == ["indian_gpa"]
        # Bit-identical to a freshly built model, no tolerance.
        assert registry.get("indian_gpa").model.logprob("GPA > 3") == \
            indian_gpa.model().logprob("GPA > 3")
        assert registry.get("indian_gpa").digest == registered_spec.digest

    def test_cache_budget_survives_the_journal(self, tmp_path, registered_spec):
        registry = ModelRegistry()
        prepared = registry.register("budgeted", registered_spec.model, cache_size=77)
        journal = journal_at(tmp_path)
        journal.record_register(prepared)
        journal.close()

        restored_registry = ModelRegistry()
        RegistryJournal(journal.path).restore(restored_registry)
        assert restored_registry.get("budgeted").cache_size == 77


class TestDoubleReplayIdempotence:
    def test_restore_twice_into_one_registry(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()

        registry = ModelRegistry()
        reopened = RegistryJournal(journal.path)
        assert reopened.restore(registry) == ["indian_gpa"]
        model_before = registry.get("indian_gpa").model
        # Second replay + restore: a no-op, not a duplicate-name error,
        # and the live model object is untouched.
        reopened.replay()
        assert reopened.restore(registry) == []
        assert registry.get("indian_gpa").model is model_before

    def test_startup_flags_win_over_the_journal(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()

        registry = ModelRegistry()
        startup = registry.register_catalog("indian_gpa")
        assert RegistryJournal(journal.path).restore(registry) == []
        assert registry.get("indian_gpa") is startup


class TestCorruption:
    def test_truncated_last_line_stops_at_last_valid_entry(
        self, tmp_path, registered_spec
    ):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()
        # Crash mid-append: a second record with its tail sheared off.
        with open(journal.path, "ab") as handle:
            torn = json.dumps({"op": "unregister", "name": "indian_gpa"})
            handle.write(torn[: len(torn) // 2].encode("utf-8"))

        reopened = RegistryJournal(journal.path)
        live = reopened.replay()
        # The torn unregister never happened; the register survives and
        # the service still boots from it.
        assert set(live) == {"indian_gpa"}
        assert reopened.truncated_bytes > 0
        registry = ModelRegistry()
        assert reopened.restore(registry) == ["indian_gpa"]
        assert registry.get("indian_gpa").model.logprob("GPA > 3") == \
            indian_gpa.model().logprob("GPA > 3")

    def test_append_after_torn_tail_lands_on_a_record_boundary(
        self, tmp_path, registered_spec
    ):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'{"op": "unregister", "na')

        reopened = RegistryJournal(journal.path)
        reopened.replay()
        reopened.record_unregister("indian_gpa")
        reopened.close()
        # The torn bytes were truncated before the append: every line of
        # the file decodes, and the net state reflects the new record.
        lines = journal.path.read_bytes().splitlines()
        assert all(json.loads(line) for line in lines)
        assert RegistryJournal(journal.path).replay() == {}

    @pytest.mark.parametrize(
        "garbage", [b"not json at all", b"[" * 100000],
        ids=["not-json", "nesting-bomb"],
    )
    def test_garbage_line_stops_replay_there(
        self, tmp_path, registered_spec, garbage
    ):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(garbage + b"\n")
            handle.write(b'{"op": "unregister", "name": "indian_gpa"}\n')

        # WAL convention: nothing after the first bad record is trusted,
        # so the (valid-looking) unregister behind it is discarded too.
        live = RegistryJournal(journal.path).replay()
        assert set(live) == {"indian_gpa"}

    def test_digest_mismatch_refuses_to_restore(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        journal.close()
        # Tamper: swap the journaled digest for a lie.
        line = json.loads(journal.path.read_text())
        line["digest"] = "0" * len(line["digest"])
        journal.path.write_text(json.dumps(line) + "\n")

        with pytest.raises(JournalError, match="digest"):
            RegistryJournal(journal.path).restore(ModelRegistry())


class TestCompaction:
    def test_unregister_churn_triggers_compaction(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path, compact_min_dead=4)
        for _ in range(8):
            journal.record_register(registered_spec)
            journal.record_unregister("indian_gpa")
        journal.record_register(registered_spec)
        assert journal.compactions >= 2
        journal.close()

        # 17 lifecycle events hit the disk, but compaction keeps the file
        # bounded by the records since the last rewrite -- and the net
        # state is intact.
        lines = journal.path.read_bytes().splitlines()
        assert len(lines) < 17
        reopened = RegistryJournal(journal.path)
        assert set(reopened.replay()) == {"indian_gpa"}

    def test_compaction_preserves_restorability(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path, compact_min_dead=2)
        journal.record_register(registered_spec)
        journal.record_unregister("indian_gpa")
        journal.record_register(registered_spec)
        journal.close()

        registry = ModelRegistry()
        RegistryJournal(journal.path).restore(registry)
        assert registry.get("indian_gpa").model.logprob("GPA > 3") == \
            indian_gpa.model().logprob("GPA > 3")

    def test_compaction_to_empty(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path, compact_min_dead=2)
        journal.record_register(registered_spec)
        journal.record_unregister("indian_gpa")
        assert journal.compactions >= 1
        journal.close()
        assert journal.path.read_bytes() == b""
        assert RegistryJournal(journal.path).replay() == {}


class TestJournalStats:
    def test_stats_shape(self, tmp_path, registered_spec):
        journal = journal_at(tmp_path)
        journal.record_register(registered_spec)
        stats = journal.stats()
        assert stats["live"] == 1
        assert stats["dead"] == 0
        assert stats["events"] == 1
        assert stats["compactions"] == 0
        assert stats["path"].endswith("registry.journal")
        journal.close()


class TestPayloadRegistration:
    def test_serialized_payload_round_trips_through_the_journal(self, tmp_path):
        """A model registered from a to_json payload (not the catalog)
        survives the journal with its digest intact."""
        registry = ModelRegistry()
        model = SpplModel.from_json(indian_gpa.model().to_json())
        registered = registry.register("from_payload", model)
        journal = journal_at(tmp_path)
        journal.record_register(registered)
        journal.close()

        restored_registry = ModelRegistry()
        RegistryJournal(journal.path).restore(restored_registry)
        assert restored_registry.get("from_payload").payload == registered.payload
        assert restored_registry.get("from_payload").digest == registered.digest


class TestBlobRegistration:
    def test_blob_backed_register_journals_a_path_record(self, tmp_path):
        """With a blob_dir, the journal records the content-addressed
        ``.spz`` path instead of the serialized payload."""
        registry = ModelRegistry(blob_dir=tmp_path / "blobs")
        registered = registry.register_catalog("indian_gpa")
        journal = journal_at(tmp_path)
        journal.record_register(registered)
        journal.close()

        records = [
            json.loads(line)
            for line in journal.path.read_text().splitlines()
            if line.strip()
        ]
        (record,) = [r for r in records if r.get("op") == "register"]
        assert record["path"] == registered.blob_path
        assert "payload" not in record
        assert record["digest"] == registered.digest

    def test_restore_from_blob_is_bit_identical(self, tmp_path):
        registry = ModelRegistry(blob_dir=tmp_path / "blobs")
        registered = registry.register_catalog("indian_gpa")
        journal = journal_at(tmp_path)
        journal.record_register(registered)
        journal.close()

        restored_registry = ModelRegistry()
        restored = RegistryJournal(journal.path).restore(restored_registry)
        assert restored == ["indian_gpa"]
        assert restored_registry.get("indian_gpa").digest == registered.digest
        assert restored_registry.get("indian_gpa").model.logprob("GPA > 3") == \
            indian_gpa.model().logprob("GPA > 3")

    def test_missing_blob_refuses_to_restore(self, tmp_path):
        registry = ModelRegistry(blob_dir=tmp_path / "blobs")
        registered = registry.register_catalog("indian_gpa")
        journal = journal_at(tmp_path)
        journal.record_register(registered)
        journal.close()
        (tmp_path / "blobs" / (registered.digest + ".spz")).unlink()

        with pytest.raises(JournalError, match="cannot be restored from blob"):
            RegistryJournal(journal.path).restore(ModelRegistry())

    def test_tampered_blob_refuses_to_restore(self, tmp_path):
        registry = ModelRegistry(blob_dir=tmp_path / "blobs")
        registered = registry.register_catalog("indian_gpa")
        journal = journal_at(tmp_path)
        journal.record_register(registered)
        journal.close()
        blob_path = tmp_path / "blobs" / (registered.digest + ".spz")
        blob = bytearray(blob_path.read_bytes())
        # Flip a byte inside the canonical payload section (the part the
        # restore path digest-verifies; it starts at the first aligned
        # offset after the reserved header region).
        blob[4096 + 16] ^= 0xFF
        blob_path.write_bytes(bytes(blob))

        with pytest.raises(JournalError, match="cannot be restored from blob"):
            RegistryJournal(journal.path).restore(ModelRegistry())

    def test_compaction_preserves_path_records(self, tmp_path):
        registry = ModelRegistry(blob_dir=tmp_path / "blobs")
        registered = registry.register_catalog("indian_gpa")
        journal = journal_at(tmp_path)
        journal.record_register(registered)
        journal.compact()
        journal.close()

        restored_registry = ModelRegistry()
        restored = RegistryJournal(journal.path).restore(restored_registry)
        assert restored == ["indian_gpa"]
        assert restored_registry.get("indian_gpa").digest == registered.digest
