"""Tests for the data tier: repositories, execution log, template and definition stores."""

import bisect
import random

import pytest

from repro.actions import library
from repro.actions.registry import ActionRegistry
from repro.bisection import bisect_by
from repro.clock import SimulatedClock
from repro.errors import ConcurrencyError, StorageError, TemplateError
from repro.events import Event, EventBus
from repro.resources import Credentials, ResourceDescriptor
from repro.storage import (
    DefinitionStore,
    ExecutionLog,
    FileRepository,
    InMemoryRepository,
    TemplateStore,
)
from repro.templates import eu_deliverable_lifecycle


class TestInMemoryRepository:
    def test_put_get_delete(self):
        repository = InMemoryRepository("test")
        repository.put("a", {"value": 1})
        assert repository.get("a").document == {"value": 1}
        assert repository.exists("a")
        assert repository.delete("a")
        assert not repository.delete("a")
        assert repository.get("a") is None

    def test_versions_increment(self):
        repository = InMemoryRepository()
        assert repository.put("a", {"v": 1}).version == 1
        assert repository.put("a", {"v": 2}).version == 2

    def test_optimistic_concurrency(self):
        repository = InMemoryRepository()
        record = repository.put("a", {"v": 1})
        repository.put("a", {"v": 2}, expected_version=record.version)
        with pytest.raises(ConcurrencyError):
            repository.put("a", {"v": 3}, expected_version=record.version)

    def test_expected_version_zero_means_create_only(self):
        repository = InMemoryRepository()
        repository.put("a", {"v": 1}, expected_version=0)
        with pytest.raises(ConcurrencyError):
            repository.put("a", {"v": 2}, expected_version=0)

    def test_empty_id_rejected(self):
        with pytest.raises(StorageError):
            InMemoryRepository().put("", {})

    def test_require_raises_for_missing(self):
        with pytest.raises(StorageError):
            InMemoryRepository("users").require("ghost")

    def test_find_and_iteration(self):
        repository = InMemoryRepository()
        repository.put("a", {"kind": "x"})
        repository.put("b", {"kind": "y"})
        repository.put("c", {"kind": "x"})
        assert len(repository.find(lambda doc: doc["kind"] == "x")) == 2
        assert repository.ids() == ["a", "b", "c"]
        assert len(list(repository)) == 3
        assert len(repository) == 3


class TestFileRepository:
    def test_persists_across_instances(self, tmp_path):
        directory = str(tmp_path / "store")
        first = FileRepository(directory)
        first.put("model/1", {"name": "Deliverable"})
        first.put("model/2", {"name": "Release"})
        second = FileRepository(directory)
        assert second.get("model/1").document == {"name": "Deliverable"}
        assert second.count() == 2

    def test_delete_removes_file(self, tmp_path):
        directory = str(tmp_path / "store")
        repository = FileRepository(directory)
        repository.put("a", {"x": 1})
        repository.delete("a")
        assert FileRepository(directory).count() == 0

    def test_versions_survive_reload(self, tmp_path):
        directory = str(tmp_path / "store")
        repository = FileRepository(directory)
        repository.put("a", {"v": 1})
        repository.put("a", {"v": 2})
        assert FileRepository(directory).get("a").version == 2

    def test_unsafe_ids_are_sanitised(self, tmp_path):
        repository = FileRepository(str(tmp_path / "store"))
        repository.put("http://example.org/model?x=1", {"ok": True})
        reloaded = FileRepository(str(tmp_path / "store"))
        assert reloaded.get("http://example.org/model?x=1").document == {"ok": True}


class TestExecutionLog:
    def _clock(self):
        return SimulatedClock()

    def test_records_bus_events(self):
        bus = EventBus()
        log = ExecutionLog(bus=bus)
        clock = self._clock()
        bus.publish(Event("instance.created", clock.now(), "inst-1", actor="alice"))
        bus.publish(Event("instance.phase_entered", clock.now(), "inst-1"))
        assert len(log) == 2
        assert log.history_of("inst-1")[0].kind == "instance.created"

    def test_filters(self):
        log = ExecutionLog()
        clock = self._clock()
        log.record("a.one", clock.now(), "s1", actor="alice")
        clock.advance(days=1)
        middle = clock.now()
        log.record("a.two", clock.now(), "s1", actor="bob")
        clock.advance(days=1)
        log.record("b.one", clock.now(), "s2", actor="alice")
        assert log.count(kind="a.") == 2
        assert log.count(subject_id="s2") == 1
        assert len(log.entries(actor="alice")) == 2
        assert len(log.entries(since=middle)) == 2
        assert len(log.entries(until=middle)) == 2  # inclusive boundaries
        assert log.last(kind="a.").kind == "a.two"
        assert log.subjects() == ["s1", "s2"]

    def test_limit_returns_latest(self):
        log = ExecutionLog()
        clock = self._clock()
        for index in range(5):
            log.record("k", clock.now(), "s")
        assert [entry.sequence for entry in log.entries(limit=2)] == [4, 5]

    def test_capacity_bound(self):
        log = ExecutionLog(max_entries=3)
        clock = self._clock()
        for index in range(10):
            log.record("k", clock.now(), "s")
        assert len(log) == 3
        assert log.entries()[0].sequence == 8

    def test_counts_by_kind(self):
        log = ExecutionLog()
        clock = self._clock()
        log.record("a", clock.now(), "s")
        log.record("a", clock.now(), "s")
        log.record("b", clock.now(), "s")
        assert log.counts_by_kind() == {"a": 2, "b": 1}


class TestTemplateStore:
    def test_save_load_instantiate(self):
        store = TemplateStore()
        template_id = store.save(eu_deliverable_lifecycle(), template_id="eu-deliverable")
        assert store.exists(template_id)
        loaded = store.load(template_id)
        assert loaded.name == "EU Project deliverable lifecycle"
        fresh = store.instantiate(template_id, name="D7.7 quality plan")
        assert fresh.uri != loaded.uri
        assert fresh.name == "D7.7 quality plan"
        assert fresh.phase_ids == loaded.phase_ids

    def test_unknown_template_raises(self):
        with pytest.raises(TemplateError):
            TemplateStore().load("nope")

    def test_catalog_and_delete(self):
        store = TemplateStore()
        store.save(eu_deliverable_lifecycle(), template_id="eu")
        catalog = store.catalog()
        assert catalog[0]["template_id"] == "eu"
        assert "MediaWiki page" in catalog[0]["resource_types"]
        assert store.delete("eu")
        assert store.template_ids() == []

    def test_file_backed_template_store(self, tmp_path):
        backing = FileRepository(str(tmp_path / "templates"))
        TemplateStore(backing).save(eu_deliverable_lifecycle(), template_id="eu")
        reloaded = TemplateStore(FileRepository(str(tmp_path / "templates")))
        assert reloaded.load("eu").phase_ids == eu_deliverable_lifecycle().phase_ids


class TestDefinitionStore:
    def test_resource_round_trip(self):
        store = DefinitionStore()
        descriptor = ResourceDescriptor(uri="urn:doc:1", resource_type="Google Doc",
                                        display_name="D1", owner="alice",
                                        credentials=Credentials("alice", "secret"))
        store.save_resource(descriptor)
        loaded = store.resource("urn:doc:1")
        assert loaded.display_name == "D1"
        assert loaded.credentials is None  # secrets not persisted by default
        assert store.resources(resource_type="Google Doc")
        assert store.resources(resource_type="SVN file") == []
        assert store.forget_resource("urn:doc:1")

    def test_resource_with_credentials_persisted_when_asked(self):
        store = DefinitionStore()
        descriptor = ResourceDescriptor(uri="urn:doc:2", resource_type="Google Doc",
                                        credentials=Credentials("alice", "secret"))
        store.save_resource(descriptor, include_credentials=True)
        assert store.resource("urn:doc:2").credentials.secret == "secret"

    def test_action_type_round_trip(self):
        store = DefinitionStore()
        registry = ActionRegistry()
        library.register_standard_library(registry)
        original = registry.type(library.CHANGE_ACCESS_RIGHTS)
        store.save_action_type(original)
        loaded = store.action_type(library.CHANGE_ACCESS_RIGHTS)
        assert loaded.name == original.name
        assert {p.name for p in loaded.parameters} == {p.name for p in original.parameters}
        assert store.counts() == {"resources": 0, "action_types": 1}
        assert len(store.action_types()) == 1


class TestSecondaryIndexes:
    def _repo(self):
        repo = InMemoryRepository("docs")
        repo.create_index("owner", lambda document: document.get("owner"))
        return repo

    def test_find_by_answers_from_the_index(self):
        repo = self._repo()
        repo.put("a", {"owner": "alice"})
        repo.put("b", {"owner": "bob"})
        repo.put("c", {"owner": "alice"})
        assert [r.record_id for r in repo.find_by("owner", "alice")] == ["a", "c"]
        assert repo.find_by("owner", "carol") == []
        assert repo.index_keys("owner") == ["alice", "bob"]

    def test_index_follows_updates_and_deletes(self):
        repo = self._repo()
        repo.put("a", {"owner": "alice"})
        repo.put("a", {"owner": "bob"})  # update moves the record
        assert repo.find_by("owner", "alice") == []
        assert [r.record_id for r in repo.find_by("owner", "bob")] == ["a"]
        repo.delete("a")
        assert repo.find_by("owner", "bob") == []
        assert repo.index_keys("owner") == []

    def test_index_backfills_existing_records_and_multi_keys(self):
        repo = InMemoryRepository("docs")
        repo.put("a", {"tags": ["x", "y"]})
        repo.put("b", {"tags": ["y"]})
        repo.put("c", {})
        repo.create_index("tag", lambda document: document.get("tags"))
        assert [r.record_id for r in repo.find_by("tag", "y")] == ["a", "b"]
        assert [r.record_id for r in repo.find_by("tag", "x")] == ["a"]

    def test_duplicate_or_unknown_index_raises(self):
        repo = self._repo()
        with pytest.raises(StorageError):
            repo.create_index("owner", lambda document: None)
        with pytest.raises(StorageError):
            repo.find_by("nope", "x")

    def test_file_repository_maintains_indexes(self, tmp_path):
        repo = FileRepository(str(tmp_path / "docs"))
        repo.create_index("kind", lambda document: document.get("kind"))
        repo.put("a", {"kind": "report"})
        repo.put("b", {"kind": "memo"})
        assert [r.record_id for r in repo.find_by("kind", "memo")] == ["b"]
        repo.delete("b")
        assert repo.find_by("kind", "memo") == []

    def test_definition_store_filters_by_owner_and_type(self):
        store = DefinitionStore()
        for index in range(4):
            store.save_resource(ResourceDescriptor(
                uri="urn:doc:{}".format(index), resource_type="Google Doc",
                owner="alice" if index % 2 == 0 else "bob"))
        store.save_resource(ResourceDescriptor(
            uri="urn:wiki:1", resource_type="MediaWiki page", owner="alice"))
        assert len(store.resources(resource_type="Google Doc")) == 4
        assert len(store.resources(owner="alice")) == 3
        assert len(store.resources(resource_type="Google Doc", owner="alice")) == 2


class TestExecutionLogSubjectIndex:
    def test_history_is_indexed_and_capacity_evicts(self):
        clock = SimulatedClock()
        log = ExecutionLog(max_entries=4)
        for index in range(8):
            log.record("instance.phase_entered", clock.now(),
                       "inst-{}".format(index % 2))
        assert len(log) == 4
        assert log.subjects() == ["inst-0", "inst-1"]
        history = log.history_of("inst-1")
        assert [entry.sequence for entry in history] == [6, 8]
        assert log.count(subject_id="inst-0") == 2


class TestFileRepositoryConsistency:
    """A failed disk write must leave memory and disk agreeing (write-then-commit)."""

    def test_failed_write_leaves_memory_unchanged(self, tmp_path, monkeypatch):
        repository = FileRepository(str(tmp_path))
        repository.put("a", {"value": 1})

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.storage.repository.os.replace", broken_replace)
        with pytest.raises(StorageError):
            repository.put("a", {"value": 2})
        monkeypatch.undo()
        # Memory still holds the last durable state, version included.
        assert repository.get("a").document == {"value": 1}
        assert repository.get("a").version == 1
        # And a reload from disk agrees with memory.
        reloaded = FileRepository(str(tmp_path))
        assert reloaded.get("a").document == {"value": 1}
        assert reloaded.get("a").version == 1

    def test_failed_write_does_not_create_phantom_record(self, tmp_path, monkeypatch):
        repository = FileRepository(str(tmp_path))

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.storage.repository.os.replace", broken_replace)
        with pytest.raises(StorageError):
            repository.put("ghost", {"value": 1})
        monkeypatch.undo()
        assert repository.get("ghost") is None
        assert not repository.exists("ghost")
        assert FileRepository(str(tmp_path)).get("ghost") is None

    def test_failed_write_leaves_indexes_unchanged(self, tmp_path, monkeypatch):
        repository = FileRepository(str(tmp_path))
        repository.create_index("owner", lambda document: document.get("owner"))
        repository.put("a", {"owner": "alice"})

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.storage.repository.os.replace", broken_replace)
        with pytest.raises(StorageError):
            repository.put("a", {"owner": "bob"})
        monkeypatch.undo()
        assert [record.record_id for record in repository.find_by("owner", "alice")] == ["a"]
        assert repository.find_by("owner", "bob") == []

    def test_failed_remove_keeps_record(self, tmp_path, monkeypatch):
        repository = FileRepository(str(tmp_path))
        repository.put("a", {"value": 1})

        def broken_unlink(path):
            raise OSError("permission denied")

        monkeypatch.setattr("repro.storage.repository.os.unlink", broken_unlink)
        with pytest.raises(StorageError):
            repository.delete("a")
        monkeypatch.undo()
        # Neither memory nor disk lost the record.
        assert repository.exists("a")
        assert FileRepository(str(tmp_path)).get("a").document == {"value": 1}


class TestFileRepositoryReloadFidelity:
    """A reopened directory behaves exactly like the repository that wrote it."""

    def test_indexes_rebuilt_after_reload(self, tmp_path):
        repository = FileRepository(str(tmp_path))
        repository.put("a", {"owner": "alice", "status": "active"})
        repository.put("b", {"owner": "bob", "status": "active"})
        repository.put("c", {"owner": "alice", "status": "done"})

        reloaded = FileRepository(str(tmp_path))
        reloaded.create_index("owner", lambda document: document.get("owner"))
        reloaded.create_index("status", lambda document: document.get("status"))
        assert [r.record_id for r in reloaded.find_by("owner", "alice")] == ["a", "c"]
        assert [r.record_id for r in reloaded.find_by("status", "active")] == ["a", "b"]
        assert reloaded.index_keys("owner") == ["alice", "bob"]

    def test_expected_version_conflicts_survive_reopen(self, tmp_path):
        repository = FileRepository(str(tmp_path))
        repository.put("a", {"value": 1})
        repository.put("a", {"value": 2})  # version 2 on disk

        reloaded = FileRepository(str(tmp_path))
        # A writer still holding the stale version must conflict after reload.
        with pytest.raises(ConcurrencyError):
            reloaded.put("a", {"value": 3}, expected_version=1)
        # The version read from disk is the one that wins the CAS.
        record = reloaded.put("a", {"value": 3}, expected_version=2)
        assert record.version == 3

    def test_stray_tmp_files_are_skipped(self, tmp_path):
        repository = FileRepository(str(tmp_path))
        repository.put("a", {"value": 1})
        # Simulate a crashed writer: a half-written temp file in the directory.
        (tmp_path / "tmpabc123.tmp").write_text('{"record_id": "ghost", "docu')
        reloaded = FileRepository(str(tmp_path))
        assert reloaded.ids() == ["a"]
        assert reloaded.get("a").document == {"value": 1}


class TestExecutionLogRetention:
    def test_max_entries_bounds_the_log(self):
        clock = SimulatedClock()
        log = ExecutionLog(max_entries=100)
        for index in range(1000):
            log.record("instance.phase_entered", clock.now(), "inst-{}".format(index % 7))
        assert len(log) <= 100
        assert log.dropped_count == 1000 - len(log)
        assert log.max_entries == 100
        # The retained tail is contiguous and newest-last.
        sequences = [entry.sequence for entry in log.entries()]
        assert sequences == list(range(sequences[0], 1001))

    def test_compaction_preserves_keyset_cursors(self):
        clock = SimulatedClock()
        log = ExecutionLog(max_entries=50)
        for index in range(40):
            log.record("k", clock.now(), "subject")
        # Take a cursor, then overflow the log so compaction drops the page
        # the cursor was carved from.
        page, cursor, _total = log.entries_page(subject_id="subject", limit=10)
        assert [entry.sequence for entry in page] == list(range(1, 11))
        assert cursor == 10
        for index in range(200):
            log.record("k", clock.now(), "subject")
        # The cursor still works: it resumes at the oldest *retained* entry
        # newer than the cursor position instead of failing or duplicating.
        page2, cursor2, total2 = log.entries_page(subject_id="subject",
                                                  after_sequence=cursor, limit=10)
        assert len(page2) == 10
        assert all(entry.sequence > cursor for entry in page2)
        assert page2[0].sequence >= cursor + 1
        assert total2 == len(log)
        # Paging to the end terminates with a None cursor.
        while cursor2 is not None:
            page2, cursor2, _ = log.entries_page(subject_id="subject",
                                                 after_sequence=cursor2, limit=50)
        assert page2[-1].sequence == 240

    def test_subject_index_consistent_after_compaction(self):
        clock = SimulatedClock()
        log = ExecutionLog(max_entries=10)
        for index in range(200):
            log.record("k", clock.now(), "inst-{}".format(index % 3))
        retained = log.entries()
        for subject in log.subjects():
            from_index = log.history_of(subject)
            assert from_index == [e for e in retained if e.subject_id == subject]

    def test_dump_restore_round_trip(self):
        clock = SimulatedClock()
        log = ExecutionLog(max_entries=100)
        for index in range(20):
            log.record("instance.phase_entered", clock.now(), "inst-{}".format(index % 2),
                       actor="alice", payload={"phase_id": "p{}".format(index)})
        state = log.dump_state()
        restored = ExecutionLog()
        restored.restore_state(state)
        assert [e.to_dict() for e in restored.entries()] == [e.to_dict() for e in log.entries()]
        assert restored.subjects() == log.subjects()
        # The sequence counter continues where the original left off.
        entry = restored.record("k", clock.now(), "inst-0")
        assert entry.sequence == 21


class TestBisectBy:
    def test_matches_bisect_on_the_keys(self):
        rng = random.Random(7)
        for size in range(0, 12):
            items = sorted(({"k": rng.randint(0, 5)} for _ in range(size)),
                           key=lambda item: item["k"])
            keys = [item["k"] for item in items]
            for value in range(-1, 7):
                assert bisect_by(items, value, lambda item: item["k"]) == \
                    bisect.bisect_left(keys, value)
                assert bisect_by(items, value, lambda item: item["k"], right=True) == \
                    bisect.bisect_right(keys, value)
