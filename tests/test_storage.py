"""Tests for the data tier: execution log, template store and the crash-safe file write."""

import bisect
import random

import pytest

from repro.bisection import bisect_by
from repro.clock import SimulatedClock
from repro.errors import StorageError, TemplateError
from repro.events import Event, EventBus
from repro.storage import ExecutionLog, TemplateStore
from repro.storage.repository import atomic_write_text
from repro.templates import eu_deliverable_lifecycle


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
        assert not store.delete("eu")
        assert store.template_ids() == []

    def test_listing_is_sorted_by_template_id(self):
        store = TemplateStore()
        for template_id in ("zeta", "alpha", "mid"):
            store.save(eu_deliverable_lifecycle(), template_id=template_id)
        assert store.template_ids() == ["alpha", "mid", "zeta"]
        assert [entry["template_id"] for entry in store.catalog()] == ["alpha", "mid", "zeta"]


class TestAtomicWriteText:
    def test_failed_replace_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.json"
        atomic_write_text(str(path), "old")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.storage.repository.os.replace", broken_replace)
        with pytest.raises(StorageError, match="disk full"):
            atomic_write_text(str(path), "new", fsync=True)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == "old"
        assert list(tmp_path.glob("*.tmp")) == []
        assert [entry.name for entry in tmp_path.iterdir()] == ["manifest.json"]


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
