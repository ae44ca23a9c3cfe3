"""Property-based tests (hypothesis) for core data structures and invariants."""

import itertools
import shutil
import string
import tempfile

from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.errors import JournalTruncatedError
from repro.identifiers import normalize_uri, slugify
from repro.model import ActionCall, LifecycleBuilder, LifecycleModel, Phase, BEGIN
from repro.model.lifecycle import LifecycleModel as Model
from repro.persistence import (
    Journal,
    ReadCursor,
    scan_last_seq,
    scan_positions,
    scan_records,
)
from repro.serialization import (
    lifecycle_from_json,
    lifecycle_from_xml,
    lifecycle_to_json,
    lifecycle_to_xml,
)

# ------------------------------------------------------------------ strategies

phase_names = st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=20).filter(
    lambda text: text.strip())
safe_values = st.text(alphabet=string.ascii_letters + string.digits + " .-", max_size=30)


@st.composite
def lifecycle_models(draw):
    """Random small lifecycle models with unique phases and valid transitions."""
    names = draw(st.lists(phase_names, min_size=2, max_size=6,
                          unique_by=lambda name: slugify(name)))
    # The XML codec normalises surrounding whitespace, so generate clean names.
    model = Model(name=draw(phase_names).strip())
    phase_ids = []
    for index, name in enumerate(names):
        terminal = index == len(names) - 1
        phase = Phase(phase_id=slugify(name), name=name.strip(), terminal=terminal)
        if not terminal and draw(st.booleans()):
            phase.add_action(ActionCall("http://www.liquidpub.org/a/chr",
                                        "Change access rights",
                                        {"visibility": draw(safe_values)}))
        model.add_phase(phase)
        phase_ids.append(phase.phase_id)
    model.add_transition(BEGIN, phase_ids[0])
    for source, target in zip(phase_ids, phase_ids[1:]):
        model.add_transition(source, target)
    # optionally add a few extra (possibly backward) edges between non-terminal phases
    extra = draw(st.lists(st.tuples(st.sampled_from(phase_ids[:-1]),
                                    st.sampled_from(phase_ids[:-1])), max_size=3))
    for source, target in extra:
        if source != target:
            model.add_transition(source, target)
    return model


# ------------------------------------------------------------------- properties

class TestSerializationProperties:
    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_xml_round_trip_preserves_model(self, model):
        restored = lifecycle_from_xml(lifecycle_to_xml(model))
        assert restored.name == model.name
        assert restored.phase_ids == model.phase_ids
        assert len(restored.transitions) == len(model.transitions)
        for phase in model.phases:
            restored_phase = restored.phase(phase.phase_id)
            assert restored_phase.terminal == phase.terminal
            assert [c.action_uri for c in restored_phase.actions] == \
                [c.action_uri for c in phase.actions]

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_preserves_model(self, model):
        restored = lifecycle_from_json(lifecycle_to_json(model))
        assert restored.to_dict() == model.to_dict()

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_xml_serialization_is_stable(self, model):
        once = lifecycle_to_xml(lifecycle_from_xml(lifecycle_to_xml(model)))
        twice = lifecycle_to_xml(lifecycle_from_xml(once))
        assert once == twice


class TestModelProperties:
    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_copy_preserves_structure_and_is_independent(self, model):
        duplicate = model.copy()
        assert duplicate.to_dict() == model.to_dict()
        if duplicate.phases:
            duplicate.phases[0].name = duplicate.phases[0].name + " changed"
            duplicate.remove_phase(duplicate.phase_ids[-1])
        assert len(model) >= len(duplicate)

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_successors_are_always_modeled_moves(self, model):
        for phase_id in model.phase_ids:
            for successor in model.successors(phase_id):
                assert model.is_modeled_move(phase_id, successor.phase_id)

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_initial_phases_are_reachable(self, model):
        reachable = model.reachable_phases()
        for phase in model.initial_phases():
            assert phase.phase_id in reachable

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_element_count_lower_bound(self, model):
        assert model.element_count() >= len(model) + len(model.transitions)


class TestIdentifierProperties:
    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_slugify_is_idempotent_and_safe(self, text):
        slug = slugify(text)
        assert slugify(slug) == slug
        assert " " not in slug
        assert slug == slug.lower()

    @given(st.sampled_from(["http", "https"]),
           st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
           st.text(alphabet=string.ascii_letters + string.digits, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_normalize_uri_is_idempotent(self, scheme, host, path):
        uri = "{}://{}.org/{}".format(scheme, host, path)
        normalized = normalize_uri(uri)
        assert normalize_uri(normalized) == normalized


# ------------------------------------------------------------ journal cursors

journal_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 7)),
    st.tuples(st.just("rotate"), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 60)),
    st.tuples(st.just("reopen"), st.just(0)),
    st.tuples(st.just("read"), st.integers(1, 9)),
    st.tuples(st.just("rewind"), st.integers(1, 6)),
), max_size=40)


def fresh_read(directory, after_seq, limit):
    """Up to ``limit`` records of a cursor-free strict scan, as dicts, or
    the truncation it raised."""
    try:
        return [record.to_dict() for record in itertools.islice(
            scan_records(directory, after_seq, strict=True), limit)]
    except JournalTruncatedError as exc:
        return ("truncated", exc.oldest_available)


def resumed_read(directory, after_seq, limit, cursor):
    """The same read resuming at ``cursor``: its outcome, and the cursor
    past the last record it kept."""
    records = []
    try:
        for record, segment, end in scan_positions(
                directory, after_seq, strict=True, cursor=cursor):
            records.append(record.to_dict())
            cursor = ReadCursor(segment, record.seq, end)
            if len(records) >= limit:
                break
    except JournalTruncatedError as exc:
        return ("truncated", exc.oldest_available), cursor
    return records, cursor


class TestJournalCursorProperties:
    @given(journal_steps)
    @settings(max_examples=150, deadline=None)
    def test_cursor_follower_sees_what_fresh_scans_see(self, steps):
        """A follower resuming from its read cursor through appends,
        rotations, truncations, reopens and rewinds (a retry from an older
        seq, cursor kept) reads exactly the records a fresh strict scan
        reads, and is refused exactly where it is."""
        directory = tempfile.mkdtemp(prefix="gelee-cursor-")
        journal = Journal(directory, fsync="never", segment_max_records=5)
        clock = SimulatedClock()
        after_seq, cursor = 0, None
        try:
            for step, argument in steps:
                if step == "append":
                    for _ in range(argument):
                        journal.append("k", clock.now(), "s")
                elif step == "rotate":
                    journal.rotate()
                elif step == "truncate":
                    journal.truncate_through(argument)
                elif step == "reopen":
                    journal.close()
                    journal = Journal(directory, fsync="never",
                                      segment_max_records=5)
                elif step == "rewind":
                    after_seq = max(0, after_seq - argument)
                else:
                    expected = fresh_read(directory, after_seq, argument)
                    outcome, moved = resumed_read(directory, after_seq,
                                                  argument, cursor)
                    assert outcome == expected
                    assert scan_last_seq(directory, cursor) == \
                        scan_last_seq(directory)
                    if isinstance(expected, tuple):
                        after_seq = expected[1] - 1  # re-bootstrap past the gap
                    elif expected:
                        cursor, after_seq = moved, moved.seq
        finally:
            journal.close()
            shutil.rmtree(directory, ignore_errors=True)
