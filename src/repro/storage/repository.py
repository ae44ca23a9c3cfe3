"""Generic document repositories.

The data tier stores JSON-like documents keyed by id.  Two implementations
share one interface:

* :class:`InMemoryRepository` — dictionaries, no I/O; default everywhere.
* :class:`FileRepository` — one JSON file per record under a directory, so a
  hosted deployment survives restarts.

Both provide optimistic concurrency: every stored record carries a version
number, and writers that pass a stale ``expected_version`` get a
:class:`~repro.errors.ConcurrencyError` instead of silently overwriting a
newer write.

Repositories also support *secondary indexes*: :meth:`InMemoryRepository.create_index`
registers a key extractor over the stored documents (e.g. the owner, the
resource type, the current phase), the index is maintained on every write and
delete, and :meth:`InMemoryRepository.find_by` answers equality queries from
the index instead of scanning every record.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..errors import ConcurrencyError, StorageError

_SAFE_FILENAME = re.compile(r"[^A-Za-z0-9_.-]+")


def atomic_write_text(path: str, text: str, fsync: bool = False) -> None:
    """Atomically (re)place ``path`` with ``text``: temp file + rename.

    A reader never observes a partial file — it sees the old content or the
    new, nothing in between.  With ``fsync`` the data is forced to stable
    storage before the rename commits it (power-loss safety; callers should
    follow up with :func:`fsync_directory` so the rename itself survives).
    Shared by the file repository, the snapshot store and anything else
    whose crash-safety depends on this exact sequence existing only once.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        raise StorageError("could not write {!r}: {}".format(path, exc))
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)


def fsync_directory(directory: str) -> None:
    """fsync a directory so completed file creations/renames survive power loss.

    File-data fsync alone does not make a *new* file durable: the directory
    entry lives in the directory, which has its own write-back.  Every
    durability-critical writer (WAL journal, snapshot store) shares this
    helper.
    """
    try:
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
    except OSError as exc:
        raise StorageError("could not sync {!r}: {}".format(directory, exc))


@dataclass
class StoredRecord:
    """A document plus its repository bookkeeping."""

    record_id: str
    document: Dict[str, Any]
    version: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {"record_id": self.record_id, "version": self.version, "document": self.document}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StoredRecord":
        return cls(record_id=data["record_id"], document=data.get("document", {}),
                   version=int(data.get("version", 1)))


#: An index extractor maps a document to one key, a list of keys, or ``None``.
IndexExtractor = Callable[[Dict[str, Any]], Any]


class InMemoryRepository:
    """Dictionary-backed repository with optimistic concurrency and indexes."""

    def __init__(self, name: str = "repository"):
        self.name = name
        self._records: Dict[str, StoredRecord] = {}
        self._index_extractors: Dict[str, IndexExtractor] = {}
        #: index name -> key -> set of record ids.
        self._indexes: Dict[str, Dict[Any, set]] = {}
        #: record id -> index name -> keys it is filed under (reverse map,
        #: so unindexing a record never scans whole buckets).
        self._record_keys: Dict[str, Dict[str, List[Any]]] = {}

    # ------------------------------------------------------------------ indexes
    def create_index(self, index_name: str, extractor: IndexExtractor) -> None:
        """Register (and backfill) a secondary index over the documents.

        ``extractor`` receives a document and returns the key to file it
        under — or a list of keys, or ``None`` to leave the record out of
        the index.  Existing records are indexed immediately.
        """
        if index_name in self._index_extractors:
            raise StorageError("index {!r} already exists on {}".format(index_name, self.name))
        self._index_extractors[index_name] = extractor
        self._indexes[index_name] = {}
        for record in self._records.values():
            self._index_record(index_name, record)

    def has_index(self, index_name: str) -> bool:
        return index_name in self._index_extractors

    def find_by(self, index_name: str, key: Any) -> List[StoredRecord]:
        """Equality lookup answered from a secondary index (no scan)."""
        if index_name not in self._indexes:
            raise StorageError("{} has no index {!r}".format(self.name, index_name))
        matched = self._indexes[index_name].get(key, ())
        return [self._records[record_id] for record_id in sorted(matched)]

    def index_keys(self, index_name: str) -> List[Any]:
        """The distinct keys currently present in an index."""
        if index_name not in self._indexes:
            raise StorageError("{} has no index {!r}".format(self.name, index_name))
        return sorted(key for key, members in self._indexes[index_name].items() if members)

    # ------------------------------------------------------------------- writes
    def put(self, record_id: str, document: Dict[str, Any],
            expected_version: Optional[int] = None) -> StoredRecord:
        """Insert or update a document.

        ``expected_version`` enables compare-and-swap semantics: pass the
        version you read, and the write fails if someone else wrote meanwhile.
        ``None`` skips the check (last-writer-wins).
        """
        if not record_id:
            raise StorageError("a record id must be a non-empty string")
        existing = self._records.get(record_id)
        if expected_version is not None:
            current_version = existing.version if existing else 0
            if current_version != expected_version:
                raise ConcurrencyError(
                    "record {!r} is at version {}, expected {}".format(
                        record_id, current_version, expected_version
                    )
                )
        version = (existing.version + 1) if existing else 1
        record = StoredRecord(record_id=record_id, document=dict(document), version=version)
        self._write(record)
        return record

    def delete(self, record_id: str) -> bool:
        """Remove a record; returns False when it did not exist.

        The external copy is removed *first* (the ``_remove`` hook): if that
        fails, the in-memory state is left untouched, so memory and disk
        never silently diverge.
        """
        existed = record_id in self._records
        if existed:
            self._remove(record_id)
            self._unindex_record(record_id)
            self._records.pop(record_id, None)
        return existed

    # -------------------------------------------------------------------- reads
    def get(self, record_id: str) -> Optional[StoredRecord]:
        return self._records.get(record_id)

    def require(self, record_id: str) -> StoredRecord:
        record = self.get(record_id)
        if record is None:
            raise StorageError("{} has no record {!r}".format(self.name, record_id))
        return record

    def exists(self, record_id: str) -> bool:
        return record_id in self._records

    def ids(self) -> List[str]:
        return sorted(self._records)

    def all(self) -> List[StoredRecord]:
        return [self._records[record_id] for record_id in self.ids()]

    def find(self, predicate: Callable[[Dict[str, Any]], bool]) -> List[StoredRecord]:
        """Return the records whose document satisfies ``predicate``."""
        return [record for record in self.all() if predicate(record.document)]

    def count(self) -> int:
        return len(self._records)

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[StoredRecord]:
        return iter(self.all())

    # ----------------------------------------------------------------- extension
    def _write(self, record: StoredRecord) -> None:
        self._unindex_record(record.record_id)
        self._records[record.record_id] = record
        for index_name in self._index_extractors:
            self._index_record(index_name, record)

    def _remove(self, record_id: str) -> None:
        """Hook for subclasses that persist records externally."""

    # ------------------------------------------------------------------ internal
    def _index_record(self, index_name: str, record: StoredRecord) -> None:
        keys = self._index_extractors[index_name](record.document)
        if keys is None:
            return
        if not isinstance(keys, (list, tuple, set, frozenset)):
            keys = [keys]
        buckets = self._indexes[index_name]
        for key in keys:
            buckets.setdefault(key, set()).add(record.record_id)
        if keys:
            self._record_keys.setdefault(record.record_id, {})[index_name] = list(keys)

    def _unindex_record(self, record_id: str) -> None:
        filed = self._record_keys.pop(record_id, None)
        if not filed:
            return
        for index_name, keys in filed.items():
            buckets = self._indexes[index_name]
            for key in keys:
                members = buckets.get(key)
                if members is not None:
                    members.discard(record_id)


class FileRepository(InMemoryRepository):
    """Repository persisting each record as a JSON file in a directory.

    Writes are atomic (temp file + rename); the in-memory index mirrors the
    directory and is loaded eagerly at construction time.
    """

    def __init__(self, directory: str, name: str = None):
        super().__init__(name=name or os.path.basename(directory) or "repository")
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._load_existing()

    @property
    def directory(self) -> str:
        return self._directory

    # ----------------------------------------------------------------- extension
    def _write(self, record: StoredRecord) -> None:
        # Persist to disk first, commit to memory second: if the disk write
        # fails the repository still reflects the last durable state instead
        # of silently diverging from it (write-then-commit).
        payload = json.dumps(record.to_dict(), indent=2, sort_keys=True, default=str)
        try:
            atomic_write_text(self._path(record.record_id), payload)
        except StorageError as exc:
            raise StorageError("could not persist record {!r}: {}".format(
                record.record_id, exc))
        super()._write(record)

    def _remove(self, record_id: str) -> None:
        # Called by ``delete`` *before* the in-memory record goes away; a
        # failed unlink raises StorageError and leaves the repository intact.
        path = self._path(record_id)
        try:
            if os.path.exists(path):
                os.unlink(path)
        except OSError as exc:
            raise StorageError("could not remove record {!r}: {}".format(record_id, exc))

    # ------------------------------------------------------------------ internal
    def _path(self, record_id: str) -> str:
        safe = _SAFE_FILENAME.sub("_", record_id)
        return os.path.join(self._directory, "{}.json".format(safe))

    def _load_existing(self) -> None:
        for filename in sorted(os.listdir(self._directory)):
            if not filename.endswith(".json"):
                continue
            path = os.path.join(self._directory, filename)
            try:
                with open(path, encoding="utf-8") as handle:
                    data = json.load(handle)
                record = StoredRecord.from_dict(data)
            except (OSError, ValueError, KeyError) as exc:
                raise StorageError("could not load record from {!r}: {}".format(path, exc))
            self._records[record.record_id] = record
