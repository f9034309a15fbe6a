"""Source adapters: in-memory tables, delimited-file directories, json-lines
documents.

Three shapes of heterogeneity (operational in-memory data, structured
tabular files, semi-structured documents) behind one snapshot interface.
Adapters read one consistent snapshot per call and report a fingerprint the
wrapper turns into its change epoch. Database-backed adapters can slot in
behind the same interface later.

A file adapter keeps nothing between calls: every load reads the file's
current text. A load may be handed the selection that sits on its relation;
the delimited adapter then decodes only the cells the selection reads, and
the other cells of the rows it keeps, and still validates every cell, so a
malformed file fails whatever the selection. Reuse of unchanged data belongs
to the mediator, which keeps each fetch under its downstream's epoch token.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar

from mmw.errors import ConfigError, UnavailableError, UnknownRelationError
from mmw.formats import iter_csv_rows, parse_jsonl
from mmw.query.ast import Predicate
from mmw.relational import RelationSchema, Row, Table, conform, is_identifier, relation_violations

T = TypeVar("T")

# A file whose change time lies within this window of now may still be
# rewritten within the same timestamp tick, unseen by its stat; 2 s covers
# the coarsest timestamps in use (FAT's).
RACY_WINDOW_NS = 2_000_000_000


class SourceAdapter(ABC):
    """Snapshot access to one data source."""

    kind = "source"

    @abstractmethod
    def relations(self) -> list[RelationSchema]:
        """Schemas of every relation the source currently offers."""

    @abstractmethod
    def load(self, relation: str, where: Optional[Predicate] = None) -> Table:
        """One consistent snapshot of the rows of a relation, in source order;
        the one place that raises UnknownRelationError for a relation the
        source lacks. It may omit rows for which `where` is not true, and
        only those; it never omits a row without a `where`."""

    @abstractmethod
    def fingerprint(self) -> object:
        """Changes whenever the observable source content may have changed."""

    def location(self) -> str:
        return self.kind


class MemoryAdapter(SourceAdapter):
    """Declared schemas plus mutable in-memory rows (single-writer)."""

    kind = "memory"

    def __init__(self, schemas: Iterable[RelationSchema], rows: dict[str, list[Row]] | None = None):
        listed = list(schemas)
        self._schemas = {schema.name: schema for schema in listed}
        if len(self._schemas) != len(listed):
            raise ConfigError("duplicate relation names in memory adapter")
        for schema in listed:
            violations = relation_violations(schema)
            if violations:
                raise ConfigError(f"memory relation {schema.name!r}: {violations[0]}")
        self._rows: dict[str, list[Row]] = {name: [] for name in self._schemas}
        self._generation = 0
        self._lock = threading.Lock()
        for name, initial in (rows or {}).items():
            self.replace_rows(name, initial)

    def _schema(self, relation: str) -> RelationSchema:
        schema = self._schemas.get(relation)
        if schema is None:
            raise UnknownRelationError(f"memory adapter has no relation {relation!r}")
        return schema

    def _conforming(self, relation: str, rows: Iterable[Row]) -> list[Row]:
        schema = self._schema(relation)
        checked = []
        for row in rows:
            row = tuple(row)
            ok, violation = conform(row, schema)
            if not ok:
                raise ConfigError(f"row does not conform to {relation!r}: {violation}")
            checked.append(row)
        return checked

    def replace_rows(self, relation: str, rows: Iterable[Row]) -> None:
        checked = self._conforming(relation, rows)
        with self._lock:
            self._rows[relation] = checked
            self._generation += 1

    def insert(self, relation: str, row: Row) -> None:
        (checked,) = self._conforming(relation, [row])
        with self._lock:
            self._rows[relation].append(checked)
            self._generation += 1

    def relations(self) -> list[RelationSchema]:
        return [self._schemas[name] for name in sorted(self._schemas)]

    def load(self, relation: str, where: Optional[Predicate] = None) -> Table:
        schema = self._schema(relation)
        with self._lock:
            rows = list(self._rows[relation])
        return Table(schema, rows)

    def fingerprint(self) -> object:
        with self._lock:
            return self._generation


class _FileDirAdapter(SourceAdapter):
    """One relation per file with the adapter's suffix; a subclass only
    decodes the text of one file."""

    suffix = ""

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.is_dir():
            raise ConfigError(f"source directory {self.path} is not readable")

    @abstractmethod
    def _decode(
        self, name: str, text: str, where: Optional[Predicate]
    ) -> tuple[RelationSchema, Iterable[Row]]:
        """Schema and rows of one file, omitting at most rows for which
        `where` is not true; raises ValueError on malformed text, also while
        the rows are iterated."""

    def location(self) -> str:
        return str(self.path)

    def _files(self) -> list[Path]:
        try:
            files = sorted(p for p in self.path.iterdir() if p.suffix == self.suffix)
        except OSError as exc:
            raise UnavailableError(f"source unavailable: {exc}") from None
        for file in files:
            if not is_identifier(file.stem):
                raise ConfigError(
                    f"file name {file.name!r} is not a valid relation identifier"
                )
        return files

    def _file_for(self, relation: str) -> Path:
        for file in self._files():
            if file.stem == relation:
                return file
        raise UnknownRelationError(f"source has no relation {relation!r}")

    def _read(self, file: Path) -> str:
        # read_text translates newlines, so a lone \r reads as \n.
        try:
            return file.read_text(encoding="utf-8")
        except OSError as exc:
            raise UnavailableError(f"source unavailable: {exc}") from None

    def _parse(
        self,
        file: Path,
        text: str,
        take: Callable[[RelationSchema, Iterable[Row]], T],
        where: Optional[Predicate] = None,
    ) -> T:
        """Decode one file's text and hand its schema and rows to `take`; a
        decoding error becomes a ConfigError naming the file."""
        try:
            return take(*self._decode(file.stem, text, where))
        except ValueError as exc:
            raise ConfigError(f"{file.name}: {exc}") from None

    def relations(self) -> list[RelationSchema]:
        return [
            self._parse(file, self._read(file), lambda schema, rows: schema)
            for file in self._files()
        ]

    def load(self, relation: str, where: Optional[Predicate] = None) -> Table:
        file = self._file_for(relation)
        return self._parse(file, self._read(file), Table, where)

    def fingerprint(self) -> object:
        # The inode number catches a rewrite through a temporary file and
        # os.replace that keeps the size and the modification time. The
        # change time catches a rewrite in place that puts the old
        # modification time back: os.utime can set mtime but not ctime.
        # A rewrite in place that keeps the size within one ctime tick of
        # the change before it keeps the whole stat, so a file changed
        # within RACY_WINDOW_NS of now also contributes its exact bytes.
        # When the file leaves the window its entry drops the bytes and the
        # fingerprint moves once more: one extra cache miss, never a stale
        # answer.
        try:
            now = time.time_ns()
            entries = []
            for file in self._files():
                stat = file.stat()
                entry = (
                    file.name, stat.st_size, stat.st_mtime_ns, stat.st_ino, stat.st_ctime_ns
                )
                if now - stat.st_ctime_ns < RACY_WINDOW_NS:
                    entry += (file.read_bytes(),)
                entries.append(entry)
            # A list, not a tuple: CPython 3.11 puts each freed tuple of
            # exactly 20 items on a free list it never takes from, so a
            # source of 20 files left one there per probe until a full
            # collection.
            return entries
        except OSError as exc:
            raise UnavailableError(f"source unavailable: {exc}") from None


class DelimitedDirAdapter(_FileDirAdapter):
    """One relation per .csv file; header row declares names and types."""

    kind = "delimited_dir"
    suffix = ".csv"

    def _decode(
        self, name: str, text: str, where: Optional[Predicate]
    ) -> tuple[RelationSchema, Iterable[Row]]:
        return iter_csv_rows(name, text, where)


class DocLinesAdapter(_FileDirAdapter):
    """One relation per .jsonl file; schema inferred from the records."""

    kind = "doc_lines"
    suffix = ".jsonl"

    def _decode(
        self, name: str, text: str, where: Optional[Predicate]
    ) -> tuple[RelationSchema, Iterable[Row]]:
        table = parse_jsonl(text, name)
        return table.schema, table.rows
