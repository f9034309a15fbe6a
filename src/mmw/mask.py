"""The mask component: polyglot representations of mediated data.

A virtualizing mask renders query results on demand (csv, jsonl, pretty) and
never persists anything; a materializing mask persists the whole upstream
product as delimited files and never serves queries. Rows are sorted by all
columns before rendering so identical tables produce identical bytes. A
table keeps each format's rendering once made, outside its fields, so an
answer the upstream repeats as the same table (a mediator's result hit, a
binding's kept decode) is rendered once.

Materialization is atomic per refresh: a snapshot directory is fully written
under the target, then a `current` symlink is swapped onto it. A reader (a
wrapper over `<target>/current`) either sees the previous complete snapshot
or the new one, never a partial mix.
"""

from __future__ import annotations

import logging
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from mmw.component import ComponentBase, LineageNode
from mmw.errors import ConfigError, ProtocolError, UnavailableError
from mmw.formats import render_csv, render_table
from mmw.query.ast import Project, QualifiedName, Scan
from mmw.relational import ProductSchema, Table

logger = logging.getLogger(__name__)

FORMATS = ("csv", "jsonl", "pretty")
MODES = ("virtualizing", "materializing")

@dataclass(frozen=True)
class Rendering:
    format: str
    data: bytes

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")


def _rendering(table: Table, format: str) -> Rendering:
    """The rendering of table in format, made once and kept on the frozen
    table, outside its fields, as a tree keeps its canonical text. Threads
    racing on one table keep equal renderings."""
    renderings = vars(table).setdefault("_renderings", {})
    rendering = renderings.get(format)
    if rendering is None:
        rendering = Rendering(format, render_table(table, format).encode("utf-8"))
        renderings[format] = rendering
    return rendering


class Mask(ComponentBase):
    kind = "mask"

    def __init__(
        self,
        component_id: str,
        upstream=None,
        mode: str = "virtualizing",
        formats: tuple[str, ...] = FORMATS,
        target=None,
        refresh: str = "manual",
        refresh_interval: float = 60.0,
    ):
        super().__init__(component_id)
        if mode not in MODES:
            raise ConfigError(f"unknown mask mode {mode!r}")
        if refresh not in ("manual", "interval"):
            raise ConfigError(f"unknown refresh policy {refresh!r}")
        self.mode = mode
        self.upstream = upstream
        self.formats = tuple(formats)
        self.refresh = refresh
        self.refresh_interval = refresh_interval
        self._refresh_lock = threading.Lock()
        self._refresh_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._last_report: Optional[dict] = None
        if mode == "virtualizing":
            if not self.formats:
                raise ConfigError("a virtualizing mask needs at least one format")
            unknown = set(self.formats) - set(FORMATS)
            if unknown:
                raise ConfigError(f"unknown formats {sorted(unknown)}")
            self.target = None
        else:
            if target is None:
                raise ConfigError("a materializing mask needs a target directory")
            self.target = Path(target)
            self.target.mkdir(parents=True, exist_ok=True)
            if not os.access(self.target, os.W_OK):
                raise ConfigError(f"target {self.target} is not writable")
        if upstream is not None and getattr(upstream, "kind", None) == "wrapper":
            logger.warning(
                "mask %s connects directly to wrapper %s; a mediator in between "
                "leaves room for further transformations",
                component_id,
                getattr(upstream, "component_id", "?"),
            )
            self.direct_wrapper_upstream = True
        else:
            self.direct_wrapper_upstream = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Materializing masks run one refresh immediately so dependents can
        read the target; interval mode keeps refreshing in the background."""
        if self.mode != "materializing":
            return
        self.materialize()
        if self.refresh == "interval":
            self._stop_event.clear()
            self._refresh_thread = threading.Thread(
                target=self._refresh_loop, name=f"mask-{self.component_id}", daemon=True
            )
            self._refresh_thread.start()

    def stop(self) -> None:
        self._stop_event.set()
        if self._refresh_thread is not None:
            self._refresh_thread.join(timeout=5)
            self._refresh_thread = None
        super().stop()

    def _refresh_loop(self) -> None:
        while not self._stop_event.wait(self.refresh_interval):
            try:
                self.materialize()
            except Exception:
                logger.exception("background refresh failed for %s", self.component_id)

    # -- shared surface ----------------------------------------------------------

    @property
    def namespace(self) -> str:
        if self.upstream is not None:
            return self.upstream.namespace
        return self.component_id

    def get_schema(self) -> ProductSchema:
        self._check_alive()
        if self.upstream is None:
            return ProductSchema(self.component_id, 1, (), {"description": "unbound mask"})
        return self.upstream.get_schema()

    def epoch(self, relations: Optional[Sequence[str]] = None):
        """The upstream's full token, passed through whatever the `relations`
        scope, which is always safe; an unbound mask's never moves."""
        self._check_alive()
        return self.upstream.epoch() if self.upstream is not None else self._token(0)

    def lineage(self, relation: str) -> LineageNode:
        self._check_alive()
        if self.upstream is None:
            raise UnavailableError("mask has no upstream", origin=self.component_id)
        return self.upstream.lineage(relation)

    def execute(self, q, principal: str = "") -> Table:
        """Raw table pass-through (the wire protocol's format=table path)."""
        return self._serve_upstream(q, principal, None)

    # -- virtualizing ---------------------------------------------------------------

    def serve(self, q, format: str, principal: str = "") -> Rendering:
        return self._serve_upstream(q, principal, format)

    def _serve_upstream(self, q, principal: str, format: Optional[str]):
        """Ask upstream for q; render the table in `format`, or pass it
        through when format is None."""
        if self.mode != "virtualizing":
            raise ProtocolError(
                "materializing masks do not serve queries", origin=self.component_id
            )

        def work():
            if format is not None and format not in self.formats:
                raise ProtocolError(
                    f"format {format!r} disabled (enabled: {', '.join(self.formats)})",
                    origin=self.component_id,
                )
            if self.upstream is None:
                raise UnavailableError("mask has no upstream", origin=self.component_id)
            table = self.upstream.execute(q, principal)
            if format is None:
                return table, len(table.rows), False
            return _rendering(table, format), len(table.rows), False

        return self._serve_request(q, principal, work)

    # -- materializing -----------------------------------------------------------------

    def materialize(self) -> dict:
        self._check_alive()
        if self.mode != "materializing":
            raise ProtocolError(
                "virtualizing masks never persist data", origin=self.component_id
            )
        before = self._read_epoch()
        with self._refresh_lock:
            current = self._read_epoch()
            if current > before and self._last_report is not None:
                # Another refresh completed while this trigger waited.
                return self._last_report
            report = self._refresh(current + 1)
            self._last_report = report
            return report

    def _refresh(self, next_epoch: int) -> dict:
        if self.upstream is None:
            product = ProductSchema(self.component_id, 1)
        else:
            product = self.upstream.get_schema()
        namespace = self.namespace
        tables: dict[str, Table] = {}
        for relation in product.relations:
            q = Project(Scan(QualifiedName(namespace, relation.name)), None)
            table = self.upstream.execute(q, self.component_id)
            tables[relation.name] = Table(table.schema, table.sorted_rows())

        snapshots = self.target / "snapshots"
        snapshots.mkdir(exist_ok=True)
        snapshot_dir = snapshots / f"{next_epoch:06d}"
        if snapshot_dir.exists():
            shutil.rmtree(snapshot_dir)
        snapshot_dir.mkdir()
        counts: dict[str, int] = {}
        for name, table in tables.items():
            (snapshot_dir / f"{name}.csv").write_text(render_csv(table), encoding="utf-8")
            counts[name] = len(table.rows)
        self._swap_current(snapshot_dir, next_epoch)
        self._prune(next_epoch)
        self._record(self.component_id, f"materialize:{namespace}", sum(counts.values()), False, "ok")
        return {
            "relations": counts,
            "rows_total": sum(counts.values()),
            "target_epoch": next_epoch,
            "snapshot": str(snapshot_dir),
        }

    def _swap_current(self, snapshot_dir: Path, next_epoch: int) -> None:
        # The rename is the commit point: everything before it is staging.
        temp_link = self.target / f".current.{next_epoch}.tmp"
        if temp_link.is_symlink() or temp_link.exists():
            temp_link.unlink()
        os.symlink(os.path.join("snapshots", snapshot_dir.name), temp_link)
        os.replace(temp_link, self.target / "current")
        (self.target / "epoch").write_text(f"{next_epoch}\n", encoding="utf-8")

    def _read_epoch(self) -> int:
        epoch_file = self.target / "epoch"
        try:
            return int(epoch_file.read_text().strip())
        except (OSError, ValueError):
            return 0

    def _prune(self, current_epoch: int) -> None:
        snapshots = self.target / "snapshots"
        for entry in snapshots.iterdir():
            try:
                number = int(entry.name)
            except ValueError:
                continue
            if number < current_epoch - 1:
                shutil.rmtree(entry, ignore_errors=True)
