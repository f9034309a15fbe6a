"""Epoch tokens scoped to the relations a request reads: adapters, wrappers,
mediators, masks and the wire, and a seeded differential test of a mediator
that keys its slots by them."""

from __future__ import annotations

import contextlib
import os
import random
import string
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import mmw.adapters
import mmw.mediator
from mmw.adapters import DelimitedDirAdapter, MemoryAdapter
from mmw.errors import MeshError
from mmw.mask import Mask
from mmw.mediator import Mediator
from mmw.query.ast import QualifiedName
from mmw.query.evaluate import evaluate
from mmw.query.parse import parse_query
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
from mmw.runtime.protocol import ProtocolServer, TcpBinding
from mmw.wrapper import Wrapper, WrapperConfig
from support import epoch_steps

HEADER = "id:integer,grp:integer,label:text\n"
FILE_SCHEMA = RelationSchema(
    "t", [Attribute("id", Kind.INTEGER), Attribute("grp", Kind.INTEGER), Attribute("label", Kind.TEXT)]
)
NOTES = [Attribute("grp", Kind.INTEGER), Attribute("note", Kind.TEXT)]


def csv_text(rows) -> str:
    return HEADER + "".join(f"{i},{g},{label}\n" for i, g, label in rows)


def write_atomic(path: Path, text: str) -> None:
    staged = path.with_name(f".{path.name}.tmp")
    staged.write_text(text, encoding="utf-8")
    os.replace(staged, path)


def files_wrapper(directory: Path, names=("a", "b", "c")) -> Wrapper:
    for name in names:
        (directory / f"{name}.csv").write_text(csv_text([(1, 0, "abc")]), encoding="utf-8")
    return Wrapper(WrapperConfig("w_files", "files", DelimitedDirAdapter(directory)))


def notes_wrapper() -> Wrapper:
    schemas = [RelationSchema(name, NOTES) for name in ("m1", "m2")]
    rows = {name: [(Value.integer(0), Value.text(name))] for name in ("m1", "m2")}
    return Wrapper(WrapperConfig("w_notes", "mem", MemoryAdapter(schemas, rows)))


# --- adapters ------------------------------------------------------------------


class TestScopedFingerprint:
    def test_a_file_probe_stats_only_the_named_files_and_lists_no_directory(
        self, tmp_path, monkeypatch
    ):
        files_wrapper(tmp_path)
        adapter = DelimitedDirAdapter(tmp_path)
        stats, reads = [], []
        real_stat = os.stat

        def stat(path, *args, **kwargs):
            stats.append(os.path.basename(path))
            return real_stat(path, *args, **kwargs)

        def listdir(path):
            raise AssertionError("a scoped probe lists the directory")

        def opened(path, *args, **kwargs):
            reads.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(os, "listdir", listdir)
        monkeypatch.setattr(mmw.adapters, "open", opened, raising=False)
        # Just written, so inside the racy window: the bytes come too.
        (entry,) = adapter.fingerprint(["b"])
        assert (stats, reads) == (["b.csv"], ["b.csv"])
        assert entry[0] == "b.csv" and entry[-1] == csv_text([(1, 0, "abc")]).encode()
        monkeypatch.setattr(mmw.adapters, "RACY_WINDOW_NS", 0)
        del stats[:], reads[:]
        assert len(adapter.fingerprint(["c", "a"])[0]) == 5  # the stat alone
        assert (stats, reads) == (["c.csv", "a.csv"], [])

    def test_a_relation_without_a_file_is_none(self, tmp_path):
        files_wrapper(tmp_path)
        adapter = DelimitedDirAdapter(tmp_path)
        entries = adapter.fingerprint(["ghost", "a", "../a", "Dir"])
        assert entries[0] is None and entries[1] is not None
        assert entries[2:] == [None, None]

    def test_scoped_and_unscoped_entries_agree(self, tmp_path):
        files_wrapper(tmp_path)
        adapter = DelimitedDirAdapter(tmp_path)
        assert adapter.fingerprint() == adapter.fingerprint(["a", "b", "c"])

    def test_a_memory_relation_keeps_its_own_generation(self):
        adapter = notes_wrapper().adapter
        before = adapter.fingerprint(["m1", "m2", "ghost"])
        assert before[2] is None
        adapter.insert("m1", (Value.integer(1), Value.text("x")))
        after = adapter.fingerprint(["m1", "m2", "ghost"])
        assert after[0] != before[0] and after[1:] == before[1:]
        assert adapter.fingerprint() == adapter.fingerprint(["m1", "m2"])


# --- wrapper tokens ---------------------------------------------------------------


class TestScopedWrapperTokens:
    def test_one_token_per_name_in_order_moving_only_with_its_relation(self, tmp_path):
        wrapper = files_wrapper(tmp_path)
        first = wrapper.epoch(["c", "a"])
        assert len(first) == 2 and wrapper.epoch(["c", "a"]) == first
        assert wrapper.epoch(["a"]) == first[1:]
        write_atomic(tmp_path / "a.csv", csv_text([(2, 0, "abc")]))
        second = wrapper.epoch(["c", "a"])
        assert second[0] == first[0] and second[1] != first[1]
        assert epoch_steps(first[1], second[1])[0] > 0

    def test_scoped_probes_leave_the_unscoped_counter_alone(self, tmp_path):
        wrapper = files_wrapper(tmp_path)
        first = wrapper.epoch()
        for round_ in range(3):
            write_atomic(tmp_path / "b.csv", csv_text([(round_, 1, "xyz")]))
            for _ in range(3):
                wrapper.epoch(["b"])
                wrapper.epoch(["a", "b", "ghost"])
            assert epoch_steps(first, wrapper.epoch()) == (round_ + 1,)

    def test_a_missing_relation_is_fresh_every_probe_and_keeps_no_state(self, tmp_path):
        wrapper = files_wrapper(tmp_path)
        tokens = {wrapper.epoch(["ghost"])[0] for _ in range(5)}
        assert len(tokens) == 5
        assert "ghost" not in wrapper._relation_tokens
        kept = wrapper.epoch(["a"])
        assert "a" in wrapper._relation_tokens
        os.remove(tmp_path / "a.csv")
        gone = wrapper.epoch(["a"])
        assert gone != kept and "a" not in wrapper._relation_tokens
        assert wrapper.epoch(["a"]) != gone

    def test_a_recreated_file_never_repeats_a_token(self, tmp_path):
        wrapper = files_wrapper(tmp_path)
        seen = set()
        for round_ in range(4):
            (tmp_path / "a.csv").write_text(csv_text([(1, 0, "abc")]), encoding="utf-8")
            token = wrapper.epoch(["a"])
            assert token not in seen
            seen.add(token)
            os.remove(tmp_path / "a.csv")
            seen.add(wrapper.epoch(["a"]))

    def test_concurrent_probes_hand_out_each_counter_once(self, tmp_path):
        # Threads probe while the main thread rewrites a file: a lost update
        # of the scoped counter would give two states one token.
        wrapper = files_wrapper(tmp_path)
        seen: list[tuple] = []
        stop = threading.Event()

        def probe():
            while not stop.is_set():
                seen.append(wrapper.epoch(["a", "b", "ghost"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=probe) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for step in range(30):
                write_atomic(tmp_path / "a.csv", csv_text([(step, 0, "abc")]))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        relation_of = {}
        for token in seen:
            for relation, leaf in zip(("a", "b", "ghost"), token):
                counter = int(leaf.rsplit(":", 1)[1])
                assert relation_of.setdefault(counter, relation) == relation
        assert sorted(relation_of) == list(range(1, wrapper._relation_epoch + 1))
        assert len({token[1] for token in seen}) == 1

    def test_memory_tokens_move_with_their_relation(self):
        wrapper = notes_wrapper()
        first = wrapper.epoch(["m1", "m2"])
        wrapper.adapter.insert("m2", (Value.integer(3), Value.text("y")))
        second = wrapper.epoch(["m1", "m2"])
        assert second[0] == first[0] and epoch_steps(first[1], second[1]) == (1,)


# --- mediator and mask -------------------------------------------------------------


def archive(files: Wrapper, notes: Wrapper, capacity: int = 1024) -> Mediator:
    views = [f"CREATE VIEW {name} AS SELECT * FROM files.{name}" for name in ("a", "b", "c")]
    views += [f"CREATE VIEW {name} AS SELECT * FROM mem.{name}" for name in ("m1", "m2")]
    return Mediator(
        "m_archive", "prod", {"files": files, "mem": notes}, views, cache_capacity=capacity
    )


class TestScopedMediatorAndMask:
    def test_a_scope_is_answered_with_the_full_token(self, tmp_path):
        mediator = archive(files_wrapper(tmp_path), notes_wrapper())
        mask = Mask("k_archive", mediator)
        assert mediator.epoch(["a", "m1"]) == mediator.epoch()
        assert mask.epoch(["a"]) == mask.epoch() == mediator.epoch()

    def test_a_result_hit_plans_nothing_and_probes_only_its_reads(self, tmp_path, monkeypatch):
        files, notes = files_wrapper(tmp_path), notes_wrapper()
        mediator = archive(files, notes)
        probes, plans = [], []
        for wrapper in (files, notes):
            real = wrapper.epoch
            monkeypatch.setattr(
                wrapper, "epoch", lambda scope=None, real=real, wrapper=wrapper: (
                    probes.append((wrapper.namespace, scope)) or real(scope)
                )
            )
        real_plan = mmw.mediator.plan
        monkeypatch.setattr(
            mmw.mediator, "plan", lambda *args: plans.append(args[0]) or real_plan(*args)
        )
        q = parse_query("SELECT id, note FROM prod.a JOIN prod.m1 ON grp = grp")
        first = mediator.execute(q)
        assert len(plans) == 1 and probes == [("files", ("a",)), ("mem", ("m1",))]
        del plans[:], probes[:]
        notes.adapter.insert("m2", (Value.integer(0), Value.text("z")))
        write_atomic(tmp_path / "b.csv", csv_text([(5, 0, "abc")]))
        assert mediator.execute(q) is first
        assert plans == [] and probes == [("files", ("a",)), ("mem", ("m1",))]
        assert mediator.access_log[-1].cache_hit

    def test_a_change_elsewhere_leaves_a_result_a_hit(self, tmp_path):
        files, notes = files_wrapper(tmp_path), notes_wrapper()
        mediator = archive(files, notes)
        over_b = parse_query("SELECT * FROM prod.b WHERE id = 1")
        over_m1 = parse_query("SELECT * FROM prod.m1")
        mediator.execute(over_b)
        mediator.execute(over_m1)
        write_atomic(tmp_path / "a.csv", csv_text([(7, 7, "new")]))
        notes.adapter.insert("m2", (Value.integer(9), Value.text("n")))
        mediator.execute(over_b)
        mediator.execute(over_m1)
        assert [entry.cache_hit for entry in mediator.access_log] == [False, False, True, True]
        notes.adapter.insert("m1", (Value.integer(9), Value.text("n")))
        assert len(mediator.execute(over_m1).rows) == 2
        assert not mediator.access_log[-1].cache_hit


class TestScopedTokensOverTcp:
    def test_a_remote_scoped_token_moves_exactly_with_the_local_one(self, tmp_path):
        wrapper = files_wrapper(tmp_path)
        server = ProtocolServer(wrapper, "127.0.0.1", 0)
        binding = TcpBinding(server.host, server.port)
        try:
            for step in range(6):
                remote = binding.epoch(["a", "c"])
                assert remote == wrapper.epoch(["a", "c"]) == binding.epoch(("a", "c"))
                if step:
                    assert (remote[0] != previous[0]) == (step % 2 == 1)
                    assert remote[1] == previous[1]
                previous = remote
                changed = "a" if step % 2 == 0 else "b"
                write_atomic(tmp_path / f"{changed}.csv", csv_text([(step, 0, "abc")]))
            assert binding.epoch() == wrapper.epoch()
        finally:
            binding.close()
            server.close()


# --- seeded differential test ------------------------------------------------------------

FILES = ("a", "b", "c")
# (template, shape) of the reads: `%s` is the relation drawn per read,
# `{x}` names relation x (prod.x at the mediator, files.x or mem.x at the
# sources), and `{k}`, `{k3}` and `{g}` are keys drawn per read.
SHAPES = (
    ("SELECT * FROM {%s} WHERE id = {k}", "point"),
    ("SELECT id, label FROM {%s} WHERE id >= {k} AND id < {k3}", "range"),
    ("SELECT id, note FROM {%s} JOIN {m1} ON grp = grp WHERE id < {k3}", "join"),
    ("SELECT id FROM {%s} WHERE grp = {g} UNION SELECT id FROM {b} WHERE grp = {g}", "union"),
    ("SELECT * FROM {%s} WHERE grp = {g}", "memory"),
)


def draw_read(rng: random.Random) -> tuple[str, str, tuple[str, ...]]:
    """One read: its mediator text, its text over the sources, and the
    relations it reads."""
    template, shape = rng.choice(SHAPES)
    relation = rng.choice(("m1", "m2") if shape == "memory" else FILES)
    template = template % relation
    k = rng.randint(1, 4)
    keys = {"k": k, "k3": k + 3, "g": rng.randint(0, 1)}
    names = ("a", "b", "c", "m1", "m2")
    read = tuple(sorted(name for name in names if "{%s}" % name in template))
    at_mediator = template.format(**keys, **{name: f"prod.{name}" for name in names})
    at_sources = template.format(
        **keys, **{name: f"{'mem' if name[0] == 'm' else 'files'}.{name}" for name in names}
    )
    return at_mediator, at_sources, read


def result(run):
    """A table as its attribute names and row bag, or an error as its code
    and message."""
    try:
        table = run()
    except MeshError as exc:
        return "error", exc.code, exc.message
    return "table", table.schema.attribute_names, table.row_bag()


class Sources:
    """Three csv files and two memory relations with a plain-Python model
    of each, and a version per relation that moves with every change."""

    def __init__(self, rng: random.Random, directory: Path):
        self.rng, self.directory = rng, directory
        self.model: dict[str, object] = {}
        self.version = Counter()
        for name in FILES:
            self.model[name] = self.rows()
            (directory / f"{name}.csv").write_text(csv_text(self.model[name]), encoding="utf-8")
        self.notes = {name: [(0, name)] for name in ("m1", "m2")}
        schemas = [RelationSchema(name, NOTES) for name in self.notes]
        self.memory = MemoryAdapter(
            schemas,
            {name: [(Value.integer(g), Value.text(n)) for g, n in rows] for name, rows in self.notes.items()},
        )

    def rows(self):
        rng = self.rng
        return [
            (i, rng.randint(0, 2), "".join(rng.choice(string.ascii_lowercase) for _ in range(3)))
            for i in range(1, rng.randint(2, 8))
        ]

    def change(self) -> str:
        """One change to one relation; returns its kind."""
        rng = self.rng
        kind = rng.choice(["atomic", "same_size", "delete", "invalid", "insert"])
        if kind == "insert":
            self.notes["m1"].append((rng.randint(0, 2), rng.choice(["x", "yy"])))
            g, n = self.notes["m1"][-1]
            self.memory.insert("m1", (Value.integer(g), Value.text(n)))
            self.version["m1"] += 1
            return kind
        name = rng.choice(FILES)
        path = self.directory / f"{name}.csv"
        state = self.model[name]
        self.version[name] += 1
        if state == "missing" or state == "invalid" or kind == "atomic":
            # A deleted file comes back, an invalid one is mended.
            self.model[name] = self.rows()
            write_atomic(path, csv_text(self.model[name]))
            return "restore" if isinstance(state, str) else kind
        if kind == "same_size":
            rows = list(state)
            r = rng.randrange(len(rows))
            i, g, label = rows[r]
            rows[r] = (i, g, label[:2] + rng.choice(string.ascii_lowercase.replace(label[2], "")))
            before = os.stat(path)
            with open(path, "r+", encoding="utf-8") as handle:
                handle.write(csv_text(rows))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert os.stat(path).st_size == before.st_size
            self.model[name] = rows
        elif kind == "delete":
            os.remove(path)
            self.model[name] = "missing"
        else:
            write_atomic(path, HEADER + "1,0,abc\nx,1,abc\n")
            self.model[name] = "invalid"
        return kind

    def expected(self, text: str, read: tuple[str, ...]):
        """`evaluate` over a snapshot of the model, or the code an answer
        must fail with when a file it reads is missing or invalid."""
        if any(isinstance(self.model[name], str) for name in read if name in FILES):
            return "error"  # missing or invalid
        db = {}
        for name in read:
            if name in FILES:
                rows = [(Value.integer(i), Value.integer(g), Value.text(t)) for i, g, t in self.model[name]]
                db[QualifiedName("files", name)] = Table(RelationSchema(name, FILE_SCHEMA.attributes), rows)
            else:
                rows = [(Value.integer(g), Value.text(n)) for g, n in self.notes[name]]
                db[QualifiedName("mem", name)] = Table(RelationSchema(name, NOTES), rows)
        return result(lambda: evaluate(parse_query(text), db))


class CoarseStat:
    """The stat of a csv file under a file system whose timestamps tick
    once in a thousand seconds."""

    TICK_NS = 10**12

    def __init__(self, real):
        self._real = real
        self.st_mtime_ns = real.st_mtime_ns // self.TICK_NS * self.TICK_NS
        self.st_ctime_ns = real.st_ctime_ns // self.TICK_NS * self.TICK_NS

    def __getattr__(self, name):
        return getattr(self._real, name)

    @classmethod
    def install(cls, monkeypatch, directory: Path) -> None:
        real_stat = os.stat

        def stat(path, *args, **kwargs):
            result = real_stat(path, *args, **kwargs)
            name = os.fspath(path)
            inside = name.startswith(os.fspath(directory)) and name.endswith(".csv")
            return cls(result) if inside else result

        monkeypatch.setattr(os, "stat", stat)


class TestScopedTokenDifferential:
    @pytest.mark.parametrize("hosting", ["in_process", "tcp"])
    def test_answers_equal_the_model_and_the_uncached_mediator(
        self, hosting, tmp_path, monkeypatch
    ):
        # Every change lands within one timestamp tick, and every file stays
        # in the racy window: a same-size rewrite in place keeps the whole
        # stat, so only the file's bytes tell it, and a fingerprint moves
        # only when a file changes, so a result over unchanged relations
        # must hit.
        CoarseStat.install(monkeypatch, tmp_path)
        monkeypatch.setattr(mmw.adapters, "RACY_WINDOW_NS", 10**18)
        rng = random.Random(2025 if hosting == "tcp" else 2024)
        sources = Sources(rng, tmp_path)
        files = Wrapper(WrapperConfig("w_files", "files", DelimitedDirAdapter(tmp_path)))
        notes = Wrapper(WrapperConfig("w_notes", "mem", sources.memory))
        with contextlib.ExitStack() as stack:
            if hosting == "tcp":
                bindings = []
                for wrapper in (files, notes):
                    server = ProtocolServer(wrapper, "127.0.0.1", 0)
                    stack.callback(server.close)
                    binding = TcpBinding(server.host, server.port)
                    stack.callback(binding.close)
                    bindings.append(binding)
            else:
                bindings = [files, notes]
            warm, cold = archive(*bindings), archive(*bindings, capacity=0)
            # text -> (versions of its reads, changes so far) when answered
            kept: dict[str, tuple[dict, int]] = {}
            outcomes, changes = Counter(), Counter()
            for _ in range(300):
                if rng.random() < 0.3:
                    changes[sources.change()] += 1
                    continue
                at_mediator, at_sources, read = draw_read(rng)
                versions = {name: sources.version[name] for name in read}
                q = parse_query(at_mediator)
                hits = warm.stats()["cache_hits"]
                got = result(lambda: warm.execute(q))
                hit = warm.stats()["cache_hits"] == hits + 1
                assert got == result(lambda: cold.execute(q)), at_mediator
                expected = sources.expected(at_sources, read)
                if expected == "error":
                    assert got[0] == "error", at_mediator
                    assert got[1] in ("unknown_relation", "config", "unavailable"), got
                    outcomes["error"] += 1
                else:
                    assert got == expected, at_mediator
                    outcomes["table"] += 1
                # A result whose reads have not changed since it was kept
                # is a hit, whatever else changed; any other is a miss.
                before = kept.pop(at_mediator, (None, 0))
                assert hit == (before[0] == versions), (at_mediator, versions)
                outcomes["hit" if hit else "miss"] += 1
                if hit and before[1] < changes.total():
                    outcomes["hit_across_a_change"] += 1
                if got[0] == "table":
                    kept[at_mediator] = versions, changes.total()
        assert min(outcomes.values()) >= 10, outcomes
        assert set(changes) >= {"atomic", "same_size", "delete", "invalid", "insert", "restore"}
