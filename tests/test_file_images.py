"""Images of settled file texts (`formats._IMAGES`): a text the csv row
pattern or the json-lines record pattern settled is kept under its exact
text, so a later read of that text matches no line and cuts no column it
has cut before. Every read equals the reference parser's and the read with
the images emptied, whatever the map held before it."""

from __future__ import annotations

import random
import sys
import threading

import pytest

import mmw.adapters
import mmw.formats
from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter
from mmw.formats import (
    IMAGE_TEXT_CHARS,
    iter_csv_rows,
    jsonl_schema,
    parse_jsonl,
    reference_parse_csv,
    reference_parse_jsonl,
)
from mmw.query.ast import AttrRef, CompareOp, Comparison, Literal, QualifiedName, Scan, Select
from mmw.query.evaluate import evaluate
from mmw.relational import Value
from support import forget_images, load_workloads, random_predicate, reference_load

NAME = QualifiedName("ns", "t")
CSV_HEADER = "id:integer,code:text,qty:integer?,price:decimal,at:timestamp\n"


def csv_text(rng: random.Random, rows: int) -> str:
    """A quote-free delimited text of fixed-width cells, a null `qty` now
    and then, so one changed digit keeps the text's length."""
    lines = []
    for i in range(1, rows + 1):
        qty = "" if rng.random() < 0.1 else f"{rng.randint(100, 999)}"
        lines.append(
            f"{i:03d},c{rng.randint(0, 99999):05d},{qty},{rng.randint(1000, 9999)}.{rng.randint(10, 99)},"
            f"2024-0{rng.randint(1, 9)}-{rng.randint(10, 28)}T12:00:0{rng.randint(0, 9)}Z"
        )
    return CSV_HEADER + "\n".join(lines) + "\n"


def jsonl_text(rng: random.Random, records: int) -> str:
    """A json-lines text of fixed-width cells in one field order."""
    return "".join(
        f'{{"id": {i + 100}, "kind": "{rng.choice(("click", "views"))}", '
        f'"value": {rng.randint(1000, 9999)}.{rng.randint(10, 99)}, '
        f'"at": "2024-0{rng.randint(1, 9)}-{rng.randint(10, 28)}T12:00:0{rng.randint(0, 9)}Z"}}\n'
        for i in range(1, records + 1)
    )


def one_digit_changed(rng: random.Random, text: str) -> str:
    """`text` with one digit of one cell replaced: the same length, and now
    and then a cell or a line the reader refuses (a month 00, a leading
    zero)."""
    positions = [p for p, char in enumerate(text) if char.isdigit()]
    p = rng.choice(positions)
    return text[:p] + rng.choice([d for d in "0123456789" if d != text[p]]) + text[p + 1:]


def exact(table):
    """Schema and rows in order, each payload with its own type and text."""
    return table.schema, [[(v.kind, type(v.payload), str(v.payload)) for v in row] for row in table.rows]


def outcome(thunk):
    try:
        return thunk()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def selected(table, where):
    """The rows of `table` the query `where` over it returns, in order."""
    return exact(evaluate(Select(Scan(NAME), where), {NAME: table}))


def read_without_images(call):
    """The outcome of `call()` read with an empty image map, leaving the
    images kept so far as they are for the reads after it."""
    kept = mmw.formats._IMAGES
    mmw.formats._IMAGES = mmw.formats._image_store()
    try:
        return outcome(call)
    finally:
        mmw.formats._IMAGES = kept


FORMATS = {
    "csv": (DelimitedDirAdapter, ".csv", csv_text),
    "jsonl": (DocLinesAdapter, ".jsonl", jsonl_text),
}


def rewrite_schedule(tmp_path, format: str, seed: int, steps: int = 120):
    """Rewrite one file `steps` times, each time changing one digit of one
    cell of its text or putting an earlier text back, and after each
    rewrite read it through its adapter: a schema, a load without and a load
    with a selection. Every read must equal the reference decode of the file,
    the same read again, and the same read with an empty image map."""
    adapter_class, suffix, make = FORMATS[format]
    rng = random.Random(seed)
    path = tmp_path / f"t{suffix}"
    adapter = adapter_class(tmp_path)
    texts = [make(rng, rng.randint(1, 40))]
    refused = 0
    for _ in range(steps):
        if rng.random() < 0.4:
            text = rng.choice(texts)
        else:
            text = one_digit_changed(rng, texts[-1] if rng.random() < 0.7 else rng.choice(texts))
            assert len(text) == len(texts[0])
            texts.append(text)
        path.write_text(text, encoding="utf-8")
        reference = outcome(lambda: reference_load(path))
        reads = {"schema": lambda: adapter.relations()[0], "load": lambda: exact(adapter.load("t"))}
        if not isinstance(reference, str):
            where = random_predicate(rng, reference.schema)
            reads["where"] = lambda: adapter.load("t", where=where)
            expected = {"schema": reference.schema, "load": exact(reference)}
        else:
            refused += 1
            expected = dict.fromkeys(reads, reference)
            if format == "csv":  # a schema read reads the header alone
                expected["schema"] = reference_parse_csv(CSV_HEADER, "t").schema
        for read, call in reads.items():
            got = outcome(call)
            again = outcome(call)  # with what the read before kept
            without_images = read_without_images(call)
            if read == "where":
                # A selective load may keep rows the selection drops; it
                # keeps the same rows with images as without.
                assert selected(got, where) == selected(reference, where), text
                got, without_images, again = exact(got), exact(without_images), exact(again)
            else:
                assert got == expected[read], (read, text)
            assert got == without_images == again, (read, text)
    assert refused > 0
    return texts


class TestRewriteSchedule:
    @pytest.mark.parametrize("format", sorted(FORMATS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_read_equals_the_reference_and_the_read_without_images(
        self, tmp_path, format, seed
    ):
        forget_images()
        texts = rewrite_schedule(tmp_path, format, seed)
        assert len(set(texts)) > 40

    @pytest.mark.parametrize("format", sorted(FORMATS))
    def test_no_image_is_served_for_a_text_other_than_the_one_just_read(
        self, tmp_path, monkeypatch, format
    ):
        images = mmw.formats._IMAGES
        built: dict[int, tuple] = {}  # id -> (image, format, text); holds the image
        served = []
        read_last = []
        real_get, real_put = images.get, images.put
        real_read = mmw.adapters._FileDirAdapter._read

        def read(adapter, file):
            text = real_read(adapter, file)
            read_last[:] = [text]
            return text

        def put(key, image, size):
            kind, text = key
            assert size == len(text)
            built[id(image)] = (image, kind, text)
            real_put(key, image, size)

        def get(key):
            kind, text = key
            assert kind == format and read_last == [text]
            image = real_get(key)
            if image is not None:
                assert built[id(image)][1:] == (kind, text)
                served.append(image)
            return image

        monkeypatch.setattr(mmw.adapters._FileDirAdapter, "_read", read)
        monkeypatch.setattr(images, "put", put)
        monkeypatch.setattr(images, "get", get)
        forget_images()
        rewrite_schedule(tmp_path, format, 4)
        assert len(served) > 100 and len(built) > 15


# Texts the fast path refuses: the reference reads some and refuses others.
REFUSED = {
    "csv": [
        CSV_HEADER + "001,c00001,5,1.50,2024-01-01T00:00:00Z\n002,c00002\n",
        CSV_HEADER + "001,c00001,x,1.50,2024-01-01T00:00:00Z\n",
        CSV_HEADER + "001,c00001,5,1.50,2024-02-30T00:00:00Z\n",
        CSV_HEADER + "1234567890123456789,c,5,1.50,2024-01-01T00:00:00Z\n",
        CSV_HEADER + "001,c00001,5,1.50,2024-01-01T00:00:00Z\n\n002,c,5,1.50,2024-01-01T00:00:00Z\n",
    ],
    "jsonl": [
        '{"x":1,"y":"a"}\n{"y":"b","x":2}\n',
        '{"x":1,"y":"a"}\n{"x":2}\n',
        '{"x":"a\\"b"}\n',
        '{"x":1}\n{"x":1.5}\n',
        '{"x":1}\n{"x":[1]}\n',
        '{"x":1}\n\n{"x":2}\n',
        '{"x":1}\n{"x":2',
    ],
}

READERS = {
    "csv": (
        reference_parse_csv,
        lambda text, where: exact(mmw.formats.Table(*iter_csv_rows("t", text, where))),
        lambda text: iter_csv_rows("t", text)[0],
    ),
    "jsonl": (
        reference_parse_jsonl,
        lambda text, where: exact(parse_jsonl(text, "t", where)),
        lambda text: jsonl_schema(text, "t"),
    ),
}


class TestRefusedText:
    @pytest.mark.parametrize(
        "format, text", [(format, text) for format, texts in REFUSED.items() for text in texts]
    )
    def test_it_keeps_no_image_and_reads_as_the_reference_every_time(self, format, text):
        reference_parse, load, schema = READERS[format]
        forget_images()
        reference = outcome(lambda: reference_parse(text, "t"))
        for _ in range(3):
            if isinstance(reference, str):
                assert outcome(lambda: load(text, None)) == reference
            else:
                assert load(text, None) == exact(reference)
                assert schema(text) == reference.schema
            assert mmw.formats._IMAGES.get((format, text)) is None
            assert len(mmw.formats._IMAGES) == 0


def counting(monkeypatch, module, name) -> list:
    """The calls of `module.name` from now on, one entry of arguments each."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRepeatRead:
    def test_a_second_csv_read_matches_no_row_and_cuts_no_column(self, monkeypatch):
        text = csv_text(random.Random(5), 200)
        reference = reference_parse_csv(text, "t")
        patterns = counting(monkeypatch, mmw.formats, "csv_row_pattern")
        cuts = counting(monkeypatch, mmw.formats, "_payload_column")
        forget_images()
        reads = []
        for key in (77, 78, 77):
            where = Comparison(AttrRef("id"), CompareOp.EQ, Literal(Value.integer(key)))
            reads.append((iter_csv_rows("t", text, where)[0], list(iter_csv_rows("t", text, where)[1])))
            assert reads[-1] == (reference.schema, [reference.rows[key - 1]])
        assert len(patterns) == 1 and len(cuts) == 1
        assert list(iter_csv_rows("t", text)[1]) == list(reference.rows)
        assert len(patterns) == 1 and len(cuts) == 1

    def test_a_second_jsonl_read_matches_no_record(self, monkeypatch):
        text = jsonl_text(random.Random(5), 150)
        reference = reference_parse_jsonl(text, "events")
        patterns = counting(monkeypatch, mmw.formats, "jsonl_record_pattern")
        matched = counting(monkeypatch, mmw.formats, "_matched_records")
        forget_images()
        assert jsonl_schema(text, "events") == reference.schema
        for key in (177, 178, 177):  # the ids start at 101
            where = Comparison(AttrRef("id"), CompareOp.EQ, Literal(Value.integer(key)))
            assert exact(parse_jsonl(text, "events", where)) == (
                reference.schema, exact(reference)[1][key - 101:key - 100]
            )
        assert exact(parse_jsonl(text, "events")) == exact(reference)
        assert len(patterns) == 1 and len(matched) == 1


class TestBudget:
    def test_the_kept_texts_never_exceed_the_budget(self, monkeypatch):
        budget = 4000
        images = mmw.formats._image_store(budget)
        monkeypatch.setattr(mmw.formats, "_IMAGES", images)
        rng = random.Random(8)
        texts = [(format, FORMATS[format][2](rng, rng.randint(1, 12)))
                 for _ in range(60) for format in FORMATS]
        assert any(len(text) > budget // 8 for _, text in texts)
        for _ in range(3):
            for format, text in rng.sample(texts, len(texts)):
                reference_parse, load, _ = READERS[format]
                assert load(text, None) == exact(reference_parse(text, "t"))
                assert images.size == sum(len(kept) for _, kept in images.keys()) <= budget
                kept = images.get((format, text)) is not None
                assert kept == (len(text) <= budget // 8), len(text)
        assert len(images) > 1


class TestThreads:
    def test_four_threads_reading_the_same_texts_get_equal_answers(self, monkeypatch):
        # A budget of a few texts, so images are kept and evicted while
        # other threads read them.
        monkeypatch.setattr(mmw.formats, "_IMAGES", mmw.formats._image_store(24_000))
        rng = random.Random(9)
        cases = []
        for format in sorted(FORMATS):
            for _ in range(4):
                text = FORMATS[format][2](rng, rng.randint(20, 60))
                reference = READERS[format][0](text, "t")
                for where in (None, random_predicate(rng, reference.schema)):
                    forget_images()
                    cases.append((format, text, where, READERS[format][1](text, where)))
        failures = []

        def reader(seed):
            order = random.Random(seed)
            try:
                for _ in range(150):
                    format, text, where, expected = order.choice(cases)
                    if READERS[format][1](text, where) != expected:
                        failures.append((format, text, where))
            except Exception as exc:  # reported below, with the others
                failures.append(exc)

        forget_images()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert mmw.formats._IMAGES.size <= 24_000


class TestBenchmarkTraffic:
    """The distinct texts of one full-size `scan_files` round fit the image
    budget, so repeated rounds keep every image. A change to the workload
    that would make the images thrash fails here."""

    def test_a_full_scan_files_round_fits_the_budget(self, tmp_path):
        scan = load_workloads().ScanFiles(1, "full", tmp_path / "scan")
        rewrites = [payload[2] for kind, payload in scan.ops if kind == "write"]
        texts = set(scan.initial_text.values()) | set(rewrites)
        assert rewrites and len(texts) == len(scan.initial_text) + len(rewrites)
        assert max(map(len, texts)) <= IMAGE_TEXT_CHARS // 8
        assert sum(map(len, texts)) <= IMAGE_TEXT_CHARS
