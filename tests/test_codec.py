"""The bulk text codec against the per-row readers and writers it replaced."""
import csv
import io
import tracemalloc

import numpy as np
import pytest

from helpers import (
    bench_generate,
    load_rows,
    loaded_attributes,
    parsed_triples,
    reference_attribute_entries,
    reference_build_graph,
    reference_lines,
    reference_parse_attributes,
    reference_parse_triples,
    reference_read_imputed,
    reference_read_model_dump,
    reference_read_split_manifest,
    reference_write_imputations,
    reference_write_model_dump,
    reference_write_split_manifest,
    reference_write_table,
    reference_write_trace,
    rows_of,
)

import mrap.codec
from mrap.cli import RunConfig, _load_inputs, _read_imputed
from mrap.codec import Table, read_table, write_table
from mrap.errors import DataError, ParseError
from mrap.graph import Vocabulary
from mrap.ingest import (
    SplitSpec,
    apply_split_manifest,
    load_dataset,
    parse_attributes,
    parse_triples,
    read_split_manifest,
    split_attributes,
    subsample_observed,
    write_split_manifest,
)
from mrap.propagation import PropagationConfig, run, write_imputations, write_trace
from mrap.regression import INNER_LABEL, AdmissionConfig, build_registry, read_model_dump, write_model_dump

# labels with non-ASCII text and inner spaces; none holds a tab or a line end
LABELS = ("e", "Ünïcode", "東京", "two words", "x-y.z", "Ωmega", "a#b", "n0", "n1", "n2")


def _label(rng, prefix=""):
    return f"{prefix}{LABELS[int(rng.integers(len(LABELS)))]}{int(rng.integers(6))}"


def _render(rng, lines: list[str], plain: bool) -> bytes:
    """The lines as a file, with skipped lines, mixed line ends and no final one when not ``plain``."""
    if plain:
        return "".join(line + "\n" for line in lines).encode("utf-8")
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(["# a comment", "", "   ", "\t\t", " \t ", "#\tx\ty"][int(rng.integers(6))])
        out.append(line)
    ends = ["\n", "\r\n"]
    text = "".join(line + ends[int(rng.integers(2))] for line in out)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def _outcome(read, data: bytes):
    """What a reader gives for the file ``data``: its result, or its error."""
    try:
        return ("ok", read(data))
    except (ParseError, DataError) as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))


def _corrupt(rng, data: bytes, kind: str, n_fields: int, column: int, bad: str) -> bytes:
    """``data`` with one random data line broken in the way ``kind`` names."""
    lines = data.split(b"\n")
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith(b"#")]
    if not rows:
        return data
    at = int(rng.integers(len(rows)))
    i = rows[at]
    fields = lines[i].rstrip(b"\r").split(b"\t")
    end = b"\r" if lines[i].endswith(b"\r") else b""
    if kind == "shift":  # one tab moves to a neighbouring data line: the file's tab count stays
        if len(rows) < 2:
            return data
        j = rows[at - 1] if at == len(rows) - 1 or (at > 0 and rng.random() < 0.5) else rows[at + 1]
        cut = int(rng.integers(len(lines[j].rstrip(b"\r")) + 1))
        lines[j] = lines[j][:cut] + b"\t" + lines[j][cut:]
        merge = int(rng.integers(len(fields) - 1))
        fields[merge : merge + 2] = [fields[merge] + fields[merge + 1]]
    elif kind == "arity":
        fields = fields[:-1] if rng.random() < 0.5 else fields + [b"extra"]
    elif kind == "empty":
        at = int(rng.integers(n_fields))
        if at < len(fields):  # a line an earlier fault left short may lack the field
            fields[at] = b""
    elif kind == "byte":
        at = int(rng.integers(len(fields)))
        fields[at] = fields[at][:1] + b"\xff" + fields[at][1:]
    elif column < len(fields):  # a line an earlier fault left short has no such field
        fields[column] = bad.encode()
    lines[i] = b"\t".join(fields) + end
    return b"\n".join(lines)


CORRUPTIONS = ("arity", "empty", "byte", "value")
# the text readers' corruptions; "value" of an empty label is "empty" in a triple file
READER_CORRUPTIONS = ("arity", "empty", "byte", "shift", "value")


def _triples(rng, n: int) -> list[str]:
    return [f"{_label(rng)}\t{_label(rng, 'r')}\t{_label(rng)}" for _ in range(n)]


def _attributes(rng, n: int) -> list[str]:
    # few distinct keys, so that duplicate keys occur
    return [f"{_label(rng)}\t{_label(rng, 't')}\t{float(rng.normal(1950, 30))!r}" for _ in range(n)]


def _table_read(data: bytes, n_fields: int):
    """The columns, row lines and error message (or None) of ``read_table`` on ``data``."""
    tables = []
    try:
        read_table(io.BytesIO(data), n_fields, tables.append)
    except ParseError as exc:
        error = str(exc)
    else:
        error = None
    (table,) = tables
    return table.columns, [table.line(row) for row in range(len(table))], error


def _line_read(data: bytes, n_fields: int):
    """What ``_table_read`` gives, read one line at a time through ``reference_lines``."""
    rows, lines, error = [], [], None
    try:
        for line_no, raw in enumerate(reference_lines(data), start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ParseError(f"expected {n_fields} tab-separated fields, got {len(fields)}", line_no)
            rows.append(fields)
            lines.append(line_no)
    except ParseError as exc:
        error = str(exc)
    return [[row[k] for row in rows] for k in range(n_fields)], lines, error


class TestReaders:
    """≥200 random files per format: the same rows, or the same first error."""

    @pytest.mark.parametrize("seed", range(4))
    def test_triples(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(60):
            data = _render(rng, _triples(rng, int(rng.integers(0, 25))), plain=rng.random() < 0.3)
            new = lambda d: parsed_triples(io.BytesIO(d))
            ref = lambda d: reference_parse_triples(reference_lines(d))
            assert _outcome(new, data) == _outcome(ref, data)
            for _ in range(int(rng.integers(1, 3))):  # two faults: the first line's must win
                data = _corrupt(rng, data, READER_CORRUPTIONS[int(rng.integers(4))], 3, 0, "")
                assert _outcome(new, data) == _outcome(ref, data)

    @pytest.mark.parametrize("seed", range(4))
    def test_attributes(self, seed):
        rng = np.random.default_rng(200 + seed)
        for _ in range(60):
            data = _render(rng, _attributes(rng, int(rng.integers(0, 25))), plain=rng.random() < 0.3)

            new = lambda d: loaded_attributes(io.BytesIO(d))
            ref = lambda d: reference_parse_attributes(reference_lines(d))
            assert _outcome(new, data) == _outcome(ref, data)
            for _ in range(int(rng.integers(1, 3))):
                bad_value = ["abc", "inf", "-inf", "nan", "1.0.0", "", "#t1"][int(rng.integers(7))]
                column = 1 if bad_value == "#t1" else 2  # a type label starting with "#"
                data = _corrupt(rng, data, READER_CORRUPTIONS[int(rng.integers(5))], 3, column, bad_value)
                assert _outcome(new, data) == _outcome(ref, data)

    @pytest.mark.parametrize("seed", range(4))
    def test_split_manifest(self, seed):
        rng = np.random.default_rng(300 + seed)
        names = ("train", "dev", "test")
        for _ in range(60):
            lines = [f"{_label(rng)}\t{_label(rng, 't')}\t{names[int(rng.integers(3))]}" for _ in range(25)]
            data = _render(rng, lines[: int(rng.integers(0, 25))], plain=rng.random() < 0.3)
            new = lambda d: rows_of(read_split_manifest(io.BytesIO(d)))
            ref = lambda d: [(e, a, int(code)) for e, a, code in reference_read_split_manifest(reference_lines(d))]
            assert _outcome(new, data) == _outcome(ref, data)
            for _ in range(int(rng.integers(1, 3))):
                bad_label = ["validation", "Train", " test", ""][int(rng.integers(4))]
                data = _corrupt(rng, data, READER_CORRUPTIONS[int(rng.integers(5))], 3, 2, bad_label)
                assert _outcome(new, data) == _outcome(ref, data)

    @pytest.mark.parametrize("n_fields", [3, 5, 11])
    def test_read_table_matches_the_line_reader(self, n_fields):
        rng = np.random.default_rng(400 + n_fields)
        for _ in range(100):
            lines = ["\t".join(_label(rng) for _ in range(n_fields)) for _ in range(int(rng.integers(1, 12)))]
            lines = [" " + line if rng.random() < 0.1 else line for line in lines]  # a data line may start with a space
            data = _render(rng, lines, plain=rng.random() < 0.5)
            for _ in range(int(rng.integers(0, 3))):
                data = _corrupt(rng, data, ("arity", "shift", "byte")[int(rng.integers(3))], n_fields, 0, "")
            assert _table_read(data, n_fields) == _line_read(data, n_fields)

    @pytest.mark.parametrize(
        "data, rows, lines, error",
        [
            (b"a\tp\tb\n# \xff\nc\tq\td\n", [["a", "p", "b"]], [1], "line 2: invalid UTF-8 byte 0xff"),
            (b"a\tp\nc\t\xff\td\n", [], [], "line 1: expected 3 tab-separated fields, got 2"),
            (b"# x\n\n  \n\t\t\n#\ty\n", [], [], None),
            (b"a\tp\tb\n \t \t\nc\tq\td", [["a", "p", "b"], ["c", "q", "d"]], [1, 3], None),
            (b"a\tp\tb\nc", [["a", "p", "b"]], [1], "line 2: expected 3 tab-separated fields, got 1"),
        ],
        ids=["bad-byte-in-comment", "field-count-above-bad-byte", "skipped-lines-only", "tabs-in-blank-line", "short-last-line"],
    )
    def test_line_rules(self, data, rows, lines, error):
        assert _table_read(data, 3) == _line_read(data, 3) == ([list(c) for c in zip(*rows)] or [[], [], []], lines, error)

    def test_error_line_counts_skipped_and_crlf_lines(self):
        data = b"# header\r\n\r\n  \na\tp\tb\r\nbad line\r\n"
        with pytest.raises(ParseError) as err:
            parsed_triples(io.BytesIO(data))
        assert err.value.line_no == 5

    def test_lone_carriage_return_ends_a_line(self):
        assert parsed_triples(io.BytesIO(b"a\tp\tb\rc\tq\td")) == [("a", "p", "b"), ("c", "q", "d")]

    def test_bad_byte_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 2: invalid UTF-8 byte 0xff$"):
            parsed_triples(io.BytesIO(b"a\tp\tb\nc\t\xff\td\n"))

    def test_field_counts_are_checked_per_line(self):
        # six fields over two lines, as many as two well-formed lines hold
        with pytest.raises(ParseError, match=r"^line 1: expected 3 tab-separated fields, got 2$"):
            parsed_triples(io.BytesIO(b"a\tb\nc\td\te\tf\n"))

    def test_earlier_row_error_wins_over_later_malformed_line(self):
        data = b"a\tt\t1.0\nb\tt\tabc\nc\tt\n"
        with pytest.raises(ParseError, match=r"^line 2: unparseable float 'abc'$"):
            loaded_attributes(io.BytesIO(data))


def _tagged(name: str, read, *args):
    """``read(*args)``, a ParseError naming the file ``name`` after its line."""
    try:
        return read(*args)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc.reason}", exc.line_no) from None


def _load(triples: bytes, attrs: bytes):
    """The command line's load of two files: labels, edge rows, entry columns and the duplicate count."""
    entities, relations, types = Vocabulary(), Vocabulary(), Vocabulary()
    rows = _tagged("triples", parse_triples, io.BytesIO(triples), entities, relations)
    columns = _tagged("attrs", parse_attributes, io.BytesIO(attrs), entities, types)
    graph, table = load_dataset(entities, relations, types, rows, columns)
    return (
        graph.entities.labels,
        graph.relations.labels,
        graph.edge_array.tolist(),
        table.types.labels,
        table.entity_ids.tolist(),
        table.attr_ids.tolist(),
        table.values.tolist(),
        len(columns[2]) - table.n_entries,
    )


def _reference_load(triples: bytes, attrs: bytes):
    """What ``_load`` gives, from the line-by-line parsers and the scalar builds."""
    triples = _tagged("triples", reference_parse_triples, reference_lines(triples))
    rows, duplicates = _tagged("attrs", reference_parse_attributes, reference_lines(attrs))
    entity_labels, relation_labels, edges = reference_build_graph(triples, [e for e, _, _ in rows])
    types = Vocabulary(a for _, a, _ in rows)
    entries = [(entity_labels.index(e), types.id(a), v) for e, a, v in rows]
    entity_ids, attr_ids, values, _, _ = reference_attribute_entries(len(entity_labels), entries)
    return entity_labels, relation_labels, [list(edge) for edge in edges], types.labels, entity_ids, attr_ids, values, duplicates


TRIPLES = b"a\tp\tb\nb\tq\tc\nc\tp\ta\n"
ATTRS = b"a\th\t1.5\nb\th\t2.5\nd\tg\t3.5\n"
# a file pair with one line rule at work, and the error it gives (None: it loads)
CUT_CASES = {
    "crlf": (b"a\tp\tb\r\nb\tq\tc\r\n", b"a\th\t1\r\nd\th\t2\r\n", None),
    "lone-cr": (b"a\tp\tb\rb\tq\tc\r", b"a\th\t1\rd\th\t2", None),
    "skipped-lines": (b"# c\n\na\tp\tb\n \t \n#\tx\ty\nb\tq\tc\n", b"\n# h\na\th\t1\n  \nb\th\t2\n", None),
    "bad-byte": (TRIPLES, b"a\th\t1\nb\t\xffh\t2\nc\th\t3\n", "line 2: attrs: invalid UTF-8 byte 0xff"),
    "tab-count": (b"a\tp\tb\nb\tq\nc\tp\ta\n", ATTRS, "line 2: triples: expected 3 tab-separated fields, got 2"),
    "empty-field": (b"a\tp\tb\nb\t\tc\n", ATTRS, "line 2: triples: empty field in triple"),
    "hash-type": (TRIPLES, b"a\th\t1\nb\t#h\t2\n", "line 2: attrs: attribute type '#h' starts with '#'"),
    "non-finite": (TRIPLES, b"a\th\t1\nb\th\tinf\nc\th\t2\n", "line 2: attrs: non-finite value 'inf'"),
    "duplicate-key": (TRIPLES, b"a\th\t1\nb\th\t2\na\th\t3\n", None),
    "no-last-line-end": (b"a\tp\tb\nb\tq\tc", b"a\th\t1\nb\th\t2", None),
    "byte-order-mark": (b"\xef\xbb\xbfa\tp\tb\nb\tq\tc\n", b"\xef\xbb\xbfa\th\t1\nb\th\t2\n", None),
}


class TestChunkedLoad:
    """Chunk cuts change nothing: any chunk size loads what the line-by-line oracle loads, or fails at its line."""

    @pytest.mark.parametrize("case", CUT_CASES)
    def test_a_cut_at_every_byte(self, monkeypatch, case):
        triples, attrs, error = CUT_CASES[case]
        expected = _outcome(lambda d: _reference_load(d, attrs), triples)
        assert expected[1] == error if error else expected[0] == "ok"
        for chunk in range(1, max(len(triples), len(attrs)) + 2):
            monkeypatch.setattr(mrap.codec, "CHUNK_BYTES", chunk)
            assert _outcome(lambda d: _load(d, attrs), triples) == expected, chunk

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_random_files(self, monkeypatch, chunk):
        monkeypatch.setattr(mrap.codec, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(500 + chunk)
        for _ in range(100):
            files = [
                _render(rng, _triples(rng, int(rng.integers(0, 25))), plain=rng.random() < 0.3),
                _render(rng, _attributes(rng, int(rng.integers(0, 25))), plain=rng.random() < 0.3),
            ]
            assert _outcome(lambda d: _load(d, files[1]), files[0]) == _outcome(lambda d: _reference_load(d, files[1]), files[0])
            for _ in range(int(rng.integers(1, 3))):
                at = int(rng.integers(2))
                bad_value = ["abc", "inf", "nan", "", "#t1"][int(rng.integers(5))]
                column = 1 if bad_value == "#t1" else 2
                kind = READER_CORRUPTIONS[int(rng.integers(5 if at else 4))]
                files[at] = _corrupt(rng, files[at], kind, 3, column if at else 0, bad_value if at else "")
                assert _outcome(lambda d: _load(d, files[1]), files[0]) == _outcome(lambda d: _reference_load(d, files[1]), files[0])

    def test_the_load_holds_a_few_chunks_of_strings(self, tmp_path, monkeypatch):
        chunk = 1 << 15
        monkeypatch.setattr(mrap.codec, "CHUNK_BYTES", chunk)
        generate = bench_generate()
        spec = generate.GraphSpec(entities=4000, edges_per_entity=5, relations=20, noise_relations=0, types=2, density=0.5)
        generate.write_graph(spec, 1, tmp_path)
        assert (tmp_path / "triples.tsv").stat().st_size > 8 * chunk
        cfg = RunConfig(triples=str(tmp_path / "triples.tsv"), attrs=str(tmp_path / "attrs.tsv"), out=str(tmp_path / "out"))
        for _ in range(2):  # a parse that writes the snapshots, then a restore from them
            tracemalloc.start()
            try:
                graph, table = _load_inputs(cfg)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert graph.n_edges > 19_000 and table.n_entries > 3_500
            # what the load keeps (id arrays and labels), one transient copy of it and
            # a few chunks of strings; read whole, these files peak at over twice this
            assert peak < 2 * kept + 16 * chunk, (peak, kept)
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["attrs.bin", "triples.bin"]


def _random_bundle(rng):
    """A split, subsampled dataset with non-ASCII labels, plus its fitted registry."""
    names = [_label(rng) for _ in range(int(rng.integers(6, 30)))]
    names = list(dict.fromkeys(names))
    latent = {name: float(rng.normal(0, 10)) for name in names}
    triples = [
        (names[int(rng.integers(len(names)))], _label(rng, "r")[:4], names[int(rng.integers(len(names)))])
        for _ in range(int(rng.integers(5, 60)))
    ]
    types = [f"t{k} ü" for k in range(int(rng.integers(1, 4)))]
    rows = [
        (name, attr, latent[name] * (k + 1) + float(rng.normal(0, 1)))
        for name in names
        for k, attr in enumerate(types)
        if rng.random() < 0.7
    ]
    bundle = split_attributes(*load_rows(triples, rows), SplitSpec(seed=int(rng.integers(100))))
    bundle = subsample_observed(bundle, float(rng.uniform(0.3, 1.0)), seed=int(rng.integers(100)))
    return bundle, build_registry(bundle, AdmissionConfig(min_support=2))


def _written(tmp_path, write, *args) -> bytes:
    path = tmp_path / "artifact"
    write(path, *args)
    return path.read_bytes()


def _reference_written(write, *args) -> bytes:
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue().encode("utf-8")


def _model_rows(models):
    return sorted(
        (str(k), m.eta, m.tau, m.sigma2, m.weight, m.fit.support, m.fit.r2, m.fit.derived_reverse)
        for k, m in models.items()
    )


class TestWritersAndArtifactReaders:
    """Byte-identical artifacts, and the artifact readers against their per-row forms."""

    def test_random_bundles(self, tmp_path):
        rng = np.random.default_rng(41)
        runs = 0
        for _ in range(200):
            bundle, registry = _random_bundle(rng)
            graph, attrs = bundle.graph, bundle.attrs
            assert _written(tmp_path, write_split_manifest, bundle) == _reference_written(
                reference_write_split_manifest, bundle
            )
            dump = _written(tmp_path, write_model_dump, registry, graph, attrs)
            assert dump == _reference_written(reference_write_model_dump, registry, graph, attrs)

            new = lambda d: _model_rows(read_model_dump(io.BytesIO(d), graph, attrs).models)
            ref = lambda d: _model_rows(reference_read_model_dump(reference_lines(d), graph, attrs))
            data = _render(rng, dump.decode().splitlines(), plain=rng.random() < 0.3)
            assert _outcome(new, data) == _outcome(ref, data)
            for _ in range(int(rng.integers(1, 3))):
                bad_value = ["abc", "inf", "nan", "0", "-1.5", "1e-320", "forwards"][int(rng.integers(7))]
                column = 3 if bad_value == "forwards" else int(rng.integers(4, 9))
                data = _corrupt(rng, data, CORRUPTIONS[int(rng.integers(4))], 9, column, bad_value)
                assert _outcome(new, data) == _outcome(ref, data)

            if not len(bundle.target_indices()) or (attrs.status == 0).sum() == 0:
                continue
            try:
                values, report = run(bundle, registry, PropagationConfig(max_iters=20))
            except DataError:
                continue  # a target type without observed entries
            runs += 1
            imputed = _written(tmp_path, write_imputations, bundle, values, report)
            assert imputed == _reference_written(reference_write_imputations, bundle, values, report)
            assert _written(tmp_path, write_trace, report) == _reference_written(reference_write_trace, report)

            def new_imputed(d):
                path = tmp_path / "imputed.tsv"
                path.write_bytes(d)
                entries, values = _read_imputed(path, bundle)
                keys = zip(attrs.entity_ids[entries].tolist(), attrs.attr_ids[entries].tolist())
                return dict(zip(keys, values.tolist()))

            def ref_imputed(d):
                return reference_read_imputed(reference_lines(d), tmp_path / "imputed.tsv", bundle)

            data = _render(rng, imputed.decode().splitlines(), plain=rng.random() < 0.3)
            assert _outcome(new_imputed, data) == _outcome(ref_imputed, data)
            for _ in range(int(rng.integers(1, 3))):
                kind = ("arity", "byte", "value", "unknown", "repeat", "other-type")[int(rng.integers(6))]
                if kind == "unknown":
                    data = _corrupt(rng, data, "value", 5, int(rng.integers(2)), "ghost")
                elif kind == "other-type":  # known labels that may name no entry
                    data = _corrupt(rng, data, "value", 5, 1, attrs.types.label(int(rng.integers(attrs.n_types))))
                elif kind == "repeat":
                    lines = data.splitlines(keepends=True)
                    at = int(rng.integers(len(lines) + 1))
                    data = b"".join(lines[:at] + lines[: int(rng.integers(1, 3))] + lines[at:])
                else:
                    data = _corrupt(rng, data, kind, 5, 2, ["abc", "nan", "inf"][int(rng.integers(3))])
                assert _outcome(new_imputed, data) == _outcome(ref_imputed, data)
        assert runs >= 100

    def test_whitespace_led_labels_and_a_relation_named_inner_read_back(self, tmp_path):
        rng = np.random.default_rng(5)
        triples, rows = [], []
        for i in range(30):
            birth = 1900.0 + i + float(rng.normal(0, 1))
            rows += [(f" p{i}", "birth", birth), (f" p{i}", " height", birth / 10 + float(rng.normal(0, 1)))]
            triples.append((f" p{i}", INNER_LABEL, f" p{(i + 1) % 30}"))
        bundle = split_attributes(*load_rows(triples, rows), SplitSpec(seed=3))
        graph, attrs = bundle.graph, bundle.attrs
        registry = build_registry(bundle, AdmissionConfig(min_support=2))
        write_split_manifest(tmp_path / "split.tsv", bundle)
        write_model_dump(tmp_path / "models.tsv", registry, graph, attrs)
        split_lines = (tmp_path / "split.tsv").read_text(encoding="utf-8").splitlines()
        model_lines = [line.split("\t")[:4] for line in (tmp_path / "models.tsv").read_text(encoding="utf-8").splitlines()]
        assert all(line.startswith(" p") for line in split_lines)
        assert [" height", " height", INNER_LABEL, "forward"] in model_lines  # a relational key, dep equal to indep
        assert [" height", "birth", INNER_LABEL, "-"] in model_lines  # a within-node key

        with open(tmp_path / "split.tsv", "rb") as fh:
            reloaded = apply_split_manifest(graph, attrs, read_split_manifest(fh))
        assert np.array_equal(reloaded.split, bundle.split) and np.array_equal(reloaded.attrs.status, attrs.status)
        with open(tmp_path / "models.tsv", "rb") as fh:
            dumped = read_model_dump(fh, graph, attrs)
        for name in ("codes", "eta", "tau", "sigma2", "weight", "support", "r2", "derived"):
            assert np.array_equal(getattr(dumped, name), getattr(registry, name)), name


class TestTable:
    def test_table_layout(self, tmp_path):
        path = tmp_path / "sub" / "t.csv"
        write_table(path, [["a", "b"], np.array([1.5, -0.0]), np.array([3, 4])], sep=",", header="x,y,z")
        assert path.read_bytes() == b"x,y,z\na,1.5,3\nb,-0,4\n"
        write_table(path, [[], np.array([])])
        assert path.read_bytes() == b""

    def test_csv_fields_are_quoted_as_in_rfc_4180(self, tmp_path):
        path = tmp_path / "t.csv"
        labels = ["h,cm", 'w"x', "plain", ""]
        write_table(path, [labels, np.array([1, 2, 3, 4])], sep=",")
        assert path.read_bytes() == b'"h,cm",1\n"w""x",2\nplain,3\n,4\n'
        with open(path, newline="", encoding="utf-8") as fh:
            assert [row[0] for row in csv.reader(fh)] == labels
        write_table(path, [labels, np.array([1, 2, 3, 4])])  # tab-separated files are written as they are
        assert path.read_bytes() == b'h,cm\t1\nw"x\t2\nplain\t3\n\t4\n'

    def test_write_table_matches_the_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(60)
        floats = np.array([1e-07, 1.5e16, -0.0, np.nan, np.inf, -np.inf, 0.1, 1950.25, -3.0, 5e-324])
        for _ in range(200):
            n_rows = int(rng.integers(0, 12)) * (rng.random() < 0.85)
            columns = []
            for _ in range(int(rng.integers(1, 6)) if rng.random() < 0.8 else 1):
                kind = int(rng.integers(3))
                if kind == 0:  # labels with commas, double quotes and format characters
                    columns.append(["".join(rng.choice(list('ab,"% Ü東'), int(rng.integers(0, 5)))) for _ in range(n_rows)])
                elif kind == 1:
                    columns.append(rng.integers(-(2**62), 2**62, n_rows, dtype=np.int64))
                else:
                    drawn = rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
                    columns.append(np.where(rng.random(n_rows) < 0.5, rng.choice(floats, n_rows), drawn))
            sep = ("\t", ",")[int(rng.integers(2))]
            header = None if rng.random() < 0.5 else sep.join(f"c{k}" for k in range(len(columns)))
            write_table(tmp_path / "new", columns, sep=sep, header=header)
            reference_write_table(tmp_path / "ref", columns, sep=sep, header=header)
            assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    def test_read_table_accepts_text_streams(self):
        table = read_table(io.StringIO("a\tb\n# c\nd\te"), 2, lambda t: t)
        assert isinstance(table, Table)
        assert table.columns == [["a", "d"], ["b", "e"]] and [table.line(r) for r in range(2)] == [1, 3]
