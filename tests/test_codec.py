"""The bulk text codec against the per-row readers and writers it replaced."""
import csv
import io

import numpy as np
import pytest

from helpers import (
    load_rows,
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

from mrap.cli import _read_imputed
from mrap.codec import Table, _scan, _split, read_table, write_table
from mrap.errors import DataError, ParseError
from mrap.ingest import (
    SplitSpec,
    parse_attributes,
    parse_triples,
    read_split_manifest,
    split_attributes,
    subsample_observed,
    write_split_manifest,
)
from mrap.propagation import PropagationConfig, run, write_imputations, write_trace
from mrap.regression import AdmissionConfig, build_registry, read_model_dump, write_model_dump

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


class TestReaders:
    """≥200 random files per format: the same rows, or the same first error."""

    @pytest.mark.parametrize("seed", range(4))
    def test_triples(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(60):
            data = _render(rng, _triples(rng, int(rng.integers(0, 25))), plain=rng.random() < 0.3)
            new = lambda d: rows_of(parse_triples(io.BytesIO(d)))
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

            def new(d):
                table, duplicates = parse_attributes(io.BytesIO(d))
                return rows_of(table), duplicates

            ref = lambda d: reference_parse_attributes(reference_lines(d))
            assert _outcome(new, data) == _outcome(ref, data)
            for _ in range(int(rng.integers(1, 3))):
                bad_value = ["abc", "inf", "-inf", "nan", "1.0.0", ""][int(rng.integers(6))]
                data = _corrupt(rng, data, READER_CORRUPTIONS[int(rng.integers(5))], 3, 2, bad_value)
                assert _outcome(new, data) == _outcome(ref, data)

    def test_duplicate_keys_keep_last_value_in_first_seen_order(self):
        data = b"a\tt\t1.0\nb\tt\t2.0\na\tt\t3.0\n"
        table, duplicates = parse_attributes(io.BytesIO(data))
        assert rows_of(table) == [("a", "t", 3.0), ("b", "t", 2.0)] and duplicates == 1
        assert len(table) == 2

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
    def test_bulk_check_rejects_what_the_line_scan_rejects(self, n_fields):
        rng = np.random.default_rng(400 + n_fields)
        for _ in range(100):
            lines = ["\t".join(_label(rng) for _ in range(n_fields)) for _ in range(int(rng.integers(1, 12)))]
            data = _render(rng, lines, plain=True)
            if rng.random() < 0.5:
                data = data.rstrip(b"\n")
            for _ in range(int(rng.integers(0, 3))):
                data = _corrupt(rng, data, ("arity", "shift")[int(rng.integers(2))], n_fields, 0, "")
            _, error = _scan(data, n_fields)
            assert (_split(data, n_fields) is None) == (error is not None)

    def test_error_line_counts_skipped_and_crlf_lines(self):
        data = b"# header\r\n\r\n  \na\tp\tb\r\nbad line\r\n"
        with pytest.raises(ParseError) as err:
            parse_triples(io.BytesIO(data))
        assert err.value.line_no == 5

    def test_lone_carriage_return_ends_a_line(self):
        assert rows_of(parse_triples(io.BytesIO(b"a\tp\tb\rc\tq\td"))) == [("a", "p", "b"), ("c", "q", "d")]

    def test_bad_byte_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 2: invalid UTF-8 byte 0xff$"):
            parse_triples(io.BytesIO(b"a\tp\tb\nc\t\xff\td\n"))

    def test_field_counts_are_checked_per_line(self):
        # six fields over two lines, as many as two well-formed lines hold
        with pytest.raises(ParseError, match=r"^line 1: expected 3 tab-separated fields, got 2$"):
            parse_triples(io.BytesIO(b"a\tb\nc\td\te\tf\n"))

    def test_earlier_row_error_wins_over_later_malformed_line(self):
        data = b"a\tt\t1.0\nb\tt\tabc\nc\tt\n"
        with pytest.raises(ParseError, match=r"^line 2: unparseable float 'abc'$"):
            parse_attributes(io.BytesIO(data))


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
                bad_value = ["abc", "inf", "nan", "0", "-1.5", "forwards"][int(rng.integers(6))]
                column = 3 if bad_value == "forwards" else int(rng.integers(4, 8))
                data = _corrupt(rng, data, CORRUPTIONS[int(rng.integers(4))], 11, column, bad_value)
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
                preds = reference_read_imputed(reference_lines(d), tmp_path / "imputed.tsv", bundle)
                entries = attrs.lookup([e for e, _ in preds], [a for _, a in preds])
                return {key: value for key, value, i in zip(preds, preds.values(), entries) if i >= 0}

            data = _render(rng, imputed.decode().splitlines(), plain=rng.random() < 0.3)
            assert _outcome(new_imputed, data) == _outcome(ref_imputed, data)
            for _ in range(int(rng.integers(1, 3))):
                kind = ("arity", "byte", "value", "unknown", "repeat")[int(rng.integers(5))]
                if kind == "unknown":
                    data = _corrupt(rng, data, "value", 5, int(rng.integers(2)), "ghost")
                elif kind == "repeat":
                    lines = data.splitlines(keepends=True)
                    at = int(rng.integers(len(lines) + 1))
                    data = b"".join(lines[:at] + lines[: int(rng.integers(1, 3))] + lines[at:])
                else:
                    data = _corrupt(rng, data, kind, 5, 2, ["abc", "nan", "inf"][int(rng.integers(3))])
                assert _outcome(new_imputed, data) == _outcome(ref_imputed, data)
        assert runs >= 100


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
