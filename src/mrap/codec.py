"""Bulk reading and atomic writing of every text file mrap reads or writes.

Each file is a table: one row per line, fields separated by tabs (commas in
``trace.csv``). Readers share one set of line rules: UTF-8, with one
leading byte-order mark dropped; ``\n``, ``\r\n`` or a lone ``\r`` ends a
line, and the last line needs no end; lines starting with ``#`` and blank
or whitespace-only lines are skipped but counted; every other line has the
format's field count. A file is decoded, cleared of its skipped lines and
checked in bulk. A byte that is not UTF-8 or a line with the wrong field
count ends the table above its line, and the first of them in line order
is the file's error. The input files are read the same way in chunks of
about ``CHUNK_BYTES``, each cut at a line end (:func:`read_chunks`), so a
load holds one chunk's strings.
"""
from __future__ import annotations

import hashlib
import os
import re
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ParseError

T = TypeVar("T")

CHUNK_BYTES = 1 << 20  # the read size of read_chunks and fingerprint
SNAPSHOT_FORMAT = "mrap-snapshot-1"

# a line after the first that is skipped, or that starts with whitespace
_UNUSUAL_LINE = re.compile(r"\n[#\s]")
# every byte but a tab or a line end
_NOT_SEPARATOR = bytes(byte for byte in range(256) if byte not in b"\t\n")


class Table:
    """The fields of a file, or of one chunk of it, as columns, one row per data line."""

    __slots__ = ("columns", "_lines")

    def __init__(self, columns: list, lines: list[int] | None = None):
        self.columns = columns
        self._lines = lines  # file line of each row; None when row i is line i + 1

    def __len__(self) -> int:
        return len(self.columns[0])

    def line(self, row: int) -> int:
        """The 1-based line of ``row`` in the text it was read from (a chunk counts from its own first line)."""
        return row + 1 if self._lines is None else self._lines[row]


def read_table(source: IO, n_fields: int, convert: Callable[[Table], T]) -> T:
    """Read a binary or text stream as ``n_fields`` string columns and convert them.

    ``convert`` gives the format's result and raises its error at the first
    bad row. Above a malformed line it still runs first, so the error raised
    is the one a line-by-line reader meets first.
    """
    (result,) = _read(source, -1, n_fields, convert)
    return result


def read_chunks(source: IO, n_fields: int, convert: Callable[[Table], T]) -> list[T]:
    """``read_table`` of each chunk of a stream, in file order: ``convert``'s results.

    A chunk is about ``CHUNK_BYTES`` long and ends at a line end, so it splits
    no line, no UTF-8 character and no ``\r\n``. Its rows are dropped once
    converted. A ParseError names the file line: the chunk's line offset is
    added, and no chunk after the first bad one is read.
    """
    return _read(source, CHUNK_BYTES, n_fields, convert)


def _read(source: IO, size: int, n_fields: int, convert: Callable[[Table], T]) -> list[T]:
    results, offset = [], 0
    for data in _line_chunks(source, size):
        if not results:  # a UTF-8 byte-order mark at the start of the stream is dropped
            data = data.removeprefix(b"\xef\xbb\xbf")
        if b"\r" in data:  # every line end becomes a "\n"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = data.count(b"\n")
        table, error = _split(data, n_fields)
        del data
        try:
            results.append(convert(table))
            if error is not None:
                raise error
        except ParseError as exc:
            raise ParseError(exc.reason, offset + exc.line_no) from None
        offset += lines
    return results


def _line_chunks(source: IO, size: int) -> Iterator[bytes]:
    """The stream's bytes in reads of ``size`` (-1: all at once), cut after the last line end of each.

    The rest of the stream is the last piece, so an empty stream is one empty piece.
    """
    data, searched = _bytes(source.read(size)), 0  # data[:searched] holds no line end
    while block := _bytes(source.read(size)):
        # a last "\r" may be the first half of a "\r\n", so it waits for the next block
        cut = max(data.rfind(b"\n", searched), data.rfind(b"\r", searched, len(data) - 1)) + 1
        if cut:
            yield data[:cut]
        data = data[cut:]
        searched = max(len(data) - 1, 0)
        data += block
        del block
    yield data


def _bytes(data: bytes | str) -> bytes:
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


def _split(data: bytes, n_fields: int) -> tuple[Table, ParseError | None]:
    """The table of the rows above the first bad line, and that line's error (None if there is none)."""
    error = lines = None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the rows end above the line of the first bad byte
        cut = data.rfind(b"\n", 0, exc.start) + 1
        error = ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", data.count(b"\n", 0, cut) + 1)
        data = data[:cut]
        text = data.decode("utf-8")
    if text[:1] == "#" or text[:1].isspace() or _UNUSUAL_LINE.search(text):
        # drop the skipped lines, keeping the file line of each other one
        every = text.split("\n")
        lines = [no for no, line in enumerate(every, start=1) if line.strip() and line[0] != "#"]
        text = "\n".join([every[no - 1] for no in lines])
        data = text.encode("utf-8")
    # every line has n_fields - 1 tabs exactly when the tabs and line ends,
    # in file order, repeat n_fields - 1 tabs then one line end; a last line
    # without its end gets one, so its tabs are counted as its own
    seps = data.translate(None, _NOT_SEPARATOR) + (b"" if data.endswith(b"\n") else b"\n")
    if text and seps != (b"\t" * (n_fields - 1) + b"\n") * (len(seps) // n_fields):
        rows = text.split("\n")  # the rows end above the first line with a wrong tab count
        row = next(r for r, line in enumerate(rows) if line.count("\t") != n_fields - 1)
        got = rows[row].count("\t") + 1
        error = ParseError(f"expected {n_fields} tab-separated fields, got {got}", row + 1 if lines is None else lines[row])
        text = "\n".join(rows[:row])
    if not text:
        return Table([[] for _ in range(n_fields)], lines), error
    fields = text.replace("\n", "\t").split("\t")
    if text[-1] == "\n":
        fields.pop()
    return Table([fields[k::n_fields] for k in range(n_fields)], lines), error


def parse_floats(table: Table, texts: Sequence[str], unparseable: str) -> np.ndarray:
    """``float`` of one field of the table's first ``len(texts)`` rows.

    The first of those rows whose text does not parse (``unparseable``,
    formatted with the text) or is not finite raises a ParseError.
    """
    values = parse_prefix(texts, float)
    array = np.array(values, dtype=np.float64)
    finite = np.isfinite(array)
    if not finite.all():
        row = int(finite.argmin())
        raise ParseError(f"non-finite value {texts[row]!r}", table.line(row))
    if len(values) < len(texts):
        raise ParseError(unparseable.format(texts[len(values)]), table.line(len(values)))
    return array


def parse_prefix(texts: Sequence[str], parse: Callable[[str], T]) -> list[T]:
    """``parse`` of each text, up to the first that raises a ValueError."""
    values: list[T] = []
    try:
        values.extend(map(parse, texts))  # keeps the values before a failure
    except ValueError:
        pass
    return values


def repeated(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key an earlier row already has."""
    # a stable sort puts each key's rows in row order: all but the first repeat
    order = np.argsort(keys, kind="stable")
    mask = np.zeros(len(keys), dtype=bool)
    mask[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return mask


def write_table(
    path: str | os.PathLike, columns: Sequence, sep: str = "\t", header: str | None = None
) -> None:
    """Write columns as one ``sep``-separated line per row, atomically.

    A column is a sequence of strings or a numpy array. Float arrays are
    written at 17 significant digits (``%.17g``), integer arrays in full.
    With ``sep=","`` a string that holds a comma or a double quote is quoted
    as in RFC 4180: enclosed in double quotes, each of its own doubled.
    The whole table is formatted by one ``%``: a row's format, repeated
    once per row, over every cell in row order.
    """
    specs, cells = [], []
    for column in columns:
        if isinstance(column, np.ndarray):
            specs.append("%.17g" if column.dtype.kind == "f" else "%d")
            cells.append(column.tolist())
        else:
            specs.append("%s")
            cells.append(map(_csv_field, column) if sep == "," else column)
    body = (sep.join(specs) + "\n") * len(columns[0]) % tuple(chain.from_iterable(zip(*cells)))
    write_text(path, body if header is None else header + "\n" + body)


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def write_text(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` by ``text`` through a temporary file next to it (see :func:`_replacing`)."""
    with _replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@contextmanager
def _replacing(path: str | os.PathLike, mode: str, **kwargs) -> Iterator[IO]:
    """A temporary file next to ``path`` that replaces it when the block ends; a failed block leaves the previous file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Fingerprinting:
    """A stream that hashes the bytes read from it (see :func:`fingerprint`)."""

    def __init__(self, source: IO):
        self.source, self.sha, self.size = source, hashlib.sha256(), 0

    def read(self, size: int = -1) -> bytes:
        data = _bytes(self.source.read(size))
        self.sha.update(data)
        self.size += len(data)
        return data


def fingerprint(source: str | os.PathLike | IO) -> str:
    """``SHA256:SIZE`` of a file, or of a stream from its position to its end (a :class:`Fingerprinting` one: from its start)."""
    with open(source, "rb") if isinstance(source, (str, os.PathLike)) else nullcontext(source) as fh:
        reader = fh if isinstance(fh, Fingerprinting) else Fingerprinting(fh)
        while reader.read(CHUNK_BYTES):
            pass
    return f"{reader.sha.hexdigest()}:{reader.size}"


def write_snapshot(path: str | os.PathLike, key: str, columns: Sequence[np.ndarray], labels: Sequence[list[str]]) -> None:
    """Replace ``path`` by a snapshot: a header line and the parts, the columns little-endian and the labels UTF-8."""
    parts = [np.ascontiguousarray(column, column.dtype.newbyteorder("<")) for column in columns]
    parts += ["\n".join(texts).encode("utf-8") for texts in labels]
    head = " ".join([SNAPSHOT_FORMAT, key, *(str(memoryview(part).nbytes) for part in parts)]).encode("ascii")
    sha = hashlib.sha256(head)
    for part in parts:
        sha.update(part)
    with _replacing(path, "wb") as fh:
        fh.writelines([head, f" {sha.hexdigest()}\n".encode("ascii"), *parts])


def read_snapshot(path: str | os.PathLike, key: str, dtypes: Sequence[str]) -> tuple[list[np.ndarray], list[list[str]]] | None:
    """The columns, of ``dtypes``, and label lists of the snapshot at ``path``; None unless it is whole and under ``key``."""
    try:
        with Path(path).open("rb") as fh:
            head, _, digest = fh.readline(4096).rpartition(b" ")
            if not head.startswith(f"{SNAPSHOT_FORMAT} {key} ".encode()):
                return None
            body = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
            fh.readinto(body)
    except OSError:
        return None
    sha = hashlib.sha256(head)
    sha.update(body)
    if digest != f"{sha.hexdigest()}\n".encode():
        return None
    parts = np.split(np.frombuffer(body, np.uint8), np.cumsum([int(n) for n in head.split(b" ")[2:-1]]))
    labels = [part.tobytes().decode("utf-8").split("\n") if part.size else [] for part in parts[len(dtypes) :]]
    return [part.view(dtype) for part, dtype in zip(parts, dtypes)], labels
