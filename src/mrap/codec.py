"""Bulk reading and atomic writing of every text file mrap reads or writes.

Each file is a table: one row per line, fields separated by tabs (commas in
``trace.csv``). Readers share one set of line rules: UTF-8; ``\n``,
``\r\n`` or a lone ``\r`` ends a line, and the last line needs no end;
lines starting with ``#`` and blank or whitespace-only lines are skipped
but counted; every other line has the format's field count. A well-formed
file is checked and split in bulk; only a file that fails that check is
read again line by line, to find its first bad line.
"""
from __future__ import annotations

import os
import re
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Sequence, TypeVar

import numpy as np

from .errors import ParseError

T = TypeVar("T")

# a line after the first that is skipped, or that starts with whitespace
_UNUSUAL_LINE = re.compile(r"\n[#\s]")
# every byte but a tab or a line end
_NOT_SEPARATOR = bytes(byte for byte in range(256) if byte not in b"\t\n")


class Table:
    """The fields of a file as columns, one row per data line."""

    __slots__ = ("columns", "_lines")

    def __init__(self, columns: list, lines: list[int] | None = None):
        self.columns = columns
        self._lines = lines  # file line of each row; None when row i is line i + 1

    def __len__(self) -> int:
        return len(self.columns[0])

    def line(self, row: int) -> int:
        """The 1-based file line of ``row``."""
        return row + 1 if self._lines is None else self._lines[row]


def read_table(source: IO, n_fields: int, convert: Callable[[Table], T]) -> T:
    """Read a binary or text stream as ``n_fields`` string columns and convert them.

    ``convert`` gives the format's result and raises its error at the first
    bad row. Above a malformed line it still runs first, so the error raised
    is the one a line-by-line reader meets first.
    """
    data = source.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    table, error = _split(data, n_fields), None
    if table is None:
        table, error = _scan(data, n_fields)
    del data
    result = convert(table)
    if error is not None:
        raise error
    return result


def _split(data: bytes, n_fields: int) -> Table | None:
    """The table of a file without skipped, malformed or undecodable lines, else None."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text:
        return Table([[] for _ in range(n_fields)])
    if text[0] == "#" or text[0].isspace() or _UNUSUAL_LINE.search(text):
        return None
    # every line has n_fields - 1 tabs exactly when the tabs and line ends,
    # in file order, repeat n_fields - 1 tabs then one line end
    seps = data.translate(None, _NOT_SEPARATOR).removesuffix(b"\n") + b"\n"
    if seps != (b"\t" * (n_fields - 1) + b"\n") * (len(seps) // n_fields):
        return None
    fields = text.replace("\n", "\t").split("\t")
    if text[-1] == "\n":
        fields.pop()
    return Table([fields[k::n_fields] for k in range(n_fields)])


def _scan(data: bytes, n_fields: int) -> tuple[Table, ParseError | None]:
    """Line-by-line read: the table of the rows above the first bad line, and its error."""
    rows: list[list[str]] = []
    lines: list[int] = []
    error = None
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            error = ParseError(f"invalid UTF-8 byte 0x{raw[exc.start]:02x}", line_no)
            break
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            error = ParseError(f"expected {n_fields} tab-separated fields, got {len(fields)}", line_no)
            break
        rows.append(fields)
        lines.append(line_no)
    columns = [list(column) for column in zip(*rows)] if rows else [[] for _ in range(n_fields)]
    return Table(columns, lines), error


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
    """Replace ``path`` by ``text`` through a temporary file next to it.

    A write that fails leaves the previous file and no temporary one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
