"""Parsing of triple/attribute files, split assignment, and subsampling.

File formats (UTF-8, tab separated):

* triple file:     ``head<TAB>relation<TAB>tail``
* attribute file:  ``entity<TAB>attribute_type<TAB>float_value``
* split manifest:  ``entity<TAB>attribute_type<TAB>{train|dev|test}``

All three go through :mod:`mrap.codec`, which sets the line rules (``#``
and blank lines skipped, any line end) and names the first bad line in a
ParseError: a wrong field count, a byte that is not UTF-8, an empty label,
a value that is not a finite float, an unknown split label.

The two input files are loaded in bounded memory. Each is read in chunks
of about ``codec.CHUNK_BYTES`` cut at line ends, and each chunk's labels are
interned into vocabularies, and its strings dropped, before the next chunk
is read. The triples are read first, so their strings are gone before the
attributes are read. :func:`load_dataset` then builds the graph and the
attribute table from id arrays, and applies the attribute duplicate rule
to integer key codes. All random assignments are driven by seeded
generators and reproduce byte-identical results for a given seed.
"""
from __future__ import annotations

import hashlib
import logging
import math
import os
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import IO, Callable

import numpy as np

from .attributes import AttributeTable, Status
from .codec import Fingerprinting, Table, fingerprint, parse_floats, read_chunks, read_snapshot
from .codec import read_table, repeated, write_snapshot, write_table
from .errors import DataError, ParseError
from .graph import KnowledgeGraph, Vocabulary, build_graph

logger = logging.getLogger(__name__)

_SPLIT_NAMES = ("train", "dev", "test")
_SPLIT_CODES = {name: code for code, name in enumerate(_SPLIT_NAMES)}


class Split(IntEnum):
    TRAIN = 0
    DEV = 1
    TEST = 2


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of attribute entries per split, plus the shuffle seed."""

    train_frac: float = 0.8
    dev_frac: float = 0.1
    test_frac: float = 0.1
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.dev_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValueError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)!r}")
        if not all(map(math.isfinite, fracs)):  # NaN passes both checks above
            raise ValueError(f"split fractions must be finite, got {fracs}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.dev_frac, self.test_frac)


@dataclass
class DatasetBundle:
    """Graph + attribute table + per-entry split assignment.

    ``split[i]`` labels entry ``i`` of ``attrs`` with a ``Split`` code. The
    entry statuses encode the current observation setup: TRAIN entries start
    OBSERVED (until subsampled), DEV/TEST entries are always MISSING targets.
    """

    graph: KnowledgeGraph
    attrs: AttributeTable
    split: np.ndarray  # int8 Split codes, aligned with attrs entries

    def target_indices(self) -> np.ndarray:
        """Entry indices with MISSING status (the imputation targets)."""
        return np.flatnonzero(self.attrs.status == Status.MISSING)

    def split_indices(self, split: Split) -> np.ndarray:
        return np.flatnonzero(self.split == int(split))

    def split_counts(self) -> tuple[int, int, int]:
        return tuple(int((self.split == s).sum()) for s in Split)  # type: ignore[return-value]


def intern_triples(table: Table, entities: Vocabulary, relations: Vocabulary) -> np.ndarray:
    """The ``(head, relation, tail)`` id rows of a table of triple labels, interning new labels.

    Entities are interned in (head, tail) row order and relations in row
    order, so ids follow first appearance in the file. An empty label
    raises a ParseError at its row.
    """
    empty = [column.index("") for column in table.columns if "" in column]
    if empty:
        raise ParseError("empty field in triple", table.line(min(empty)))
    heads, rels, tails = table.columns
    ends = [""] * (2 * len(heads))
    ends[0::2] = heads
    ends[1::2] = tails
    rows = np.empty((len(heads), 3), dtype=np.int64)
    rows[:, 0::2] = np.fromiter(entities.intern(ends), dtype=np.int64, count=len(ends)).reshape(-1, 2)
    rows[:, 1] = np.fromiter(relations.intern(rels), dtype=np.int64, count=len(rels))
    return rows


def parse_triples(
    source: IO, entities: Vocabulary, relations: Vocabulary, snapshot: str | os.PathLike | None = None
) -> np.ndarray:
    """Parse a triple stream into its ``(head, relation, tail)`` id rows in file order.

    The labels are interned chunk by chunk (see :func:`intern_triples`), so
    no more than one chunk's strings are held at once. For ``snapshot`` see :func:`_parse_once`.
    """
    convert = lambda t: (intern_triples(t, entities, relations),)  # noqa: E731
    (rows,) = _parse_once("triples", source, snapshot, (entities, relations), ("<i8",), convert)
    return rows.reshape(-1, 3)


def intern_attributes(
    table: Table, entities: Vocabulary, types: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entity id, type id and value columns of a table of attribute rows, interning new labels.

    The first row with an empty label, a type label that starts with ``#``
    or a value that is not a finite float raises a ParseError.
    """
    entity_labels, type_labels, texts = table.columns
    empty = min((column.index("") for column in (entity_labels, type_labels) if "" in column), default=len(table))
    # a type label starting with "#" would start a model dump line, which reads as a comment
    joined = "\t" + "\t".join(type_labels)
    at = joined.find("\t#")
    labelled = empty if at < 0 else min(empty, joined.count("\t", 0, at))  # a label holds no tab
    values = parse_floats(table, texts[:labelled], "unparseable float {!r}")
    if labelled < empty:
        raise ParseError(f"attribute type {type_labels[labelled]!r} starts with '#'", table.line(labelled))
    if empty < len(table):
        raise ParseError("empty field in attribute row", table.line(empty))
    entity_ids = np.fromiter(entities.intern(entity_labels), dtype=np.int64, count=len(table))
    type_ids = np.fromiter(types.intern(type_labels), dtype=np.int64, count=len(table))
    return entity_ids, type_ids, values


def parse_attributes(
    source: IO, entities: Vocabulary, types: Vocabulary, snapshot: str | os.PathLike | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse an attribute stream into entity id, type id and value columns, one row per line.

    The labels are interned chunk by chunk (see :func:`intern_attributes`).
    Duplicate (entity, attribute type) keys are all kept here;
    :func:`load_dataset` keeps the last of each. For ``snapshot`` see :func:`_parse_once`.
    """
    convert = lambda t: intern_attributes(t, entities, types)  # noqa: E731
    return tuple(_parse_once("attributes", source, snapshot, (entities, types), ("<i8", "<i8", "<f8"), convert))


def _parse_once(name: str, source: IO, snapshot, vocabularies: tuple, dtypes: tuple, convert: Callable) -> list[np.ndarray]:
    """The columns ``convert`` gives chunk by chunk, or their copy in ``snapshot``, which a parse replaces.

    Its key covers the bytes read, the column types and the labels the
    vocabularies held before, which fix the ids. A stream that cannot seek gets none.
    """
    reader = Fingerprinting(source) if snapshot is not None and source.seekable() else None
    if reader:
        start, known = source.tell(), [len(vocabulary) for vocabulary in vocabularies]
        labels = hashlib.sha256(repr([dtypes, *(vocabulary.labels for vocabulary in vocabularies)]).encode()).hexdigest()
        if os.path.exists(snapshot):  # else the input is hashed only as it is parsed
            restored = read_snapshot(snapshot, f"{fingerprint(source)}:{labels}", dtypes)
            if restored is not None:
                for vocabulary, new in zip(vocabularies, restored[1]):
                    vocabulary.intern(new)
                logger.info("%s restored from %s", name, snapshot)
                return restored[0]
            source.seek(start)
    columns = [np.concatenate(column) for column in zip(*read_chunks(reader or source, 3, convert))]
    if reader:
        try:
            new = [vocabulary.labels[n:] for vocabulary, n in zip(vocabularies, known)]
            write_snapshot(snapshot, f"{fingerprint(reader)}:{labels}", columns, new)
        except OSError as exc:  # a snapshot only saves time: the command goes on without it
            logger.warning("%s snapshot not written to %s: %s", name, snapshot, exc)
    return columns


def load_dataset(
    entities: Vocabulary,
    relations: Vocabulary,
    types: Vocabulary,
    triples: np.ndarray,
    attributes: tuple[np.ndarray, np.ndarray, np.ndarray],
    start: float | None = None,
) -> tuple[KnowledgeGraph, AttributeTable]:
    """Assemble graph and attribute table from the id rows and columns the parsers interned.

    Duplicate (entity, attribute type) rows keep the last occurrence, and
    their count is logged as a warning. Entities that appear only in the
    attribute rows are isolated nodes; they can still receive inner-node
    messages. The ``loaded:`` line times the load from ``start``, a
    ``time.perf_counter()`` reading (default: this call), so a caller that
    read and parsed the files counts that too.
    """
    start = time.perf_counter() if start is None else start
    entity_ids, type_ids, values = attributes
    last = ~repeated((entity_ids * len(types) + type_ids)[::-1])[::-1]  # no later row has its key
    duplicates = len(values) - int(last.sum())
    if duplicates:
        logger.warning("attribute file contained %d duplicate keys (last occurrence kept)", duplicates)
        entity_ids, type_ids, values = entity_ids[last], type_ids[last], values[last]
    graph = build_graph(entities, relations, triples)
    table = AttributeTable.build(graph.n_entities, types, entity_ids, type_ids, values)
    logger.info(
        "loaded: %d triples read, %d duplicates dropped, %d entities, %d relations, %d edges, "
        "%d attribute entries of %d types in %.3f s",
        len(triples),
        len(triples) - graph.n_edges,
        graph.n_entities,
        graph.n_relations,
        graph.n_edges,
        table.n_entries,
        table.n_types,
        time.perf_counter() - start,
    )
    return graph, table


def largest_remainder_counts(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Apportion ``n`` items to ``fractions`` by largest-remainder rounding.

    Ties go to the earlier bucket, so the assignment is deterministic.
    """
    quotas = [n * f for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def split_attributes(graph: KnowledgeGraph, attrs: AttributeTable, spec: SplitSpec) -> DatasetBundle:
    """Randomly partition attribute entries into train/dev/test.

    The partition is stratified per attribute type (largest-remainder
    rounding of the per-type counts) so every type is represented in each
    split whenever its count allows. TRAIN entries become OBSERVED, DEV and
    TEST entries become MISSING targets.
    """
    if attrs.n_entries == 0 and attrs.n_types > 0:
        raise DataError("attribute table has types but no entries")
    rng = np.random.default_rng([spec.seed, 0])
    split = np.empty(attrs.n_entries, dtype=np.int8)
    for attr in range(attrs.n_types):
        idxs = np.flatnonzero(attrs.attr_ids == attr)
        counts = largest_remainder_counts(len(idxs), spec.fractions)
        split[idxs[rng.permutation(len(idxs))]] = np.repeat(np.arange(len(Split)), counts)  # a shuffle, cut in split order
    status = np.where(split == int(Split.TRAIN), int(Status.OBSERVED), int(Status.MISSING))
    return DatasetBundle(graph=graph, attrs=attrs.with_status(status), split=split)


def subsample_observed(bundle: DatasetBundle, fraction: float, seed: int) -> DatasetBundle:
    """Keep a random per-type fraction of TRAIN entries as observed.

    ``ceil(fraction * n_train)`` entries per attribute type stay OBSERVED;
    the remaining train entries become MISSING targets (excluded from error
    reporting, which scores dev/test only). Dev/test entries stay MISSING.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"observed fraction must be in (0, 1], got {fraction!r}")
    attrs = bundle.attrs
    rng = np.random.default_rng([seed, 1])
    status = np.full(attrs.n_entries, int(Status.MISSING), dtype=np.int8)
    for attr in range(attrs.n_types):
        train = np.flatnonzero((attrs.attr_ids == attr) & (bundle.split == int(Split.TRAIN)))
        keep = min(len(train), math.ceil(fraction * len(train)))
        if keep < len(train):
            chosen = train[rng.permutation(len(train))[:keep]]
        else:
            chosen = train
        status[chosen] = int(Status.OBSERVED)
    return DatasetBundle(graph=bundle.graph, attrs=attrs.with_status(status), split=bundle.split)


# -- split manifest ----------------------------------------------------------


def write_split_manifest(path: str | os.PathLike, bundle: DatasetBundle) -> None:
    """Write ``entity<TAB>attribute_type<TAB>{train|dev|test}`` lines."""
    attrs = bundle.attrs
    labels = [bundle.graph.entities.labels_of(attrs.entity_ids), attrs.types.labels_of(attrs.attr_ids)]
    write_table(path, [*labels, list(map(_SPLIT_NAMES.__getitem__, bundle.split.tolist()))])


def _manifest_columns(table: Table) -> Table:
    entities, types, names = table.columns
    codes = list(map(_SPLIT_CODES.get, names))
    if None in codes:
        row = codes.index(None)
        raise ParseError(f"unknown split label {names[row]!r}", table.line(row))
    return Table([entities, types, np.array(codes, dtype=np.int8)])


def read_split_manifest(source: IO) -> Table:
    """Entity, attribute type and ``Split`` code columns of a manifest stream."""
    return read_table(source, 3, _manifest_columns)


def apply_split_manifest(graph: KnowledgeGraph, attrs: AttributeTable, manifest: Table) -> DatasetBundle:
    """Rebuild a bundle from a previously written manifest.

    The manifest must label every attribute entry exactly once. The first
    unknown or repeated row in manifest order raises a ParseError.
    """
    entities, types, codes = manifest.columns
    idx = attrs.lookup(graph.entities.ids(entities), attrs.types.ids(types))
    unknown = idx < 0
    bad = np.flatnonzero(unknown | repeated(idx))
    if bad.size:
        row = bad[0]
        if unknown[row]:
            raise ParseError(f"manifest row ({entities[row]!r}, {types[row]!r}) not in the attribute table", manifest.line(row))
        raise ParseError(f"manifest labels ({entities[row]!r}, {types[row]!r}) twice", manifest.line(row))
    if len(manifest) < attrs.n_entries:
        raise DataError(f"manifest leaves {attrs.n_entries - len(manifest)} attribute entries unlabeled")
    split = np.empty(attrs.n_entries, dtype=np.int8)
    split[idx] = codes
    status = np.where(split == int(Split.TRAIN), int(Status.OBSERVED), int(Status.MISSING))
    return DatasetBundle(graph=graph, attrs=attrs.with_status(status), split=split)
