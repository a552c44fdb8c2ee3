"""Parsing of triple/attribute files, split assignment, and subsampling.

File formats (UTF-8, tab separated):

* triple file:     ``head<TAB>relation<TAB>tail``
* attribute file:  ``entity<TAB>attribute_type<TAB>float_value``
* split manifest:  ``entity<TAB>attribute_type<TAB>{train|dev|test}``

All three go through :mod:`mrap.codec`, which sets the line rules (``#``
and blank lines skipped, any line end) and names the first bad line in a
ParseError: a wrong field count, a byte that is not UTF-8, an empty label,
a value that is not a finite float, an unknown split label. Parsers return
columns, which :func:`load_dataset` interns without per-row tuples. All
random assignments are driven by seeded generators and reproduce
byte-identical results for a given seed.
"""
from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import IO

import numpy as np

from .attributes import AttributeTable, Status
from .codec import Table, parse_floats, read_table, repeated, write_table
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


def _triple_columns(table: Table) -> Table:
    empty = [column.index("") for column in table.columns if "" in column]
    if empty:
        raise ParseError("empty field in triple", table.line(min(empty)))
    return table


def parse_triples(source: IO) -> Table:
    """Parse a triple stream into head, relation and tail columns in file order."""
    return read_table(source, 3, _triple_columns)


def _attribute_columns(table: Table) -> tuple[Table, int]:
    entities, types, texts = table.columns
    empty = min((column.index("") for column in (entities, types) if "" in column), default=len(table))
    values = parse_floats(table, texts[:empty], "unparseable float {!r}")
    if empty < len(table):
        raise ParseError("empty field in attribute row", table.line(empty))
    last = dict(zip(zip(entities, types), range(len(table))))  # first-seen order, last row
    duplicates = len(table) - len(last)
    if duplicates:
        logger.warning("attribute file contained %d duplicate keys (last occurrence kept)", duplicates)
        entities, types = [e for e, _ in last], [a for _, a in last]
        values = values[np.fromiter(last.values(), dtype=np.int64, count=len(last))]
    return Table([entities, types, values]), duplicates


def parse_attributes(source: IO) -> tuple[Table, int]:
    """Parse an attribute stream into entity, attribute type and value columns.

    Duplicate (entity, attribute_type) keys keep the last occurrence; the
    number of overwritten rows is returned alongside the deduplicated rows
    (first-seen key order).
    """
    return read_table(source, 3, _attribute_columns)


def load_dataset(triples: Table, attributes: Table) -> tuple[KnowledgeGraph, AttributeTable]:
    """Assemble graph and attribute table from parsed triple and attribute columns.

    Entities that appear only in the attribute rows are retained as isolated
    nodes; they can still receive inner-node messages.
    """
    start = time.perf_counter()
    entities, type_labels, values = attributes.columns
    graph = build_graph(*triples.columns, extra_entities=entities)
    types = Vocabulary()
    table = AttributeTable.build(
        graph.n_entities, types, graph.entities.ids(entities), types.intern(type_labels), values
    )
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
        perm = rng.permutation(len(idxs))
        shuffled = idxs[perm]
        offset = 0
        for code, count in zip(Split, counts):
            split[shuffled[offset : offset + count]] = int(code)
            offset += count
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
