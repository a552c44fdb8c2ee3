"""Parsing of triple/attribute files, split assignment, and subsampling.

File formats (UTF-8, LF line endings, tab separated):

* triple file:     ``head<TAB>relation<TAB>tail``
* attribute file:  ``entity<TAB>attribute_type<TAB>float_value``
* split manifest:  ``entity<TAB>attribute_type<TAB>{train|dev|test}``

Blank lines and lines starting with ``#`` are skipped in the two input
formats. All random assignments are driven by seeded generators and
reproduce byte-identical results for a given seed.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import IO, Iterable

import numpy as np

from .attributes import AttributeTable, Status
from .errors import DataError, ParseError
from .graph import KnowledgeGraph, Vocabulary, build_graph

logger = logging.getLogger(__name__)

_SPLIT_NAMES = ("train", "dev", "test")


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


def parse_triples(lines: Iterable[str] | IO[str]) -> list[tuple[str, str, str]]:
    """Parse a triple stream into (head, relation, tail) tuples in file order."""
    triples = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", line_no)
        head, relation, tail = fields
        if not head or not relation or not tail:
            raise ParseError("empty field in triple", line_no)
        triples.append((head, relation, tail))
    return triples


def parse_attributes(lines: Iterable[str] | IO[str]) -> tuple[list[tuple[str, str, float]], int]:
    """Parse an attribute stream into (entity, attribute_type, value) rows.

    Duplicate (entity, attribute_type) keys keep the last occurrence; the
    number of overwritten rows is returned alongside the deduplicated rows
    (first-seen key order).
    """
    rows: dict[tuple[str, str], float] = {}
    duplicates = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", line_no)
        entity, attr_type, value_text = fields
        if not entity or not attr_type:
            raise ParseError("empty field in attribute row", line_no)
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"unparseable float {value_text!r}", line_no) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {value_text!r}", line_no)
        key = (entity, attr_type)
        if key in rows:
            duplicates += 1
        rows[key] = value
    if duplicates:
        logger.warning("attribute file contained %d duplicate keys (last occurrence kept)", duplicates)
    return [(e, a, v) for (e, a), v in rows.items()], duplicates


def load_dataset(
    triples: Iterable[tuple[str, str, str]],
    attr_rows: Iterable[tuple[str, str, float]],
) -> tuple[KnowledgeGraph, AttributeTable]:
    """Assemble graph and attribute table from parsed rows.

    Entities that appear only in the attribute rows are retained as isolated
    nodes; they can still receive inner-node messages.
    """
    start = time.perf_counter()
    triples = list(triples)
    attr_rows = list(attr_rows)
    attributed = [e for e, _, _ in attr_rows]
    graph = build_graph(triples, extra_entities=attributed)
    types = Vocabulary()
    entries = zip(
        graph.entities.intern(attributed),
        types.intern([a for _, a, _ in attr_rows]),
        [v for _, _, v in attr_rows],
    )
    table = AttributeTable.build(graph.n_entities, types, entries)
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


def write_split_manifest(fh: IO[str], bundle: DatasetBundle) -> None:
    """Write ``entity<TAB>attribute_type<TAB>{train|dev|test}`` lines."""
    entities = bundle.graph.entities
    types = bundle.attrs.types
    for i in range(bundle.attrs.n_entries):
        entity = entities.label(int(bundle.attrs.entity_ids[i]))
        attr = types.label(int(bundle.attrs.attr_ids[i]))
        fh.write(f"{entity}\t{attr}\t{_SPLIT_NAMES[bundle.split[i]]}\n")


def read_split_manifest(lines: Iterable[str] | IO[str]) -> list[tuple[str, str, Split]]:
    rows = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", line_no)
        entity, attr, name = fields
        if name not in _SPLIT_NAMES:
            raise ParseError(f"unknown split label {name!r}", line_no)
        rows.append((entity, attr, Split(_SPLIT_NAMES.index(name))))
    return rows


def apply_split_manifest(
    graph: KnowledgeGraph,
    attrs: AttributeTable,
    manifest: Iterable[tuple[str, str, Split]],
) -> DatasetBundle:
    """Rebuild a bundle from a previously written manifest.

    The manifest must label every attribute entry exactly once.
    """
    split = np.full(attrs.n_entries, -1, dtype=np.int8)
    for entity, attr, code in manifest:
        eid = graph.entities.get(entity)
        aid = attrs.types.get(attr)
        idx = None if eid is None or aid is None else attrs.index.get((eid, aid))
        if idx is None:
            raise DataError(f"manifest row ({entity!r}, {attr!r}) not in the attribute table")
        if split[idx] != -1:
            raise DataError(f"manifest labels ({entity!r}, {attr!r}) twice")
        split[idx] = int(code)
    if (split == -1).any():
        missing = int((split == -1).sum())
        raise DataError(f"manifest leaves {missing} attribute entries unlabeled")
    status = np.where(split == int(Split.TRAIN), int(Status.OBSERVED), int(Status.MISSING))
    return DatasetBundle(graph=graph, attrs=attrs.with_status(status), split=split)
