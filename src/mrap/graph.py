"""In-memory multi-relational graph stored as arrays.

Entity and relation labels are interned to dense integer ids. The edges are
one sorted ``(n_edges, 3)`` int64 array of ``(head, relation, tail)`` rows;
each edge is traversed FORWARD from head to tail and REVERSE from tail to
head. The graph is immutable after construction and safe for concurrent
reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np


class Vocabulary:
    """Bijection between string labels and dense ids 0..n-1."""

    __slots__ = ("_labels", "_ids")

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.intern(labels)

    def intern(self, labels: Iterable[str]) -> list[int]:
        """Intern every label in order and return their ids; new labels get the next ids in first-seen order."""
        ids = self._ids
        known = len(ids)
        out = [ids.setdefault(label, len(ids)) for label in labels]
        self._labels.extend(islice(ids, known, None))
        return out

    def id(self, label: str) -> int:
        return self._ids[label]

    def get(self, label: str, default: int | None = None) -> int | None:
        return self._ids.get(label, default)

    def label(self, idx: int) -> str:
        return self._labels[idx]

    def ids(self, labels: Sequence[str]) -> np.ndarray:
        """The id of each label, or -1 where the label is not interned."""
        return np.fromiter(map(self._ids.get, labels, repeat(-1)), dtype=np.int64, count=len(labels))

    def labels_of(self, ids: np.ndarray) -> list[str]:
        """The label of each id."""
        return list(map(self._labels.__getitem__, np.asarray(ids).tolist()))

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} labels)"


class Direction(IntEnum):
    """Traversal direction of a relation relative to the stored edge."""

    FORWARD = 0
    REVERSE = 1

    @property
    def flipped(self) -> "Direction":
        return Direction.REVERSE if self is Direction.FORWARD else Direction.FORWARD


@dataclass
class KnowledgeGraph:
    """Deduplicated typed edges, sorted.

    ``edge_array`` holds one ``(head, relation, tail)`` int64 row per distinct
    edge, sorted by head, then relation, then tail; it is the only edge
    storage.
    """

    entities: Vocabulary
    relations: Vocabulary
    edge_array: np.ndarray  # int64, shape (n_edges, 3)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_edges(self) -> int:
        return len(self.edge_array)


def build_graph(
    heads: Sequence[str],
    relations: Sequence[str],
    tails: Sequence[str],
    extra_entities: Iterable[str] = (),
) -> KnowledgeGraph:
    """Build a graph from the label columns of its triples.

    Entity ids follow first appearance in (head, tail) file order, relation
    ids first appearance in file order. Duplicate (head, relation, tail)
    triples are stored once. Entities listed in ``extra_entities`` (e.g.
    nodes that only carry attributes) are interned as isolated nodes after
    all triple entities.
    """
    entity_vocab = Vocabulary()
    relation_vocab = Vocabulary()
    ends = [""] * (2 * len(heads))
    ends[0::2] = heads
    ends[1::2] = tails
    ends = np.fromiter(entity_vocab.intern(ends), dtype=np.int64, count=len(ends))
    rels = np.fromiter(relation_vocab.intern(relations), dtype=np.int64, count=len(relations))
    if "" in entity_vocab or "" in relation_vocab:
        row = min(column.index("") for column in (heads, relations, tails) if "" in column)
        raise ValueError(f"triple with empty field: {(heads[row], relations[row], tails[row])!r}")
    head_ids, tail_ids = ends[0::2], ends[1::2]
    codes = edge_codes(head_ids, rels, tail_ids, len(entity_vocab), len(relation_vocab))
    entity_vocab.intern(extra_entities)

    order = np.argsort(codes)
    # once sorted, a duplicate triple's code equals its predecessor's
    order = np.append(order[:1], order[1:][np.diff(codes[order]) != 0])
    edges = np.stack([head_ids[order], rels[order], tail_ids[order]], axis=1)
    return KnowledgeGraph(entities=entity_vocab, relations=relation_vocab, edge_array=edges)


def edge_codes(heads, relations, tails, n_entities: int, n_relations: int) -> np.ndarray:
    """The int64 code ``(head * n_relations + relation) * n_entities + tail`` per triple, sorting as rows do."""
    if n_entities * n_entities * n_relations > 2**63:  # the largest code is n_entities² · n_relations − 1
        raise ValueError(f"{n_entities} entities and {n_relations} relations overflow the int64 edge code")
    return (heads * n_relations + relations) * n_entities + tails
