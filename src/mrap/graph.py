"""In-memory multi-relational graph stored as arrays.

Entity and relation labels are interned to dense integer ids. The edges are
one sorted ``(n_edges, 3)`` int64 array of ``(head, relation, tail)`` rows;
each edge is traversed FORWARD from head to tail and REVERSE from tail to
head. The graph is immutable after construction and safe for concurrent
reads.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum
from itertools import count, islice, repeat
from typing import Iterable, Sequence

import numpy as np


class Vocabulary:
    """Bijection between string labels and dense ids 0..n-1."""

    __slots__ = ("_labels", "_ids")

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._ids: defaultdict[str, int] = defaultdict(None)  # a factory only while interning
        self.intern(labels)

    def intern(self, labels: Iterable[str]) -> list[int]:
        """Intern every label in order and return their ids; new labels get the next ids in first-seen order."""
        ids = self._ids
        known = len(ids)
        ids.default_factory = count(known).__next__  # a missing label takes the next id
        try:
            out = list(map(ids.__getitem__, labels))
        finally:
            ids.default_factory = None
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


class Direction(IntEnum):
    """Traversal direction of a relation relative to the stored edge."""

    FORWARD = 0
    REVERSE = 1


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


def build_graph(entities: Vocabulary, relations: Vocabulary, triples: np.ndarray) -> KnowledgeGraph:
    """Build a graph from the ``(head, relation, tail)`` id rows of its triples.

    The ids are those of the given vocabularies, which the parse fills in
    first-appearance order. Duplicate triples are stored once; an entity
    that no triple names (e.g. a node that only carries attributes) is an
    isolated node.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if ((triples < 0) | (triples >= [len(entities), len(relations), len(entities)])).any():
        raise ValueError("triple id out of range")
    codes = edge_codes(*triples.T, len(entities), len(relations))
    order = np.argsort(codes)
    # once sorted, a duplicate triple's code equals its predecessor's
    order = np.append(order[:1], order[1:][np.diff(codes[order]) != 0])
    return KnowledgeGraph(entities=entities, relations=relations, edge_array=triples[order])


def edge_codes(heads, relations, tails, n_entities: int, n_relations: int) -> np.ndarray:
    """The int64 code ``(head * n_relations + relation) * n_entities + tail`` per triple, sorting as rows do."""
    if n_entities * n_entities * n_relations > 2**63:  # the largest code is n_entities² · n_relations − 1
        raise ValueError(f"{n_entities} entities and {n_relations} relations overflow the int64 edge code")
    return (heads * n_relations + relations) * n_entities + tails
