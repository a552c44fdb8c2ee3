"""In-memory multi-relational graph with oriented adjacency.

Entity and relation labels are interned to dense integer ids. Every stored
edge ``(head, relation, tail)`` yields two adjacency entries: the tail sees
``(head, relation, FORWARD)`` and the head sees ``(tail, relation, REVERSE)``,
so a node can enumerate incident edges in both traversal directions. The
edges are stored only as one sorted ``(n_edges, 3)`` int64 array; the
adjacency lists are derived from it on first use. The graph is immutable
after construction and safe for concurrent reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np


class Vocabulary:
    """Bijection between string labels and dense ids 0..n-1."""

    __slots__ = ("_labels", "_ids")

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.intern(labels)

    def add(self, label: str) -> int:
        """Intern a label and return its id (existing or freshly assigned)."""
        idx = self._ids.get(label)
        if idx is None:
            idx = len(self._labels)
            self._ids[label] = idx
            self._labels.append(label)
        return idx

    def intern(self, labels: Iterable[str]) -> list[int]:
        """Intern every label in order and return their ids.

        New labels get ids in first-seen order, exactly as repeated
        :meth:`add` calls would assign them.
        """
        ids = self._ids
        known = len(ids)
        out = [ids.setdefault(label, len(ids)) for label in labels]
        self._labels.extend(islice(ids, known, None))
        return out

    def id(self, label: str) -> int:
        return self._ids[label]

    def get(self, label: str) -> int | None:
        return self._ids.get(label)

    def label(self, idx: int) -> str:
        return self._labels[idx]

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


class OrientedRelation(NamedTuple):
    """A relation id together with the direction it is traversed in."""

    relation: int
    direction: Direction

    @property
    def flipped(self) -> "OrientedRelation":
        return OrientedRelation(self.relation, self.direction.flipped)


@dataclass
class KnowledgeGraph:
    """Deduplicated typed edges, sorted, plus per-entity oriented adjacency.

    ``edge_array`` holds one ``(head, relation, tail)`` int64 row per distinct
    edge, sorted by head, then relation, then tail; it is the only edge
    storage. ``adjacency[v]`` lists ``(neighbor, OrientedRelation)`` pairs
    sorted by (neighbor id, relation id, direction). It is built from
    ``edge_array`` on first use; the pipeline itself works on the array.
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

    @cached_property
    def adjacency(self) -> list[list[tuple[int, OrientedRelation]]]:
        adjacency: list[list[tuple[int, OrientedRelation]]] = [[] for _ in range(self.n_entities)]
        for h, r, t in self.edge_array.tolist():
            # Self-loops deliberately get one entry per direction on the same node.
            adjacency[t].append((h, OrientedRelation(r, Direction.FORWARD)))
            adjacency[h].append((t, OrientedRelation(r, Direction.REVERSE)))
        for entries in adjacency:
            entries.sort(key=lambda item: (item[0], item[1].relation, item[1].direction))
        return adjacency

    def neighbors(self, v: int) -> list[tuple[int, OrientedRelation]]:
        """All incident entries of ``v``, both orientations, in sorted order."""
        if not 0 <= v < self.n_entities:
            raise ValueError(f"entity id {v} out of range [0, {self.n_entities})")
        return self.adjacency[v]

    def triples(self) -> list[tuple[str, str, str]]:
        """The stored edge set as labeled triples, in edge order."""
        ent, rel = self.entities, self.relations
        return [(ent.label(h), rel.label(r), ent.label(t)) for h, r, t in self.edge_array.tolist()]


def build_graph(
    triples: Iterable[tuple[str, str, str]],
    extra_entities: Iterable[str] = (),
) -> KnowledgeGraph:
    """Build a graph from labeled triples.

    Entity ids follow first appearance in (head, tail) file order, relation
    ids first appearance in file order. Duplicate (head, relation, tail)
    triples are stored once. Entities listed in ``extra_entities`` (e.g.
    nodes that only carry attributes) are interned as isolated nodes after
    all triple entities.
    """
    rows = list(triples)
    entities = Vocabulary()
    relations = Vocabulary()
    ends = entities.intern([label for head, _, tail in rows for label in (head, tail)])
    rels = relations.intern([relation for _, relation, _ in rows])
    if "" in entities or "" in relations:
        bad = next(row for row in rows if not all(row))
        raise ValueError(f"triple with empty field: {bad!r}")
    entities.intern(extra_entities)

    columns = np.array([ends[0::2], rels, ends[1::2]], dtype=np.int64)
    edges = columns.T[np.lexsort(columns[::-1])]
    # once sorted, a duplicate row equals its predecessor
    first = np.ones(len(edges), dtype=bool)
    first[1:] = (edges[1:] != edges[:-1]).any(axis=1)
    return KnowledgeGraph(entities=entities, relations=relations, edge_array=edges[first])
