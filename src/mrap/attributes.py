"""Sparse numeric node-attribute storage with observation status.

Entries are kept in parallel arrays sorted by (entity id, attribute id).
The ``(entity, attribute) -> entry`` dict and the per-entity entry lists are
built on first use; the pipeline itself works on the arrays. Values stay in
their native units; regression slopes and intercepts absorb scale and
offset, so no normalization happens here. For MISSING entries the stored
value is the held-out ground truth, read only by evaluation code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DataError
from .graph import Vocabulary


# one (entity id, attribute id, value) entry, as AttributeTable.build reads it
_ENTRY = np.dtype([("entity", np.int64), ("attr", np.int64), ("value", np.float64)])


class Status(IntEnum):
    OBSERVED = 0
    MISSING = 1
    IMPUTED = 2


@dataclass
class AttributeTable:
    """Immutable (entity, attribute-type) -> value map with per-entry status."""

    n_entities: int
    types: Vocabulary
    entity_ids: np.ndarray  # int64, sorted by (entity, attr)
    attr_ids: np.ndarray  # int64
    values: np.ndarray  # float64, native units
    status: np.ndarray  # int8 Status codes
    _stats: dict[int, tuple[int, float, float, float]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(
        cls,
        n_entities: int,
        types: Vocabulary,
        entries: Iterable[tuple[int, int, float]],
        status: Status = Status.OBSERVED,
    ) -> "AttributeTable":
        rows = np.fromiter(entries, dtype=_ENTRY)
        entity_ids, attr_ids, values = rows["entity"], rows["attr"], rows["value"]
        if entity_ids.size and not (0 <= entity_ids.min() and entity_ids.max() < n_entities):
            raise ValueError(f"entry entity id out of range [0, {n_entities})")
        order = np.lexsort((attr_ids, entity_ids))
        entity_ids, attr_ids, values = entity_ids[order], attr_ids[order], values[order]
        # once sorted, a repeated (entity, attribute) key equals its predecessor
        if ((entity_ids[1:] == entity_ids[:-1]) & (attr_ids[1:] == attr_ids[:-1])).any():
            raise DataError("duplicate (entity, attribute) entry")
        return cls(
            n_entities=n_entities,
            types=types,
            entity_ids=entity_ids,
            attr_ids=attr_ids,
            values=values,
            status=np.full(len(values), int(status), dtype=np.int8),
        )

    @property
    def n_entries(self) -> int:
        return len(self.values)

    @property
    def n_types(self) -> int:
        return len(self.types)

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """``(entity id, attribute id) -> entry index``."""
        keys = zip(self.entity_ids.tolist(), self.attr_ids.tolist())
        return {key: i for i, key in enumerate(keys)}

    @cached_property
    def per_entity(self) -> list[list[int]]:
        """Entry indices per entity id, ascending by attribute id."""
        bounds = np.searchsorted(self.entity_ids, np.arange(self.n_entities + 1)).tolist()
        return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def entries_of(self, entity: int) -> list[int]:
        """Entry indices at ``entity``, ascending by attribute id."""
        return self.per_entity[entity]

    def with_status(self, status: np.ndarray) -> "AttributeTable":
        """A copy of the table with a replacement status array."""
        status = np.asarray(status, dtype=np.int8)
        if status.shape != self.status.shape:
            raise ValueError("status array shape mismatch")
        return AttributeTable(
            n_entities=self.n_entities,
            types=self.types,
            entity_ids=self.entity_ids,
            attr_ids=self.attr_ids,
            values=self.values,
            status=status.copy(),
        )

    # -- per-type statistics over OBSERVED entries ---------------------------

    def observed_values(self, attr: int) -> np.ndarray:
        mask = (self.attr_ids == attr) & (self.status == Status.OBSERVED)
        return self.values[mask]

    def _observed_stats(self, attr: int) -> tuple[int, float, float, float]:
        cached = self._stats.get(attr)
        if cached is None:
            vals = self.observed_values(attr)
            if vals.size == 0:
                raise DataError(
                    f"attribute type {self.types.label(attr)!r} has no observed entries"
                )
            cached = (vals.size, float(vals.min()), float(vals.max()), float(vals.mean()))
            self._stats[attr] = cached
        return cached

    def value_range(self, attr: int) -> float:
        """max - min over observed values of the type; raises DataError when none is observed."""
        _, lo, hi, _ = self._observed_stats(attr)
        return hi - lo

    def mean_value(self, attr: int) -> float:
        return self._observed_stats(attr)[3]

    def type_summary(self, attr: int) -> tuple[int, float, float, float]:
        """(count, min, max, mean) over observed entries of the type."""
        return self._observed_stats(attr)
