"""Sparse numeric node-attribute storage with observation status.

Entries are kept in parallel arrays sorted by (entity id, attribute id), so
the codes ``entity * n_types + attr`` ascend and an entry is found by binary
search on them. Values stay in their native units; regression slopes and
intercepts absorb scale and offset, so no normalization happens here. For
MISSING entries the stored value is the held-out ground truth, read only by
evaluation code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

from .errors import DataError
from .graph import Vocabulary


class Status(IntEnum):
    OBSERVED = 0
    MISSING = 1


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
        entity_ids: Sequence[int],
        attr_ids: Sequence[int],
        values: Sequence[float],
    ) -> "AttributeTable":
        """The table of OBSERVED entries given column-wise, in any order."""
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        attr_ids = np.asarray(attr_ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        for name, ids, bound in (("entity", entity_ids, n_entities), ("attribute", attr_ids, len(types))):
            if ids.size and not (0 <= ids.min() and ids.max() < bound):
                raise ValueError(f"entry {name} id out of range [0, {bound})")
        codes = entity_ids * len(types) + attr_ids  # the codes lookup searches
        order = np.argsort(codes)
        # once sorted, a repeated (entity, attribute) code equals its predecessor
        if (np.diff(codes[order]) == 0).any():
            raise DataError("duplicate (entity, attribute) entry")
        entity_ids, attr_ids, values = entity_ids[order], attr_ids[order], values[order]
        return cls(
            n_entities=n_entities,
            types=types,
            entity_ids=entity_ids,
            attr_ids=attr_ids,
            values=values,
            status=np.full(len(values), int(Status.OBSERVED), dtype=np.int8),
        )

    @property
    def n_entries(self) -> int:
        return len(self.values)

    @property
    def n_types(self) -> int:
        return len(self.types)

    def lookup(self, entity_ids: np.ndarray, attr_ids: np.ndarray) -> np.ndarray:
        """Entry index of each ``(entity id, attribute id)`` pair, or -1 where there is none."""
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        attr_ids = np.asarray(attr_ids, dtype=np.int64)
        codes = self.entity_ids * self.n_types + self.attr_ids
        want = entity_ids * self.n_types + attr_ids
        idx = np.searchsorted(codes, want)
        # an attribute id out of range would alias another entity's code
        hit = (attr_ids >= 0) & (attr_ids < self.n_types) & (idx < len(codes))
        hit[hit] = codes[idx[hit]] == want[hit]
        return np.where(hit, idx, -1)

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
