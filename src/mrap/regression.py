"""Pairwise linear models per message path and the model registry.

For every (dependent attribute, independent attribute, oriented relation)
combination with enough observed training pairs, a simple linear regression
``y = eta * x + tau`` is fitted in closed form. The model weight is the
inverse of the residual error variance, so noisy models contribute little
during propagation. Reverse-direction models are never refitted: they are
derived analytically from the forward fit (eta' = 1/eta, tau' = -tau/eta,
w' = eta^2 / sigma^2), which keeps each forward/reverse pair consistent.

Within-node models between two attribute types of the same entity follow the
same scheme with the node set in place of the edge set; the canonical fit
direction regresses the higher attribute id on the lower one and the swapped
model is derived.

Every model key has one integer code, ``(kind * n_types + dep) * n_types +
indep``. A relational key has ``kind = 2 * relation + direction``, a
within-node key ``kind = 2 * span``, where ``span`` is the number of
relations. Ascending codes list the relational keys by relation, direction,
dep and indep, then the within-node keys by dep and indep. The mirror of a
code, the key of its derived reverse, flips the direction bit of a
relational kind and swaps dep and indep. The fit, the model dump and the
propagation's model table all number models by this code.

A :class:`ModelRegistry` is a table: one row per model, with its code, its
parameters and its fit summary as columns. A model's id is its row, and the
library reads only the columns.

All keys are fitted in one grouped pass: the training pairs, sorted by code,
are summed per key with ``np.add.reduceat``. A key is rejected by the first
of these rules that applies, and tallied under its name: ``excluded`` (an
exclusion rule names the key), ``insufficient_support`` (fewer pairs than
the minimum), ``degenerate_regressor`` (the independent values are all
equal), ``low_r2`` (r2 below the minimum), ``non_invertible_slope`` (the
slope is too close to zero to derive the reverse, as the exact slope 0 of a
key whose dependent values are all equal is), ``non_finite_fit`` (the fit
with its floored residual variance, or its derived reverse, has a number
that is not finite or a weight that is not positive). An admitted fit
enters with its derived reverse: every registry is closed under the
mirror, and the propagation's plan refuses one that is not. The model dump
holds only the fits; its reader derives each reverse and weight as the fit
does, and refuses a row that ``non_finite_fit`` would reject.

The module also plans the message paths of the propagation from the edge
and entry arrays: per attribute entry, the number of (source entry, model)
pairs that predict it. :func:`count_paths` is the total of that plan.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import IO, Iterable, NamedTuple

import numpy as np

from .attributes import AttributeTable, Status
from .codec import Table, parse_prefix, read_table, repeated, write_table
from .errors import ConfigError, ParseError
from .graph import Direction, KnowledgeGraph
from .ingest import DatasetBundle

logger = logging.getLogger(__name__)

INNER_LABEL = "INNER"
_DIRECTION_NAMES = {Direction.FORWARD: "forward", Direction.REVERSE: "reverse"}
VAR_FLOOR_SCALE = 1e-12  # residual variance floor, times the squared range of the dep type
ETA_MIN_SCALE = 1e-9  # smallest invertible slope, times the dep range over the indep range


@dataclass(frozen=True)
class PathKey:
    """Identifies one message path family.

    Relational keys predict attribute ``dep`` at a node from attribute
    ``indep`` at a neighbor reached over ``relation`` in ``direction``.
    Within-node keys (``relation is None``) predict ``dep`` from another
    attribute ``indep`` of the same node.
    """

    dep: int
    indep: int
    relation: int | None = None
    direction: Direction | None = None


@dataclass(frozen=True)
class FitSummary:
    support: int
    r2: float
    derived_reverse: bool = False


@dataclass(frozen=True)
class RegressionModel:
    """Fitted (or derived) affine predictor with inverse-variance weight."""

    key: PathKey
    eta: float
    tau: float
    sigma2: float
    weight: float
    fit: FitSummary


@dataclass(frozen=True)
class AdmissionConfig:
    """Filters deciding which fitted models enter the registry.

    ``exclusions`` holds (attr_a, attr_b, link) label tuples; ``link`` is a
    relation label, ``"INNER"`` (the within-node link, and a relation of
    that label if there is one), or None for any link. The attribute pair
    is unordered: excluding (latitude, longitude) removes both prediction
    directions.
    """

    min_support: int = 5
    r2_min: float = 0.0
    exclusions: tuple[tuple[str, str, str | None], ...] = ()

    def __post_init__(self):
        if self.min_support < 2:
            raise ValueError("min_support must be at least 2")
        if not 0.0 <= self.r2_min <= 1.0:
            raise ValueError("r2_min must lie in [0, 1]")

    @staticmethod
    def parse_exclusions(specs: Iterable[str]) -> tuple[tuple[str, str, str | None], ...]:
        """Parse ``"attrA,attrB[,link]"`` strings into ``(attrA, attrB, link or None)`` tuples."""
        rules = []
        for spec in specs:
            parts = [p.strip() for p in spec.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"exclusion must be 'attrA,attrB[,link]', got {spec!r}")
            a, b, link = parts if len(parts) == 3 else (*parts, None)
            if not a or not b:
                raise ValueError(f"exclusion with empty attribute in {spec!r}")
            rules.append((a, b, link))
        return tuple(rules)

    def excluded_ids(self, graph: KnowledgeGraph, attrs: AttributeTable) -> set[tuple[int, int, int | None]]:
        """The rules as (type id, type id, link): type ids ascending, the link a relation id, -1 for INNER or None.

        The link ``INNER`` names the within-node link and, when the data has
        a relation labelled ``INNER``, that relation too: such a rule gives
        both. A rule naming a label that the data does not have raises a
        ConfigError.
        """
        rules = set()
        for rule in self.exclusions:
            a, b, link = rule
            named = [("attribute type", attrs.types, a), ("attribute type", attrs.types, b)]
            if link not in (None, INNER_LABEL):
                named.append(("relation", graph.relations, link))
            for kind, vocab, label in named:
                if vocab.get(label) is None:
                    raise ConfigError(f"exclusion {','.join(filter(None, rule))!r}: the data has no {kind} {label!r}")
            pair = sorted((attrs.types.id(a), attrs.types.id(b)))
            if link is None or link == INNER_LABEL:
                rules.add((*pair, None if link is None else -1))
            if link in graph.relations:
                rules.add((*pair, graph.relations.id(link)))
        return rules


_COLUMNS = ("codes", "eta", "tau", "sigma2", "weight", "support", "r2", "derived")  # a registry's per-model arrays


@dataclass(frozen=True, eq=False)
class ModelRegistry:
    """Admitted models as columns, one row per model in registry order.

    ``codes`` holds each model's key code (see the module docstring) under
    ``span`` and ``n_types``; the other columns hold its parameters and fit
    summary, ``derived`` marking a derived reverse. ``models`` is a view of
    the rows as ``RegressionModel`` objects keyed by ``PathKey``, built on
    first read for tests and the benchmark's observer; no library code reads it.
    """

    codes: np.ndarray  # int64
    eta: np.ndarray
    tau: np.ndarray
    sigma2: np.ndarray
    weight: np.ndarray
    support: np.ndarray  # int64
    r2: np.ndarray
    derived: np.ndarray  # bool
    span: int
    n_types: int
    rejections: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def shape(self) -> tuple[int, int, int]:
        """The (kind, dep, indep) shape of the codes: ``np.unravel_index(codes, shape)`` splits them."""
        return 2 * self.span + 1, self.n_types, self.n_types

    def take(self, keep: np.ndarray) -> "ModelRegistry":
        """The registry of the models that the boolean mask ``keep`` selects, in registry order."""
        return ModelRegistry(*(getattr(self, name)[keep] for name in _COLUMNS), self.span, self.n_types)

    @cached_property
    def models(self) -> dict[PathKey, RegressionModel]:
        return _models(self)


# -- the edge x entry join ---------------------------------------------------------


def runs(start: np.ndarray | int, length: np.ndarray) -> np.ndarray:
    """The indices ``start[r]:start[r] + length[r]`` of every run ``r``, concatenated: with ``start`` 0, positions within runs."""
    return np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)


class EntryIndex(NamedTuple):
    """CSR index of attribute entries per entity.

    ``entries[starts[e]:starts[e] + counts[e]]`` are the entry indices of
    entity ``e``, ascending by attribute id.
    """

    entries: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, attrs: AttributeTable, n_entities: int, mask: np.ndarray | None = None) -> "EntryIndex":
        """Index every entry, or only those selected by the boolean ``mask``."""
        entries = np.arange(attrs.n_entries) if mask is None else np.flatnonzero(mask)
        counts = np.bincount(attrs.entity_ids[entries], minlength=n_entities)
        return cls(entries, np.cumsum(counts) - counts, counts)

    def edge_pairs(self, graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edge, head entry, tail entry) for every entry pair across every edge.

        Pairs come edge by edge in stored edge order, tail entries major.
        """
        head, tail = graph.edge_array[:, 0], graph.edge_array[:, 2]
        n_head = self.counts[head]
        n_pairs = n_head * self.counts[tail]
        edge = np.repeat(np.arange(n_pairs.size), n_pairs)
        i_tail, i_head = np.divmod(runs(0, n_pairs), n_head[edge])
        return (
            edge,
            self.entries[self.starts[head[edge]] + i_head],
            self.entries[self.starts[tail[edge]] + i_tail],
        )

    def node_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) for every ordered pair of distinct entries of one entity.

        Pairs come entity by entity in id order, first entries major.
        """
        n_pairs = self.counts * self.counts
        entity = np.repeat(np.arange(n_pairs.size), n_pairs)
        i, j = np.divmod(runs(0, n_pairs), self.counts[entity])
        keep = i != j
        base = self.starts[entity[keep]]
        return self.entries[base + i[keep]], self.entries[base + j[keep]]


def _code(kind: np.ndarray, dep: np.ndarray, indep: np.ndarray, n_types: int) -> np.ndarray:
    """The model code of each (kind, dep, indep) (see the module docstring); ``np.unravel_index`` inverts it."""
    return (kind * n_types + dep) * n_types + indep


def _mirror(codes: np.ndarray, span: int, n_types: int) -> np.ndarray:
    """The code of each key's opposite-direction key: a relational kind's direction bit flips, dep and indep swap."""
    kind, dep, indep = np.unravel_index(codes, (2 * span + 1, n_types, n_types))
    return _code(np.where(kind < 2 * span, kind ^ 1, kind), indep, dep, n_types)


def _models(registry: ModelRegistry) -> dict[PathKey, RegressionModel]:
    """The models of the registry as objects keyed by path, in registry order."""
    kinds, deps, indeps = (a.tolist() for a in np.unravel_index(registry.codes, registry.shape))
    columns = (getattr(registry, name).tolist() for name in _COLUMNS[1:])
    directions, inner = tuple(Direction), 2 * registry.span
    models: dict[PathKey, RegressionModel] = {}
    for kind, dep, indep, eta, tau, sigma2, weight, support, r2, derived in zip(kinds, deps, indeps, *columns):
        key = PathKey(dep, indep) if kind == inner else PathKey(dep, indep, kind >> 1, directions[kind & 1])
        models[key] = RegressionModel(key, eta, tau, sigma2, weight, FitSummary(support, r2, derived))
    return models


_BYTES = np.arange(256, dtype=np.uint8)
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits per byte


class Incidences(NamedTuple):
    """Every way a message reaches an entity, in message order, with the registry's models.

    Each edge is one forward incidence at its tail and one reverse incidence
    at its head; each entity has one inner incidence with itself. Sorted by
    target entity, then stored edge, forward first, inner last, they give a
    target entry's messages in order, each incidence's by ascending source
    entry, which is ascending source type.
    """

    src: np.ndarray  # source entity per incidence
    kind: np.ndarray  # 2 relation (forward), 2 relation + 1 (reverse) or 2 span (inner)
    first: np.ndarray  # per entity, plus one past the last: its first incidence
    entries: np.ndarray  # per entity, plus one past the last: its first entry
    model: np.ndarray  # (kind, dep, indep), the model code -> int64 model id (its registry row), -1 where there is none


def incidences(graph: KnowledgeGraph, registry: ModelRegistry, attrs: AttributeTable) -> Incidences:
    """The incidences of the graph, with every model of the registry active; a model without its mirror raises a ValueError."""
    n_types, n_entities = attrs.n_types, graph.n_entities
    span = max(graph.n_relations, registry.span)
    kind, dep, indep = np.unravel_index(registry.codes, registry.shape)  # coded again under the graph's shape
    codes = _code(np.where(kind < 2 * registry.span, kind, 2 * span), dep, indep, n_types)
    lonely = np.flatnonzero(~np.isin(_mirror(codes, span, n_types), codes))
    if lonely.size:
        i = lonely[0]
        raise ValueError(f"the registry has no mirror for its model (kind, dep, indep) = ({kind[i]}, {dep[i]}, {indep[i]})")
    model = np.full((2 * span + 1) * n_types * n_types, -1, dtype=np.int64)
    model[codes] = np.arange(codes.size)
    model = model.reshape(2 * span + 1, n_types, n_types)

    head, relation, tail = graph.edge_array.T
    # edge by edge, forward into the tail, then reverse into the head; inner last
    tgt = np.concatenate([np.column_stack([tail, head]).ravel(), np.arange(n_entities)])
    src = np.concatenate([np.column_stack([head, tail]).ravel(), np.arange(n_entities)])
    kind = np.concatenate([np.column_stack([2 * relation, 2 * relation + 1]).ravel(), np.full(n_entities, 2 * span)])
    order = np.arange(len(tgt))
    for shift in range(0, max(n_entities - 1, 1).bit_length(), 16):  # stable radix passes: no combined code
        order = order[np.argsort((tgt[order] >> shift).astype(np.uint16), kind="stable")]
    return Incidences(
        src[order],
        kind[order],
        np.concatenate([[0], np.cumsum(np.bincount(tgt, minlength=n_entities))]),
        np.concatenate([[0], np.cumsum(np.bincount(attrs.entity_ids, minlength=n_entities))]),
        model,
    )


def inflow(inc: Incidences, attrs: AttributeTable, source: np.ndarray) -> np.ndarray:
    """Per entry: its messages from the entries the boolean ``source`` marks.

    An incidence carries one message per type present at its source that has
    a model with the target's type as dep. Types are bits, eight to a byte:
    per byte of the dep's model row, a table of 256 popcounts gives each
    incidence's count from its kind and its source's byte.
    """
    n_entities, n_types = len(inc.first) - 1, attrs.n_types
    present = np.zeros((n_entities, n_types), dtype=bool)
    present.reshape(-1)[attrs.entity_ids[source] * n_types + attrs.attr_ids[source]] = True
    have = np.packbits(present, axis=1, bitorder="little")  # entity, bytes of types
    rows = np.packbits(inc.model >= 0, axis=2, bitorder="little")  # kind, dep, bytes of indep
    per_entity = np.zeros((n_types, n_entities), dtype=np.int64)
    for b in range(have.shape[1]):
        at = inc.kind * 256 + np.take(have[:, b], inc.src)  # (kind, source byte) of each incidence
        for d in range(n_types):
            table = _POPCOUNT[rows[:, d, b, None] & _BYTES]  # kind, byte -> messages
            per_entity[d] += np.add.reduceat(np.take(table.reshape(-1), at), inc.first[:-1], dtype=np.int64)
    return per_entity[attrs.attr_ids, attrs.entity_ids]


def count_paths(graph: KnowledgeGraph, registry: ModelRegistry, attrs: AttributeTable) -> int:
    """Number of message paths into the attribute entries under every model of the registry.

    A path is one (source entry, model, target entry) triple: the model's
    indep type at the source, its dep type at the target, over an edge in the
    model's direction or within one entity. This is the ``paths:`` count that
    a propagation run on the registry logs.
    """
    inc = incidences(graph, registry, attrs)
    return int(inflow(inc, attrs, np.ones(attrs.n_entries, dtype=bool)).sum())


def training_pairs(bundle: DatasetBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(code, ys, xs)`` of every observed training pair, stably sorted by the code of its fit key.

    One join over OBSERVED entries yields every pair. Relational keys are
    FORWARD, one pair per stored edge whose tail observes ``dep`` and whose
    head observes ``indep``; reverse models are derived, never fitted. Inner
    keys regress the higher attribute id on the lower, one pair per entity
    observing both. Each key's pairs come in stored edge or entity id order.
    """
    graph, attrs = bundle.graph, bundle.attrs
    n_types, attr = attrs.n_types, attrs.attr_ids
    observed = EntryIndex.of(attrs, graph.n_entities, attrs.status == Status.OBSERVED)
    edge, head_e, tail_e = observed.edge_pairs(graph)
    dep_e, indep_e = observed.node_pairs()
    canonical = attr[dep_e] > attr[indep_e]
    ys = np.concatenate([tail_e, dep_e[canonical]])
    xs = np.concatenate([head_e, indep_e[canonical]])
    kind = np.concatenate([2 * graph.edge_array[edge, 1], np.full(int(canonical.sum()), 2 * graph.n_relations)])
    code = _code(kind, attr[ys], attr[xs], n_types)
    order = np.argsort(code, kind="stable")
    return code[order], attrs.values[ys[order]], attrs.values[xs[order]]


def _grouped_fit(code: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The least-squares fit of ys on xs per distinct code, codes ascending.

    Returns the columns code, support, sxx, eta, tau, sigma2 and r2, with
    sigma2 the mean squared residual before the floor and r2 clamped to
    [0, 1], 1 where y is constant. The mean of a key's all-equal values is
    that value, not a rounded sum over n: a constant x has sxx 0 and a constant
    y the slope 0. A constant x divides by zero; the admission rules reject it.
    """
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    n = np.diff(np.append(starts, code.size))
    group = np.repeat(np.arange(starts.size), n)

    def total(v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v, starts)

    def mean(v: np.ndarray) -> np.ndarray:
        lo = np.minimum.reduceat(v, starts)
        return np.where(lo == np.maximum.reduceat(v, starts), lo, total(v) / n)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dx = xs - mean(xs)[group]
        dy = ys - mean(ys)[group]
        sxx = total(dx * dx)
        eta = total(dx * dy) / sxx
        var_y = total(dy * dy) / n
        resid = ys - eta[group] * xs
        tau = total(resid) / n
        resid -= tau[group]
        sigma2 = total(resid * resid) / n
        r2 = np.where(var_y == 0.0, 1.0, np.clip(1.0 - sigma2 / var_y, 0.0, 1.0))
    return code[starts], n, sxx, eta, tau, sigma2, r2


def _with_reverses(
    code: np.ndarray, eta: np.ndarray, tau: np.ndarray, sigma2: np.ndarray, support: np.ndarray, r2: np.ndarray,
    span: int, n_types: int,
) -> ModelRegistry:
    """The mirror-closed registry of the fit columns: each fit, weighted ``1/sigma2``, then its derived reverse."""
    eta2 = eta * eta
    params = np.stack([[eta, tau, sigma2, 1.0 / sigma2], [1.0 / eta, -tau / eta, sigma2 / eta2, eta2 / sigma2]], axis=-1)
    codes = np.column_stack([code, _mirror(code, span, n_types)]).ravel()
    derived = np.tile([False, True], code.size)
    return ModelRegistry(codes, *params.reshape(4, -1), np.repeat(support, 2), np.repeat(r2, 2), derived, span, n_types)


def _derives(registry: ModelRegistry) -> np.ndarray:
    """Per fit of a :func:`_with_reverses` registry: whether it and its reverse are finite, with positive sigma2 and weight."""
    params = np.stack([registry.eta, registry.tau, registry.sigma2, registry.weight]).reshape(4, -1, 2)
    return np.isfinite(params).all(axis=(0, 2)) & (params[2:] > 0.0).all(axis=(0, 2))


def build_registry(bundle: DatasetBundle, admission: AdmissionConfig | None = None) -> ModelRegistry:
    """Fit every key of :func:`training_pairs` in one grouped pass and admit the models.

    Models come in code order of their fit keys, each admitted fit followed
    by its derived opposite-direction model. ``registry.rejections`` counts,
    per reason, the keys that a rule of the module docstring rejected.
    """
    admission = admission or AdmissionConfig()
    graph, attrs = bundle.graph, bundle.attrs
    span, n_types = graph.n_relations, attrs.n_types
    code, n, sxx, eta, tau, sigma2, r2 = _grouped_fit(*training_pairs(bundle))

    kind, dep, indep = np.unravel_index(code, (2 * span + 1, n_types, n_types))
    link, lo, hi = np.where(kind < 2 * span, kind >> 1, -1), np.minimum(dep, indep), np.maximum(dep, indep)
    excluded = np.zeros(code.size, dtype=bool)
    for a, b, link_id in admission.excluded_ids(graph, attrs):
        excluded |= (lo == a) & (hi == b) & (True if link_id is None else link == link_id)
    ranges = np.zeros(n_types)
    for t in {*dep.tolist(), *indep.tolist()}:
        ranges[t] = attrs.value_range(t)
    dep_range, indep_range = ranges[dep], ranges[indep]
    eta_min = np.divide(ETA_MIN_SCALE * dep_range, indep_range, out=np.zeros(code.size), where=indep_range > 0.0)
    with np.errstate(all="ignore"):  # a fit may derive infinities or zeros, which non_finite_fit rejects
        floor = VAR_FLOOR_SCALE * dep_range * dep_range
        sigma2 = np.maximum(sigma2, np.where(floor > 0.0, floor, VAR_FLOOR_SCALE))  # a constant type: absolute floor
        models = _with_reverses(code, eta, tau, sigma2, n, r2, span, n_types)
    rules = {
        "excluded": excluded,
        "insufficient_support": n < max(2, admission.min_support),
        "degenerate_regressor": sxx == 0.0,
        "low_r2": r2 < admission.r2_min,
        "non_invertible_slope": (eta == 0.0) | (np.abs(eta) < eta_min),
        "non_finite_fit": ~_derives(models),
    }
    rejections: dict[str, int] = {}
    rejected = np.zeros(code.size, dtype=bool)
    for reason, mask in rules.items():
        if count := int((mask & ~rejected).sum()):
            rejections[reason] = count
        rejected |= mask

    registry = replace(models.take(np.repeat(~rejected, 2)), rejections=rejections)
    logger.info(
        "registry: %d models admitted, rejections %s", len(registry), registry.rejections
    )
    return registry


# -- model dump ----------------------------------------------------------------


def _count(text: str) -> int:
    """``int(text)``; a ValueError also where the count leaves the int64 range."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"support {text!r} out of the int64 range")
    return value


# the number columns of a model dump row, in the order a row's numbers are parsed
_NUMBERS = (("eta", float), ("tau", float), ("sigma2", float), ("support", _count), ("r2", float))
_DIRECTIONS = {name: int(direction) for direction, name in _DIRECTION_NAMES.items()}


def write_model_dump(
    path: str | os.PathLike, registry: ModelRegistry, graph: KnowledgeGraph, attrs: AttributeTable
) -> None:
    """Write one tab-separated line per fit, ascending by code, floats at 17 significant digits."""
    fit = np.flatnonzero(~registry.derived)
    order = fit[np.argsort(registry.codes[fit])]
    kind, dep, indep = np.unravel_index(registry.codes[order], registry.shape)
    inner = kind == 2 * registry.span
    links = [*graph.relations.labels, INNER_LABEL]
    directions = [*_DIRECTION_NAMES.values(), "-"]
    labels = [
        attrs.types.labels_of(dep),
        attrs.types.labels_of(indep),
        list(map(links.__getitem__, np.where(inner, len(links) - 1, kind >> 1).tolist())),
        list(map(directions.__getitem__, np.where(inner, 2, kind & 1).tolist())),
    ]
    write_table(path, [*labels, *(getattr(registry, name)[order] for name, _ in _NUMBERS)])


def _parse_error(parse, text: str) -> str:
    """The message of the ValueError ``parse(text)`` raises."""
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


def _dump_registry(table: Table, graph: KnowledgeGraph, attrs: AttributeTable) -> ModelRegistry:
    """The registry of the rows of a model dump: each row's fit, then its derived reverse.

    Every field is converted and checked column by column. The checks of a
    row run in a fixed order: labels, then the parse of each number, then
    each number's range in column order, then the derivation, so the first
    failing check of the first bad row gives the message. A row above it
    whose key or whose reverse's key an earlier row already has raises
    ``duplicate key`` first.
    """
    dep_l, indep_l, rel_l, dir_l, *number_texts = table.columns
    n_rows = len(table)
    dep, indep = attrs.types.ids(dep_l), attrs.types.ids(indep_l)
    relation = graph.relations.ids(rel_l)
    direction = np.fromiter(map(_DIRECTIONS.get, dir_l, repeat(-1)), dtype=np.int64, count=n_rows)
    # a relation may be named INNER: only the "-" direction marks a within-node key
    inner = np.fromiter(map((INNER_LABEL, "-").__eq__, zip(rel_l, dir_l)), dtype=bool, count=n_rows)
    numbers = [parse_prefix(texts, parse) for texts, (_, parse) in zip(number_texts, _NUMBERS)]

    checks = [
        ((dep < 0) | (indep < 0), lambda r: f"unknown attribute type in {dep_l[r]!r}/{indep_l[r]!r}"),
        (inner & (dep == indep), lambda r: "inner key requires distinct attribute types"),
        (~inner & (relation < 0), lambda r: f"unknown relation {rel_l[r]!r}"),
        (~inner & (direction < 0), lambda r: f"unknown direction {dir_l[r]!r}"),
    ]
    n_types, span = attrs.n_types, graph.n_relations
    unlabelled = np.logical_or.reduce([mask for mask, _ in checks])
    codes = np.where(unlabelled, 0, _code(np.where(inner, 2 * span, 2 * relation + direction), dep, indep, n_types))
    rows = np.arange(n_rows)
    for texts, (_, parse), values in zip(number_texts, _NUMBERS, numbers):
        checks.append((rows >= len(values), lambda r, texts=texts, parse=parse: _parse_error(parse, texts[r])))
    parsed = min(map(len, numbers))  # the rows every number of which parses
    columns = {}
    for texts, (name, _), values in zip(number_texts, _NUMBERS, numbers):
        column = columns[name] = np.ones(n_rows, dtype=np.int64 if name == "support" else np.float64)
        column[:parsed] = values[:parsed]  # rows beyond ``parsed`` already fail their parse
        if name == "support":
            checks.append((column < 2, lambda r, texts=texts: f"support {texts[r]!r} below 2"))
            continue
        checks.append((~np.isfinite(column), lambda r, name=name, texts=texts: f"non-finite {name} {texts[r]!r}"))
        if name == "sigma2":
            checks.append((column <= 0.0, lambda r, texts=texts: f"non-positive sigma2 {texts[r]!r}"))
        if name == "r2":
            checks.append(((column < 0.0) | (column > 1.0), lambda r, texts=texts: f"r2 {texts[r]!r} outside [0, 1]"))
    with np.errstate(all="ignore"):  # a row may derive infinities or zeros, which the last check refuses
        registry = _with_reverses(codes, **columns, span=span, n_types=n_types)
    eta_t, tau_t, sigma2_t = number_texts[:3]
    checks.append((~_derives(registry), lambda r: (
        f"eta {eta_t[r]!r}, tau {tau_t[r]!r} and sigma2 {sigma2_t[r]!r} derive no finite, positive-weighted model and reverse"
    )))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    first = int(bad.argmax()) if bad.any() else n_rows

    pair = registry.codes.reshape(-1, 2).min(axis=1)  # one code per row for its key and its reverse's
    twice = np.flatnonzero(repeated(pair[:first]))
    if twice.size:
        raise ParseError("duplicate key", table.line(int(twice[0])))
    if first < n_rows:
        message = next(explain(first) for mask, explain in checks if mask[first])
        raise ParseError(message, table.line(first))
    return registry


def read_model_dump(source: IO, graph: KnowledgeGraph, attrs: AttributeTable) -> ModelRegistry:
    """Reload a registry written by :func:`write_model_dump`, equal to it row for row.

    Each row is a fit; its weight and its reverse are derived as
    :func:`build_registry` derives them. The first row with an unknown
    label, a non-finite number, a ``sigma2`` that is not positive, a
    ``support`` below 2, an ``r2`` outside [0, 1], parameters that derive no
    finite, positive-weighted model and reverse, or a key or reverse key
    that an earlier row already has raises a ParseError.
    """
    return read_table(source, 9, lambda table: _dump_registry(table, graph, attrs))
