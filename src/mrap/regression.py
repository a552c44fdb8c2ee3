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

The module also plans the message paths of the propagation from the edge
and entry arrays: per attribute entry, the number of (source entry, model)
pairs that predict it. :func:`count_paths` is the total of that plan.
"""
from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .attributes import AttributeTable, Status
from .codec import Table, parse_prefix, read_table, repeated, write_table
from .errors import (
    ConfigError,
    DegenerateRegressorError,
    InsufficientSupportError,
    NonInvertibleSlopeError,
    ParseError,
)
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

    def __post_init__(self):
        if self.relation is None:
            if self.direction is not None:
                raise ValueError("inner key cannot carry a direction")
            if self.dep == self.indep:
                raise ValueError("inner key requires distinct attribute types")
        elif self.direction is None:
            raise ValueError("relational key requires a direction")

    @classmethod
    def relational(cls, dep: int, indep: int, relation: int, direction: Direction) -> "PathKey":
        return cls(dep=dep, indep=indep, relation=relation, direction=direction)

    @classmethod
    def inner(cls, dep: int, indep: int) -> "PathKey":
        return cls(dep=dep, indep=indep)

    @property
    def is_inner(self) -> bool:
        return self.relation is None

    def reversed(self) -> "PathKey":
        """The key of the analytically derived opposite-direction model."""
        if self.is_inner:
            return PathKey.inner(self.indep, self.dep)
        assert self.direction is not None
        return PathKey.relational(self.indep, self.dep, self.relation, self.direction.flipped)


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
    relation label, ``"INNER"``, or None for any link. The attribute pair is
    unordered: excluding (latitude, longitude) removes both prediction
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
            if len(parts) == 2:
                a, b = parts
                link = None
            elif len(parts) == 3:
                a, b, link = parts
            else:
                raise ValueError(f"exclusion must be 'attrA,attrB[,link]', got {spec!r}")
            if not a or not b:
                raise ValueError(f"exclusion with empty attribute in {spec!r}")
            rules.append((a, b, link))
        return tuple(rules)

    def excluded_ids(self, graph: KnowledgeGraph, attrs: AttributeTable) -> set[tuple[int, int, int | None]]:
        """Each rule as (type id, type id, link): type ids ascending, the link a relation id, -1 for INNER or None.

        A rule naming a label that the data does not have raises a ConfigError.
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
            link_id = None if link is None else -1 if link == INNER_LABEL else graph.relations.id(link)
            rules.add((*sorted((attrs.types.id(a), attrs.types.id(b))), link_id))
        return rules


@dataclass
class ModelRegistry:
    """Admitted models keyed by path, frozen after construction."""

    models: dict[PathKey, RegressionModel]
    rejections: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.models)


def fit_simple_regression(
    y: np.ndarray, x: np.ndarray
) -> tuple[float, float, float, FitSummary]:
    """Closed-form least squares of y on x.

    Returns (eta, tau, sigma2, summary) where sigma2 is the raw mean squared
    residual (no variance floor applied) and the summary's r2 is clamped to
    [0, 1], defined as 1 when y has zero variance.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = y.size
    if n < 2:
        raise InsufficientSupportError(f"need at least 2 pairs, got {n}")
    mu_x = float(x.mean())
    mu_y = float(y.mean())
    dx = x - mu_x
    # pairwise sums: unlike BLAS dot, their bits ignore the thread count
    sxx = float((dx * dx).sum())
    if sxx == 0.0:
        raise DegenerateRegressorError("independent variable has zero variance")
    eta = float((dx * (y - mu_y)).sum()) / sxx
    tau = float(np.mean(y - eta * x))
    resid = y - eta * x - tau
    sigma2 = float(np.mean(resid * resid))
    var_y = float(np.mean((y - mu_y) ** 2))
    r2 = 1.0 if var_y == 0.0 else min(1.0, max(0.0, 1.0 - sigma2 / var_y))
    return eta, tau, sigma2, FitSummary(support=n, r2=r2)


def derive_reverse(model: RegressionModel, eta_min: float = 0.0) -> RegressionModel:
    """Analytic opposite-direction model: eta'=1/eta, tau'=-tau/eta, w'=eta^2/sigma^2."""
    if model.eta == 0.0 or abs(model.eta) < eta_min:
        raise NonInvertibleSlopeError(
            f"slope {model.eta!r} below invertibility threshold {eta_min!r}"
        )
    eta2 = model.eta * model.eta
    return RegressionModel(
        key=model.key.reversed(),
        eta=1.0 / model.eta,
        tau=-model.tau / model.eta,
        sigma2=model.sigma2 / eta2,
        weight=eta2 / model.sigma2,
        fit=replace(model.fit, derived_reverse=True),
    )


# -- the edge x entry join ---------------------------------------------------------


def ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, position within the row) of every element of rows of the given lengths."""
    rows = np.repeat(np.arange(counts.size), counts)
    pos = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, pos


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
        edge, k = ragged(n_head * self.counts[tail])
        i_tail, i_head = np.divmod(k, n_head[edge])
        return (
            edge,
            self.entries[self.starts[head[edge]] + i_head],
            self.entries[self.starts[tail[edge]] + i_tail],
        )

    def node_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) for every ordered pair of distinct entries of one entity.

        Pairs come entity by entity in id order, first entries major.
        """
        entity, k = ragged(self.counts * self.counts)
        i, j = np.divmod(k, self.counts[entity])
        keep = i != j
        base = self.starts[entity[keep]]
        return self.entries[base + i[keep]], self.entries[base + j[keep]]


def relation_span(graph: KnowledgeGraph, registry: ModelRegistry) -> int:
    """One more than the largest relation id of the graph or of a registry key."""
    return max([graph.n_relations] + [k.relation + 1 for k in registry.models if not k.is_inner])


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits per byte


class Incidences(NamedTuple):
    """Every way a message reaches an entity, in message order, with the active models.

    Each edge is one forward incidence at its tail and one reverse incidence
    at its head; each entity has one inner incidence with itself. Sorted by
    target entity, then stored edge, forward first, inner last, they give a
    target entry's messages in order, each incidence's by ascending source
    entry, which is ascending source type. Model row ``kind * n_types + dep``
    has its indep types at ``types[cols[row]:cols[row + 1]]``, and entity
    ``e`` its entries' at ``types[entries[e]:entries[e + 1]]``.
    """

    src: np.ndarray  # source entity per incidence
    kind: np.ndarray  # relation (forward), span + relation (reverse) or 2 span (inner)
    first: np.ndarray  # per entity, plus one past the last: its first incidence
    entries: np.ndarray  # per entity, plus one past the last: its first entry
    entry_of: np.ndarray  # entity * n_types + type -> entry, -1 where none
    model: np.ndarray  # (kind, dep, indep) -> model id, -1 where none is active
    cols: np.ndarray
    types: np.ndarray
    params: np.ndarray  # (3, models): eta, tau, weight


def incidences(
    graph: KnowledgeGraph,
    registry: ModelRegistry,
    attrs: AttributeTable,
    no_cross: bool = False,
    no_inner: bool = False,
) -> Incidences:
    """The incidences of the graph, with every model active but those the ablation flags drop.

    ``no_cross`` drops every model between two types (every inner model too), ``no_inner`` the inner ones.
    """
    n_types, n_entities = attrs.n_types, graph.n_entities
    span = relation_span(graph, registry)
    model = np.full((2 * span + 1, n_types, n_types), -1, dtype=np.int32)
    for i, key in enumerate(registry.models):
        model[2 * span if key.is_inner else key.direction * span + key.relation, key.dep, key.indep] = i
    if no_cross:
        model[:, ~np.eye(n_types, dtype=bool)] = -1
    if no_inner:
        model[2 * span] = -1
    params = [(m.eta, m.tau, m.weight) for m in registry.models.values()]
    entry_of = np.full(n_entities * n_types, -1, dtype=np.int64)
    entry_of[attrs.entity_ids * n_types + attrs.attr_ids] = np.arange(attrs.n_entries)

    head, relation, tail = graph.edge_array.T
    # edge by edge, forward into the tail, then reverse into the head; inner last
    tgt = np.concatenate([np.column_stack([tail, head]).ravel(), np.arange(n_entities)])
    src = np.concatenate([np.column_stack([head, tail]).ravel(), np.arange(n_entities)])
    kind = np.concatenate([np.column_stack([relation, span + relation]).ravel(), np.full(n_entities, 2 * span)])
    order = np.arange(len(tgt))
    for shift in range(0, max(n_entities - 1, 1).bit_length(), 16):  # stable radix passes: no combined code
        order = order[np.argsort((tgt[order] >> shift).astype(np.uint16), kind="stable")]
    return Incidences(
        src[order],
        kind[order],
        np.concatenate([[0], np.cumsum(np.bincount(tgt, minlength=n_entities))]),
        np.concatenate([[0], np.cumsum(np.bincount(attrs.entity_ids, minlength=n_entities))]),
        entry_of,
        model,
        attrs.n_entries + np.concatenate([[0], np.cumsum((model >= 0).sum(axis=2))]),
        np.concatenate([attrs.attr_ids, np.nonzero(model >= 0)[2]]),  # row-major: ascending in each row
        np.array(params, dtype=np.float64).reshape(-1, 3).T.copy(),
    )


def inflow(inc: Incidences, attrs: AttributeTable, source: np.ndarray) -> np.ndarray:
    """Per entry: its messages from the entries the boolean ``source`` marks.

    An incidence carries one message per type present at its source that has
    a model with the target's type as dep, counted as bits.
    """
    present = np.zeros((len(inc.first) - 1, attrs.n_types), dtype=bool)
    present[attrs.entity_ids[source], attrs.attr_ids[source]] = True
    have = np.packbits(present, axis=1, bitorder="little")[inc.src]
    rows = np.packbits(inc.model >= 0, axis=2, bitorder="little")  # kind, dep, bits of indep
    per_entity = np.zeros(present.shape, dtype=np.int64)
    for d in range(attrs.n_types):
        per_entity[:, d] = np.add.reduceat(_POPCOUNT[rows[:, d][inc.kind] & have].sum(axis=1, dtype=np.int64), inc.first[:-1])
    return per_entity[attrs.entity_ids, attrs.attr_ids]


def count_paths(graph: KnowledgeGraph, registry: ModelRegistry, attrs: AttributeTable) -> int:
    """Number of message paths into the attribute entries under every model of the registry.

    A path is one (source entry, model, target entry) triple: the model's
    indep type at the source, its dep type at the target, over an edge in the
    model's direction or within one entity. This is the ``paths:`` count of a
    propagation run without ablation flags.
    """
    inc = incidences(graph, registry, attrs)
    return int(inflow(inc, attrs, np.ones(attrs.n_entries, dtype=bool)).sum())


def _groups(codes: np.ndarray, ys: np.ndarray, xs: np.ndarray):
    """(code, ys, xs) slices per distinct code, codes ascending.

    The stable sort keeps each group's pairs in their original order.
    """
    order = np.argsort(codes, kind="stable")
    codes, ys, xs = codes[order], ys[order], xs[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    ends = np.append(starts[1:], codes.size)
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        yield int(codes[lo]), ys[lo:hi], xs[lo:hi]


def training_pairs(bundle: DatasetBundle) -> Iterator[tuple[PathKey, np.ndarray, np.ndarray]]:
    """``(fit key, ys, xs)`` for every fit key with at least one observed training pair.

    One join over OBSERVED entries yields every pair. Relational keys are
    FORWARD, one pair per stored edge whose tail observes ``dep`` and whose
    head observes ``indep``; reverse models are derived, never fitted. Inner
    keys regress the higher attribute id on the lower, one pair per entity
    observing both. Relational keys come first in ascending (relation, dep,
    indep) order, then inner keys in ascending (dep, indep) order; each
    key's pairs come in stored edge or entity id order.
    """
    graph, attrs = bundle.graph, bundle.attrs
    n_types, attr, values = attrs.n_types, attrs.attr_ids, attrs.values
    observed = EntryIndex.of(attrs, graph.n_entities, attrs.status == Status.OBSERVED)

    edge, head_e, tail_e = observed.edge_pairs(graph)
    codes = (graph.edge_array[edge, 1] * n_types + attr[tail_e]) * n_types + attr[head_e]
    for code, ys, xs in _groups(codes, values[tail_e], values[head_e]):
        relation, dep, indep = np.unravel_index(code, (graph.n_relations, n_types, n_types))
        yield PathKey.relational(int(dep), int(indep), int(relation), Direction.FORWARD), ys, xs

    dep_e, indep_e = observed.node_pairs()
    canonical = attr[dep_e] > attr[indep_e]
    dep_e, indep_e = dep_e[canonical], indep_e[canonical]
    codes = attr[dep_e] * n_types + attr[indep_e]
    for code, ys, xs in _groups(codes, values[dep_e], values[indep_e]):
        yield PathKey.inner(*divmod(code, n_types)), ys, xs


def build_registry(bundle: DatasetBundle, admission: AdmissionConfig | None = None) -> ModelRegistry:
    """Fit and admit a model for every key of :func:`training_pairs`.

    Each admitted fit also registers its derived opposite-direction model
    when the slope is invertible. Rejection reasons are tallied in
    ``registry.rejections``.
    """
    admission = admission or AdmissionConfig()
    graph, attrs = bundle.graph, bundle.attrs
    excluded = admission.excluded_ids(graph, attrs)
    models: dict[PathKey, RegressionModel] = {}
    rejections: Counter[str] = Counter()

    for key, ys, xs in training_pairs(bundle):
        pair = sorted((key.dep, key.indep))
        if {(*pair, None), (*pair, -1 if key.is_inner else key.relation)} & excluded:
            rejections["excluded"] += 1
            continue
        if len(ys) < max(2, admission.min_support):
            rejections["insufficient_support"] += 1
            continue
        try:
            eta, tau, sigma2, fit = fit_simple_regression(ys, xs)
        except DegenerateRegressorError:
            rejections["degenerate_regressor"] += 1
            continue
        if fit.r2 < admission.r2_min:
            rejections["low_r2"] += 1
            continue
        dep_range = attrs.value_range(key.dep)
        floor = VAR_FLOOR_SCALE * dep_range * dep_range
        if floor <= 0.0:
            floor = VAR_FLOOR_SCALE  # constant-valued type: absolute floor
        sigma2 = max(sigma2, floor)
        model = RegressionModel(
            key=key, eta=eta, tau=tau, sigma2=sigma2, weight=1.0 / sigma2, fit=fit
        )
        models[key] = model
        indep_range = attrs.value_range(key.indep)
        eta_min = ETA_MIN_SCALE * dep_range / indep_range if indep_range > 0.0 else 0.0
        try:
            reverse = derive_reverse(model, eta_min)
        except NonInvertibleSlopeError:
            rejections["non_invertible_reverse"] += 1
            continue
        models[reverse.key] = reverse

    registry = ModelRegistry(models=models, rejections=dict(rejections))
    logger.info(
        "registry: %d models admitted, rejections %s", len(registry), registry.rejections
    )
    return registry


# -- model dump ----------------------------------------------------------------


def write_model_dump(
    path: str | os.PathLike, registry: ModelRegistry, graph: KnowledgeGraph, attrs: AttributeTable
) -> None:
    """Write one tab-separated line per model, floats at 17 significant digits."""
    keys = sorted(registry.models, key=lambda k: (k.is_inner, k.relation or 0, k.direction or 0, k.dep, k.indep))
    models = [registry.models[key] for key in keys]
    numbers = np.array([(m.eta, m.tau, m.sigma2, m.weight, m.fit.r2) for m in models], dtype=np.float64)
    eta, tau, sigma2, weight, r2 = numbers.reshape(-1, 5).T
    labels = [
        attrs.types.labels_of([key.dep for key in keys]),
        attrs.types.labels_of([key.indep for key in keys]),
        [INNER_LABEL if key.is_inner else graph.relations.label(key.relation) for key in keys],  # type: ignore[arg-type]
        ["-" if key.is_inner else _DIRECTION_NAMES[key.direction] for key in keys],  # type: ignore[index]
    ]
    support = np.array([m.fit.support for m in models], dtype=np.int64)
    derived = ["true" if m.fit.derived_reverse else "false" for m in models]
    write_table(path, [*labels, eta, tau, sigma2, weight, support, r2, derived])


_DIRECTIONS = {name: int(direction) for direction, name in _DIRECTION_NAMES.items()}
# the number columns of a model dump row, in the order a row's numbers are parsed
_NUMBERS = (("eta", float), ("tau", float), ("sigma2", float), ("weight", float), ("support", int), ("r2", float))


def _parse_error(parse, text: str) -> str:
    """The message of the ValueError ``parse(text)`` raises."""
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


def _dump_models(table: Table, graph: KnowledgeGraph, attrs: AttributeTable) -> dict[PathKey, RegressionModel]:
    """The models of the rows of a model dump; the first bad row raises its error.

    Every field is converted and checked column by column. The checks of a
    row run in a fixed order: labels, then the parse of each number, then
    the finite and positive checks, so the first failing check of the first
    bad row gives the message.
    """
    dep_l, indep_l, rel_l, dir_l, *number_texts, derived = table.columns
    n_rows = len(table)
    dep, indep = attrs.types.ids(dep_l), attrs.types.ids(indep_l)
    relation = graph.relations.ids(rel_l)
    direction = np.fromiter(map(_DIRECTIONS.get, dir_l, repeat(-1)), dtype=np.int64, count=n_rows)
    inner = np.fromiter(map(INNER_LABEL.__eq__, rel_l), dtype=bool, count=n_rows)
    numbers = [parse_prefix(texts, parse) for texts, (_, parse) in zip(number_texts, _NUMBERS)]

    checks = [
        ((dep < 0) | (indep < 0), lambda r: f"unknown attribute type in {dep_l[r]!r}/{indep_l[r]!r}"),
        (inner & (dep == indep), lambda r: "inner key requires distinct attribute types"),
        (~inner & (relation < 0), lambda r: f"unknown relation {rel_l[r]!r}"),
        (~inner & (direction < 0), lambda r: f"unknown direction {dir_l[r]!r}"),
    ]
    rows = np.arange(n_rows)
    for texts, (_, parse), values in zip(number_texts, _NUMBERS, numbers):
        checks.append((rows >= len(values), lambda r, texts=texts, parse=parse: _parse_error(parse, texts[r])))
    parsed = min(map(len, numbers))  # the rows every number of which parses
    for texts, (name, _), values in zip(number_texts, _NUMBERS, numbers):
        if name == "support":
            continue
        column = np.ones(n_rows)  # rows beyond ``parsed`` already fail their parse
        column[:parsed] = values[:parsed]
        checks.append((~np.isfinite(column), lambda r, name=name, texts=texts: f"non-finite {name} {texts[r]!r}"))
        if name in ("sigma2", "weight"):
            checks.append((column <= 0.0, lambda r, name=name, texts=texts: f"non-positive {name} {texts[r]!r}"))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    first = int(bad.argmax()) if bad.any() else n_rows

    n_types = attrs.n_types
    codes = (np.where(inner, 0, 1 + 2 * relation + direction) * n_types + dep) * n_types + indep
    twice = np.flatnonzero(repeated(codes[:first]))
    if twice.size:
        raise ParseError("duplicate key", table.line(int(twice[0])))
    if first < n_rows:
        message = next(explain(first) for mask, explain in checks if mask[first])
        raise ParseError(message, table.line(first))

    models: dict[PathKey, RegressionModel] = {}
    directions = tuple(Direction)
    keys = zip(dep.tolist(), indep.tolist(), relation.tolist(), direction.tolist(), inner.tolist())
    for (d, i, rel, way, is_inner), eta, tau, sigma2, weight, support, r2, flag in zip(keys, *numbers, derived):
        key = PathKey(d, i) if is_inner else PathKey(d, i, rel, directions[way])
        fit = FitSummary(support, r2, flag == "true")
        models[key] = RegressionModel(key, eta, tau, sigma2, weight, fit)
    return models


def read_model_dump(source: IO, graph: KnowledgeGraph, attrs: AttributeTable) -> ModelRegistry:
    """Reload a registry written by :func:`write_model_dump`.

    The first row with an unknown label, a non-finite number, a ``sigma2``
    or ``weight`` that is not positive, or a key that an earlier row already
    has raises a ParseError.
    """
    models = read_table(source, 11, lambda table: _dump_models(table, graph, attrs))
    return ModelRegistry(models=models)
