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

All keys are fitted in one grouped pass: the training pairs, sorted by code,
are summed per key with ``np.add.reduceat``. A key is rejected by the first
of these rules that applies, and tallied under its name: ``excluded`` (an
exclusion rule names the key), ``insufficient_support`` (fewer pairs than
the minimum), ``degenerate_regressor`` (the independent values are
constant), ``low_r2`` (r2 below the minimum), ``non_invertible_slope`` (the
slope is too close to zero to derive the reverse). An admitted fit's
residual variance is raised to a floor, and it enters with its derived
reverse: every registry is closed under the mirror, and the model dump
reader and the propagation's plan refuse one that is not.

The module also plans the message paths of the propagation from the edge
and entry arrays: per attribute entry, the number of (source entry, model)
pairs that predict it. :func:`count_paths` is the total of that plan.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
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


def _code(kind: np.ndarray, dep: np.ndarray, indep: np.ndarray, n_types: int) -> np.ndarray:
    """The model code of each (kind, dep, indep) (see the module docstring); ``np.unravel_index`` inverts it."""
    return (kind * n_types + dep) * n_types + indep


def _codes(graph: KnowledgeGraph, registry: ModelRegistry, n_types: int) -> tuple[int, np.ndarray]:
    """The span and, in registry order, the code of every model (see the module docstring).

    The span is one more than the largest relation id of the graph or of a registry key.
    """
    keys = [(-1 if k.is_inner else k.relation, k.direction or 0, k.dep, k.indep) for k in registry.models]
    relation, direction, dep, indep = np.array(keys, dtype=np.int64).reshape(-1, 4).T
    span = max(graph.n_relations, int(relation.max(initial=-1)) + 1)
    return span, _code(np.where(relation < 0, 2 * span, 2 * relation + direction), dep, indep, n_types)


def _mirror(codes: np.ndarray, span: int, n_types: int) -> np.ndarray:
    """The code of each key's opposite-direction key: a relational kind's direction bit flips, dep and indep swap."""
    kind, dep, indep = np.unravel_index(codes, (2 * span + 1, n_types, n_types))
    return _code(np.where(kind < 2 * span, kind ^ 1, kind), indep, dep, n_types)


def _models(codes: np.ndarray, span: int, n_types: int, *columns: list) -> dict[PathKey, RegressionModel]:
    """The models of the given codes, in their order.

    The columns are eta, tau, sigma2, weight, support, r2 and derived, each a list with one value per code.
    """
    kinds, deps, indeps = (a.tolist() for a in np.unravel_index(codes, (2 * span + 1, n_types, n_types)))
    directions = tuple(Direction)
    models: dict[PathKey, RegressionModel] = {}
    for kind, dep, indep, eta, tau, sigma2, weight, support, r2, derived in zip(kinds, deps, indeps, *columns):
        key = PathKey(dep, indep) if kind == 2 * span else PathKey(dep, indep, kind >> 1, directions[kind & 1])
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
    model: np.ndarray  # (kind, dep, indep), the model code -> int64 model id, -1 where there is none
    params: np.ndarray  # (3, models): eta, tau, weight


def incidences(graph: KnowledgeGraph, registry: ModelRegistry, attrs: AttributeTable) -> Incidences:
    """The incidences of the graph, with every model of the registry active; a model without its mirror raises a ValueError."""
    n_types, n_entities = attrs.n_types, graph.n_entities
    span, codes = _codes(graph, registry, n_types)
    lonely = np.flatnonzero(~np.isin(_mirror(codes, span, n_types), codes))
    if lonely.size:
        raise ValueError(f"the registry has no mirror for {list(registry.models)[lonely[0]]}")
    model = np.full((2 * span + 1) * n_types * n_types, -1, dtype=np.int64)
    model[codes] = np.arange(codes.size)
    model = model.reshape(2 * span + 1, n_types, n_types)
    params = [(m.eta, m.tau, m.weight) for m in registry.models.values()]

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
        np.array(params, dtype=np.float64).reshape(-1, 3).T.copy(),
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
    [0, 1], 1 where y is constant. A key of one pair or of a constant x
    divides by zero; the admission rules reject it.
    """
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    n = np.diff(np.append(starts, code.size))
    group = np.repeat(np.arange(starts.size), n)

    def total(v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v, starts)

    with np.errstate(divide="ignore", invalid="ignore"):
        dx = xs - (total(xs) / n)[group]
        dy = ys - (total(ys) / n)[group]
        sxx = total(dx * dx)
        eta = total(dx * dy) / sxx
        var_y = total(dy * dy) / n
        resid = ys - eta[group] * xs
        tau = total(resid) / n
        resid -= tau[group]
        sigma2 = total(resid * resid) / n
        r2 = np.where(var_y == 0.0, 1.0, np.clip(1.0 - sigma2 / var_y, 0.0, 1.0))
    return code[starts], n, sxx, eta, tau, sigma2, r2


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
    rules = {
        "excluded": excluded,
        "insufficient_support": n < max(2, admission.min_support),
        "degenerate_regressor": sxx == 0.0,
        "low_r2": r2 < admission.r2_min,
        "non_invertible_slope": (eta == 0.0) | (np.abs(eta) < eta_min),
    }
    rejections: dict[str, int] = {}
    rejected = np.zeros(code.size, dtype=bool)
    for reason, mask in rules.items():
        if count := int((mask & ~rejected).sum()):
            rejections[reason] = count
        rejected |= mask

    fit = np.flatnonzero(~rejected)
    floor = VAR_FLOOR_SCALE * dep_range[fit] * dep_range[fit]
    sigma2 = np.maximum(sigma2[fit], np.where(floor > 0.0, floor, VAR_FLOOR_SCALE))  # a constant type: absolute floor
    eta, tau = eta[fit], tau[fit]
    eta2 = eta * eta
    params = np.stack([[eta, tau, sigma2, 1.0 / sigma2], [1.0 / eta, -tau / eta, sigma2 / eta2, eta2 / sigma2]], axis=-1)
    codes = np.column_stack([code[fit], _mirror(code[fit], span, n_types)]).ravel()  # each fit, then its reverse
    columns = [*params.reshape(4, -1).tolist(), np.repeat(n[fit], 2).tolist(), np.repeat(r2[fit], 2).tolist(), [False, True] * fit.size]
    registry = ModelRegistry(models=_models(codes, span, n_types, *columns), rejections=rejections)
    logger.info(
        "registry: %d models admitted, rejections %s", len(registry), registry.rejections
    )
    return registry


# -- model dump ----------------------------------------------------------------


def write_model_dump(
    path: str | os.PathLike, registry: ModelRegistry, graph: KnowledgeGraph, attrs: AttributeTable
) -> None:
    """Write one tab-separated line per model, floats at 17 significant digits."""
    _, codes = _codes(graph, registry, attrs.n_types)
    keys = list(registry.models)
    keys = [keys[i] for i in np.argsort(codes).tolist()]
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


def _dump_models(table: Table, graph: KnowledgeGraph, attrs: AttributeTable) -> tuple[dict[PathKey, RegressionModel], ParseError | None]:
    """The models of the rows of a model dump, and the error of the first whose mirror no row has.

    The first bad row raises its error. Every field is converted and checked
    column by column. The checks of a row run in a fixed order: labels, then
    the parse of each number, then the finite and positive checks, so the
    first failing check of the first bad row gives the message.
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

    n_types, span = attrs.n_types, graph.n_relations
    codes = _code(np.where(inner, 2 * span, 2 * relation + direction), dep, indep, n_types)
    twice = np.flatnonzero(repeated(codes[:first]))
    if twice.size:
        raise ParseError("duplicate key", table.line(int(twice[0])))
    if first < n_rows:
        message = next(explain(first) for mask, explain in checks if mask[first])
        raise ParseError(message, table.line(first))
    lonely, error = np.flatnonzero(~np.isin(_mirror(codes, span, n_types), codes)), None
    if lonely.size:
        r = int(lonely[0])
        link = "within the node" if inner[r] else f"over {rel_l[r]} {dir_l[r]}"
        error = ParseError(f"no mirror for {dep_l[r]!r} from {indep_l[r]!r} {link}", table.line(r))
    return _models(codes, span, n_types, *numbers, [flag == "true" for flag in derived]), error


def read_model_dump(source: IO, graph: KnowledgeGraph, attrs: AttributeTable) -> ModelRegistry:
    """Reload a registry written by :func:`write_model_dump`.

    The first row with an unknown label, a non-finite number, a ``sigma2``
    or ``weight`` that is not positive, or a key that an earlier row already
    has raises a ParseError. Once every line has parsed, so does the first
    row whose mirror no row has.
    """
    models, lonely = read_table(source, 11, lambda table: _dump_models(table, graph, attrs))
    if lonely is not None:
        raise lonely
    return ModelRegistry(models=models)
