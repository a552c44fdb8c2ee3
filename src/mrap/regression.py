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
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .attributes import AttributeTable, Status
from .errors import (
    DataError,
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

    @property
    def is_cross(self) -> bool:
        """True when the message crosses attribute types."""
        return self.dep != self.indep

    def reversed(self) -> "PathKey":
        """The key of the analytically derived opposite-direction model."""
        if self.is_inner:
            return PathKey.inner(self.indep, self.dep)
        assert self.direction is not None
        return PathKey.relational(self.indep, self.dep, self.relation, self.direction.flipped)


@dataclass(frozen=True)
class FitSummary:
    support: int
    mu_x: float
    mu_y: float
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

    def predict(self, x: float) -> float:
        return self.eta * x + self.tau


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
    var_floor_scale: float = 1e-12
    eta_min_scale: float = 1e-9

    def __post_init__(self):
        if self.min_support < 2:
            raise ValueError("min_support must be at least 2")
        if not 0.0 <= self.r2_min <= 1.0:
            raise ValueError("r2_min must lie in [0, 1]")
        if self.var_floor_scale <= 0 or self.eta_min_scale <= 0:
            raise ValueError("scales must be positive")

    @staticmethod
    def parse_exclusions(specs: Iterable[str]) -> tuple[tuple[str, str, str | None], ...]:
        """Parse ``"attrA,attrB[,link]"`` strings into normalized tuples."""
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
            lo, hi = sorted((a, b))
            rules.append((lo, hi, link))
        return tuple(rules)

    def excludes(self, key: PathKey, graph: KnowledgeGraph, attrs: AttributeTable) -> bool:
        if not self.exclusions:
            return False
        pair = tuple(sorted((attrs.types.label(key.dep), attrs.types.label(key.indep))))
        link = INNER_LABEL if key.is_inner else graph.relations.label(key.relation)  # type: ignore[arg-type]
        for a, b, rule_link in self.exclusions:
            if (a, b) == pair and (rule_link is None or rule_link == link):
                return True
        return False


@dataclass
class ModelRegistry:
    """Admitted models keyed by path, frozen after construction."""

    models: dict[PathKey, RegressionModel]
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    rejections: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.models)

    def __contains__(self, key: PathKey) -> bool:
        return key in self.models

    def get(self, key: PathKey) -> RegressionModel | None:
        return self.models.get(key)


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
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateRegressorError("independent variable has zero variance")
    eta = float(dx @ (y - mu_y)) / sxx
    tau = float(np.mean(y - eta * x))
    resid = y - eta * x - tau
    sigma2 = float(np.mean(resid * resid))
    var_y = float(np.mean((y - mu_y) ** 2))
    r2 = 1.0 if var_y == 0.0 else min(1.0, max(0.0, 1.0 - sigma2 / var_y))
    return eta, tau, sigma2, FitSummary(support=n, mu_x=mu_x, mu_y=mu_y, r2=r2)


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
        fit=replace(
            model.fit, mu_x=model.fit.mu_y, mu_y=model.fit.mu_x, derived_reverse=True
        ),
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
    models: dict[PathKey, RegressionModel] = {}
    rejections: Counter[str] = Counter()

    for key, ys, xs in training_pairs(bundle):
        if admission.excludes(key, graph, attrs):
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
        floor = admission.var_floor_scale * dep_range * dep_range
        if floor <= 0.0:
            floor = admission.var_floor_scale  # constant-valued type: absolute floor
        sigma2 = max(sigma2, floor)
        model = RegressionModel(
            key=key, eta=eta, tau=tau, sigma2=sigma2, weight=1.0 / sigma2, fit=fit
        )
        models[key] = model
        indep_range = attrs.value_range(key.indep)
        eta_min = (
            admission.eta_min_scale * dep_range / indep_range if indep_range > 0.0 else 0.0
        )
        try:
            reverse = derive_reverse(model, eta_min)
        except NonInvertibleSlopeError:
            rejections["non_invertible_reverse"] += 1
            continue
        models[reverse.key] = reverse

    registry = ModelRegistry(models=models, admission=admission, rejections=dict(rejections))
    logger.info(
        "registry: %d models admitted, rejections %s", len(registry), registry.rejections
    )
    return registry


def relation_span(graph: KnowledgeGraph, registry: ModelRegistry) -> int:
    """One more than the largest relation id of the graph or of a registry key."""
    return max([graph.n_relations] + [k.relation + 1 for k in registry.models if not k.is_inner])


def count_paths(graph: KnowledgeGraph, registry: ModelRegistry, attrs: AttributeTable) -> int:
    """Number of (source attribute entry, model) message paths per iteration.

    Counts every combination of a tracked source entry with an admitted model
    that can carry a prediction out of it: over each edge in both directions,
    plus all within-node attribute pairs.
    """
    # model count by (direction, relation, indep)
    by_indep = np.zeros((2, relation_span(graph, registry), attrs.n_types), dtype=np.int64)
    inner_by_indep = np.zeros(attrs.n_types, dtype=np.int64)
    for key in registry.models:
        if key.is_inner:
            inner_by_indep[key.indep] += 1
        else:
            by_indep[key.direction, key.relation, key.indep] += 1

    index = EntryIndex.of(attrs, graph.n_entities)
    head, relation, tail = graph.edge_array.T
    total = int(inner_by_indep[attrs.attr_ids].sum())
    # head entries flow forward to the tail, tail entries flow reverse to the head
    for direction, end in ((Direction.FORWARD, head), (Direction.REVERSE, tail)):
        edge, k = ragged(index.counts[end])
        source = index.entries[index.starts[end[edge]] + k]
        total += int(by_indep[direction, relation[edge], attrs.attr_ids[source]].sum())
    return total


# -- model dump ----------------------------------------------------------------


def write_model_dump(fh: IO[str], registry: ModelRegistry, graph: KnowledgeGraph, attrs: AttributeTable) -> None:
    """Write one tab-separated line per model, floats at 17 significant digits."""
    def sort_key(key: PathKey):
        return (
            key.is_inner,
            -1 if key.relation is None else key.relation,
            int(key.direction) if key.direction is not None else -1,
            key.dep,
            key.indep,
        )

    for key in sorted(registry.models, key=sort_key):
        m = registry.models[key]
        dep = attrs.types.label(key.dep)
        indep = attrs.types.label(key.indep)
        rel = INNER_LABEL if key.is_inner else graph.relations.label(key.relation)  # type: ignore[arg-type]
        direction = "-" if key.is_inner else _DIRECTION_NAMES[key.direction]  # type: ignore[index]
        fields = (
            dep,
            indep,
            rel,
            direction,
            f"{m.eta:.17g}",
            f"{m.tau:.17g}",
            f"{m.sigma2:.17g}",
            f"{m.weight:.17g}",
            str(m.fit.support),
            f"{m.fit.r2:.17g}",
            "true" if m.fit.derived_reverse else "false",
        )
        fh.write("\t".join(fields) + "\n")


def read_model_dump(
    lines: Iterable[str] | IO[str],
    graph: KnowledgeGraph,
    attrs: AttributeTable,
    admission: AdmissionConfig | None = None,
) -> ModelRegistry:
    """Reload a registry written by :func:`write_model_dump`."""
    models: dict[PathKey, RegressionModel] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 11:
            raise ParseError(f"expected 11 tab-separated fields, got {len(fields)}", line_no)
        dep_l, indep_l, rel_l, dir_l, eta, tau, sigma2, weight, support, r2, derived = fields
        dep = attrs.types.get(dep_l)
        indep = attrs.types.get(indep_l)
        if dep is None or indep is None:
            raise ParseError(f"unknown attribute type in {dep_l!r}/{indep_l!r}", line_no)
        try:
            if rel_l == INNER_LABEL:
                key = PathKey.inner(dep, indep)
            else:
                relation = graph.relations.get(rel_l)
                if relation is None:
                    raise ParseError(f"unknown relation {rel_l!r}", line_no)
                direction = {v: k for k, v in _DIRECTION_NAMES.items()}.get(dir_l)
                if direction is None:
                    raise ParseError(f"unknown direction {dir_l!r}", line_no)
                key = PathKey.relational(dep, indep, relation, direction)
            model = RegressionModel(
                key=key,
                eta=float(eta),
                tau=float(tau),
                sigma2=float(sigma2),
                weight=float(weight),
                fit=FitSummary(
                    support=int(support),
                    mu_x=float("nan"),
                    mu_y=float("nan"),
                    r2=float(r2),
                    derived_reverse=derived == "true",
                ),
            )
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if key in models:
            raise DataError(f"model dump line {line_no}: duplicate key")
        models[key] = model
    return ModelRegistry(models=models, admission=admission or AdmissionConfig())
