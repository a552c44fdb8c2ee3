"""Shared fixture builders and scalar reference implementations for the test suite."""
from __future__ import annotations

import codecs
import csv
import importlib.util
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import IO, Mapping, NamedTuple

import numpy as np

from mrap.attributes import AttributeTable, Status
from mrap.codec import Table, _csv_field, read_table, write_text
from mrap.errors import DataError, MrapError, ParseError
from mrap.evaluation import EvalReport, EvalRow
from mrap.graph import Direction, KnowledgeGraph, Vocabulary, build_graph
from mrap.ingest import (
    DatasetBundle,
    Split,
    SplitSpec,
    intern_attributes,
    intern_triples,
    load_dataset,
    parse_attributes,
    parse_triples,
    split_attributes,
    subsample_observed,
)
from mrap.propagation import PropagationConfig, run
from mrap.regression import (
    INNER_LABEL,
    EntryIndex,
    FitSummary,
    ModelRegistry,
    PathKey,
    RegressionModel,
    runs,
    training_pairs,
)

logger = logging.getLogger(__name__)

IMPUTED = 2  # status of a target entry in ``imputed_table``, after OBSERVED and MISSING


class FitError(MrapError):
    """A regression model could not be fitted or derived."""


class InsufficientSupportError(FitError):
    """Fewer training pairs than the fit requires."""


class DegenerateRegressorError(FitError):
    """The independent variable has zero variance over the training pairs."""


class NonInvertibleSlopeError(FitError):
    """Slope too close to zero for the reverse model to be derived."""


class SingularSystemError(MrapError):
    """The fixed-point linear system has a singular component.

    ``targets`` lists the (entity label, attribute label) pairs that form the
    underdetermined component.
    """

    def __init__(self, message: str, targets: list[tuple[str, str]]):
        super().__init__(message)
        self.targets = targets


def make_bundle(
    triples,
    observed: dict[tuple[str, str], float],
    missing: dict[tuple[str, str], float] | None = None,
    missing_split: Split = Split.TEST,
    attr_order: tuple[str, ...] = (),
):
    """Bundle with explicit observed/missing entries.

    ``observed`` maps (entity, attr) labels to loaded values (split TRAIN);
    ``missing`` maps targets to their held-out truth (split ``missing_split``).
    """
    missing = missing or {}
    attr_entities = [e for e, _ in observed] + [e for e, _ in missing]
    graph = graph_of(triples, extra_entities=attr_entities)
    types = Vocabulary(attr_order)
    types.intern(attr for _, attr in list(observed) + list(missing))
    entries = {**observed, **missing}
    table = AttributeTable.build(
        graph.n_entities,
        types,
        [graph.entities.id(entity) for entity, _ in entries],
        [types.id(attr) for _, attr in entries],
        list(entries.values()),
    )

    status = table.status.copy()
    split = np.zeros(table.n_entries, dtype=np.int8)
    entry_of = index(table)
    for (entity, attr) in missing:
        idx = entry_of[(graph.entities.id(entity), types.id(attr))]
        status[idx] = int(Status.MISSING)
        split[idx] = int(missing_split)
    return DatasetBundle(graph=graph, attrs=table.with_status(status), split=split)


def table_of(rows, n_fields: int = 3) -> Table:
    """The column form the parsers return, of a list of row tuples."""
    rows = list(rows)
    return Table([list(column) for column in zip(*rows)] if rows else [[] for _ in range(n_fields)])


def rows_of(table: Table) -> list[tuple]:
    """The row tuples of a parsed table, numbers as Python scalars."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.columns)))


def triples_of(graph) -> list[tuple[str, str, str]]:
    """The stored edge set as labeled triples, in edge order."""
    ent, rel = graph.entities, graph.relations
    return [(ent.label(h), rel.label(r), ent.label(t)) for h, r, t in graph.edge_array.tolist()]


def imputed_table(bundle: DatasetBundle, values: np.ndarray) -> AttributeTable:
    """Attribute table with target entries set to their propagated ``values``, status IMPUTED."""
    attrs = bundle.attrs
    table = attrs.with_status(np.where(attrs.status == Status.MISSING, IMPUTED, attrs.status))
    table.values = attrs.values.copy()
    table.values[bundle.target_indices()] = values[bundle.target_indices()]
    return table


def graph_of(triples, extra_entities=()) -> KnowledgeGraph:
    """``build_graph`` of labelled triple tuples, interned as the parser interns them.

    Entities listed in ``extra_entities`` are interned after all triple entities.
    """
    entities, relations = Vocabulary(), Vocabulary()
    rows = intern_triples(table_of(triples), entities, relations)
    entities.intern(extra_entities)
    return build_graph(entities, relations, rows)


def load_rows(triples, attr_rows):
    """``load_dataset`` of labelled triple and attribute row tuples, interned as the parsers intern them."""
    entities, relations, types = Vocabulary(), Vocabulary(), Vocabulary()
    rows = intern_triples(table_of(triples), entities, relations)
    columns = intern_attributes(table_of(attr_rows), entities, types)
    return load_dataset(entities, relations, types, rows, columns)


def parsed_triples(source) -> list[tuple[str, str, str]]:
    """The rows ``parse_triples`` reads from a stream, as label tuples."""
    entities, relations = Vocabulary(), Vocabulary()
    rows = parse_triples(source, entities, relations)
    return [(entities.label(h), relations.label(r), entities.label(t)) for h, r, t in rows.tolist()]


def loaded_attributes(source) -> tuple[list[tuple[str, str, float]], int]:
    """The attribute rows of a stream that ``load_dataset`` keeps, as label tuples in key first-seen order, and the duplicate count."""
    entities, types = Vocabulary(), Vocabulary()
    entity_ids, type_ids, values = parse_attributes(source, entities, types)
    last = {}  # a key keeps the place of its first row and the value of its last
    for entity, attr, value in zip(entities.labels_of(entity_ids), types.labels_of(type_ids), values.tolist()):
        last[entity, attr] = value
    return [(*key, value) for key, value in last.items()], len(values) - len(last)


def make_model(key: PathKey, eta: float, tau: float, sigma2: float, support: int = 10, r2: float = 1.0):
    return RegressionModel(
        key=key,
        eta=eta,
        tau=tau,
        sigma2=sigma2,
        weight=1.0 / sigma2,
        fit=FitSummary(support=support, r2=r2),
    )


def registry_of(*models: RegressionModel, span: int | None = None, n_types: int | None = None) -> ModelRegistry:
    """The columnar registry of model objects, in their order.

    ``span`` and ``n_types`` default to the smallest that code every key.
    """
    keys = [m.key for m in models]
    if span is None:
        span = max([k.relation + 1 for k in keys if k.relation is not None], default=0)
    if n_types is None:
        n_types = max([max(k.dep, k.indep) + 1 for k in keys], default=1)
    numbers = np.array([(m.eta, m.tau, m.sigma2, m.weight, m.fit.r2) for m in models], dtype=np.float64).reshape(-1, 5)
    eta, tau, sigma2, weight, r2 = numbers.T.copy()
    return ModelRegistry(
        np.array([code_of(k, span, n_types) for k in keys], dtype=np.int64),
        eta,
        tau,
        sigma2,
        weight,
        np.array([m.fit.support for m in models], dtype=np.int64),
        r2,
        np.array([m.fit.derived_reverse for m in models], dtype=bool),
        span,
        n_types,
    )


# -- moved out of the library: the scalar fit and derivation, one key at a time --


def fit_simple_regression(y: np.ndarray, x: np.ndarray) -> tuple[float, float, float, FitSummary]:
    """Closed-form least squares of y on x: the reference for ``build_registry``'s grouped fit.

    Returns (eta, tau, sigma2, summary) where sigma2 is the raw mean squared
    residual (no variance floor applied) and the summary's r2 is clamped to
    [0, 1], defined as 1 when y has zero variance. The mean of all-equal
    values is that value, so all-equal xs raise and all-equal ys have the
    exact slope 0.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = y.size
    if n < 2:
        raise InsufficientSupportError(f"need at least 2 pairs, got {n}")
    mu_x, mu_y = (float(v[0]) if (v == v[0]).all() else float(v.mean()) for v in (x, y))  # a constant's mean is exact
    dx = x - mu_x
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
        raise NonInvertibleSlopeError(f"slope {model.eta!r} below invertibility threshold {eta_min!r}")
    eta2 = model.eta * model.eta
    return RegressionModel(
        key=reversed_key(model.key),
        eta=1.0 / model.eta,
        tau=-model.tau / model.eta,
        sigma2=model.sigma2 / eta2,
        weight=eta2 / model.sigma2,
        fit=replace(model.fit, derived_reverse=True),
    )


def relation_span(graph: KnowledgeGraph, registry: ModelRegistry) -> int:
    """One more than the largest relation id of the graph or of a registry key."""
    return max([graph.n_relations] + [k.relation + 1 for k in registry.models if k.relation is not None])


def code_of(key: PathKey, span: int, n_types: int) -> int:
    """The model code of a key: its kind is ``2 relation + direction`` if relational, ``2 span`` if inner."""
    kind = 2 * span if key.relation is None else 2 * key.relation + key.direction
    return (kind * n_types + key.dep) * n_types + key.indep


def key_of(code: int, span: int, n_types: int) -> PathKey:
    """The key of a model code, the inverse of :func:`code_of`."""
    kind, dep, indep = (int(v) for v in np.unravel_index(code, (2 * span + 1, n_types, n_types)))
    if kind == 2 * span:
        return PathKey(dep, indep)
    return PathKey(dep, indep, kind // 2, Direction(kind % 2))


def reversed_key(key: PathKey) -> PathKey:
    """The key of the analytically derived opposite-direction model: dep and indep swap, a direction flips."""
    if key.relation is None:
        return PathKey(key.indep, key.dep)
    return PathKey(key.indep, key.dep, key.relation, Direction(1 - key.direction))


def one_key_per_relation(samples) -> tuple[DatasetBundle, list[PathKey]]:
    """A bundle whose relation ``k`` carries the pairs of ``samples[k] = (ys, xs)``, and the fit key of each.

    Each pair is one edge between two fresh entities, x observed at the head
    and y at the tail, so the fit key (y | x, relation k) is the only key
    with pairs over relation ``k``.
    """
    triples, observed = [], {}
    for k, (ys, xs) in enumerate(samples):
        for i, (y, x) in enumerate(zip(ys, xs)):
            head, tail = f"h{k}.{i}", f"t{k}.{i}"
            triples.append((head, f"r{k}", tail))
            observed[(head, "x")] = float(x)
            observed[(tail, "y")] = float(y)
    bundle = make_bundle(triples, observed, attr_order=("x", "y"))
    relations = bundle.graph.relations
    return bundle, [PathKey(1, 0, relations.id(f"r{k}"), Direction.FORWARD) for k in range(len(samples))]


def entry_index(bundle, entity_label: str, attr_label: str) -> int:
    eid = bundle.graph.entities.id(entity_label)
    aid = bundle.attrs.types.id(attr_label)
    return index(bundle.attrs)[(eid, aid)]


def target_of(bundle, entity_label: str, attr_label: str) -> tuple[int, int]:
    return (bundle.graph.entities.id(entity_label), bundle.attrs.types.id(attr_label))


def six_node_fixture():
    """Hand-checkable six-node baseline fixture.

    Observed h: n1=10, n3=30, n5=8, n6=12 (global mean 15). Targets: n2
    (attributed neighbors n1, n3 -> local mean 20) and n4 (its only
    neighbor n2 is missing -> Local falls back to the global 15).
    """
    triples = [("n1", "p", "n2"), ("n3", "p", "n2"), ("n2", "q", "n4"), ("n5", "p", "n6")]
    observed = {("n1", "h"): 10.0, ("n3", "h"): 30.0, ("n5", "h"): 8.0, ("n6", "h"): 12.0}
    missing = {("n2", "h"): 21.0, ("n4", "h"): 14.0}
    return make_bundle(triples, observed, missing, attr_order=("h",))


def planted_exact_instance(rng: np.random.Generator, n: int = 10):
    """Noiseless tree instance whose values satisfy the planted models exactly.

    Attribute u propagates along tree edges through one affine relation model
    and attribute w is an exact affine view of u within each node, so a
    connected run must recover every hidden value. Model variances sit at the
    registry's floor (1e-12 * observed range squared). Returns
    (bundle, registry, truth) where truth maps (entity id, attr id) -> value.
    """
    names = [f"n{i}" for i in range(n)]
    eta_p = float(rng.uniform(0.8, 1.25)) * float(rng.choice([-1.0, 1.0]))
    tau_p = float(rng.uniform(-3, 3))
    eta_i = float(rng.uniform(0.5, 2.0))
    tau_i = float(rng.uniform(-5, 5))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    triples = [(names[p], "p", names[i + 1]) for i, p in enumerate(parents)]
    u = np.empty(n)
    u[0] = float(rng.uniform(-5, 5))
    for i, p in enumerate(parents):
        u[i + 1] = eta_p * u[p] + tau_p
    w = eta_i * u + tau_i
    observed: dict[tuple[str, str], float] = {}
    missing: dict[tuple[str, str], float] = {}
    for i in range(n):
        (observed if (i < 2 or rng.random() < 0.4) else missing)[(names[i], "u")] = float(u[i])
        (observed if (i < 2 or rng.random() < 0.4) else missing)[(names[i], "w")] = float(w[i])
    bundle = make_bundle(triples, observed, missing, attr_order=("u", "w"))
    range_u = bundle.attrs.value_range(0)
    range_w = bundle.attrs.value_range(1)
    fwd = make_model(
        PathKey(0, 0, 0, Direction.FORWARD),
        eta_p,
        tau_p,
        max(1e-12 * range_u * range_u, 1e-12),
    )
    inner = make_model(PathKey(1, 0), eta_i, tau_i, max(1e-12 * range_w * range_w, 1e-12))
    registry = registry_of(fwd, derive_reverse(fwd), inner, derive_reverse(inner))
    truth = {
        (bundle.graph.entities.id(name), bundle.attrs.types.id(attr)): value
        for (name, attr), value in missing.items()
    }
    return bundle, registry, truth


def ablation_dataset(seed: int = 0, n_people: int = 150):
    """People/items dataset with planted cross-attribute dependencies.

    Attribute t is tightly coupled to the same node's s (inner signal) and to
    the made-item's m (cross relational signal); same-type knows edges carry
    almost no signal. Most t entries are hidden, so the dependent type for
    ablation comparisons is t.
    """
    rng = np.random.default_rng(seed)
    triples = []
    observed: dict[tuple[str, str], float] = {}
    missing: dict[tuple[str, str], float] = {}
    for i in range(n_people):
        s = float(rng.uniform(0, 100))
        t = s + 100.0 + float(rng.normal(0, 0.5))
        m = s + 50.0 + float(rng.normal(0, 2.0))
        if rng.random() < 0.9:
            observed[(f"p{i}", "s")] = s
        if rng.random() < 0.3:
            observed[(f"p{i}", "t")] = t
        else:
            missing[(f"p{i}", "t")] = t
        if rng.random() < 0.9:
            observed[(f"i{i}", "m")] = m
        triples.append((f"p{i}", "made", f"i{i}"))
        triples.append((f"p{i}", "knows", f"p{int(rng.integers(n_people))}"))
        triples.append((f"p{i}", "knows", f"p{int(rng.integers(n_people))}"))
    return make_bundle(triples, observed, missing, attr_order=("s", "t", "m"))


def write_cli_dataset(dir_path, n_people: int = 40, seed: int = 0):
    """Write a small person/film dataset with learnable structure to disk.

    Returns (triples_path, attrs_path). Deaths track births with an offset,
    film releases track the director's birth, so cross-type and inner models
    all have signal.
    """
    rng = np.random.default_rng(seed)
    triples = []
    attr_rows = []
    for i in range(n_people):
        birth = 1900.0 + i + float(rng.uniform(-0.5, 0.5))
        attr_rows.append((f"p{i}", "birth", birth))
        attr_rows.append((f"p{i}", "death", birth + 80.0 + float(rng.normal(0, 1.0))))
        triples.append((f"p{i}", "knows", f"p{(i + 1) % n_people}"))
        triples.append((f"p{i}", "directed", f"f{i}"))
        attr_rows.append((f"f{i}", "release", birth + 30.0 + float(rng.normal(0, 1.0))))
    triples_path = dir_path / "triples.tsv"
    attrs_path = dir_path / "attrs.tsv"
    with open(triples_path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")
    with open(attrs_path, "w", encoding="utf-8") as fh:
        for e, a, v in attr_rows:
            fh.write(f"{e}\t{a}\t{v!r}\n")
    return triples_path, attrs_path


def random_instance(rng: np.random.Generator, max_nodes: int = 20, quirks: bool = False):
    """Random connected multi-relational instance with planted models.

    Node values are affine views of a latent per-node scalar plus noise, so
    moderate planted slopes keep the damped iteration contractive on most
    draws. At least two observed entries per attribute type guarantee
    positive ranges and defined global means. ``quirks`` adds the corner
    cases of the edge x entry join: a self-loop, one node pair linked under
    two relations, an entity without attributes, and an isolated entity with
    attributes.
    """
    n = int(rng.integers(5, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    n_rel = int(rng.integers(2 if quirks else 1, 5))
    n_types = int(rng.integers(1, 4))
    rels = [f"r{j}" for j in range(n_rel)]
    type_names = tuple(f"t{k}" for k in range(n_types))

    triples = [
        (names[int(rng.integers(0, i))], rels[int(rng.integers(n_rel))], names[i])
        for i in range(1, n)  # random tree keeps the graph connected
    ]
    for _ in range(int(rng.integers(0, n))):
        triples.append(
            (names[int(rng.integers(n))], rels[int(rng.integers(n_rel))], names[int(rng.integers(n))])
        )

    latent = rng.uniform(-10, 10, n)
    alpha = rng.uniform(0.5, 2.0, n_types) * rng.choice([-1.0, 1.0], n_types)
    beta = rng.uniform(-5, 5, n_types)
    observed: dict[tuple[str, str], float] = {}
    missing: dict[tuple[str, str], float] = {}
    observe_frac = rng.uniform(0.3, 0.7)
    for i in range(n):
        for k in range(n_types):
            if i > 1 and rng.random() > 0.8:
                continue  # entry absent
            value = float(alpha[k] * latent[i] + beta[k] + rng.normal(0, 0.3))
            if i <= 1 or rng.random() < observe_frac:
                observed[(names[i], type_names[k])] = value
            else:
                missing[(names[i], type_names[k])] = value
    if quirks:
        a, b = names[int(rng.integers(n))], names[int(rng.integers(n))]
        triples += [(a, rels[0], a), (a, rels[0], b), (a, rels[1], b)]
        triples += [("bare", rels[-1], names[0]), (names[-1], rels[0], "bare")]
        for k, attr in enumerate(type_names):
            (observed if k % 2 else missing)[("loner", attr)] = float(rng.normal(0, 3))
    bundle = make_bundle(triples, observed, missing, attr_order=type_names)

    models = []
    for rid in range(n_rel):
        for dep in range(n_types):
            for indep in range(n_types):
                if rng.random() < 0.5:
                    fwd = make_model(
                        PathKey(dep, indep, rid, Direction.FORWARD),
                        eta=float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])),
                        tau=float(rng.uniform(-5, 5)),
                        sigma2=float(rng.uniform(0.25, 4.0)),
                    )
                    models += [fwd, derive_reverse(fwd)]
    for dep in range(n_types):
        for indep in range(dep):
            if rng.random() < 0.5:
                inner = make_model(
                    PathKey(dep, indep),
                    eta=float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])),
                    tau=float(rng.uniform(-5, 5)),
                    sigma2=float(rng.uniform(0.25, 4.0)),
                )
                models.append(inner)
                models.append(derive_reverse(inner))
    return bundle, registry_of(*models)


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    """``bench/<name>.py``, loaded without writing bytecode.

    The test run leaves ``bench/`` as it found it.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while decorating
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def bench_generate():
    """The benchmark's graph generator, ``bench/generate.py``."""
    return _bench_module("generate")


def bench_bundle(seed: int, observed_fraction: float, **spec):
    """A ``bench/generate.py`` graph, split and subsampled with ``seed``."""
    generate = bench_generate()
    edges, values, present = generate.generate(generate.GraphSpec(**spec), seed=seed)
    triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in edges.tolist()]
    ents, types = np.nonzero(present)
    rows = [(f"e{e}", f"a{k}", float(values[e, k])) for e, k in zip(ents.tolist(), types.tolist())]
    bundle = split_attributes(*load_rows(triples, rows), SplitSpec(seed=seed))
    return subsample_observed(bundle, observed_fraction, seed=seed)


def bench_spans():
    """The benchmark's span recorder, ``bench/spans.py``."""
    return _bench_module("spans")


def bench_run():
    """The benchmark driver, ``bench/run.py``, which imports its sibling modules by name.

    Its import sets ``OPENBLAS_NUM_THREADS``; the test process keeps its own value.
    """
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return _bench_module("run")
    finally:
        sys.path.remove(str(BENCH_DIR))
        if threads is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = threads


# -- scalar references for the array-native load path ------------------------


def reference_build_graph(triples, extra_entities=()):
    """Set-based graph build, one triple at a time: the reference for ``build_graph``.

    Returns (entity labels, relation labels, sorted distinct edge tuples).
    """
    entities = Vocabulary()
    relations = Vocabulary()
    seen = set()
    edges = []
    for head, relation, tail in triples:
        if not head or not relation or not tail:
            raise ValueError(f"triple with empty field: {(head, relation, tail)!r}")
        (head_id, tail_id), (relation_id,) = entities.intern((head, tail)), relations.intern((relation,))
        edge = (head_id, relation_id, tail_id)
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    for label in extra_entities:
        entities.intern((label,))
    edges.sort()
    return entities.labels, relations.labels, edges


def reference_attribute_entries(n_entities, entries):
    """Tuple-sorting attribute build: the reference for ``AttributeTable.build``.

    Returns (entity ids, attribute ids, values, index, per-entity entry lists).
    """
    rows = sorted(entries)
    index = {(e, a): i for i, (e, a, _) in enumerate(rows)}
    if len(index) != len(rows):
        raise DataError("duplicate (entity, attribute) entry")
    per_entity = [[] for _ in range(n_entities)]
    for i, (e, _, _) in enumerate(rows):
        per_entity[e].append(i)
    return [e for e, _, _ in rows], [a for _, a, _ in rows], [v for _, _, v in rows], index, per_entity


def random_load_inputs(rng: np.random.Generator, n_names: int | None = None, n_rels: int | None = None):
    """Labelled triples and attribute rows with every case the load path must keep.

    Duplicate triples, self-loops, one (head, tail) pair under several
    relations, attribute-only entities and an attributed entity that also
    appears in the triples. Labels are shuffled so their ids differ from
    their names' order. ``n_names`` entity and ``n_rels`` relation labels
    are drawn from, by default 2–14 and 1–4.
    """
    names = [f"e{i}" for i in rng.permutation(n_names or int(rng.integers(2, 15)))]
    rels = [f"r{i}" for i in rng.permutation(n_rels or int(rng.integers(1, 5)))]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    triples = [(pick(names), pick(rels), pick(names)) for _ in range(int(rng.integers(1, max(30, 2 * len(names)))))]
    loop = pick(names)
    triples.append((loop, pick(rels), loop))
    head, tail = pick(names), pick(names)
    triples += [(head, rel, tail) for rel in rels]
    triples += [triples[int(rng.integers(len(triples)))] for _ in range(int(rng.integers(1, 6)))]
    triples = [triples[i] for i in rng.permutation(len(triples))]
    types = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
    attributed = [pick(names)] + [f"only{i}" for i in range(int(rng.integers(1, 4)))]
    attributed += [pick(names) for _ in range(int(rng.integers(0, max(8, len(names) // 2))))]
    rows = {(entity, pick(types)): float(rng.normal(1950.0, 30.0)) for entity in attributed}
    return triples, [(e, a, v) for (e, a), v in rows.items()]


# -- scalar references for the array-native library --------------------------
#
# The library keeps one representation, the sorted arrays. These per-entity
# views and the per-message update are the scalar form of the same scheme;
# the tests compare the arrays against them.


class OrientedRelation(NamedTuple):
    """A relation id together with the direction it is traversed in."""

    relation: int
    direction: Direction

    @property
    def flipped(self) -> "OrientedRelation":
        return OrientedRelation(self.relation, Direction(1 - self.direction))


def adjacency(graph) -> list[list[tuple[int, OrientedRelation]]]:
    """Per entity, its ``(neighbor, OrientedRelation)`` pairs over every incident edge.

    The tail of an edge sees ``(head, relation, FORWARD)`` and the head sees
    ``(tail, relation, REVERSE)``; each list is sorted by (neighbor id,
    relation id, direction).
    """
    adj: list[list[tuple[int, OrientedRelation]]] = [[] for _ in range(graph.n_entities)]
    for h, r, t in graph.edge_array.tolist():
        # Self-loops deliberately get one entry per direction on the same node.
        adj[t].append((h, OrientedRelation(r, Direction.FORWARD)))
        adj[h].append((t, OrientedRelation(r, Direction.REVERSE)))
    for entries in adj:
        entries.sort(key=lambda item: (item[0], item[1].relation, item[1].direction))
    return adj


def neighbors(graph, v: int) -> list[tuple[int, OrientedRelation]]:
    """All incident entries of ``v``, both orientations, in sorted order."""
    if not 0 <= v < graph.n_entities:
        raise ValueError(f"entity id {v} out of range [0, {graph.n_entities})")
    return adjacency(graph)[v]


def index(attrs) -> dict[tuple[int, int], int]:
    """``(entity id, attribute id) -> entry index``."""
    keys = zip(attrs.entity_ids.tolist(), attrs.attr_ids.tolist())
    return {key: i for i, key in enumerate(keys)}


def per_entity(attrs) -> list[list[int]]:
    """Entry indices per entity id, ascending by attribute id."""
    out: list[list[int]] = [[] for _ in range(attrs.n_entities)]
    for i, entity in enumerate(attrs.entity_ids.tolist()):
        out[entity].append(i)
    return out


def entries_of(attrs, entity: int) -> list[int]:
    """Entry indices at ``entity``, ascending by attribute id."""
    return per_entity(attrs)[entity]


class Message(NamedTuple):
    target: tuple[int, int]  # (entity id, attr id)
    prediction: float
    weight: float
    key: PathKey
    source_entity: int


# the ablations of the paper, as the parametrize ids of the tests
ABLATIONS = ("full", "no_inner", "no_cross")


def allows(ablation: str, key: PathKey) -> bool:
    """Whether ``ablation`` keeps the model of ``key``: w/o Cross only same-type relational ones."""
    if ablation == "no_cross":
        return key.relation is not None and key.dep == key.indep
    if ablation == "no_inner":
        return key.relation is not None
    return True


def ablated(registry: ModelRegistry, ablation: str) -> ModelRegistry:
    """The registry of the models that ``ablation`` keeps, in registry order."""
    return registry_of(*(m for key, m in registry.models.items() if allows(ablation, key)), span=registry.span, n_types=registry.n_types)


def init_values(bundle) -> np.ndarray:
    """The loaded values with every target at the observed mean of its type, as ``run`` starts."""
    attrs = bundle.attrs
    values = attrs.values.copy()
    for t in bundle.target_indices().tolist():
        values[t] = attrs.mean_value(int(attrs.attr_ids[t]))
    return values


def collect_messages(bundle, registry, values, target) -> list[Message]:
    """All messages flowing into one tracked (entity, attribute) entry.

    Relational messages come first, in the graph's deterministic adjacency
    order; within-node messages follow in ascending source attribute order.
    ``values`` is the previous-iteration buffer the predictions read from.
    """
    entity, attr = target
    attrs = bundle.attrs
    if (entity, attr) not in index(attrs):
        raise ValueError(f"target {target!r} is not a tracked attribute entry")
    entries = per_entity(attrs)
    messages: list[Message] = []
    for neighbor, oriented in neighbors(bundle.graph, entity):
        for entry in entries[neighbor]:
            key = PathKey(
                attr, int(attrs.attr_ids[entry]), oriented.relation, oriented.direction
            )
            model = registry.models.get(key)
            if model is not None:
                messages.append(
                    Message(target, model.eta * float(values[entry]) + model.tau, model.weight, key, neighbor)
                )
    for entry in entries[entity]:
        src_attr = int(attrs.attr_ids[entry])
        if src_attr == attr:
            continue
        key = PathKey(attr, src_attr)
        model = registry.models.get(key)
        if model is not None:
            messages.append(
                Message(target, model.eta * float(values[entry]) + model.tau, model.weight, key, entity)
            )
    return messages


def aggregate(messages) -> float:
    """Weighted, normalized mean of the message predictions."""
    if not messages:
        raise ValueError("cannot aggregate an empty message list")
    total_w = 0.0
    total_wp = 0.0
    for m in messages:
        total_w += m.weight
        total_wp += m.weight * m.prediction
    return total_wp / total_w


def combine(prev: float, estimate: float, damping: float) -> float:
    """Damped update: (1 - damping) * prev + damping * estimate."""
    return (1.0 - damping) * prev + damping * estimate


def extract_pairs(bundle, key: PathKey) -> tuple[np.ndarray, np.ndarray]:
    """Collect observed (y, x) training pairs for a fit key, one key at a time.

    Relational keys must be FORWARD (one pair per stored edge whose tail
    observes ``dep`` and whose head observes ``indep``); reverse models are
    derived, never fitted. Inner keys take one pair per node observing both
    types. Pairs come back in stored edge / entity id order.
    """
    attrs = bundle.attrs
    observed = attrs.status == Status.OBSERVED
    entry_of = index(attrs)

    def value_if_observed(entity: int, attr: int) -> float | None:
        idx = entry_of.get((entity, attr))
        if idx is None or not observed[idx]:
            return None
        return float(attrs.values[idx])

    ys: list[float] = []
    xs: list[float] = []
    if key.relation is None:
        for entity in range(bundle.graph.n_entities):
            y = value_if_observed(entity, key.dep)
            x = value_if_observed(entity, key.indep)
            if y is not None and x is not None:
                ys.append(y)
                xs.append(x)
    else:
        if key.direction is not Direction.FORWARD:
            raise ValueError("pairs are extracted for FORWARD keys only")
        for head, relation, tail in bundle.graph.edge_array.tolist():
            if relation != key.relation:
                continue
            y = value_if_observed(tail, key.dep)
            x = value_if_observed(head, key.indep)
            if y is not None and x is not None:
                ys.append(y)
                xs.append(x)
    return np.asarray(ys, dtype=np.float64), np.asarray(xs, dtype=np.float64)


def reference_apply_split_manifest(graph, attrs, manifest):
    """Per-row manifest apply: the reference for ``apply_split_manifest``.

    Returns (split codes, entry statuses).
    """
    entry_of = index(attrs)
    split = np.full(attrs.n_entries, -1, dtype=np.int8)
    for line_no, (entity, attr, code) in enumerate(manifest, start=1):
        eid = graph.entities.get(entity)
        aid = attrs.types.get(attr)
        idx = None if eid is None or aid is None else entry_of.get((eid, aid))
        if idx is None:
            raise ParseError(f"manifest row ({entity!r}, {attr!r}) not in the attribute table", line_no)
        if split[idx] != -1:
            raise ParseError(f"manifest labels ({entity!r}, {attr!r}) twice", line_no)
        split[idx] = int(code)
    if (split == -1).any():
        missing = int((split == -1).sum())
        raise DataError(f"manifest leaves {missing} attribute entries unlabeled")
    status = np.where(split == int(Split.TRAIN), int(Status.OBSERVED), int(Status.MISSING))
    return split, status


# -- per-row references for the bulk text codec ------------------------------
#
# The readers and writers of the library go through ``mrap.codec`` in bulk.
# These are the line-at-a-time forms they replaced; the codec tests compare
# the two on random and corrupted files.


def reference_lines(data: bytes):
    """Decoded lines of a file as a text-mode ``open`` with ``utf-8-sig`` yields them.

    A leading byte-order mark is dropped. A line that is not UTF-8 raises a
    ParseError when it is reached, so the parsers meet it in line order.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    for line_no, raw in enumerate(data.splitlines(keepends=True), start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 byte 0x{raw[exc.start]:02x}", line_no) from None


def reference_parse_triples(lines):
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


def reference_parse_attributes(lines):
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
        if attr_type.startswith("#"):
            raise ParseError(f"attribute type {attr_type!r} starts with '#'", line_no)
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
    return [(e, a, v) for (e, a), v in rows.items()], duplicates


_SPLIT_NAMES = ("train", "dev", "test")


def reference_read_split_manifest(lines):
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


def reference_write_split_manifest(fh, bundle):
    entities = bundle.graph.entities
    types = bundle.attrs.types
    for i in range(bundle.attrs.n_entries):
        entity = entities.label(int(bundle.attrs.entity_ids[i]))
        attr = types.label(int(bundle.attrs.attr_ids[i]))
        fh.write(f"{entity}\t{attr}\t{_SPLIT_NAMES[bundle.split[i]]}\n")


_DIRECTION_NAMES = {Direction.FORWARD: "forward", Direction.REVERSE: "reverse"}


def reference_write_model_dump(fh, registry, graph, attrs):
    """One line per fit, its derived reverse left out, in key order."""
    def sort_key(key):
        return (
            key.relation is None,
            -1 if key.relation is None else key.relation,
            int(key.direction) if key.direction is not None else -1,
            key.dep,
            key.indep,
        )

    for key in sorted(registry.models, key=sort_key):
        m = registry.models[key]
        if m.fit.derived_reverse:
            continue
        fields = (
            attrs.types.label(key.dep),
            attrs.types.label(key.indep),
            "INNER" if key.relation is None else graph.relations.label(key.relation),
            "-" if key.relation is None else _DIRECTION_NAMES[key.direction],
            f"{m.eta:.17g}",
            f"{m.tau:.17g}",
            f"{m.sigma2:.17g}",
            str(m.fit.support),
            f"{m.fit.r2:.17g}",
        )
        fh.write("\t".join(fields) + "\n")


def reference_read_model_dump(lines, graph, attrs):
    """Per-line model dump reader: each row's fit, then its derived reverse, with the checks of the library."""
    models = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 9:
            raise ParseError(f"expected 9 tab-separated fields, got {len(fields)}", line_no)
        try:
            fit, reverse = _reference_dump_model(tuple(fields), graph, attrs)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if fit.key in models:  # the models are closed under the mirror: the reverse's key is there too
            raise ParseError("duplicate key", line_no)
        models[fit.key], models[reverse.key] = fit, reverse
    return models


def reference_write_imputations(fh, bundle, values, report):
    attrs = bundle.attrs
    entities = bundle.graph.entities
    for t, n_msg, w in zip(report.target_entries, report.n_messages, report.total_weight):
        fh.write(
            f"{entities.label(int(attrs.entity_ids[t]))}\t"
            f"{attrs.types.label(int(attrs.attr_ids[t]))}\t"
            f"{values[t]:.17g}\t{int(n_msg)}\t{w:.17g}\n"
        )


def reference_write_table(path, columns, sep="\t", header=None):
    """The per-field, per-row table writer that ``write_table`` replaced."""
    texts = [
        map(("%.17g" if column.dtype.kind == "f" else "%d").__mod__, column.tolist())
        if isinstance(column, np.ndarray)
        else map(_csv_field, column) if sep == ","
        else column
        for column in columns
    ]
    lines = [header] if header is not None else []
    lines.extend(map(sep.join, zip(*texts)))
    lines.append("")  # every line ends with a newline
    write_text(path, "\n".join(lines))


def reference_write_trace(fh, report):
    fh.write("iter,attr_type,max_delta,loss\n")
    for iteration, (deltas, loss_val) in enumerate(zip(report.deltas, report.losses), start=1):
        for attr, delta in zip(report.types, deltas):
            fh.write(f"{iteration},{attr},{delta:.17g},{loss_val:.17g}\n")


def reference_read_imputed(lines, path, bundle):
    """Per-row ``imputed.tsv`` reader: predictions by (entity id, attribute id).

    The error of a bad row names ``path`` and the line, as the CLI reports it.
    """
    try:
        return _reference_imputed_rows(lines, bundle)
    except ParseError as exc:
        raise DataError(f"{path}:{exc.line_no}: {exc.reason}") from None


def _reference_imputed_rows(lines, bundle):
    entries = set(zip(bundle.attrs.entity_ids.tolist(), bundle.attrs.attr_ids.tolist()))
    preds = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line_no)
        entity, attr, value = fields[0], fields[1], fields[2]
        eid = bundle.graph.entities.get(entity)
        aid = bundle.attrs.types.get(attr)
        if (eid, aid) not in entries:  # an unknown label, or two labels that name no entry
            raise ParseError(f"unknown target ({entity!r}, {attr!r})", line_no)
        try:
            prediction = float(value)
        except ValueError:
            raise ParseError(f"unparseable value {value!r}", line_no) from None
        if not math.isfinite(prediction):
            raise ParseError(f"non-finite value {value!r}", line_no)
        if (eid, aid) in preds:
            raise ParseError(f"duplicate target ({entity!r}, {attr!r})", line_no)
        preds[(eid, aid)] = prediction
    return preds


# -- path-level references for the compiled operator --------------------------
#
# ``run`` compiles the paths into one affine operator and tracks the loss as a
# quadratic form. These build the paths explicitly, sum the loss over them and
# solve the stationarity system densely per connected component.


class _Paths(NamedTuple):
    """Flattened message paths: one row per (source entry, model, target entry)."""

    src: np.ndarray
    tgt: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.src)


def _link(bundle: DatasetBundle, registry: ModelRegistry) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every path as (src, tgt, model id), plus the models' eta, tau and weight rows.

    A model's id is its place in the registry. Paths come
    edge by edge in stored edge order, each edge's forward paths before its
    reverse ones, then the inner paths entity by entity. This fixes the
    order in which each target's messages are summed.
    """
    graph, attrs = bundle.graph, bundle.attrs
    n_types, attr = attrs.n_types, attrs.attr_ids
    shape = (2, relation_span(graph, registry), n_types, n_types)
    relational = np.full(shape, -1, dtype=np.int32)  # direction, relation, dep, indep
    inner = np.full((n_types, n_types), -1, dtype=np.int32)  # dep, indep
    for i, key in enumerate(registry.models):
        if key.relation is None:
            inner[key.dep, key.indep] = i
        else:
            relational[key.direction, key.relation, key.dep, key.indep] = i
    params = [(model.eta, model.tau, model.weight) for model in registry.models.values()]
    models = np.array(params, dtype=np.float64).reshape(-1, 3).T.copy()

    index = EntryIndex.of(attrs, graph.n_entities)
    edge, head_e, tail_e = index.edge_pairs(graph)
    relation = graph.edge_array[edge, 1]
    fwd = relational[Direction.FORWARD, relation, attr[tail_e], attr[head_e]]
    rev = relational[Direction.REVERSE, relation, attr[head_e], attr[tail_e]]
    f, r = fwd >= 0, rev >= 0
    # a stable sort of two runs that are each in edge order is one merge
    order = np.argsort(np.concatenate([edge[f], edge[r]]), kind="stable")
    dep_e, src_e = index.node_pairs()
    ind = inner[attr[dep_e], attr[src_e]]
    i = ind >= 0
    src = np.concatenate([np.concatenate([head_e[f], tail_e[r]])[order], src_e[i]])
    tgt = np.concatenate([np.concatenate([tail_e[f], head_e[r]])[order], dep_e[i]])
    mid = np.concatenate([np.concatenate([fwd[f], rev[r]])[order], ind[i]])
    return src, tgt, mid, models


def _build_paths(bundle: DatasetBundle, registry: ModelRegistry) -> _Paths:
    """Enumerate every path between tracked entries, in fixed order."""
    src, tgt, mid, (eta, tau, weight) = _link(bundle, registry)
    return _Paths(src=src, tgt=tgt, eta=eta[mid], tau=tau[mid], weight=weight[mid])


def loss(bundle: DatasetBundle, registry: ModelRegistry, values: np.ndarray, skip_fixed: bool = False) -> float:
    """Total weighted squared prediction error over all paths.

    Sums, for every tracked entry, the squared differences between its
    current value and each prediction flowing into it, scaled by the model
    weights. Diagnostic only: the propagation minimizes this per node, not
    globally. ``skip_fixed`` leaves out the paths between two fixed entries
    (observed ones, or targets that no message reaches), as a run's trace does.
    """
    values = np.asarray(values)
    paths = _build_paths(bundle, registry)
    resid = values[paths.tgt] - (paths.eta * values[paths.src] + paths.tau)
    if skip_fixed:
        attrs = bundle.attrs
        live = (attrs.status == Status.MISSING) & (np.bincount(paths.tgt, minlength=attrs.n_entries) > 0)
        keep = live[paths.tgt] | live[paths.src]
        return float(np.dot(paths.weight[keep] * resid[keep], resid[keep]))
    return float(np.dot(paths.weight * resid, resid))


def fixed_point_oracle(bundle: DatasetBundle, registry: ModelRegistry) -> dict[tuple[int, int], float]:
    """Exact fixed point of the message-passing update by direct linear solve.

    Builds the stationarity system value = (sum of weighted predictions) /
    (sum of weights) over all targets with at least one message, treating
    observed entries and message-less targets (held at their init mean) as
    constants, and solves each connected component densely. Intended for
    small instances; raises :class:`SingularSystemError` naming the targets
    of any underdetermined component.
    """
    attrs = bundle.attrs
    paths = _build_paths(bundle, registry)
    missing = attrs.status == Status.MISSING
    upd = _Paths(*(a[missing[paths.tgt]] for a in paths)) if paths.n else paths

    n = attrs.n_entries
    weight_sum = np.bincount(upd.tgt, weights=upd.weight, minlength=n) if upd.n else np.zeros(n)
    targets = bundle.target_indices()
    unknowns = [int(t) for t in targets if weight_sum[t] > 0.0]
    pos = {entry: i for i, entry in enumerate(unknowns)}
    const_values = init_values(bundle)

    # union-find over unknowns coupled by a path
    parent = list(range(len(unknowns)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s, t in zip(upd.src, upd.tgt):
        si, ti = pos.get(int(s)), pos.get(int(t))
        if si is not None and ti is not None:
            ri, rj = find(si), find(ti)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    components: dict[int, list[int]] = {}
    for i in range(len(unknowns)):
        components.setdefault(find(i), []).append(i)

    solution = const_values.copy()
    for root in sorted(components):
        comp = components[root]
        local = {unknowns[i]: j for j, i in enumerate(comp)}
        size = len(comp)
        a_mat = np.eye(size)
        b = np.zeros(size)
        for idx in range(upd.n):
            t = int(upd.tgt[idx])
            lt = local.get(t)
            if lt is None:
                continue
            q = weight_sum[t]
            s = int(upd.src[idx])
            w, eta, tau = float(upd.weight[idx]), float(upd.eta[idx]), float(upd.tau[idx])
            b[lt] += w * tau / q
            ls = local.get(s)
            if ls is not None:
                a_mat[lt, ls] -= w * eta / q
            else:
                b[lt] += w * eta * const_values[s] / q
        if np.linalg.matrix_rank(a_mat) < size:
            labels = [
                (
                    bundle.graph.entities.label(int(attrs.entity_ids[unknowns[i]])),
                    attrs.types.label(int(attrs.attr_ids[unknowns[i]])),
                )
                for i in comp
            ]
            raise SingularSystemError(
                f"fixed-point system singular on a component of {size} targets", labels
            )
        solution[[unknowns[i] for i in comp]] = np.linalg.solve(a_mat, b)

    return {
        (int(attrs.entity_ids[t]), int(attrs.attr_ids[t])): float(solution[t]) for t in targets
    }


def sparse_fixed_point(bundle: DatasetBundle, registry: ModelRegistry) -> np.ndarray:
    """Exact fixed point of the message-passing update by one sparse solve.

    The system is that of :func:`fixed_point_oracle`: the unknowns are the
    targets with at least one message; observed entries and message-less
    targets are constants at their ``init_values``. ``(I - A) x = c`` is
    solved with GMRES to a relative residual of 1e-13, which stays fast at
    sizes where a direct sparse solve does not. Returns the values of every
    entry; raises a RuntimeError when GMRES does not converge.
    """
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.linalg import gmres

    paths = _build_paths(bundle, registry)
    live = bundle.attrs.status[paths.tgt] == Status.MISSING
    src, tgt, eta, tau, weight = (column[live] for column in paths)
    n = bundle.attrs.n_entries
    weight_sum = np.bincount(tgt, weights=weight, minlength=n)
    unknowns = np.flatnonzero(weight_sum > 0.0)
    pos = np.full(n, -1, dtype=np.int64)
    pos[unknowns] = np.arange(len(unknowns))
    values = init_values(bundle)
    coupled = pos[src] >= 0
    share = weight / weight_sum[tgt]
    c = np.bincount(pos[tgt], weights=share * (tau + np.where(coupled, 0.0, eta * values[src])), minlength=len(unknowns))
    a = csr_matrix(
        ((share * eta)[coupled], (pos[tgt[coupled]], pos[src[coupled]])), shape=(len(unknowns), len(unknowns))
    )
    x, info = gmres(identity(len(unknowns), format="csr") - a, c, rtol=1e-13, atol=0.0)
    if info != 0:
        raise RuntimeError(f"GMRES did not converge (info {info}) on {len(unknowns)} unknowns")
    values[unknowns] = x
    return values


# -- dict references for array scoring ----------------------------------------
#
# The library scores prediction vectors over the attribute entries. These are
# the forms keyed by ``(entity id, attr id)`` target tuples that it replaced;
# the tests compare the two on random instances.

Target = tuple[int, int]  # (entity id, attr id)


def reference_baseline_global(bundle: DatasetBundle) -> dict[Target, float]:
    """Every target gets the observed mean of its attribute type, keyed by ``(entity id, attr id)``."""
    attrs = bundle.attrs
    out: dict[Target, float] = {}
    for t in bundle.target_indices():
        attr = int(attrs.attr_ids[t])
        out[(int(attrs.entity_ids[t]), attr)] = attrs.mean_value(attr)
    return out


def reference_baseline_local(bundle: DatasetBundle) -> dict[Target, float]:
    """Targets get the mean observed same-type value over neighboring nodes.

    Each neighboring node counts once even when connected through several
    edges, and values are summed in ascending neighbor id order. Targets
    without an attributed neighbor fall back to the Global value.
    """
    attrs = bundle.attrs
    n_entities = bundle.graph.n_entities
    head, _, tail = bundle.graph.edge_array.T
    # distinct (entity, neighbor) pairs over both edge directions, ascending
    pairs = np.unique(np.concatenate([tail * n_entities + head, head * n_entities + tail]))
    entity, neighbor = np.divmod(pairs, n_entities)
    first = np.searchsorted(entity, np.arange(n_entities + 1))

    targets = bundle.target_indices()
    t_entity, t_attr = attrs.entity_ids[targets], attrs.attr_ids[targets]
    n_nb = first[t_entity + 1] - first[t_entity]
    row = np.repeat(np.arange(len(targets)), n_nb)
    nb = neighbor[runs(first[t_entity], n_nb)]
    idx = attrs.lookup(nb, t_attr[row])
    hit = (idx >= 0) & (attrs.status[idx] == Status.OBSERVED)
    total = np.bincount(row[hit], weights=attrs.values[idx[hit]], minlength=len(targets))
    count = np.bincount(row[hit], minlength=len(targets))

    out: dict[Target, float] = {}
    for e, a, s, c in zip(t_entity.tolist(), t_attr.tolist(), total.tolist(), count.tolist()):
        out[(e, a)] = s / c if c else attrs.mean_value(a)
    return out


def reference_evaluate(
    predictions: Mapping[Target, float],
    bundle: DatasetBundle,
    split: Split,
    method: str = "",
    setup: str = "",
) -> EvalReport:
    """Per-attribute-type MAE/RMSE of predictions on one split's targets.

    Targets absent from ``predictions`` are scored at the Global fallback and
    counted in ``n_unpredicted`` rather than dropped. Types with no entries
    in the split are omitted with a warning.
    """
    attrs = bundle.attrs
    report = EvalReport(method=method, setup=setup)
    split_entries = bundle.split_indices(split)
    for attr in range(attrs.n_types):
        entries = split_entries[attrs.attr_ids[split_entries] == attr]
        if len(entries) == 0:
            logger.warning(
                "split %s has no entries of type %r", split.name, attrs.types.label(attr)
            )
            continue
        errors = np.empty(len(entries))
        unpredicted = 0
        for i, entry in enumerate(entries):
            target = (int(attrs.entity_ids[entry]), attr)
            pred = predictions.get(target)
            if pred is None:
                pred = attrs.mean_value(attr)
                unpredicted += 1
            errors[i] = pred - attrs.values[entry]
        report.rows.append(
            EvalRow(
                attr=attrs.types.label(attr),
                mae=float(np.mean(np.abs(errors))),
                rmse=float(np.sqrt(np.mean(errors * errors))),
                n=len(entries),
                n_unpredicted=unpredicted,
            )
        )
    return report


def _row(report: EvalReport, attr: str) -> EvalRow | None:
    """The first row of ``attr`` in ``report``, by a linear scan."""
    for r in report.rows:
        if r.attr == attr:
            return r
    return None


def reference_format_report_table(reports: list[EvalReport]) -> str:
    """The column-by-column renderer that ``format_report_table`` replaced, at its default merge.

    When both Global and Local reports are present, they collapse into one
    Local/Global column showing the better MAE of the two; an asterisk marks
    rows where Global outperforms Local.
    """
    by_method = {r.method: r for r in reports}
    merged = "Global" in by_method and "Local" in by_method
    columns: list[tuple[str, EvalReport | None]] = []
    if merged:
        columns.append(("Local/Global", None))
    for report in reports:
        if merged and report.method in ("Global", "Local"):
            continue
        columns.append((report.method, report))

    attr_order: list[str] = []
    for report in reports:
        for row in report.rows:
            if row.attr not in attr_order:
                attr_order.append(row.attr)

    def fmt(x: float) -> str:
        return f"{x:.6g}"

    header = ["attribute"]
    for name, _ in columns:
        header += [f"{name} MAE", f"{name} RMSE"]
    lines = [header]
    for attr in attr_order:
        line = [attr]
        for name, report in columns:
            if report is None:
                g = _row(by_method["Global"], attr)
                l = _row(by_method["Local"], attr)
                if g is None or l is None:
                    line += ["-", "-"]
                    continue
                best = g if g.mae <= l.mae else l
                star = "*" if g.mae <= l.mae else ""
                line += [star + fmt(best.mae), star + fmt(best.rmse)]
            else:
                row = _row(report, attr)
                line += ["-", "-"] if row is None else [fmt(row.mae), fmt(row.rmse)]
        lines.append(line)

    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = []
    for line in lines:
        out.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out) + "\n"


def propagation_predictions(bundle: DatasetBundle, registry: ModelRegistry, cfg: PropagationConfig):
    """Run propagation and return (prediction vector with the targets filled and NaN elsewhere, report)."""
    values, report = run(bundle, registry, cfg)
    preds = np.full(bundle.attrs.n_entries, np.nan)
    preds[report.target_entries] = values[report.target_entries]
    return preds, report


def reference_propagation_predictions(bundle: DatasetBundle, registry: ModelRegistry, cfg: PropagationConfig):
    """Run propagation and return (predictions map, report)."""
    values, report = run(bundle, registry, cfg)
    attrs = bundle.attrs
    preds = {
        (int(attrs.entity_ids[t]), int(attrs.attr_ids[t])): float(values[t])
        for t in report.target_entries
    }
    return preds, report


def vector_of(bundle: DatasetBundle, predictions: Mapping[Target, float]) -> np.ndarray:
    """The prediction vector of a map keyed by target, NaN where the map has no entry's key."""
    attrs = bundle.attrs
    out = np.full(attrs.n_entries, np.nan)
    idx = attrs.lookup([e for e, _ in predictions], [a for _, a in predictions])
    values = np.array(list(predictions.values()), dtype=np.float64)
    out[idx[idx >= 0]] = values[idx >= 0]
    return out


# -- moved out of the library: training-pair differences per key ---------------


def export_differences(
    bundle: DatasetBundle, key: PathKey
) -> tuple[np.ndarray, float, float]:
    """Raw y - x differences over a key's training pairs, plus normal fit.

    For attribute pairs on the same unit the differences center near the
    model intercept. Returns (differences, mean, std); empty keys yield an
    empty array and NaN parameters with a warning.
    """
    if key.relation is not None and key.direction is not Direction.FORWARD:
        raise ValueError("pairs are extracted for FORWARD keys only")
    swap = key.relation is None and key.dep < key.indep  # inner fits regress the higher attr id
    fit_key = reversed_key(key) if swap else key
    code, ys, xs = training_pairs(bundle)
    span = bundle.graph.n_relations
    known = fit_key.relation is None or fit_key.relation < span  # a relation the graph lacks has no pairs
    mask = code == (code_of(fit_key, span, bundle.attrs.n_types) if known else -1)
    ys, xs = ys[mask], xs[mask]
    if swap:
        ys, xs = xs, ys
    if ys.size == 0:
        logger.warning("no training pairs for key %r", key)
        return np.empty(0), float("nan"), float("nan")
    diffs = ys - xs
    return diffs, float(diffs.mean()), float(diffs.std())


def write_differences(fh: IO[str], key_label: str, diffs: np.ndarray, mean: float, std: float) -> None:
    """CSV ``key,value`` rows followed by the fitted normal parameters."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["key", "value"])
    for value in diffs:
        writer.writerow([key_label, f"{value:.17g}"])
    fh.write(f"# fitted_normal mean={mean:.17g} std={std:.17g}\n")



# -- the per-row model dump reader -------------------------------------------
#
# ``read_model_dump`` converts and checks the columns in bulk; this is the
# per-row reader it replaced, over the same table.


def _reference_dump_model(
    fields: tuple[str, ...], graph: KnowledgeGraph, attrs: AttributeTable
) -> tuple[RegressionModel, RegressionModel]:
    """The fit of one model dump row and its derived reverse; a ValueError says what is wrong with the row."""
    dep_l, indep_l, rel_l, dir_l, eta, tau, sigma2, support, r2 = fields
    dep = attrs.types.get(dep_l)
    indep = attrs.types.get(indep_l)
    if dep is None or indep is None:
        raise ValueError(f"unknown attribute type in {dep_l!r}/{indep_l!r}")
    if (rel_l, dir_l) == (INNER_LABEL, "-"):
        if dep == indep:
            raise ValueError("inner key requires distinct attribute types")
        key = PathKey(dep, indep)
    else:
        relation = graph.relations.get(rel_l)
        if relation is None:
            raise ValueError(f"unknown relation {rel_l!r}")
        direction = {v: k for k, v in _DIRECTION_NAMES.items()}.get(dir_l)
        if direction is None:
            raise ValueError(f"unknown direction {dir_l!r}")
        key = PathKey(dep, indep, relation, direction)
    params = [float(eta), float(tau), float(sigma2)]
    if not -(2**63) <= int(support) < 2**63:
        raise ValueError(f"support {support!r} out of the int64 range")
    summary = FitSummary(int(support), float(r2))
    texts = (eta, tau, sigma2, support, r2)
    for name, text, value in zip(("eta", "tau", "sigma2", "support", "r2"), texts, params + [summary.support, summary.r2]):
        if name == "support":
            if value < 2:
                raise ValueError(f"support {text!r} below 2")
            continue
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} {text!r}")
        if name == "sigma2" and value <= 0.0:
            raise ValueError(f"non-positive sigma2 {text!r}")
        if name == "r2" and not 0.0 <= value <= 1.0:
            raise ValueError(f"r2 {text!r} outside [0, 1]")
    fit = make_model(key, *params, summary.support, summary.r2)
    try:
        reverse = derive_reverse(fit)
        positive = [fit.weight, reverse.sigma2, reverse.weight]
        derives = all(map(math.isfinite, [reverse.eta, reverse.tau, *positive])) and min(positive) > 0.0
    except (NonInvertibleSlopeError, ZeroDivisionError):  # a slope, or its square, of 0
        derives = False
    if not derives:
        raise ValueError(f"eta {eta!r}, tau {tau!r} and sigma2 {sigma2!r} derive no finite, positive-weighted model and reverse")
    return fit, reverse


def rowwise_read_model_dump(source: IO, graph: KnowledgeGraph, attrs: AttributeTable) -> ModelRegistry:
    """Per-row form of ``read_model_dump``: one row converted and checked at a time.

    The first row with an unknown label, a non-finite number, a ``sigma2``
    that is not positive, a ``support`` below 2, an ``r2`` outside [0, 1],
    parameters that derive no finite, positive-weighted model and reverse,
    or a key that an earlier row's fit or reverse already has raises a
    ParseError. Each row gives its fit, then its derived reverse.
    """
    def convert(table: Table) -> dict[PathKey, RegressionModel]:
        models: dict[PathKey, RegressionModel] = {}
        for row, fields in enumerate(zip(*table.columns)):
            try:
                fit, reverse = _reference_dump_model(fields, graph, attrs)
            except ValueError as exc:
                raise ParseError(str(exc), table.line(row)) from None
            if fit.key in models:
                raise ParseError("duplicate key", table.line(row))
            models[fit.key], models[reverse.key] = fit, reverse
        return models

    models = read_table(source, 9, convert)
    return registry_of(*models.values(), span=graph.n_relations, n_types=attrs.n_types)
