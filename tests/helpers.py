"""Shared fixture builders for the test suite."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from mrap.attributes import AttributeTable, Status
from mrap.errors import DataError
from mrap.graph import Direction, Vocabulary, build_graph
from mrap.ingest import DatasetBundle, Split
from mrap.regression import FitSummary, ModelRegistry, PathKey, RegressionModel


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
    graph = build_graph(triples, extra_entities=attr_entities)
    types = Vocabulary(attr_order)
    for _, attr in list(observed) + list(missing):
        types.add(attr)
    entries = []
    for (entity, attr), value in {**observed, **missing}.items():
        entries.append((graph.entities.id(entity), types.id(attr), value))
    table = AttributeTable.build(graph.n_entities, types, entries)

    status = table.status.copy()
    split = np.zeros(table.n_entries, dtype=np.int8)
    for (entity, attr) in missing:
        idx = table.index[(graph.entities.id(entity), types.id(attr))]
        status[idx] = int(Status.MISSING)
        split[idx] = int(missing_split)
    return DatasetBundle(graph=graph, attrs=table.with_status(status), split=split)


def make_model(key: PathKey, eta: float, tau: float, sigma2: float, support: int = 10, r2: float = 1.0):
    return RegressionModel(
        key=key,
        eta=eta,
        tau=tau,
        sigma2=sigma2,
        weight=1.0 / sigma2,
        fit=FitSummary(support=support, mu_x=0.0, mu_y=0.0, r2=r2),
    )


def registry_of(*models: RegressionModel) -> ModelRegistry:
    return ModelRegistry(models={m.key: m for m in models})


def entry_index(bundle, entity_label: str, attr_label: str) -> int:
    eid = bundle.graph.entities.id(entity_label)
    aid = bundle.attrs.types.id(attr_label)
    return bundle.attrs.index[(eid, aid)]


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
    from mrap.regression import derive_reverse

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
        PathKey.relational(0, 0, 0, Direction.FORWARD),
        eta_p,
        tau_p,
        max(1e-12 * range_u * range_u, 1e-12),
    )
    inner = make_model(PathKey.inner(1, 0), eta_i, tau_i, max(1e-12 * range_w * range_w, 1e-12))
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
    from mrap.regression import derive_reverse

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
                        PathKey.relational(dep, indep, rid, Direction.FORWARD),
                        eta=float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])),
                        tau=float(rng.uniform(-5, 5)),
                        sigma2=float(rng.uniform(0.25, 4.0)),
                    )
                    models.append(fwd)
                    if rng.random() < 0.7:
                        models.append(derive_reverse(fwd))
    for dep in range(n_types):
        for indep in range(dep):
            if rng.random() < 0.5:
                inner = make_model(
                    PathKey.inner(dep, indep),
                    eta=float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])),
                    tau=float(rng.uniform(-5, 5)),
                    sigma2=float(rng.uniform(0.25, 4.0)),
                )
                models.append(inner)
                models.append(derive_reverse(inner))
    return bundle, registry_of(*models)


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def bench_generate():
    """The benchmark's graph generator, ``bench/generate.py``.

    Loaded without writing bytecode, so the test run leaves ``bench/`` as it
    found it.
    """
    spec = importlib.util.spec_from_file_location("bench_generate", BENCH_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while decorating
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


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
        edge = (entities.add(head), relations.add(relation), entities.add(tail))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    for label in extra_entities:
        entities.add(label)
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


def random_load_inputs(rng: np.random.Generator):
    """Labelled triples and attribute rows with every case the load path must keep.

    Duplicate triples, self-loops, one (head, tail) pair under several
    relations, attribute-only entities and an attributed entity that also
    appears in the triples. Labels are shuffled so their ids differ from
    their names' order.
    """
    names = [f"e{i}" for i in rng.permutation(int(rng.integers(2, 15)))]
    rels = [f"r{i}" for i in rng.permutation(int(rng.integers(1, 5)))]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    triples = [(pick(names), pick(rels), pick(names)) for _ in range(int(rng.integers(1, 30)))]
    loop = pick(names)
    triples.append((loop, pick(rels), loop))
    head, tail = pick(names), pick(names)
    triples += [(head, rel, tail) for rel in rels]
    triples += [triples[int(rng.integers(len(triples)))] for _ in range(int(rng.integers(1, 6)))]
    triples = [triples[i] for i in rng.permutation(len(triples))]
    types = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
    attributed = [pick(names)] + [f"only{i}" for i in range(int(rng.integers(1, 4)))]
    attributed += [pick(names) for _ in range(int(rng.integers(0, 8)))]
    rows = {(entity, pick(types)): float(rng.normal(1950.0, 30.0)) for entity in attributed}
    return triples, [(e, a, v) for (e, a), v in rows.items()]
