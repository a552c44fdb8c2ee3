"""End-to-end run on a synthetic dataset with known cross-attribute structure.

Persons carry a source attribute s and a dependent attribute t = s + 100;
items made by a person carry m = s + 50; knows-edges link random persons and
carry no signal at all. Hiding most t values and letting the propagation
pull them back through within-node (t|s) and cross-edge (t|m) models shows
exactly where the lift over mean-based baselines comes from; switching those
message families off (the w/o Inner and w/o Cross ablations) sends the error
back toward the Global baseline.
"""
import numpy as np

from mrap.evaluation import (
    ablation_suite,
    baseline_global,
    baseline_local,
    evaluate,
    format_report_table,
)
from mrap.codec import Table
from mrap.graph import Vocabulary
from mrap.ingest import Split, SplitSpec, intern_attributes, intern_triples, load_dataset, split_attributes, subsample_observed
from mrap.propagation import PropagationConfig, run
from mrap.regression import AdmissionConfig, build_registry, count_paths

rng = np.random.default_rng(7)

triples = []
attr_rows = []
n_people = 200
for i in range(n_people):
    s = float(rng.uniform(0, 100))
    attr_rows.append((f"p{i}", "s", s))
    attr_rows.append((f"p{i}", "t", s + 100.0 + float(rng.normal(0, 0.5))))
    attr_rows.append((f"i{i}", "m", s + 50.0 + float(rng.normal(0, 2.0))))
    triples.append((f"p{i}", "made", f"i{i}"))
    triples.append((f"p{i}", "knows", f"p{int(rng.integers(n_people))}"))

entities, relations, types = Vocabulary(), Vocabulary(), Vocabulary()
graph, table = load_dataset(
    entities,
    relations,
    types,
    intern_triples(Table(list(zip(*triples))), entities, relations),
    intern_attributes(Table(list(zip(*attr_rows))), entities, types),
)
print(f"dataset: {graph.n_entities} entities, {graph.n_edges} edges, {table.n_entries} attribute values")

bundle = split_attributes(graph, table, SplitSpec(seed=1))
bundle = subsample_observed(bundle, fraction=1.0, seed=1)
train, dev, test = bundle.split_counts()
print(f"split: {train} train (observed) / {dev} dev / {test} test\n")

# the r^2 floor drops the signal-free same-type models fitted on knows-edges
admission = AdmissionConfig(min_support=5, r2_min=0.05)
registry = build_registry(bundle, admission)
print(f"{len(registry)} regression models admitted (rejections: {registry.rejections})")
# one path per (source entry, model, target entry): the paths the propagation builds
print(f"{count_paths(bundle.graph, registry, bundle.attrs)} message passing paths\n")

cfg = PropagationConfig(damping=0.5, conv_frac=0.001, max_iters=500)
values, report = run(bundle, registry, cfg)  # every test entry is a target
print(
    f"propagation: {report.n_targets} targets, {report.iterations} iterations, "
    f"converged={report.converged}, {report.n_silent} targets never reached\n"
)

reports = [
    evaluate(values, bundle, Split.TEST, method="MrAP", setup="100%"),
    evaluate(baseline_global(bundle), bundle, Split.TEST, method="Global", setup="100%"),
    evaluate(baseline_local(bundle), bundle, Split.TEST, method="Local", setup="100%"),
]
print("test-split errors (asterisk: Global beats Local):")
print(format_report_table(reports))

print("ablations on the same split:")
# all three variants share the registry and differ only in the message filter flags
ablation_reports = ablation_suite(bundle, cfg, registry, setup="100%")
print(format_report_table(ablation_reports))
print(
    "without cross-type messages nothing predictive remains here, so the\n"
    "w/o Cross error collapses to the Global baseline; dropping only the\n"
    "within-node messages costs the t attribute its strongest source."
)
