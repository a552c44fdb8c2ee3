"""Fit per-path linear models and derive their reverse directions.

A child's birth year tracks the parent's with a roughly constant offset, so
the (birth | birth, child_of) model fits a slope near 1 and an intercept
near the generation gap. The opposite traversal direction is never refitted:
its parameters follow analytically, and the weight (inverse error variance)
rescales accordingly.
"""
import tempfile
from pathlib import Path

import numpy as np

from mrap import Table, Vocabulary, load_dataset
from mrap.ingest import DatasetBundle, intern_attributes, intern_triples
from mrap.regression import AdmissionConfig, build_registry, read_model_dump, training_pairs, write_model_dump

rng = np.random.default_rng(0)

# parent -> child pairs with a noisy 28-year generation gap
triples = []
attr_rows = []
for i in range(40):
    parent_birth = float(rng.uniform(1900, 1960))
    child_birth = parent_birth + 28.0 + float(rng.normal(0, 3.0))
    triples.append((f"parent{i}", "child_of", f"child{i}"))
    attr_rows.append((f"parent{i}", "birth", parent_birth))
    attr_rows.append((f"child{i}", "birth", child_birth))

# the labels are interned to ids, as the file parsers intern them, and the loader takes the id columns
entities, relations, types = Vocabulary(), Vocabulary(), Vocabulary()
graph, table = load_dataset(
    entities,
    relations,
    types,
    intern_triples(Table(list(zip(*triples))), entities, relations),
    intern_attributes(Table(list(zip(*attr_rows))), entities, types),
)
bundle = DatasetBundle(graph=graph, attrs=table, split=np.zeros(table.n_entries, dtype=np.int8))

# every observed training pair, sorted by the code of its fit key: the key
# (dep | indep, relation, direction) has code ((2 relation + direction) T + dep) T + indep
# for T attribute types, so (birth | birth, child_of, forward) is code 0
code, ys, xs = training_pairs(bundle)
ys, xs = ys[code == 0], xs[code == 0]
print(f"{ys.size} parent->child pairs, e.g. parent {xs[0]:.1f} -> child {ys[0]:.1f}\n")

# the registry fits every key in one grouped pass and derives the reverses;
# it is a table with one row per model: each fit, then its derived reverse.
# With T = 1 the reverse key (birth | birth, child_of, reverse) has code 1
registry = build_registry(bundle, AdmissionConfig(min_support=5))
fit, rev = (int(np.flatnonzero(registry.codes == code)[0]) for code in (0, 1))
eta, tau, sigma2, weight = (float(getattr(registry, name)[fit]) for name in ("eta", "tau", "sigma2", "weight"))
print(f"fitted over {registry.support[fit]} parent->child pairs:")
print(f"  child_birth = {eta:.4f} * parent_birth + {tau:.2f}   sigma^2 = {sigma2:.2f}")
print(f"  r^2 = {registry.r2[fit]:.3f}, weight = 1/sigma^2 = {weight:.4f}")

# the closed form is ordinary least squares: np.polyfit on the same pairs agrees
slope, intercept = np.polyfit(xs, ys, 1)
assert np.isclose(eta, slope, rtol=1e-9) and np.isclose(tau, intercept, rtol=1e-9)
print(f"  np.polyfit on the same pairs: slope {slope:.4f}, intercept {intercept:.2f}\n")

print("derived reverse model (parent_birth from child_birth):")
rev_eta, rev_tau, rev_weight = registry.eta[rev], registry.tau[rev], registry.weight[rev]
print(f"  reverse: eta={rev_eta:.4f} tau={rev_tau:.2f} weight={rev_weight:.4f}")
print(f"  reverse is derived analytically: {registry.derived[rev]}")
# eta' = 1/eta, tau' = -tau/eta, w' = eta^2 / sigma^2
assert np.isclose(rev_eta, 1.0 / eta) and np.isclose(rev_tau, -tau / eta)
assert np.isclose(rev_weight, eta**2 / sigma2)
print("  matches eta' = 1/eta, tau' = -tau/eta, w' = eta^2/sigma^2\n")

x = 1935.0
print("prediction round trip through the affine inverse:")
y = eta * x + tau
print(f"  forward({x}) = {y:.3f}")
print(f"  reverse(forward({x})) = {rev_eta * y + rev_tau:.6f}\n")

print("model dump lines, one per fit at 17 significant digits; the reader derives each reverse and weight:")
with tempfile.TemporaryDirectory() as tmp:
    dump = Path(tmp) / "models.tsv"
    write_model_dump(dump, registry, graph, table)
    for line in dump.read_text(encoding="utf-8").splitlines():
        print(f"  {line}")
    with open(dump, "rb") as fh:
        reloaded = read_model_dump(fh, graph, table)
assert all(np.array_equal(getattr(reloaded, c), getattr(registry, c)) for c in ("codes", "eta", "tau", "sigma2", "weight"))
print(f"  reloaded: {len(reloaded)} models, equal to the fitted registry row for row")
