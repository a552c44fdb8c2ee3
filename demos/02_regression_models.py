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

from mrap import Table, load_dataset
from mrap.graph import Direction
from mrap.ingest import DatasetBundle
from mrap.regression import AdmissionConfig, PathKey, build_registry, read_model_dump, training_pairs, write_model_dump

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

# the loader takes columns, as the file parsers return them
graph, table = load_dataset(Table(list(zip(*triples))), Table(list(zip(*attr_rows))))
bundle = DatasetBundle(graph=graph, attrs=table, split=np.zeros(table.n_entries, dtype=np.int8))

# every observed training pair, sorted by the code of its fit key: the key
# (dep | indep, relation, direction) has code ((2 relation + direction) T + dep) T + indep
# for T attribute types, so (birth | birth, child_of, forward) is code 0
code, ys, xs = training_pairs(bundle)
ys, xs = ys[code == 0], xs[code == 0]
print(f"{ys.size} parent->child pairs, e.g. parent {xs[0]:.1f} -> child {ys[0]:.1f}\n")

# the registry fits every key in one grouped pass and derives the reverses
registry = build_registry(bundle, AdmissionConfig(min_support=5))
key = PathKey.relational(dep=0, indep=0, relation=0, direction=Direction.FORWARD)
forward = registry.models[key]
reverse = registry.models[key.reversed()]
print(f"fitted over {forward.fit.support} parent->child pairs:")
print(f"  child_birth = {forward.eta:.4f} * parent_birth + {forward.tau:.2f}   sigma^2 = {forward.sigma2:.2f}")
print(f"  r^2 = {forward.fit.r2:.3f}, weight = 1/sigma^2 = {forward.weight:.4f}")

# the closed form is ordinary least squares: np.polyfit on the same pairs agrees
slope, intercept = np.polyfit(xs, ys, 1)
assert np.isclose(forward.eta, slope, rtol=1e-9) and np.isclose(forward.tau, intercept, rtol=1e-9)
print(f"  np.polyfit on the same pairs: slope {slope:.4f}, intercept {intercept:.2f}\n")

print("derived reverse model (parent_birth from child_birth):")
print(f"  reverse: eta={reverse.eta:.4f} tau={reverse.tau:.2f} weight={reverse.weight:.4f}")
print(f"  reverse is derived analytically: {reverse.fit.derived_reverse}")
# eta' = 1/eta, tau' = -tau/eta, w' = eta^2 / sigma^2
assert np.isclose(reverse.eta, 1.0 / forward.eta) and np.isclose(reverse.tau, -forward.tau / forward.eta)
assert np.isclose(reverse.weight, forward.eta**2 / forward.sigma2)
print("  matches eta' = 1/eta, tau' = -tau/eta, w' = eta^2/sigma^2\n")

x = 1935.0
print("prediction round trip through the affine inverse:")
y = forward.eta * x + forward.tau
print(f"  forward({x}) = {y:.3f}")
print(f"  reverse(forward({x})) = {reverse.eta * y + reverse.tau:.6f}\n")

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
