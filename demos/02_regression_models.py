"""Fit per-path linear models and derive their reverse directions.

A child's birth year tracks the parent's with a roughly constant offset, so
the (birth | birth, child_of) model fits a slope near 1 and an intercept
near the generation gap. The opposite traversal direction is never refitted:
its parameters follow analytically, and the weight (inverse error variance)
rescales accordingly.
"""
import io

import numpy as np

from mrap import load_dataset
from mrap.graph import Direction
from mrap.ingest import DatasetBundle
from mrap.regression import (
    AdmissionConfig,
    PathKey,
    build_registry,
    derive_reverse,
    fit_simple_regression,
    training_pairs,
    write_model_dump,
)

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

graph, table = load_dataset(triples, attr_rows)
bundle = DatasetBundle(graph=graph, attrs=table, split=np.zeros(table.n_entries, dtype=np.int8))

key = PathKey.relational(dep=0, indep=0, relation=0, direction=Direction.FORWARD)
ys, xs = next((ys, xs) for k, ys, xs in training_pairs(bundle) if k == key)
eta, tau, sigma2, fit = fit_simple_regression(ys, xs)
print(f"fitted over {fit.support} parent->child pairs:")
print(f"  child_birth = {eta:.4f} * parent_birth + {tau:.2f}   sigma^2 = {sigma2:.2f}")
print(f"  r^2 = {fit.r2:.3f}, weight = 1/sigma^2 = {1 / sigma2:.4f}\n")

# the same machinery through the registry, which also derives reverses
registry = build_registry(bundle, AdmissionConfig(min_support=5))
forward = registry.get(key)
reverse = registry.get(key.reversed())
print("registry models:")
print(f"  forward: eta={forward.eta:.4f} tau={forward.tau:.2f} weight={forward.weight:.4f}")
print(f"  reverse: eta={reverse.eta:.4f} tau={reverse.tau:.2f} weight={reverse.weight:.4f}")
print(f"  reverse is derived analytically: {reverse.fit.derived_reverse}\n")

check = derive_reverse(forward)
x = 1935.0
print("prediction round trip through the affine inverse:")
print(f"  forward({x}) = {forward.predict(x):.3f}")
print(f"  reverse(forward({x})) = {check.predict(forward.predict(x)):.6f}\n")

buf = io.StringIO()
write_model_dump(buf, registry, graph, table)
print("model dump lines (17 significant digits for exact reload):")
for line in buf.getvalue().splitlines():
    print(f"  {line}")
