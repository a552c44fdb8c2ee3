"""Watch the damped message passing converge and check it against a solver.

A three-node chain with one observed anchor is small enough to solve by
hand: with y = x + 1 across each edge (and the derived reverse y = x - 1),
the two hidden values must settle at 1 and 2. The iteration reproduces the
direct linear solve to machine precision, while the observed anchor stays
clamped at its loaded value.
"""
import numpy as np

from mrap.attributes import AttributeTable, Status
from mrap.graph import Direction, Vocabulary, build_graph
from mrap.ingest import DatasetBundle, Split
from mrap.propagation import PropagationConfig, fixed_point_oracle, run
from mrap.regression import FitSummary, ModelRegistry, PathKey, RegressionModel, derive_reverse

graph = build_graph([("a", "p", "b"), ("b", "p", "c")])
types = Vocabulary(["v"])
entries = [(graph.entities.id(n), 0, 0.0) for n in ("a", "b", "c")]
table = AttributeTable.build(graph.n_entities, types, entries)

status = table.status.copy()
split = np.zeros(3, dtype=np.int8)
hidden = table.lookup([graph.entities.id("b"), graph.entities.id("c")], [0, 0])
status[hidden] = Status.MISSING  # hide b and c, keep a clamped at 0
split[hidden] = int(Split.TEST)
bundle = DatasetBundle(graph=graph, attrs=table.with_status(status), split=split)

key = PathKey.relational(0, 0, 0, Direction.FORWARD)
forward = RegressionModel(
    key=key, eta=1.0, tau=1.0, sigma2=1.0, weight=1.0,
    fit=FitSummary(support=10, mu_x=0.0, mu_y=0.0, r2=0.9),
)
registry = ModelRegistry(models={key: forward, key.reversed(): derive_reverse(forward)})

state, report = run(bundle, registry, PropagationConfig(damping=0.5, max_iters=1000))
print(f"converged={state.converged} after {report.iterations} iterations")
print("first iterations of the trace (iter, type, max_delta, loss):")
for row in report.trace[:6]:
    print(f"  {row[0]:3d}  {row[1]}  delta={row[2]:.6f}  loss={row[3]:.6f}")

idx_b, idx_c, idx_a = table.lookup([graph.entities.id(n) for n in "bca"], [0, 0, 0])
print(f"\nimputed: b={state.values[idx_b]:.12f}  c={state.values[idx_c]:.12f}")
print(f"clamped anchor a stays at {state.values[idx_a]} (loaded value)")

solution = fixed_point_oracle(bundle, registry, PropagationConfig())
print("\ndirect linear solve of the stationarity system:")
for (entity, attr), value in solution.items():
    print(f"  {graph.entities.label(entity)}/{types.label(attr)} = {value}")

# any damping factor reaches the same fixed point, only the speed changes
for damping in (0.25, 0.5, 1.0):
    state_d, report_d = run(bundle, registry, PropagationConfig(damping=damping, max_iters=2000))
    print(
        f"damping {damping:4.2f}: b={state_d.values[idx_b]:.9f} "
        f"in {report_d.iterations} iterations"
    )
