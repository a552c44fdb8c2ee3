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
from mrap.propagation import PropagationConfig, run
from mrap.regression import FitSummary, ModelRegistry, PathKey, RegressionModel, derive_reverse

graph = build_graph(["a", "b"], ["p", "p"], ["b", "c"])  # a -p-> b -p-> c
types = Vocabulary(["v"])
nodes = [graph.entities.id(n) for n in ("a", "b", "c")]
table = AttributeTable.build(graph.n_entities, types, nodes, [0, 0, 0], [0.0, 0.0, 0.0])

status = table.status.copy()
split = np.zeros(3, dtype=np.int8)
hidden = table.lookup([graph.entities.id("b"), graph.entities.id("c")], [0, 0])
status[hidden] = Status.MISSING  # hide b and c, keep a clamped at 0
split[hidden] = int(Split.TEST)
bundle = DatasetBundle(graph=graph, attrs=table.with_status(status), split=split)

key = PathKey.relational(0, 0, 0, Direction.FORWARD)
forward = RegressionModel(
    key=key, eta=1.0, tau=1.0, sigma2=1.0, weight=1.0,
    fit=FitSummary(support=10, r2=0.9),
)
registry = ModelRegistry(models={key: forward, key.reversed(): derive_reverse(forward)})

# run returns the final values, aligned with the attribute entries, and a report
values, report = run(bundle, registry, PropagationConfig(damping=0.5, max_iters=1000))
print(f"converged={report.converged} after {report.iterations} iterations")
print("first iterations of the trace (iter, type, max_delta, loss):")
for iteration, (deltas, loss) in enumerate(zip(report.deltas[:6], report.losses), start=1):
    for label, delta in zip(report.types, deltas):
        print(f"  {iteration:3d}  {label}  delta={delta:.6f}  loss={loss:.6f}")

idx_b, idx_c, idx_a = table.lookup([graph.entities.id(n) for n in "bca"], [0, 0, 0])
print(f"\nimputed: b={values[idx_b]:.12f}  c={values[idx_c]:.12f}")
print(f"clamped anchor a stays at {values[idx_a]} (loaded value)")

# at the fixed point each hidden value is the weighted mean of its messages:
# b = ((a + 1) + (c - 1)) / 2 from both neighbors (equal weights), and
# c = b + 1 from b alone; with a = 0 that is a 2 x 2 linear system
solution = np.linalg.solve([[1.0, -0.5], [-1.0, 1.0]], [0.0, 1.0])
print("\ndirect linear solve of the stationarity system:")
for name, value in zip("bc", solution):
    print(f"  {name}/v = {value}")

# any damping factor reaches the same fixed point, only the speed changes
for damping in (0.25, 0.5, 1.0):
    values_d, report_d = run(bundle, registry, PropagationConfig(damping=damping, max_iters=2000))
    print(
        f"damping {damping:4.2f}: b={values_d[idx_b]:.9f} "
        f"in {report_d.iterations} iterations"
    )
