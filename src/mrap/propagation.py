"""Damped, clamped message passing over the model registry.

Each iteration computes, for every missing attribute entry, the
inverse-variance weighted mean of all predictions flowing in over admitted
message paths (relational paths cross an edge, inner paths stay within a
node), then mixes it with the previous value through the damping factor.
Observed entries are clamped to their loaded values throughout.

The update is affine, so :func:`run` compiles the paths once into an
operator over the live targets (missing entries that receive a message):
``x <- (1 - d) x + d (A x + c)``. ``A`` holds ``w * eta / q`` per path
between two live entries, with ``q`` the target's total weight; ``c`` folds
in the intercepts and every prediction from a fixed source (an observed
entry or a silent target). Updates are synchronous: iteration k reads only
the k-1 values, and sums run in a fixed path order, so results are
bit-reproducible.

The diagnostic loss of each iteration (the ``loss`` column of the trace) is
a quadratic form in the live values, compiled with the operator and centered
on the initial values so that it keeps its digits at magnitudes like years.
It reads the ``A x`` that the next update needs, so an iteration costs one
gather and one ``bincount`` over the entries of ``A`` plus work linear in
the live targets.

Missing entries start at the global mean of their attribute type, so targets
that never receive a message degrade to the per-type mean baseline.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import IO, NamedTuple

import numpy as np

from .attributes import AttributeTable, Status
from .errors import SingularSystemError
from .graph import Direction
from .ingest import DatasetBundle
from .regression import EntryIndex, ModelRegistry, PathKey, relation_span

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs of one propagation run.

    ``conv_frac`` scales each attribute type's observed range into the
    per-type convergence threshold on the max absolute value change between
    consecutive iterations. ``no_cross`` restricts messages to same-type
    relational paths (which subsumes ``no_inner``: inner messages always
    cross attribute types); ``no_inner`` drops only within-node messages.
    """

    damping: float = 0.5
    conv_frac: float = 0.001
    max_iters: int = 200
    no_cross: bool = False
    no_inner: bool = False

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")
        if self.conv_frac <= 0.0:
            raise ValueError("conv_frac must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def allows(self, key: PathKey) -> bool:
        """Whether messages over ``key`` are active under the ablation flags."""
        if self.no_cross:
            return not key.is_inner and not key.is_cross
        if self.no_inner:
            return not key.is_inner
        return True


@dataclass
class PropagationState:
    """Final value buffer plus convergence bookkeeping of a run."""

    values: np.ndarray  # aligned with the bundle's attribute entries
    iteration: int
    converged: bool


@dataclass
class ImputationReport:
    iterations: int
    converged: bool
    n_targets: int
    n_silent: int  # targets that never received a message
    target_entries: np.ndarray = field(repr=False)
    n_messages: np.ndarray = field(repr=False)  # per target entry
    total_weight: np.ndarray = field(repr=False)
    per_type_delta: dict[str, float] = field(default_factory=dict)
    trace: list[tuple[int, str, float, float]] = field(default_factory=list, repr=False)


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


def _link(
    bundle: DatasetBundle, registry: ModelRegistry, cfg: PropagationConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every active path as (src, tgt, model id), plus the models' eta, tau and weight rows.

    Paths come edge by edge in stored edge order, each edge's forward paths
    before its reverse ones, then the inner paths entity by entity. This
    fixes the order in which each target's messages are summed.
    """
    graph, attrs = bundle.graph, bundle.attrs
    n_types, attr = attrs.n_types, attrs.attr_ids
    shape = (2, relation_span(graph, registry), n_types, n_types)
    relational = np.full(shape, -1, dtype=np.int32)  # direction, relation, dep, indep
    inner = np.full((n_types, n_types), -1, dtype=np.int32)  # dep, indep
    params = []
    for key, model in registry.models.items():
        if not cfg.allows(key):
            continue
        if key.is_inner:
            inner[key.dep, key.indep] = len(params)
        else:
            relational[key.direction, key.relation, key.dep, key.indep] = len(params)
        params.append((model.eta, model.tau, model.weight))
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


def _build_paths(bundle: DatasetBundle, registry: ModelRegistry, cfg: PropagationConfig) -> _Paths:
    """Enumerate every active path between tracked entries, in fixed order."""
    src, tgt, mid, (eta, tau, weight) = _link(bundle, registry, cfg)
    return _Paths(src=src, tgt=tgt, eta=eta[mid], tau=tau[mid], weight=weight[mid])


def _init_values(bundle: DatasetBundle) -> np.ndarray:
    """Loaded values with every MISSING entry reset to its type's global mean."""
    attrs = bundle.attrs
    values = attrs.values.copy()
    targets = bundle.target_indices()
    for attr in np.unique(attrs.attr_ids[targets]):
        means = attrs.mean_value(int(attr))  # raises DataError if nothing observed
        sel = targets[attrs.attr_ids[targets] == attr]
        values[sel] = means
    return values


def _target_ranges(bundle: DatasetBundle) -> dict[int, float]:
    """Observed range per attribute type that has at least one target."""
    attrs = bundle.attrs
    targets = bundle.target_indices()
    return {
        int(attr): attrs.value_range(int(attr)) for attr in np.unique(attrs.attr_ids[targets])
    }


def loss(
    bundle: DatasetBundle,
    registry: ModelRegistry,
    state: PropagationState | np.ndarray,
    cfg: PropagationConfig | None = None,
) -> float:
    """Total weighted squared prediction error over all active paths.

    Sums, for every tracked entry, the squared differences between its
    current value and each prediction flowing into it, scaled by the model
    weights. Diagnostic only: the propagation minimizes this per node, not
    globally.
    """
    cfg = cfg or PropagationConfig()
    values = state.values if isinstance(state, PropagationState) else np.asarray(state)
    paths = _build_paths(bundle, registry, cfg)
    resid = values[paths.tgt] - (paths.eta * values[paths.src] + paths.tau)
    return float(np.dot(paths.weight * resid, resid))


class _Operator(NamedTuple):
    """The compiled update ``x <- (1 - d) x + d (A x + c)`` over the live targets.

    ``A`` is held as one entry per path between two live entries: its source
    entry ``src``, its ``row`` and its coefficient ``a``, in path order.

    The loss is a quadratic form centered on the initial live values ``x0``.
    With ``y = x - x0``, ``r0`` each path's residual at ``x0`` and ``q`` each
    row's total weight::

        loss(x) = loss0 + g.y + h.y^2 - 2 (q y).(A x - A x0)

    where ``loss0`` is the loss at ``x0`` over all paths, and ``g`` and ``h``
    sum ``2 w r0`` and ``w`` over the paths into each row, minus
    ``2 w eta r0`` and plus ``w eta^2`` over the paths out of it. The last
    term is the cross product of the paths between two live entries, since
    ``w eta = q a`` on each of them. Centering keeps the terms of the order
    of the residuals rather than of the values. Only ``A x - A x0`` still
    carries the rounding of the values' magnitude: at years near 2000 the
    loss stays within about 3e-13 relative of a direct sum over the paths,
    where an uncentered form loses about 1e-11. ``A x`` is the product the
    next update needs anyway, so an iteration touches no other per-path
    array.
    """

    live: np.ndarray  # entry index per row, grouped by attribute type
    src: np.ndarray  # source entry of each A entry
    row: np.ndarray  # row of each A entry
    a: np.ndarray  # w * eta / q per A entry
    c: np.ndarray  # per row: intercepts and fixed-source predictions, over q
    x0: np.ndarray  # per row: the value the loss is centered on
    ax0: np.ndarray  # A x0
    q: np.ndarray  # per row: total weight of the paths into it
    g: np.ndarray
    h: np.ndarray
    loss0: float

    def product(self, values: np.ndarray) -> np.ndarray:
        """``A x`` for the entry buffer ``values``."""
        weights = self.a * np.take(values, self.src)
        return np.bincount(self.row, weights=weights, minlength=len(self.live))

    def loss(self, x: np.ndarray, ax: np.ndarray) -> float:
        """:func:`loss` at live values ``x``, given ``ax = A x``."""
        y = x - self.x0
        slope = (ax - self.ax0) * (-2.0 * self.q)
        slope += self.h * y
        slope += self.g
        return self.loss0 + float(np.dot(slope, y))


def _compile(
    bundle: DatasetBundle,
    registry: ModelRegistry,
    cfg: PropagationConfig,
    values: np.ndarray,
) -> tuple[_Operator, np.ndarray, np.ndarray]:
    """The operator at the initial ``values``, plus message count and total weight per entry."""
    attrs = bundle.attrs
    n = attrs.n_entries
    clock = time.perf_counter()
    src, tgt, mid, (eta, tau, weight) = _link(bundle, registry, cfg)
    logger.info("paths: %d built in %.3f s", len(src), time.perf_counter() - clock)

    clock = time.perf_counter()
    to_live = (attrs.status == Status.MISSING)[tgt]  # a target with a message is live
    n_msgs = np.bincount(tgt[to_live], minlength=n)
    weight_sum = np.bincount(tgt[to_live], weights=weight[mid[to_live]], minlength=n)
    targets = bundle.target_indices()
    live = targets[n_msgs[targets] > 0]
    live = live[np.argsort(attrs.attr_ids[live], kind="stable")]
    n_live = len(live)
    row_of = np.full(n, n_live, dtype=np.int64)  # row n_live collects the fixed entries
    row_of[live] = np.arange(n_live)
    from_live = row_of[src] < n_live

    # c: every path's intercept plus the predictions of fixed sources, over q
    p = np.flatnonzero(to_live)
    m = mid[p]
    term = tau[m]
    f = ~from_live[p]
    term[f] += eta[m[f]] * values[src[p[f]]]
    term *= weight[m]
    term /= weight_sum[tgt[p]]
    c = np.bincount(row_of[tgt[p]], weights=term, minlength=n_live)
    del p, m, term, f

    # the loss at values, and its gradient and curvature per row, with at
    # most three path-sized arrays alive at once
    def per_row(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=w, minlength=n_live + 1)[:n_live]

    r0 = np.take(values, src)
    r0 *= eta[mid]
    r0 += tau[mid]
    np.subtract(np.take(values, tgt), r0, out=r0)
    w = weight[mid]
    wr = w * r0
    loss0 = float(np.dot(wr, r0))
    del r0
    wr *= 2.0
    rows = row_of[tgt]
    g = per_row(rows, wr)
    h = per_row(rows, w)
    del rows
    e = eta[mid]
    wr *= e
    w *= e
    w *= e
    del e
    rows = row_of[src]
    g -= per_row(rows, wr)
    h += per_row(rows, w)
    del rows, wr, w

    # A: the paths live -> live, in path order
    p = np.flatnonzero(to_live & from_live)
    del to_live, from_live
    m = mid[p]
    a = weight[m] * eta[m]
    a /= weight_sum[tgt[p]]
    a_src, a_row = src[p], row_of[tgt[p]]
    del p, m

    op = _Operator(live, a_src, a_row, a, c, values[live], None, weight_sum[live], g, h, loss0)
    op = op._replace(ax0=op.product(values))  # the first update's A x as well
    logger.info(
        "operator: %d entries over %d live targets, compiled in %.3f s",
        len(a),
        n_live,
        time.perf_counter() - clock,
    )
    return op, n_msgs, weight_sum


def run(
    bundle: DatasetBundle,
    registry: ModelRegistry,
    cfg: PropagationConfig | None = None,
    initial: np.ndarray | None = None,
) -> tuple[PropagationState, ImputationReport]:
    """Propagate until every attribute type's max delta drops below tolerance.

    Returns the final state plus a report with per-target message counts and
    a per-iteration trace of (iteration, type, max delta, total loss).
    Non-convergence within ``max_iters`` is reported, not raised. ``initial``
    warm-starts the target values (observed entries are clamped regardless).
    """
    cfg = cfg or PropagationConfig()
    attrs = bundle.attrs
    targets = bundle.target_indices()
    if initial is None:
        values = _init_values(bundle)
    else:
        values = attrs.values.copy()
        values[targets] = np.asarray(initial, dtype=np.float64)[targets]
    op, n_msgs, weight_sum = _compile(bundle, registry, cfg, values)

    ranges = _target_ranges(bundle)
    tol = {attr: cfg.conv_frac * rng for attr, rng in ranges.items()}
    type_labels = {attr: attrs.types.label(attr) for attr in ranges}
    live_attr = attrs.attr_ids[op.live]
    type_starts = np.flatnonzero(np.diff(live_attr, prepend=-1))
    live_types = live_attr[type_starts]

    trace: list[tuple[int, str, float, float]] = []
    per_type_delta = {attr: 0.0 for attr in ranges}
    converged = not ranges  # nothing to impute converges immediately
    iteration = 0
    clock = time.perf_counter()
    x, ax = op.x0, op.ax0
    for iteration in range(1, cfg.max_iters + 1):
        max_delta = np.zeros(attrs.n_types)
        if len(op.live):
            new = (1.0 - cfg.damping) * x + cfg.damping * (ax + op.c)
            max_delta[live_types] = np.maximum.reduceat(np.abs(new - x), type_starts)
            values[op.live] = new
            x, ax = new, op.product(values)
        loss_now = op.loss(x, ax)
        converged = True
        for attr in ranges:
            d = float(max_delta[attr])
            per_type_delta[attr] = d
            trace.append((iteration, type_labels[attr], d, loss_now))
            # delta == 0 counts as converged even when the range (and so the
            # tolerance) is zero for a constant-valued type
            if not (d < tol[attr] or d == 0.0):
                converged = False
        if converged:
            break
    seconds = time.perf_counter() - clock
    logger.info(
        "iterations: %d in %.3f s (%.3f ms each), converged=%s, final loss %.6g",
        iteration,
        seconds,
        1000.0 * seconds / iteration,
        converged,
        loss_now,
    )

    if not converged:
        logger.warning("propagation did not converge in %d iterations", cfg.max_iters)

    state = PropagationState(values=values, iteration=iteration, converged=converged)
    report = ImputationReport(
        iterations=iteration,
        converged=converged,
        n_targets=len(targets),
        n_silent=int((n_msgs[targets] == 0).sum()),
        target_entries=targets,
        n_messages=n_msgs[targets],
        total_weight=weight_sum[targets],
        per_type_delta={type_labels[a]: d for a, d in per_type_delta.items()},
        trace=trace,
    )
    return state, report


def fixed_point_oracle(
    bundle: DatasetBundle,
    registry: ModelRegistry,
    cfg: PropagationConfig | None = None,
) -> dict[tuple[int, int], float]:
    """Exact fixed point of the message-passing update by direct linear solve.

    Builds the stationarity system value = (sum of weighted predictions) /
    (sum of weights) over all targets with at least one message, treating
    observed entries and message-less targets (held at their init mean) as
    constants, and solves each connected component densely. Intended for
    small instances; raises :class:`SingularSystemError` naming the targets
    of any underdetermined component.
    """
    cfg = cfg or PropagationConfig()
    attrs = bundle.attrs
    paths = _build_paths(bundle, registry, cfg)
    missing = attrs.status == Status.MISSING
    upd = _Paths(*(a[missing[paths.tgt]] for a in paths)) if paths.n else paths

    n = attrs.n_entries
    weight_sum = np.bincount(upd.tgt, weights=upd.weight, minlength=n) if upd.n else np.zeros(n)
    targets = bundle.target_indices()
    unknowns = [int(t) for t in targets if weight_sum[t] > 0.0]
    pos = {entry: i for i, entry in enumerate(unknowns)}
    const_values = _init_values(bundle)

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


def imputed_table(bundle: DatasetBundle, state: PropagationState) -> AttributeTable:
    """Attribute table with target entries set to their propagated values."""
    attrs = bundle.attrs
    table = attrs.with_status(
        np.where(attrs.status == Status.MISSING, int(Status.IMPUTED), attrs.status)
    )
    table.values = attrs.values.copy()
    table.values[bundle.target_indices()] = state.values[bundle.target_indices()]
    return table


def write_imputations(
    fh: IO[str], bundle: DatasetBundle, state: PropagationState, report: ImputationReport
) -> None:
    """``entity<TAB>attr<TAB>value<TAB>n_messages<TAB>total_weight`` per target."""
    attrs = bundle.attrs
    entities = bundle.graph.entities
    for t, n_msg, w in zip(report.target_entries, report.n_messages, report.total_weight):
        fh.write(
            f"{entities.label(int(attrs.entity_ids[t]))}\t"
            f"{attrs.types.label(int(attrs.attr_ids[t]))}\t"
            f"{state.values[t]:.17g}\t{int(n_msg)}\t{w:.17g}\n"
        )


def write_trace(fh: IO[str], report: ImputationReport) -> None:
    """Per-iteration convergence trace as CSV."""
    fh.write("iter,attr_type,max_delta,loss\n")
    for iteration, attr, delta, loss_val in report.trace:
        fh.write(f"{iteration},{attr},{delta:.17g},{loss_val:.17g}\n")
