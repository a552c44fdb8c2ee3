"""Damped, clamped message passing over the model registry.

Each iteration computes, for every missing attribute entry, the
inverse-variance weighted mean of all predictions flowing in over admitted
message paths (relational paths cross an edge, inner paths stay within a
node), then mixes it with the previous value through the damping factor.
Observed entries are clamped to their loaded values throughout.

The update is affine, so :func:`run` compiles the paths once into an
operator over the live targets (missing entries that receive a message):
``x <- (1 - d) x + d (A x + c)``, with ``x`` their values. ``A`` is square
over the live rows: it holds ``w * eta / q`` per path between two live
entries, with ``q`` the target's total weight; ``c`` folds
in the intercepts and every prediction from a fixed (observed) source. An
ablation runs on the models it keeps. The compile counts each entry's
messages first (the plan of :mod:`mrap.regression`, which ``count_paths``
sums), then builds only the paths into live targets, in blocks of them, so
no path-sized array outlives its block. A block lists the source entries of
its targets' entities' incidences once, and each target takes its entity's
run of that list. Each per-path term is computed once and serves every sum
that needs it: the prediction ``eta x_s + tau`` feeds ``c`` and the loss.
``A`` is stored as jagged diagonals (Saad, 1989): rows by degree, one
contiguous slot per k-th entry of a row.

Updates are synchronous: iteration k reads only the k-1 values, and each
row sums its terms in path order from zero, so results are bit-reproducible
(no sum goes through BLAS, whose bits depend on its thread count). The run
stops at the first iteration at which the max delta of every target type is
below its tolerance (``conv_frac`` times the type's observed range) or 0.
The diagnostic loss of each iteration (the ``loss`` column of the trace)
sums over the paths with a live end; it is a quadratic form in the live
values, centered on the initial values so that it keeps its digits at
magnitudes like years. It reads the ``A x`` of the next update, so an
iteration costs a gather from ``x`` per chunk of about ``BLOCK`` entries of
``A``, a slice-add per slot and work linear in the live targets; it writes
no entry buffer and holds no path-sized temporary.

Missing entries start at the global mean of their attribute type, so targets
that never receive a message degrade to the per-type mean baseline.
"""
from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attributes import AttributeTable, Status
from .codec import write_table
from .ingest import DatasetBundle
from .regression import Incidences, ModelRegistry, incidences, inflow, runs

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs of one propagation run.

    ``conv_frac`` scales each attribute type's observed range into the
    per-type convergence threshold on the max absolute value change between
    consecutive iterations.
    """

    damping: float = 0.5
    conv_frac: float = 0.001
    max_iters: int = 200

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")
        if self.conv_frac <= 0.0:
            raise ValueError("conv_frac must be positive")
        if not np.isfinite(self.conv_frac):
            raise ValueError(f"conv_frac must be finite, got {self.conv_frac!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class ImputationReport:
    iterations: int
    converged: bool
    n_targets: int
    n_silent: int  # targets that never received a message
    target_entries: np.ndarray = field(repr=False)
    n_messages: np.ndarray = field(repr=False)  # per target entry
    total_weight: np.ndarray = field(repr=False)
    types: list[str] = field(repr=False)  # labels of the target types, ascending by id
    deltas: np.ndarray = field(repr=False)  # (iterations, types): max absolute change
    losses: np.ndarray = field(repr=False)  # per iteration


# compile work per block: (target entry, incidence) and (target entry, candidate)
# pairs; and the entries of A that a product gathers at once
BLOCK = 32768


def _paths(inc: Incidences, attrs: AttributeTable, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, row, model id) of every path into the ascending entries ``targets``, in message order.

    The block lists the source entries of its targets' entities' incidences
    once: the candidates, incidence by incidence, each incidence's by
    ascending type. Each target takes its entity's run of candidates and keeps
    those for which the registry has a model (incidence kind, target type, candidate type).
    A path's row is the position of its target in ``targets``.
    """
    n_types, entity, dep = attrs.n_types, attrs.entity_ids[targets], attrs.attr_ids[targets]
    new = np.diff(entity, prepend=-1) != 0
    owner = entity[new]  # the block's entities that have targets
    n_inc = inc.first[owner + 1] - inc.first[owner]
    i = runs(inc.first[owner], n_inc)  # their incidences
    source = np.take(inc.src, i)
    kind = np.take(inc.kind, i)
    lo = np.take(inc.entries, source)
    size = np.take(inc.entries, source + 1) - lo
    cand = runs(lo, size)
    base = np.repeat(kind * n_types**2, size) + np.take(attrs.attr_ids, cand)  # the model code but for dep * n_types
    stop = np.cumsum(size)[np.cumsum(n_inc) - 1]  # per owner: one past its last candidate
    j = np.cumsum(new) - 1  # per target entry: its owner
    length = np.diff(stop, prepend=0)[j]
    c = runs(stop[j] - length, length)  # each target entry's candidates: its owner's run
    mid = np.take(inc.model.reshape(-1), np.take(base, c) + np.repeat(dep * n_types, length))
    keep = np.flatnonzero(mid >= 0)
    return np.take(cand, np.take(c, keep)), np.take(np.repeat(np.arange(len(targets)), length), keep), np.take(mid, keep)


def _jagged(degree: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Jagged-diagonal layout of rows with ``degree`` entries each: (rank, widths, start).

    Rows are swept by degree, descending and stably; slot ``k`` holds entry
    ``k`` of every row that has one, that of row ``r`` at ``start[k] + rank[r]``.
    """
    rank = np.empty(len(degree), dtype=np.int64)
    rank[np.argsort(-degree, kind="stable")] = np.arange(len(degree))
    widths = len(degree) - np.cumsum(np.bincount(degree, minlength=1))[:-1]
    return rank, widths.tolist(), np.concatenate([[0], np.cumsum(widths)])


class _Operator(NamedTuple):
    """The compiled update ``x <- (1 - d) x + d (A x + c)`` over the live targets.

    ``A`` is held as jagged diagonals (:func:`_jagged`): the source row
    ``src`` and coefficient ``a`` of each entry, slot by slot, a row's in path order.
    :meth:`product` applies it a chunk of slots at a time: a gather per
    chunk, a slice-add per slot.

    The loss sums ``w r^2`` over every path into or out of a live row, ``r``
    the path's residual; a path between two fixed entries adds a constant and
    is left out. In a mirror-closed registry, a path out of a row has the term
    of its mirror, a path into it, so a path from a fixed source counts twice.
    The gradient is then ``4 q (x - A x - c)``, with ``q`` each row's total
    weight, and the quadratic is exact from its value ``loss0`` at the
    initial live values ``x0``::

        loss(x) = loss0 + 2 (q (x - x0)).((x - A x - c) + (x0 - A x0 - c))

    Both sums of residuals keep the loss's digits at magnitudes like years.
    ``A x`` is the product the next update needs anyway.
    """

    live: np.ndarray  # entry index per row, grouped by attribute type
    src: np.ndarray  # source row of each A entry
    a: np.ndarray  # w * eta / q per A entry
    rank: np.ndarray  # per row: its place in the sweep
    widths: list[int]  # per slot: the rows it covers
    c: np.ndarray  # per row: intercepts and fixed-source predictions, over q
    x0: np.ndarray  # per row: the value the loss is centered on
    ax0: np.ndarray  # A x0
    q: np.ndarray  # per row: total weight of the paths into it
    loss0: float

    def product(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for the live values ``x``: each row sums its terms in path order from zero.

        ``A`` is applied in chunks: runs of consecutive slots holding at most
        ``BLOCK`` entries, or one wider slot. A chunk's terms are gathered and
        scaled at once, then each of its slots is slice-added, so a call holds
        one chunk of terms, never all of them.
        """
        acc, widths, k, lo = np.zeros(len(self.live)), self.widths, 0, 0
        while k < len(widths):
            stop, hi = k + 1, lo + widths[k]  # the chunk: slots k:stop, entries lo:hi
            while stop < len(widths) and hi + widths[stop] - lo <= BLOCK:
                hi += widths[stop]
                stop += 1
            terms = np.take(x, self.src[lo:hi])
            terms *= self.a[lo:hi]
            at = 0
            for width in widths[k:stop]:
                acc[:width] += terms[at : at + width]
                at += width
            k, lo = stop, hi
        return acc[self.rank]

    def loss(self, x: np.ndarray, ax: np.ndarray) -> float:
        """The loss at live values ``x``, given ``ax = A x``."""
        residual = x - ax
        residual -= self.c
        residual += self.x0 - self.ax0 - self.c
        residual *= self.q * (x - self.x0)
        return self.loss0 + 2.0 * float(residual.sum())  # a pairwise sum: unlike BLAS dot, its bits ignore the thread count


def _compile(
    bundle: DatasetBundle,
    registry: ModelRegistry,
    values: np.ndarray,
) -> tuple[_Operator, np.ndarray, np.ndarray]:
    """The operator at the initial ``values``, plus message count and total weight per entry.

    A plan counts each entry's messages, and those from live sources, before
    any path exists. Blocks of live targets then build the paths into them,
    sum what their targets own and write their ``A`` entries into their slots.
    The fixed point reads no path into a fixed entry, and the loss takes it from its mirror.
    """
    attrs = bundle.attrs
    n, attr = attrs.n_entries, attrs.attr_ids
    clock = time.perf_counter()
    inc = incidences(bundle.graph, registry, attrs)
    planned = inflow(inc, attrs, np.ones(n, dtype=bool))
    logger.info("paths: %d built in %.3f s", planned.sum(), time.perf_counter() - clock)

    clock = time.perf_counter()
    is_live = (attrs.status == Status.MISSING) & (planned > 0)  # a target with a message
    degree = inflow(inc, attrs, is_live)  # messages from live sources
    targets = np.flatnonzero(is_live)
    # rows in entry order within a degree, so that a block writes each slot in runs
    rank, widths, start = _jagged(degree[targets])
    by_type = np.argsort(attr[targets], kind="stable")
    live = targets[by_type]
    row = np.full(n, -1)  # per entry: its row, -1 off the live rows
    row[live] = np.arange(len(live))
    a_src, a = np.empty(start[-1], dtype=np.int64), np.empty(start[-1])

    # blocks of live targets, about BLOCK (target, incidence) and (target, candidate) pairs each
    size = np.diff(inc.entries)
    work = np.add.reduceat(1 + size[inc.src], inc.first[:-1])[attrs.entity_ids[targets]]  # every entity has an inner incidence
    cuts = np.flatnonzero(np.diff((np.cumsum(work) - work) // BLOCK)) + 1
    bounds = np.concatenate([[0], cuts, [len(targets)]]).tolist()
    q, c = np.zeros(n), np.zeros(n)  # per entry
    eta, tau, weight = registry.eta, registry.tau, registry.weight  # a model id is its registry row
    loss0 = 0.0
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        block = targets[b0:b1]
        src, local, mid = _paths(inc, attrs, block)
        n_in, n_live = planned[block], degree[block]
        live_src = np.take(is_live, src)
        p = np.flatnonzero(live_src)  # the paths between two live entries
        if (len(src), len(p)) != (n_in.sum(), n_live.sum()):
            raise RuntimeError(f"targets {b0}:{b1}: {len(src)} paths, {len(p)} live; planned {n_in.sum()}, {n_live.sum()}")
        # q, c and A: a target's paths all sit in this block, in path order
        w, e, t = np.take(weight, mid), np.take(eta, mid), np.take(tau, mid)
        del mid  # each path array goes after its last use, which keeps the block's arrays in cache
        q[block] = qb = np.bincount(local, weights=w, minlength=b1 - b0)
        pred = np.take(values, src)
        pred *= e
        pred += t
        terms = np.where(live_src, t, pred)  # a live source's prediction is in A
        terms *= w
        terms /= np.repeat(qb, n_in)
        c[block] = np.bincount(local, weights=terms, minlength=b1 - b0)
        del local, t, terms
        # the k-th live path of a row goes to slot k
        at = np.take(start, runs(0, n_live)) + np.repeat(rank[b0:b1], n_live)
        a_src[at], a[at] = np.take(row, np.take(src, p)), np.take(w * e, p) / np.repeat(qb, n_live)
        del src, e, p, at

        # the loss at values: a path from a fixed source counts for its mirror too
        r0 = np.subtract(np.repeat(values[block], n_in), pred, out=pred)
        r0 *= r0
        r0 *= w
        loss0 += float(r0.sum()) + float(r0[~live_src].sum())
        del w, pred, r0, live_src  # before the next block's paths

    op = _Operator(live, a_src, a, rank[by_type], widths, c[live], values[live], None, q[live], loss0)
    op = op._replace(ax0=op.product(op.x0))  # the first update's A x as well
    logger.info("operator: %d entries over %d live targets, %d blocks, %d slots, compiled in %.3f s",
                len(a), len(live), len(bounds) - 1, len(widths), time.perf_counter() - clock)
    return op, planned, q


def run(
    bundle: DatasetBundle,
    registry: ModelRegistry,
    cfg: PropagationConfig | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, ImputationReport]:
    """Propagate until every target type's max delta drops below its tolerance.

    Returns the final values, aligned with the attribute entries, plus a
    report with per-target message counts and, per iteration, the max delta
    of each target type and the loss over the paths with a live end (the
    registry must be closed under the mirror). Non-convergence within
    ``max_iters`` is reported, not raised. ``initial`` warm-starts the target
    values (observed entries are clamped regardless). The loop updates the
    live vector alone and writes it into the values once, after its last iteration.
    """
    cfg = cfg or PropagationConfig()
    attrs = bundle.attrs
    targets = bundle.target_indices()
    types, type_of = np.unique(attrs.attr_ids[targets], return_inverse=True)
    # per target type: its observed mean and its tolerance (a DataError where nothing is observed)
    stats = [(attrs.mean_value(t), cfg.conv_frac * attrs.value_range(t)) for t in types.tolist()]
    mean, tol = np.array(stats).reshape(-1, 2).T
    values = attrs.values.copy()
    values[targets] = mean[type_of] if initial is None else np.asarray(initial, dtype=np.float64)[targets]
    op, n_msgs, weight_sum = _compile(bundle, registry, values)

    live_attr = attrs.attr_ids[op.live]
    type_starts = np.flatnonzero(np.diff(live_attr, prepend=-1))
    live_types = live_attr[type_starts]

    deltas, losses = [], []
    clock = time.perf_counter()
    x, ax = op.x0, op.ax0
    for iteration in range(1, cfg.max_iters + 1):
        max_delta = np.zeros(attrs.n_types)
        if len(op.live):
            new = (1.0 - cfg.damping) * x + cfg.damping * (ax + op.c)
            max_delta[live_types] = np.maximum.reduceat(np.abs(new - x), type_starts)
            x, ax = new, op.product(new)
        deltas.append(max_delta[types])
        losses.append(op.loss(x, ax))
        # a delta of 0 meets a constant type's zero tolerance
        converged = bool(((deltas[-1] < tol) | (deltas[-1] == 0.0)).all())
        if converged:
            break
    values[op.live] = x
    seconds = time.perf_counter() - clock
    logger.info(
        "iterations: %d in %.3f s (%.3f ms each), converged=%s, final loss %.6g",
        iteration,
        seconds,
        1000.0 * seconds / iteration,
        converged,
        losses[-1],
    )

    if not converged:
        logger.warning("propagation did not converge in %d iterations", cfg.max_iters)

    report = ImputationReport(
        iterations=iteration,
        converged=converged,
        n_targets=len(targets),
        n_silent=int((n_msgs[targets] == 0).sum()),
        target_entries=targets,
        n_messages=n_msgs[targets],
        total_weight=weight_sum[targets],
        types=attrs.types.labels_of(types),
        deltas=np.array(deltas).reshape(iteration, len(types)),
        losses=np.array(losses),
    )
    return values, report


def write_imputations(
    path: str | os.PathLike, bundle: DatasetBundle, values: np.ndarray, report: ImputationReport
) -> None:
    """``entity<TAB>attr<TAB>value<TAB>n_messages<TAB>total_weight`` per target."""
    attrs, targets = bundle.attrs, report.target_entries
    entities = bundle.graph.entities.labels_of(attrs.entity_ids[targets])
    types = attrs.types.labels_of(attrs.attr_ids[targets])
    write_table(path, [entities, types, values[targets], report.n_messages, report.total_weight])


def write_trace(path: str | os.PathLike, report: ImputationReport) -> None:
    """Convergence trace as CSV: one row per iteration and target type, types by ascending id."""
    iterations, n_types = report.deltas.shape
    iteration = np.repeat(np.arange(1, iterations + 1), n_types)
    columns = [iteration, report.types * iterations, report.deltas.ravel(), np.repeat(report.losses, n_types)]
    write_table(path, columns, sep=",", header="iter,attr_type,max_delta,loss")
