"""Mean-value baselines, per-type error reports, and ablation orchestration.

The Global baseline imputes each target with the observed mean of its
attribute type; the Local baseline averages observed same-type values over
the target's neighboring nodes (both edge directions, relation types
ignored), falling back to Global when no neighbor has one. A method's
predictions are one float64 vector over the attribute entries, NaN where it
gives none. Errors are reported per attribute type as MAE and RMSE against
the held-out values, on the entries of one split.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .attributes import Status
from .codec import write_table
from .ingest import DatasetBundle, Split
from .propagation import PropagationConfig, run
from .regression import ModelRegistry, ragged

logger = logging.getLogger(__name__)


@dataclass
class EvalRow:
    attr: str
    mae: float
    rmse: float
    n: int
    n_unpredicted: int


@dataclass
class EvalReport:
    method: str
    setup: str
    rows: list[EvalRow] = field(default_factory=list)
    converged: bool | None = None  # set for propagation-backed methods


def baseline_global(bundle: DatasetBundle, entries: np.ndarray | None = None) -> np.ndarray:
    """Predictions over all entries: the observed mean of its type at each of ``entries``.

    ``entries`` defaults to every target; other entries are NaN. Types are
    checked in order of their first target, then of their first entry, so a
    type with nothing observed raises the DataError of the first target that
    has it, whatever ``entries`` holds.
    """
    attrs = bundle.attrs
    targets = bundle.target_indices()
    entries = targets if entries is None else np.asarray(entries, dtype=np.int64)
    types, first = np.unique(attrs.attr_ids[np.concatenate([targets, entries])], return_index=True)
    means = np.full(attrs.n_types, np.nan)
    for attr in types[np.argsort(first)].tolist():
        means[attr] = attrs.mean_value(attr)
    out = np.full(attrs.n_entries, np.nan)
    out[entries] = means[attrs.attr_ids[entries]]
    return out


def baseline_local(bundle: DatasetBundle, entries: np.ndarray | None = None) -> np.ndarray:
    """Predictions over all entries: the mean observed same-type value over neighboring nodes.

    Only ``entries`` (default: every target) are filled; other entries are
    NaN. Each neighboring node counts once even when connected through
    several edges, and values are summed in ascending neighbor id order.
    Entries without an attributed neighbor fall back to the Global value.
    """
    entries = bundle.target_indices() if entries is None else np.asarray(entries, dtype=np.int64)
    attrs = bundle.attrs
    n_entities = bundle.graph.n_entities
    t_entity, t_attr = attrs.entity_ids[entries], attrs.attr_ids[entries]
    wanted = np.zeros(n_entities, dtype=bool)
    wanted[t_entity] = True
    head, _, tail = bundle.graph.edge_array.T
    # distinct (entity, neighbor) pairs of the wanted entities over both edge directions, ascending
    at_head, at_tail = wanted[head], wanted[tail]
    codes = np.concatenate([head[at_head] * n_entities + tail[at_head], tail[at_tail] * n_entities + head[at_tail]])
    entity, neighbor = np.divmod(np.unique(codes), n_entities)
    first = np.searchsorted(entity, np.arange(n_entities + 1))

    row, k = ragged(first[t_entity + 1] - first[t_entity])
    nb = neighbor[first[t_entity[row]] + k]
    idx = attrs.lookup(nb, t_attr[row])
    hit = (idx >= 0) & (attrs.status[idx] == Status.OBSERVED)
    total = np.bincount(row[hit], weights=attrs.values[idx[hit]], minlength=len(entries))
    count = np.bincount(row[hit], minlength=len(entries))

    out = baseline_global(bundle, entries)
    reached = count > 0
    out[entries[reached]] = total[reached] / count[reached]
    return out


def evaluate(
    predictions: np.ndarray,
    bundle: DatasetBundle,
    split: Split,
    method: str = "",
    setup: str = "",
) -> EvalReport:
    """Per-attribute-type MAE/RMSE of a prediction vector on one split's entries.

    ``predictions`` holds one value per attribute entry. An entry whose
    prediction is NaN is scored at the Global fallback and counted in
    ``n_unpredicted`` rather than dropped. Types with no entries in the
    split are omitted with a warning.
    """
    attrs = bundle.attrs
    report = EvalReport(method=method, setup=setup)
    split_entries = bundle.split_indices(split)
    preds = np.asarray(predictions, dtype=np.float64)[split_entries]
    truth = attrs.values[split_entries]
    split_attrs = attrs.attr_ids[split_entries]
    for attr in range(attrs.n_types):
        mask = split_attrs == attr
        n = int(np.count_nonzero(mask))
        if n == 0:
            logger.warning(
                "split %s has no entries of type %r", split.name, attrs.types.label(attr)
            )
            continue
        pred = preds[mask]
        unpredicted = np.isnan(pred)
        n_unpredicted = int(np.count_nonzero(unpredicted))
        if n_unpredicted:
            pred[unpredicted] = attrs.mean_value(attr)
        errors = pred - truth[mask]
        report.rows.append(
            EvalRow(
                attr=attrs.types.label(attr),
                mae=float(np.mean(np.abs(errors))),
                rmse=float(np.sqrt(np.mean(errors * errors))),
                n=n,
                n_unpredicted=n_unpredicted,
            )
        )
    return report


def propagation_predictions(bundle: DatasetBundle, registry: ModelRegistry, cfg: PropagationConfig):
    """Run propagation and return (prediction vector with the targets filled, report)."""
    values, report = run(bundle, registry, cfg)
    preds = np.full(bundle.attrs.n_entries, np.nan)
    preds[report.target_entries] = values[report.target_entries]
    return preds, report


def ablation_suite(
    bundle: DatasetBundle,
    cfg: PropagationConfig,
    registry: ModelRegistry,
    split: Split = Split.TEST,
    setup: str = "",
) -> list[EvalReport]:
    """Evaluate the full model, w/o Inner, and w/o Cross on the same split.

    Each variant runs with ``cfg`` on the models of ``registry`` it keeps:
    MrAP on every model, w/o Inner on the relational ones, w/o Cross on those
    that predict a type from itself, which are relational (a within-node
    model links two types). So the comparison isolates the contribution of
    within-node and cross-type messages.
    """
    reports = []
    variants = (
        ("MrAP", lambda key: True),
        ("w/o Inner", lambda key: not key.is_inner),
        ("w/o Cross", lambda key: key.dep == key.indep),
    )
    for label, keeps in variants:
        preds, run_report = propagation_predictions(bundle, ModelRegistry({k: m for k, m in registry.models.items() if keeps(k)}), cfg)
        report = evaluate(preds, bundle, split, method=label, setup=setup)
        report.converged = run_report.converged
        reports.append(report)
    return reports


def write_report_csv(path: str | os.PathLike, reports: list[EvalReport]) -> None:
    """One CSV row per (method, attribute type), written atomically."""
    rows = [(r.method, r.setup, row.attr, row.mae, row.rmse, row.n, row.n_unpredicted) for r in reports for row in r.rows]
    method, setup, attr, mae, rmse, n, n_unpredicted = zip(*rows) if rows else ((),) * 7
    columns = [method, setup, attr, np.array(mae), np.array(rmse), np.array(n, dtype=np.int64), np.array(n_unpredicted, dtype=np.int64)]
    write_table(path, columns, sep=",", header="method,setup,attr_type,mae,rmse,n_test,n_unpredicted")


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text table, one attribute row per line, MAE/RMSE per method.

    When both Global and Local reports are present, they collapse into one
    Local/Global column showing the better MAE of the two; an asterisk marks
    rows where Global does at least as well as Local.
    """

    def fmt(x: float) -> str:
        return f"{x:.6g}"

    by_method = {r.method: r for r in reports}
    columns = [(r.method, {row.attr: (fmt(row.mae), fmt(row.rmse)) for row in r.rows}) for r in reports]
    if "Global" in by_method and "Local" in by_method:
        global_rows = {row.attr: row for row in by_method["Global"].rows}
        best = {}
        for local in by_method["Local"].rows:
            glob = global_rows.get(local.attr)
            if glob is not None:
                row, star = (glob, "*") if glob.mae <= local.mae else (local, "")
                best[local.attr] = (star + fmt(row.mae), star + fmt(row.rmse))
        columns = [("Local/Global", best)] + [c for c in columns if c[0] not in ("Global", "Local")]

    attr_order = dict.fromkeys(row.attr for report in reports for row in report.rows)
    lines = [["attribute"] + [f"{name} {stat}" for name, _ in columns for stat in ("MAE", "RMSE")]]
    for attr in attr_order:
        lines.append([attr] + [cell for _, cells in columns for cell in cells.get(attr, ("-", "-"))])
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(cell.rjust(width) for cell, width in zip(line, widths)) + "\n" for line in lines)
