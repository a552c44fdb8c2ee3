"""Mean-value baselines, per-type error reports, and ablation orchestration.

The Global baseline imputes each target with the observed mean of its
attribute type; the Local baseline averages observed same-type values over
the target's neighboring nodes (both edge directions, relation types
ignored), falling back to Global when no neighbor has one. Errors are
reported per attribute type as MAE and RMSE against the held-out values.
"""
from __future__ import annotations

import csv
import io
import logging
import os
from dataclasses import dataclass, field, replace
from typing import IO, Mapping

import numpy as np

from .attributes import Status
from .codec import write_text
from .graph import Direction
from .ingest import DatasetBundle, Split
from .propagation import PropagationConfig, run
from .regression import (
    AdmissionConfig,
    ModelRegistry,
    PathKey,
    build_registry,
    ragged,
    training_pairs,
)

logger = logging.getLogger(__name__)

Target = tuple[int, int]  # (entity id, attr id)


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

    def row(self, attr: str) -> EvalRow | None:
        for r in self.rows:
            if r.attr == attr:
                return r
        return None


def baseline_global(bundle: DatasetBundle) -> dict[Target, float]:
    """Every target gets the observed mean of its attribute type."""
    attrs = bundle.attrs
    out: dict[Target, float] = {}
    for t in bundle.target_indices():
        attr = int(attrs.attr_ids[t])
        out[(int(attrs.entity_ids[t]), attr)] = attrs.mean_value(attr)
    return out


def baseline_local(bundle: DatasetBundle) -> dict[Target, float]:
    """Targets get the mean observed same-type value over neighboring nodes.

    Each neighboring node counts once even when connected through several
    edges, and values are summed in ascending neighbor id order. Targets
    without an attributed neighbor fall back to the Global value.
    """
    attrs = bundle.attrs
    n_entities = bundle.graph.n_entities
    head, _, tail = bundle.graph.edge_array.T
    # distinct (entity, neighbor) pairs over both edge directions, ascending
    pairs = np.unique(np.concatenate([tail * n_entities + head, head * n_entities + tail]))
    entity, neighbor = np.divmod(pairs, n_entities)
    first = np.searchsorted(entity, np.arange(n_entities + 1))

    targets = bundle.target_indices()
    t_entity, t_attr = attrs.entity_ids[targets], attrs.attr_ids[targets]
    row, k = ragged(first[t_entity + 1] - first[t_entity])
    nb = neighbor[first[t_entity[row]] + k]
    idx = attrs.lookup(nb, t_attr[row])
    hit = (idx >= 0) & (attrs.status[idx] == Status.OBSERVED)
    total = np.bincount(row[hit], weights=attrs.values[idx[hit]], minlength=len(targets))
    count = np.bincount(row[hit], minlength=len(targets))

    out: dict[Target, float] = {}
    for e, a, s, c in zip(t_entity.tolist(), t_attr.tolist(), total.tolist(), count.tolist()):
        out[(e, a)] = s / c if c else attrs.mean_value(a)
    return out


def evaluate(
    predictions: Mapping[Target, float],
    bundle: DatasetBundle,
    split: Split,
    method: str = "",
    setup: str = "",
) -> EvalReport:
    """Per-attribute-type MAE/RMSE of predictions on one split's targets.

    Targets absent from ``predictions`` are scored at the Global fallback and
    counted in ``n_unpredicted`` rather than dropped. Types with no entries
    in the split are omitted with a warning.
    """
    attrs = bundle.attrs
    report = EvalReport(method=method, setup=setup)
    split_entries = bundle.split_indices(split)
    for attr in range(attrs.n_types):
        entries = split_entries[attrs.attr_ids[split_entries] == attr]
        if len(entries) == 0:
            logger.warning(
                "split %s has no entries of type %r", split.name, attrs.types.label(attr)
            )
            continue
        errors = np.empty(len(entries))
        unpredicted = 0
        for i, entry in enumerate(entries):
            target = (int(attrs.entity_ids[entry]), attr)
            pred = predictions.get(target)
            if pred is None:
                pred = attrs.mean_value(attr)
                unpredicted += 1
            errors[i] = pred - attrs.values[entry]
        report.rows.append(
            EvalRow(
                attr=attrs.types.label(attr),
                mae=float(np.mean(np.abs(errors))),
                rmse=float(np.sqrt(np.mean(errors * errors))),
                n=len(entries),
                n_unpredicted=unpredicted,
            )
        )
    return report


def propagation_predictions(bundle: DatasetBundle, registry: ModelRegistry, cfg: PropagationConfig):
    """Run propagation and return (predictions map, report)."""
    state, report = run(bundle, registry, cfg)
    attrs = bundle.attrs
    preds = {
        (int(attrs.entity_ids[t]), int(attrs.attr_ids[t])): float(state.values[t])
        for t in report.target_entries
    }
    return preds, report


def ablation_suite(
    bundle: DatasetBundle,
    cfg: PropagationConfig | None = None,
    admission: AdmissionConfig | None = None,
    registry: ModelRegistry | None = None,
    split: Split = Split.TEST,
    setup: str = "",
) -> list[EvalReport]:
    """Evaluate the full model, w/o Inner, and w/o Cross on the same split.

    All three runs share one registry and differ only in the message filter
    flags, so the comparison isolates the contribution of within-node and
    cross-type messages.
    """
    cfg = cfg or PropagationConfig()
    registry = registry or build_registry(bundle, admission)
    reports = []
    variants = (
        ("MrAP", replace(cfg, no_cross=False, no_inner=False)),
        ("w/o Inner", replace(cfg, no_cross=False, no_inner=True)),
        ("w/o Cross", replace(cfg, no_cross=True, no_inner=False)),
    )
    for label, variant_cfg in variants:
        preds, run_report = propagation_predictions(bundle, registry, variant_cfg)
        report = evaluate(preds, bundle, split, method=label, setup=setup)
        report.converged = run_report.converged
        reports.append(report)
    return reports


def export_differences(
    bundle: DatasetBundle, key: PathKey
) -> tuple[np.ndarray, float, float]:
    """Raw y - x differences over a key's training pairs, plus normal fit.

    For attribute pairs on the same unit the differences center near the
    model intercept. Returns (differences, mean, std); empty keys yield an
    empty array and NaN parameters with a warning.
    """
    if not key.is_inner and key.direction is not Direction.FORWARD:
        raise ValueError("pairs are extracted for FORWARD keys only")
    swap = key.is_inner and key.dep < key.indep  # inner fits regress the higher attr id
    fit_key = key.reversed() if swap else key
    no_pairs = (np.empty(0), np.empty(0))
    ys, xs = next(((ys, xs) for k, ys, xs in training_pairs(bundle) if k == fit_key), no_pairs)
    if swap:
        ys, xs = xs, ys
    if ys.size == 0:
        logger.warning("no training pairs for key %r", key)
        return np.empty(0), float("nan"), float("nan")
    diffs = ys - xs
    return diffs, float(diffs.mean()), float(diffs.std())


def write_differences(fh: IO[str], key_label: str, diffs: np.ndarray, mean: float, std: float) -> None:
    """CSV ``key,value`` rows followed by the fitted normal parameters."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["key", "value"])
    for value in diffs:
        writer.writerow([key_label, f"{value:.17g}"])
    fh.write(f"# fitted_normal mean={mean:.17g} std={std:.17g}\n")


def write_report_csv(path: str | os.PathLike, reports: list[EvalReport]) -> None:
    """One CSV row per (method, attribute type), written atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "setup", "attr_type", "mae", "rmse", "n_test", "n_unpredicted"])
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    report.method,
                    report.setup,
                    row.attr,
                    f"{row.mae:.17g}",
                    f"{row.rmse:.17g}",
                    row.n,
                    row.n_unpredicted,
                ]
            )
    write_text(path, buf.getvalue())


def format_report_table(reports: list[EvalReport], merge_local_global: bool = True) -> str:
    """Aligned text table, one attribute row per line, MAE/RMSE per method.

    When both Global and Local reports are present and merging is on, they
    collapse into one Local/Global column showing the better MAE of the two;
    an asterisk marks rows where Global outperforms Local.
    """
    by_method = {r.method: r for r in reports}
    merged = merge_local_global and "Global" in by_method and "Local" in by_method
    columns: list[tuple[str, EvalReport | None]] = []
    if merged:
        columns.append(("Local/Global", None))
    for report in reports:
        if merged and report.method in ("Global", "Local"):
            continue
        columns.append((report.method, report))

    attr_order: list[str] = []
    for report in reports:
        for row in report.rows:
            if row.attr not in attr_order:
                attr_order.append(row.attr)

    def fmt(x: float) -> str:
        return f"{x:.6g}"

    header = ["attribute"]
    for name, _ in columns:
        header += [f"{name} MAE", f"{name} RMSE"]
    lines = [header]
    for attr in attr_order:
        line = [attr]
        for name, report in columns:
            if report is None:
                g = by_method["Global"].row(attr)
                l = by_method["Local"].row(attr)
                if g is None or l is None:
                    line += ["-", "-"]
                    continue
                best = g if g.mae <= l.mae else l
                star = "*" if g.mae <= l.mae else ""
                line += [star + fmt(best.mae), star + fmt(best.rmse)]
            else:
                row = report.row(attr)
                line += ["-", "-"] if row is None else [fmt(row.mae), fmt(row.rmse)]
        lines.append(line)

    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = []
    for line in lines:
        out.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out) + "\n"
