"""Command-line driver: stats | split | fit | impute | eval | ablate.

All subcommands read the same configuration, assembled from built-in
defaults, an optional flat ``key=value`` config file, and command-line
flags (highest precedence). The settings are the fields of ``RunConfig``.
A config key is its flag's name with ``_`` in place of ``-`` (``conv_frac``
for ``--conv-frac``), and ``exclude`` takes ``;``-separated rules. ``ablate``
runs each variant on the models it keeps. Every run is deterministic given
the seed, so repeated commands reproduce byte-identical artifacts in the
output directory:

    split.tsv     split manifest            models.tsv    model dump
    imputed.tsv   imputed values            trace.csv     convergence trace
    report.csv/.txt   evaluation reports    ablation.csv/.txt   ablation reports
    triples.bin/attrs.bin   input parses, restored while the input is unchanged

Each artifact is replaced atomically, so a failed write leaves the last one.

Exit codes: 0 success, 1 usage or config error, 2 data error (a bad row
as ``PATH:LINE: reason``), 3 propagation finished without converging
(outputs are still written). The ``MRAP_LOG``
environment variable (error|warn|info|debug) controls diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import IO, Callable, TypeVar

import numpy as np

from .attributes import AttributeTable, Status
from .codec import Table, parse_floats, read_table, repeated, write_text
from .errors import ConfigError, DataError, MrapError, ParseError, ValueRangeError
from .evaluation import (
    ablation_suite,
    baseline_global,
    baseline_local,
    evaluate,
    format_report_table,
    write_report_csv,
)
from .ingest import (
    DatasetBundle,
    Split,
    SplitSpec,
    apply_split_manifest,
    load_dataset,
    parse_attributes,
    parse_triples,
    read_split_manifest,
    split_attributes,
    subsample_observed,
    write_split_manifest,
)
from .graph import KnowledgeGraph, Vocabulary
from .propagation import PropagationConfig, run, write_imputations, write_trace
from .regression import (
    AdmissionConfig,
    ModelRegistry,
    build_registry,
    count_paths,
    read_model_dump,
    write_model_dump,
)

logger = logging.getLogger(__name__)
T = TypeVar("T")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOCONV = 3

SPLIT_FILE = "split.tsv"
MODELS_FILE = "models.tsv"
IMPUTED_FILE = "imputed.tsv"
TRACE_FILE = "trace.csv"
REPORT_CSV = "report.csv"
REPORT_TXT = "report.txt"
ABLATION_CSV = "ablation.csv"
ABLATION_TXT = "ablation.txt"

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _parse_split(text: str) -> tuple[float, float, float]:
    parts = text.split("/")
    if len(parts) != 3:
        raise ConfigError(f"split must be three /-separated fractions, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ConfigError(f"unparseable split fractions {text!r}") from None


def _parse_exclude(text: str) -> tuple[str, ...]:
    return tuple(r.strip() for r in text.split(";") if r.strip())


def _setting(default, parse=None, from_flag=None, **flag):
    """A ``RunConfig`` field: its default, how to read it, and its flag's argparse keywords.

    ``parse`` reads the config-file value (default: the flag's ``type``, else
    ``str``); ``from_flag`` converts what argparse stores (default: as is).
    """
    metadata = {"parse": parse or flag.get("type", str), "from_flag": from_flag or (lambda v: v), "flag": flag}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """One reproducible run: inputs, split, observation setup, and knobs.

    Each field is one setting, with config key ``name`` and flag ``--name``
    (``-`` for ``_``); its ``_setting`` metadata says how both are read.
    """

    triples: str | None = _setting(None, metavar="PATH", help="tab-separated triple file")
    attrs: str | None = _setting(None, metavar="PATH", help="tab-separated attribute file")
    out: str = _setting("out", metavar="DIR", help="output directory (default: out)")
    seed: int = _setting(SplitSpec.seed, type=int, metavar="N")
    split: tuple[float, float, float] = _setting(
        SplitSpec().fractions, _parse_split, from_flag=_parse_split, metavar="A/B/C", help="train/dev/test fractions"
    )
    observed_fraction: float = _setting(1.0, type=float, metavar="F")
    damping: float = _setting(PropagationConfig.damping, type=float, metavar="X")
    conv_frac: float = _setting(PropagationConfig.conv_frac, type=float, metavar="X")
    max_iters: int = _setting(PropagationConfig.max_iters, type=int, metavar="N")
    min_support: int = _setting(AdmissionConfig.min_support, type=int, metavar="N")
    r2_min: float = _setting(AdmissionConfig.r2_min, type=float, metavar="X")
    exclude: tuple[str, ...] = _setting(
        (),
        _parse_exclude,
        from_flag=tuple,
        action="append",
        metavar="attrA,attrB[,link]",
        help="skip models for an attribute pair (repeatable; link = a relation, or INNER for the within-node "
        "link and any relation named INNER)",
    )
    eval_split: str = _setting("test", choices=("dev", "test"))

    def validate(self) -> None:
        try:
            self.split_spec, self.propagation, self.admission  # each checks its own ranges
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ConfigError(f"observed-fraction must be in (0, 1], got {self.observed_fraction}")
        if self.eval_split not in ("dev", "test"):
            raise ConfigError(f"eval-split must be dev or test, got {self.eval_split!r}")

    @property
    def split_spec(self) -> SplitSpec:
        return SplitSpec(*self.split, seed=self.seed)

    @property
    def propagation(self) -> PropagationConfig:
        return PropagationConfig(damping=self.damping, conv_frac=self.conv_frac, max_iters=self.max_iters)

    @property
    def admission(self) -> AdmissionConfig:
        return AdmissionConfig(
            min_support=self.min_support,
            r2_min=self.r2_min,
            exclusions=AdmissionConfig.parse_exclusions(self.exclude),
        )

    @property
    def setup_label(self) -> str:
        return f"{self.observed_fraction:.0%}"


_SETTINGS = {setting.name: setting for setting in fields(RunConfig)}


def read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Flat ``key=value`` lines as key -> (line number, value); blank lines and # comments skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is no part of the first line
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    values: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate config key {key!r}")
        values[key] = (line_no, value)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    values = {}
    if args.config:
        # in file order, so the first bad line is the one reported
        for key, (line_no, text) in read_config_file(args.config).items():
            if key not in _SETTINGS:
                raise ConfigError(f"{args.config}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _SETTINGS[key].metadata["parse"](text)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{args.config}:{line_no}: config key {key!r}: {exc}") from None
    for name, setting in _SETTINGS.items():
        flag = getattr(args, name)
        if flag is not None:  # flags default to None
            values[name] = setting.metadata["from_flag"](flag)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# -- pipeline steps ------------------------------------------------------------


def _out_path(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.out) / name


def _read(path: str | os.PathLike, read: Callable[[IO[bytes]], T]) -> T:
    """``read`` of the file at ``path``; its errors name the file, and that of a bad row the line."""
    with open(path, "rb") as fh:
        try:
            return read(fh)
        except ParseError as exc:
            raise DataError(f"{path}:{exc.line_no}: {exc.reason}") from None
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def _load_inputs(cfg: RunConfig, snapshots: bool = True) -> tuple[KnowledgeGraph, AttributeTable]:
    if not cfg.triples or not cfg.attrs:
        raise ConfigError("both --triples and --attrs input paths are required")
    start = time.perf_counter()
    entities, relations, types = Vocabulary(), Vocabulary(), Vocabulary()
    triples_bin, attrs_bin = (_out_path(cfg, "triples.bin"), _out_path(cfg, "attrs.bin")) if snapshots else (None, None)
    # the triples' strings are dropped before the attributes are read
    triples = _read(cfg.triples, lambda fh: parse_triples(fh, entities, relations, triples_bin))
    attributes = _read(cfg.attrs, lambda fh: parse_attributes(fh, entities, types, attrs_bin))
    return load_dataset(entities, relations, types, triples, attributes, start)


def load_bundle(cfg: RunConfig, snapshots: bool = True) -> DatasetBundle:
    """Parse inputs (through their snapshots in ``--out``) and restore (or compute) the split, then apply sparsity."""
    graph, attrs = _load_inputs(cfg, snapshots)
    manifest_path = _out_path(cfg, SPLIT_FILE)
    if manifest_path.exists():
        bundle = _read(manifest_path, lambda fh: apply_split_manifest(graph, attrs, read_split_manifest(fh)))
        logger.info("split restored from %s", manifest_path)
    else:
        bundle = split_attributes(graph, attrs, cfg.split_spec)
    return subsample_observed(bundle, cfg.observed_fraction, cfg.seed)


def load_or_fit_registry(cfg: RunConfig, bundle: DatasetBundle) -> ModelRegistry:
    """The models of ``models.tsv`` in ``--out``, or a fit, which is written there."""
    models_path = _out_path(cfg, MODELS_FILE)
    cfg.admission.excluded_ids(bundle.graph, bundle.attrs)  # a rule naming no label fails, even with a dump
    if models_path.exists():
        registry = _read(models_path, lambda fh: read_model_dump(fh, bundle.graph, bundle.attrs))
        logger.info("models restored from %s: %d models (%d fits)", models_path, len(registry), (~registry.derived).sum())
        return registry
    registry = build_registry(bundle, cfg.admission)
    write_model_dump(models_path, registry, bundle.graph, bundle.attrs)
    return registry


def _read_imputed(path: Path, bundle: DatasetBundle) -> tuple[np.ndarray, np.ndarray]:
    """Entry index and value of each row of ``imputed.tsv``; every row names its own attribute entry."""
    entities, attrs = bundle.graph.entities, bundle.attrs

    def convert(table: Table) -> tuple[np.ndarray, np.ndarray]:
        entity, attr, value = table.columns[:3]
        idx = attrs.lookup(entities.ids(entity), attrs.types.ids(attr))
        known = idx >= 0
        n = len(table) if known.all() else int(known.argmin())  # rows above the first unknown target
        twice = np.flatnonzero(repeated(idx[:n]))
        # a row's value is checked before whether its target repeats
        values = parse_floats(table, value[: twice[0] + 1 if twice.size else n], "unparseable value {!r}")
        if twice.size:
            row = twice[0]
            raise ParseError(f"duplicate target ({entity[row]!r}, {attr[row]!r})", table.line(row))
        if n < len(table):
            raise ParseError(f"unknown target ({entity[n]!r}, {attr[n]!r})", table.line(n))
        return idx, values

    return _read(path, lambda fh: read_table(fh, 5, convert))


# -- subcommands ---------------------------------------------------------------


def cmd_stats(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg, snapshots=False)
    registry = build_registry(bundle, cfg.admission)
    train, dev, test = bundle.split_counts()
    observed = int((bundle.attrs.status == Status.OBSERVED).sum())
    rows = [
        ("entities", bundle.graph.n_entities),
        ("edges", bundle.graph.n_edges),
        ("relation types", bundle.graph.n_relations),
        ("attribute types", bundle.attrs.n_types),
        ("attributes in train", train),
        ("attributes in dev", dev),
        ("attributes in test", test),
        (f"observed entries ({cfg.setup_label} setup)", observed),
        ("regression functions", len(registry)),
        ("message passing paths", count_paths(bundle.graph, registry, bundle.attrs)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


def cmd_split(cfg: RunConfig) -> int:
    bundle = split_attributes(*_load_inputs(cfg), cfg.split_spec)
    path = _out_path(cfg, SPLIT_FILE)
    write_split_manifest(path, bundle)
    train, dev, test = bundle.split_counts()
    print(f"split written to {path}: {train} train / {dev} dev / {test} test")
    return EXIT_OK


def cmd_fit(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = build_registry(bundle, cfg.admission)
    path = _out_path(cfg, MODELS_FILE)
    write_model_dump(path, registry, bundle.graph, bundle.attrs)
    print(f"{len(registry)} models written to {path}")
    if registry.rejections:
        print("rejections:")
        for reason in sorted(registry.rejections):
            print(f"  {reason}: {registry.rejections[reason]}")
    if not len(registry):
        logger.warning("no models admitted; imputation would fall back to global means")
    return EXIT_OK


def cmd_impute(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = load_or_fit_registry(cfg, bundle)
    values, report = run(bundle, registry, cfg.propagation)
    write_imputations(_out_path(cfg, IMPUTED_FILE), bundle, values, report)
    write_trace(_out_path(cfg, TRACE_FILE), report)
    print(
        f"{report.n_targets} targets imputed in {report.iterations} iterations "
        f"({report.n_silent} without messages), converged={report.converged}"
    )
    return EXIT_OK if report.converged else EXIT_NOCONV


def cmd_eval(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    imputed_path = _out_path(cfg, IMPUTED_FILE)
    if not imputed_path.exists():
        raise DataError(f"no imputation output at {imputed_path}; run `mrap impute` first")
    entries, values = _read_imputed(imputed_path, bundle)
    split = Split[cfg.eval_split.upper()]
    attrs = bundle.attrs
    preds = np.full(attrs.n_entries, np.nan)
    preds[entries] = values
    targets = bundle.split_indices(split)
    absent = targets[np.isnan(preds[targets])]
    if absent.size:
        shown = absent[:20]
        entities = bundle.graph.entities.labels_of(attrs.entity_ids[shown])
        head = ", ".join(f"{e}/{a}" for e, a in zip(entities, attrs.types.labels_of(attrs.attr_ids[shown])))
        raise DataError(f"{absent.size} {split.name.lower()} targets missing from {imputed_path}: {head}")
    reports = [
        evaluate(preds, bundle, split, method="MrAP", setup=cfg.setup_label),
        evaluate(baseline_global(bundle, targets), bundle, split, method="Global", setup=cfg.setup_label),
        evaluate(baseline_local(bundle, targets), bundle, split, method="Local", setup=cfg.setup_label),
    ]
    write_report_csv(_out_path(cfg, REPORT_CSV), reports)
    table = format_report_table(reports)
    write_text(_out_path(cfg, REPORT_TXT), table)
    print(table, end="")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = load_or_fit_registry(cfg, bundle)
    split = Split[cfg.eval_split.upper()]
    reports = ablation_suite(
        bundle, cfg.propagation, registry=registry, split=split, setup=cfg.setup_label
    )
    write_report_csv(_out_path(cfg, ABLATION_CSV), reports)
    table = format_report_table(reports)
    write_text(_out_path(cfg, ABLATION_TXT), table)
    print(table, end="")
    if any(report.converged is False for report in reports):
        return EXIT_NOCONV
    return EXIT_OK


_COMMANDS = {
    "stats": (cmd_stats, "print dataset and model statistics"),
    "split": (cmd_split, "write the train/dev/test manifest"),
    "fit": (cmd_fit, "fit regression models and write the model dump"),
    "impute": (cmd_impute, "run propagation and write imputed values"),
    "eval": (cmd_eval, "score imputations against baselines"),
    "ablate": (cmd_ablate, "run full / w/o Inner / w/o Cross comparisons"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for name, setting in _SETTINGS.items():
        common.add_argument("--" + name.replace("_", "-"), default=None, **setting.metadata["flag"])

    parser = argparse.ArgumentParser(
        prog="mrap",
        description="Impute missing numeric node attributes in a multi-relational graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text, allow_abbrev=False)  # a flag has one spelling
    return parser


def _configure_logging() -> None:
    name = os.environ.get("MRAP_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"unknown MRAP_LOG level {name!r}, using warn", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        cfg = build_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logger.info("config: %s", ", ".join(f"{name}={value!r}" for name, value in asdict(cfg).items()))
    command, _ = _COMMANDS[args.command]
    try:
        return command(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MrapError, OSError) as exc:
        print(f"error: {cfg.attrs + ': ' if isinstance(exc, ValueRangeError) else ''}{exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
