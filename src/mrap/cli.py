"""Command-line driver: stats | split | fit | impute | eval | ablate.

All subcommands read the same configuration, assembled from built-in
defaults, an optional flat ``key=value`` config file, and command-line
flags (highest precedence). Every run is deterministic given the seed, so
repeated commands reproduce byte-identical artifacts in the output
directory:

    split.tsv     split manifest            models.tsv    model dump
    imputed.tsv   imputed values            trace.csv     convergence trace
    report.csv/.txt   evaluation reports    ablation.csv/.txt   ablation reports

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 propagation
finished without converging (outputs are still written). The ``MRAP_LOG``
environment variable (error|warn|info|debug) controls diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, DataError, MrapError, ParseError
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


@dataclass
class RunConfig:
    """One reproducible run: inputs, split, observation setup, and knobs."""

    triples: str | None = None
    attrs: str | None = None
    out: str = "out"
    seed: int = 0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    observed_fraction: float = 1.0
    damping: float = 0.5
    conv_frac: float = 0.001
    max_iters: int = 200
    no_cross: bool = False
    no_inner: bool = False
    min_support: int = 5
    r2_min: float = 0.0
    exclude: tuple[str, ...] = ()
    eval_split: str = "test"

    def validate(self) -> None:
        try:
            SplitSpec(*self.split, seed=self.seed)
            PropagationConfig(
                damping=self.damping, conv_frac=self.conv_frac, max_iters=self.max_iters
            )
            AdmissionConfig(
                min_support=self.min_support,
                r2_min=self.r2_min,
                exclusions=AdmissionConfig.parse_exclusions(self.exclude),
            )
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
        return PropagationConfig(
            damping=self.damping,
            conv_frac=self.conv_frac,
            max_iters=self.max_iters,
            no_cross=self.no_cross,
            no_inner=self.no_inner,
        )

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


def _parse_split(text: str) -> tuple[float, float, float]:
    parts = text.split("/")
    if len(parts) != 3:
        raise ConfigError(f"split must be three /-separated fractions, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ConfigError(f"unparseable split fractions {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key=value`` lines; blank lines and # comments skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    cfg = RunConfig()
    if args.config:
        raw = read_config_file(args.config)
        setters = {
            "triples": lambda v: replace(cfg, triples=v),
            "attrs": lambda v: replace(cfg, attrs=v),
            "out": lambda v: replace(cfg, out=v),
            "seed": lambda v: replace(cfg, seed=int(v)),
            "split": lambda v: replace(cfg, split=_parse_split(v)),
            "observed_fraction": lambda v: replace(cfg, observed_fraction=float(v)),
            "damping": lambda v: replace(cfg, damping=float(v)),
            "conv_frac": lambda v: replace(cfg, conv_frac=float(v)),
            "max_iters": lambda v: replace(cfg, max_iters=int(v)),
            "no_cross": lambda v: replace(cfg, no_cross=_parse_bool(v)),
            "no_inner": lambda v: replace(cfg, no_inner=_parse_bool(v)),
            "min_support": lambda v: replace(cfg, min_support=int(v)),
            "r2_min": lambda v: replace(cfg, r2_min=float(v)),
            "exclude": lambda v: replace(
                cfg, exclude=tuple(r.strip() for r in v.split(";") if r.strip())
            ),
            "eval_split": lambda v: replace(cfg, eval_split=v),
        }
        for key, value in raw.items():
            if key not in setters:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                cfg = setters[key](value)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None

    overrides = dict(
        triples=args.triples,
        attrs=args.attrs,
        out=args.out,
        seed=args.seed,
        split=_parse_split(args.split) if args.split else None,
        observed_fraction=args.observed_fraction,
        damping=args.damping,
        conv_frac=args.conv_frac,
        max_iters=args.max_iters,
        min_support=args.min_support,
        r2_min=args.r2_min,
        eval_split=args.eval_split,
    )
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if args.no_cross:
        cfg = replace(cfg, no_cross=True)
    if args.no_inner:
        cfg = replace(cfg, no_inner=True)
    if args.exclude:
        cfg = replace(cfg, exclude=tuple(args.exclude))
    cfg.validate()
    return cfg


# -- pipeline steps ------------------------------------------------------------


def _out_path(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.out) / name


def load_bundle(cfg: RunConfig) -> DatasetBundle:
    """Parse inputs and restore (or compute) the split, then apply sparsity."""
    if not cfg.triples or not cfg.attrs:
        raise ConfigError("both --triples and --attrs input paths are required")
    with open(cfg.triples, encoding="utf-8") as fh:
        triples = parse_triples(fh)
    with open(cfg.attrs, encoding="utf-8") as fh:
        attr_rows, _ = parse_attributes(fh)
    graph, attrs = load_dataset(triples, attr_rows)
    manifest_path = _out_path(cfg, SPLIT_FILE)
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            bundle = apply_split_manifest(graph, attrs, read_split_manifest(fh))
        logger.info("split restored from %s", manifest_path)
    else:
        bundle = split_attributes(graph, attrs, cfg.split_spec)
    return subsample_observed(bundle, cfg.observed_fraction, cfg.seed)


def load_or_fit_registry(cfg: RunConfig, bundle: DatasetBundle, write_if_built: bool) -> ModelRegistry:
    models_path = _out_path(cfg, MODELS_FILE)
    if models_path.exists():
        with open(models_path, encoding="utf-8") as fh:
            registry = read_model_dump(fh, bundle.graph, bundle.attrs, cfg.admission)
        logger.info("models restored from %s", models_path)
        return registry
    registry = build_registry(bundle, cfg.admission)
    if write_if_built:
        models_path.parent.mkdir(parents=True, exist_ok=True)
        with open(models_path, "w", encoding="utf-8") as fh:
            write_model_dump(fh, registry, bundle.graph, bundle.attrs)
    return registry


def _read_imputed(path: Path, bundle: DatasetBundle) -> dict[tuple[int, int], float]:
    preds: dict[tuple[int, int], float] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line_no)
            entity, attr, value = fields[0], fields[1], fields[2]
            eid = bundle.graph.entities.get(entity)
            aid = bundle.attrs.types.get(attr)
            if eid is None or aid is None:
                raise DataError(f"{path}:{line_no}: unknown target ({entity!r}, {attr!r})")
            try:
                prediction = float(value)
            except ValueError:
                raise ParseError(f"unparseable value {value!r}", line_no) from None
            if not math.isfinite(prediction):
                raise ParseError(f"non-finite value {value!r}", line_no)
            if (eid, aid) in preds:
                raise ParseError(f"duplicate target ({entity!r}, {attr!r})", line_no)
            preds[(eid, aid)] = prediction
    return preds


# -- subcommands ---------------------------------------------------------------


def cmd_stats(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = build_registry(bundle, cfg.admission)
    train, dev, test = bundle.split_counts()
    observed = int((bundle.attrs.status == 0).sum())
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
    if not cfg.triples or not cfg.attrs:
        raise ConfigError("both --triples and --attrs input paths are required")
    with open(cfg.triples, encoding="utf-8") as fh:
        triples = parse_triples(fh)
    with open(cfg.attrs, encoding="utf-8") as fh:
        attr_rows, _ = parse_attributes(fh)
    graph, attrs = load_dataset(triples, attr_rows)
    bundle = split_attributes(graph, attrs, cfg.split_spec)
    path = _out_path(cfg, SPLIT_FILE)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        write_split_manifest(fh, bundle)
    train, dev, test = bundle.split_counts()
    print(f"split written to {path}: {train} train / {dev} dev / {test} test")
    return EXIT_OK


def cmd_fit(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = build_registry(bundle, cfg.admission)
    path = _out_path(cfg, MODELS_FILE)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        write_model_dump(fh, registry, bundle.graph, bundle.attrs)
    print(f"{len(registry)} models written to {path}")
    if registry.rejections:
        print("rejections:")
        for reason in sorted(registry.rejections):
            print(f"  {reason}: {registry.rejections[reason]}")
    if not registry.models:
        logger.warning("no models admitted; imputation would fall back to global means")
    return EXIT_OK


def cmd_impute(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = load_or_fit_registry(cfg, bundle, write_if_built=True)
    state, report = run(bundle, registry, cfg.propagation)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / IMPUTED_FILE, "w", encoding="utf-8") as fh:
        write_imputations(fh, bundle, state, report)
    with open(out_dir / TRACE_FILE, "w", encoding="utf-8") as fh:
        write_trace(fh, report)
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
    preds = _read_imputed(imputed_path, bundle)
    split = Split.DEV if cfg.eval_split == "dev" else Split.TEST
    attrs = bundle.attrs
    absent = [
        (bundle.graph.entities.label(int(attrs.entity_ids[t])), attrs.types.label(int(attrs.attr_ids[t])))
        for t in bundle.split_indices(split)
        if (int(attrs.entity_ids[t]), int(attrs.attr_ids[t])) not in preds
    ]
    if absent:
        head = ", ".join(f"{e}/{a}" for e, a in absent[:20])
        raise DataError(f"{len(absent)} {split.name.lower()} targets missing from {imputed_path}: {head}")
    reports = [
        evaluate(preds, bundle, split, method="MrAP", setup=cfg.setup_label),
        evaluate(baseline_global(bundle), bundle, split, method="Global", setup=cfg.setup_label),
        evaluate(baseline_local(bundle), bundle, split, method="Local", setup=cfg.setup_label),
    ]
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / REPORT_CSV, "w", encoding="utf-8") as fh:
        write_report_csv(fh, reports)
    table = format_report_table(reports)
    with open(out_dir / REPORT_TXT, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg)
    registry = load_or_fit_registry(cfg, bundle, write_if_built=False)
    split = Split.DEV if cfg.eval_split == "dev" else Split.TEST
    reports = ablation_suite(
        bundle, cfg.propagation, registry=registry, split=split, setup=cfg.setup_label
    )
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ABLATION_CSV, "w", encoding="utf-8") as fh:
        write_report_csv(fh, reports)
    table = format_report_table(reports, merge_local_global=False)
    with open(out_dir / ABLATION_TXT, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    if any(report.converged is False for report in reports):
        return EXIT_NOCONV
    return EXIT_OK


_COMMANDS = {
    "stats": cmd_stats,
    "split": cmd_split,
    "fit": cmd_fit,
    "impute": cmd_impute,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    common.add_argument("--triples", metavar="PATH", help="tab-separated triple file")
    common.add_argument("--attrs", metavar="PATH", help="tab-separated attribute file")
    common.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--seed", type=int, metavar="N")
    common.add_argument("--split", metavar="A/B/C", help="train/dev/test fractions")
    common.add_argument("--observed-fraction", type=float, metavar="F", dest="observed_fraction")
    common.add_argument("--damping", type=float, metavar="X")
    common.add_argument("--conv-frac", type=float, metavar="X", dest="conv_frac")
    common.add_argument("--max-iters", type=int, metavar="N", dest="max_iters")
    common.add_argument("--no-cross", action="store_true", dest="no_cross")
    common.add_argument("--no-inner", action="store_true", dest="no_inner")
    common.add_argument("--min-support", type=int, metavar="N", dest="min_support")
    common.add_argument("--r2-min", type=float, metavar="X", dest="r2_min")
    common.add_argument(
        "--exclude",
        action="append",
        metavar="attrA,attrB[,link]",
        help="skip models for an attribute pair (repeatable; link = relation or INNER)",
    )
    common.add_argument("--eval-split", choices=("dev", "test"), dest="eval_split")

    parser = argparse.ArgumentParser(
        prog="mrap",
        description="Impute missing numeric node attributes in a multi-relational graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("stats", "print dataset and model statistics"),
        ("split", "write the train/dev/test manifest"),
        ("fit", "fit regression models and write the model dump"),
        ("impute", "run propagation and write imputed values"),
        ("eval", "score imputations against baselines"),
        ("ablate", "run full / w/o Inner / w/o Cross comparisons"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
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
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MrapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
