"""Benchmark of the mrap CLI on seeded synthetic knowledge graphs.

Run from the repository root:

    python3 bench/run.py --workload sparse-mix --seed 1 --seconds 45 --trace 0

The run generates the workload's ``triples.tsv`` and ``attrs.tsv`` from
``--seed``, checks a small planted instance, and then repeats the workload's
CLI commands in this process, one at a time and each from a fresh ``--out``
directory, for ``--seconds`` seconds (at least three repeats). Every command
runs with ``--seed 7``. Outputs are checked on every repeat.

With ``--trace 0`` the run reports the end-to-end metrics, as medians over
its repeats. With ``--trace 1`` it alternates untraced repeats with traced
ones, in which spans around the calls into each layer (see ``spans.py``)
give the per-layer metrics. The last line of standard output is one JSON
object; the full result, with the environment and the raw spans, is written
to ``bench/_results/``. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import glob
import hashlib
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

# One BLAS thread. With the pool's second thread (the per-iteration loss is a
# np.dot), the run-to-run spread of impute_s on a 2-core machine was about
# three times larger. This must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from generate import GraphSpec, write_graph, write_planted  # noqa: E402
from spans import Recorder, Span, instrument, self_seconds  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "_results"

CLI_SEED = 7
MIN_REPEATS = 3  # per kind of repeat, even when --seconds runs out first
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # the CLI's default train/dev/test split
PLANTED_TOL = 1e-9  # a planted value passes when |imputed - truth| <= tol * (1 + |truth|)
PLANTED_FLAGS = ("--conv-frac", "1e-13", "--max-iters", "5000")


# The wide-graph shape with a quarter of its relations as noise. Untraced
# sparse-mix runs impute and eval on it once, untimed, and report the result.
NOISE_PROBE = GraphSpec(entities=30000, edges_per_entity=5, relations=20, noise_relations=5, types=2, density=0.15)


@dataclass(frozen=True)
class Workload:
    spec: GraphSpec
    observed_fraction: float
    commands: tuple[str, ...]
    why: str
    noise_probe: GraphSpec | None = None  # graph of the reported noise probe


WORKLOADS = {
    "dense-fit": Workload(
        GraphSpec(entities=2000, edges_per_entity=5, relations=30, noise_relations=0, types=10, density=0.8),
        observed_fraction=1.0,
        commands=("impute", "eval"),
        why="edge x entry x entry joins dominate (many models and paths) and few iterations run",
    ),
    "sparse-mix": Workload(
        GraphSpec(entities=8000, edges_per_entity=5, relations=20, noise_relations=0, types=6, density=0.5),
        observed_fraction=0.2,
        commands=("impute", "eval"),
        why="few observed entries, so per-iteration cost and iteration count dominate",
        noise_probe=NOISE_PROBE,
    ),
    # No noise relations: with a quarter of them noise, propagation ends
    # unconverged (exit 3) on some seeds; NOISE_PROBE reports that case.
    "wide-graph": Workload(
        GraphSpec(entities=20000, edges_per_entity=5, relations=20, noise_relations=0, types=2, density=0.15),
        observed_fraction=1.0,
        commands=("impute", "eval"),
        why="many entities and edges with few attributes, so parsing and graph build dominate",
    ),
    "staged-reuse": Workload(
        GraphSpec(entities=3000, edges_per_entity=5, relations=20, noise_relations=0, types=6, density=0.5),
        observed_fraction=0.5,
        commands=("split", "fit", "impute", "ablate"),
        why="later commands read split.tsv and models.tsv back, and ablate runs three variants",
    ),
}

# name -> unit of the end-to-end metrics. The result line carries those that
# every workload has and that stay steady across seeds (REPORTED_END_TO_END):
# fit_s, eval_s and ablate_s exist only on some workloads, and rmse_test on a
# few hundred held-out entries varies too much from seed to seed. All ten are
# printed and written to the result file.
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "impute_s": "s",
    "eval_s": "s",
    "ablate_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "mae_test": "attr_units",
    "rmse_test": "attr_units",
    "fail_rate": "ratio",
}
REPORTED_END_TO_END = ("setup_s", "impute_s", "total_s", "peak_rss_mb", "mae_test")

# Per-layer times: metric -> (span names summed over one repeat, commands of
# which at least one must run for the metric to apply). Spans inside
# evaluation.ablation_suite count only towards evaluation.ablation_s.
LAYER_TIMES: dict[str, tuple[tuple[str, ...], tuple[str, ...] | None]] = {
    "ingest.parse_s": (("ingest.parse_triples", "ingest.parse_attributes"), None),
    "graph.build_s": (("graph.build_graph",), None),
    "attributes.build_s": (("attributes.build",), None),
    "ingest.split_s": (
        ("ingest.split_attributes", "ingest.subsample_observed", "ingest.apply_split_manifest"),
        None,
    ),
    "ingest.manifest_s": (("ingest.write_split_manifest", "ingest.read_split_manifest"), ("split",)),
    "regression.fit_s": (("regression.build_registry",), None),
    "regression.dump_write_s": (("regression.write_model_dump",), None),
    "regression.dump_read_s": (("regression.read_model_dump",), ("split",)),
    "propagation.run_s": (("propagation.run",), None),
    "propagation.first_iter_s": (("propagation.first_iter",), None),
    "propagation.write_s": (("propagation.write_imputations", "propagation.write_trace"), None),
    "evaluation.local_s": (("evaluation.baseline_local",), ("eval",)),
    "evaluation.global_s": (("evaluation.baseline_global",), ("eval",)),
    "evaluation.evaluate_s": (("evaluation.evaluate",), ("eval",)),
    "evaluation.report_write_s": (
        ("evaluation.write_report_csv", "evaluation.format_report_table"),
        ("eval", "ablate"),
    ),
    "evaluation.ablation_s": (("evaluation.ablation_suite",), ("ablate",)),
}
COMMANDS = ("split", "fit", "impute", "eval", "ablate")
LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "propagation.iter_ms": "ms",
    "cli.self_s": "s",
    **{f"cli.{cmd}.self_s": "s" for cmd in COMMANDS},
    "bench.trace_overhead_s": "s",
    "ingest.lines": "count",
    "graph.entities": "count",
    "graph.edges": "count",
    "attributes.entries": "count",
    "attributes.targets": "count",
    "regression.models": "count",
    "regression.rejected": "count",
    "regression.admit_ratio": "ratio",
    "propagation.iterations": "count",
    "propagation.paths": "count",
    "propagation.messages": "count",
    "propagation.silent": "count",
}
LAYER_COUNTS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "ratio")]


# -- environment -----------------------------------------------------------------


def import_mrap():
    """Import the package from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mrap.cli
        import mrap.propagation
        import mrap.regression
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mrap from {src}: {exc}")
    if not Path(mrap.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: mrap was imported from {mrap.__file__}, not from {src}")
    return mrap


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np) -> dict:
    info: dict = {}
    try:
        info["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def environment(np, args) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- checks ------------------------------------------------------------------------


class Checks:
    """Counts attempted operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def expected_targets(per_type: list[int], observed_fraction: float) -> list[int]:
    """Targets per type: entries left unobserved by the split and subsample.

    Train counts follow largest-remainder rounding of the split fractions
    (ties to the earlier split); ``ceil(fraction * train)`` train entries
    stay observed.
    """
    out = []
    for n in per_type:
        quotas = [n * f for f in SPLIT_FRACTIONS]
        counts = [math.floor(q) for q in quotas]
        order = sorted(range(3), key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in order[: n - sum(counts)]:
            counts[i] += 1
        out.append(n - min(counts[0], math.ceil(observed_fraction * counts[0])))
    return out


def read_imputed(path: Path) -> dict[tuple[str, str], float] | None:
    """Imputed values by (entity, attribute), or None when rows repeat or are malformed."""
    values: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5 or (fields[0], fields[1]) in values:
                return None
            try:
                values[(fields[0], fields[1])] = float(fields[2])
            except ValueError:
                return None
    return values


def covers_targets(path: Path, entries: set[tuple[str, str]], targets_per_type: list[int]) -> bool:
    """Every target has one finite value, and nothing else is imputed."""
    values = read_imputed(path)
    if values is None or not all(key in entries and math.isfinite(v) for key, v in values.items()):
        return False
    counts = Counter(attr for _, attr in values)
    return [counts[f"a{k}"] for k in range(len(targets_per_type))] == targets_per_type


def method_errors(path: Path, n_types: int, method: str = "MrAP") -> tuple[float, float] | None:
    """Unweighted mean over attribute types of a method's test MAE and RMSE."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] == method]
        mae = [float(r["mae"]) for r in rows]
        rmse = [float(r["rmse"]) for r in rows]
    except (KeyError, ValueError):
        return None
    if len(rows) != n_types or not all(map(math.isfinite, mae + rmse)):
        return None
    return statistics.fmean(mae), statistics.fmean(rmse)


# -- running the CLI -------------------------------------------------------------


def cli_argv(command: str, inputs: Path, out: Path, observed_fraction: float, extra=()) -> list[str]:
    return [
        command,
        "--triples", str(inputs / "triples.tsv"),
        "--attrs", str(inputs / "attrs.tsv"),
        "--out", str(out),
        "--seed", str(CLI_SEED),
        "--observed-fraction", repr(observed_fraction),
        *extra,
    ]


def call_cli(mrap, argv: list[str]) -> tuple[int, float]:
    """Run one CLI command in this process; return (exit code, wall seconds)."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = mrap.cli.main(argv)
        except Exception:  # a traceback is a failed command, as it would be in a shell
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, seconds


def check_planted(mrap, checks: Checks, seed: int) -> None:
    """A noiseless forest is recovered through ``mrap impute`` to float64 rounding."""
    work = WORK_DIR / "planted"
    shutil.rmtree(work, ignore_errors=True)
    truth = write_planted(seed, work)
    argv = cli_argv("impute", work, work / "out", 1.0, PLANTED_FLAGS)
    code, _ = call_cli(mrap, argv)
    if not checks.check(code == 0, f"planted impute exited {code}"):
        return
    values = read_imputed(work / "out" / "imputed.tsv")
    per_type = [sum(1 for _, a in truth if a == attr) for attr in ("u", "w")]
    targets = sum(expected_targets(per_type, 1.0))
    ok = (
        values is not None
        and len(values) == targets
        and all(key in truth and abs(v - truth[key]) <= PLANTED_TOL * (1 + abs(truth[key])) for key, v in values.items())
    )
    checks.check(ok, f"planted instance not recovered within {PLANTED_TOL:g} relative")


def run_noise_probe(mrap, workload: Workload, seed: int) -> dict:
    """Impute and eval once on the workload's probe graph, which has noise relations.

    Propagation over noise relations is a known weakness: reverse models of
    near-zero slopes give wild predictions, and on some seeds the iteration
    never converges (exit 3). The probe reports what happened; it is not a
    check, so it neither fails the run nor enters the medians.
    """
    work = WORK_DIR / "probe"
    shutil.rmtree(work, ignore_errors=True)
    spec = workload.noise_probe
    write_graph(spec, seed, work / "input")
    exits = {}
    for cmd in ("impute", "eval"):
        argv = cli_argv(cmd, work / "input", work / "out", workload.observed_fraction)
        exits[cmd], _ = call_cli(mrap, argv)
    trace_csv = work / "out" / "trace.csv"
    iterations = int(trace_csv.read_text().splitlines()[-1].split(",")[0]) if trace_csv.exists() else None
    report = work / "out" / "report.csv"
    rmse = {}
    for method in ("MrAP", "Local", "Global"):
        errors = method_errors(report, spec.types, method) if report.exists() else None
        rmse[method] = errors and errors[1]
    return {
        "generator": spec.as_dict(),
        "exits": exits,
        "converged": exits["impute"] == 0,
        "iterations": iterations,
        "rmse_test": rmse,
    }


# -- traced repeats ----------------------------------------------------------------


def observers() -> dict:
    """Counts taken from the arguments and results of instrumented calls."""

    def registry_counts(args, kwargs, registry):
        fits = sum(1 for m in registry.models.values() if not m.fit.derived_reverse)
        # a fit admitted without its derived reverse model is not a rejected key
        rejected = sum(n for reason, n in registry.rejections.items() if reason != "non_invertible_reverse")
        return {"models": len(registry), "fits": fits, "rejected": rejected}

    return {
        "ingest.parse_triples": lambda a, k, rows: {"lines": len(rows)},
        "ingest.parse_attributes": lambda a, k, result: {"lines": len(result[0])},
        "graph.build_graph": lambda a, k, g: {"entities": g.n_entities, "edges": g.n_edges},
        "attributes.build": lambda a, k, table: {"entries": table.n_entries},
        "cli.load_bundle": lambda a, k, bundle: {"targets": len(bundle.target_indices())},
        "regression.build_registry": registry_counts,
        # the run's inputs are kept only until the command ends (see after_impute)
        "propagation.run": lambda a, k, result: {"call": (a, k), "report": result[1]},
    }


def after_impute(mrap, recorder: Recorder, command_span: Span) -> None:
    """Time path build plus one iteration, and count paths, on impute's inputs."""
    runs = [s for s in recorder.of_run(recorder.run) if s.name == "propagation.run" and s.parent == command_span.id]
    if not runs or "call" not in runs[-1].info:
        return
    span = runs[-1]
    (args, kwargs), report = span.info["call"], span.info["report"]
    span.info = {}
    try:
        bundle, registry = args[0], args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        span.info = {
            "models": len(registry),
            "iterations": report.iterations,
            "messages": int(report.n_messages.sum()),
            "silent": report.n_silent,
        }
        propagation_log = logging.getLogger("mrap.propagation")
        level = propagation_log.level
        propagation_log.setLevel(logging.ERROR)  # one iteration never converges
        try:
            with recorder.span("propagation.first_iter"):
                mrap.propagation.run(bundle, registry, replace(cfg, max_iters=1))
        finally:
            propagation_log.setLevel(level)
        span.info["paths"] = mrap.regression.count_paths(bundle.graph, registry, bundle.attrs)
    except (AttributeError, TypeError, IndexError) as exc:
        span.info["unobservable"] = repr(exc)


def layer_metrics(spans: list[Span], commands: tuple[str, ...], unbound: list[str]) -> dict[str, float | None]:
    """Per-layer metrics of one traced repeat; None marks a missing metric."""
    by_id = {s.id: s for s in spans}

    def inside(s: Span, name: str) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    out: dict[str, float | None] = {}
    for metric, (names, needs) in LAYER_TIMES.items():
        if needs is not None and not set(needs) & set(commands):
            out[metric] = 0.0  # the workload makes no such call
            continue
        hits = [
            s
            for s in spans
            if s.name in names and (metric == "evaluation.ablation_s" or not inside(s, "evaluation.ablation_suite"))
        ]
        missing = not hits or any(name in unbound for name in names)
        out[metric] = None if missing else sum(s.seconds for s in hits)

    own = self_seconds(spans)
    for cmd in COMMANDS:
        runs = [s for s in spans if s.parent is None and s.name == f"cli.{cmd}"]
        if not runs:
            out[f"cli.{cmd}.self_s"] = None if cmd in commands else 0.0
            continue
        ids = {s.id for s in runs}
        loads = [s for s in spans if s.name == "cli.load_bundle" and s.parent in ids]
        out[f"cli.{cmd}.self_s"] = sum(own[s.id] for s in runs + loads)
    per_command = [out[f"cli.{cmd}.self_s"] for cmd in commands]
    out["cli.self_s"] = None if None in per_command else sum(per_command)

    # counts come from the impute command, which every workload runs
    within = [s for s in spans if inside(s, "cli.impute")]

    def total(name: str, key: str, where: list[Span] = within):
        values = [s.info[key] for s in where if s.name == name and key in s.info]
        return sum(values) if values else None

    parse = [total("ingest.parse_triples", "lines"), total("ingest.parse_attributes", "lines")]
    out["ingest.lines"] = None if None in parse else sum(parse)
    out["graph.entities"] = total("graph.build_graph", "entities")
    out["graph.edges"] = total("graph.build_graph", "edges")
    out["attributes.entries"] = total("attributes.build", "entries")
    out["attributes.targets"] = total("cli.load_bundle", "targets")
    fits, rejected = total("regression.build_registry", "fits", spans), total("regression.build_registry", "rejected", spans)
    out["regression.rejected"] = rejected
    out["regression.admit_ratio"] = None if fits is None or not fits + rejected else fits / (fits + rejected)
    out["regression.models"] = total("propagation.run", "models")
    for key in ("iterations", "messages", "silent", "paths"):
        out[f"propagation.{key}"] = total("propagation.run", key)

    # every run's first iteration is inside first_iter_s
    run_s, first_s, iters = out["propagation.run_s"], out["propagation.first_iter_s"], out["propagation.iterations"]
    n_runs = sum(1 for s in within if s.name == "propagation.run")
    if None in (run_s, first_s, iters) or iters <= n_runs:
        out["propagation.iter_ms"] = None
    else:
        out["propagation.iter_ms"] = 1000.0 * (run_s - first_s) / (iters - n_runs)
    return out


# -- the benchmark -----------------------------------------------------------------


@dataclass
class Repeat:
    seconds: dict[str, float]  # per command
    traced: bool
    setup_s: float | None = None
    imputed_sha: str | None = None
    errors: tuple[float, float] | None = None
    layers: dict[str, float | None] | None = None

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


class Bench:
    def __init__(self, mrap, name: str, seed: int, checks: Checks):
        self.mrap = mrap
        self.workload = WORKLOADS[name]
        self.checks = checks
        self.recorder = Recorder()
        self.inputs = WORK_DIR / name / "input"
        self.out = WORK_DIR / name / "out"
        shutil.rmtree(WORK_DIR / name, ignore_errors=True)
        self.generated, self.entries = write_graph(self.workload.spec, seed, self.inputs)
        self.targets = expected_targets(self.generated["per_type"], self.workload.observed_fraction)

    def repeat(self, traced: bool) -> Repeat:
        shutil.rmtree(self.out, ignore_errors=True)
        rec = self.recorder
        rec.run += 1
        result = Repeat(seconds={}, traced=traced)
        for cmd in self.workload.commands:
            argv = cli_argv(cmd, self.inputs, self.out, self.workload.observed_fraction)
            if traced:
                with instrument(rec, observers()), rec.span(f"cli.{cmd}") as command_span:
                    code, seconds = call_cli(self.mrap, argv)
                if cmd == "impute":
                    after_impute(self.mrap, rec, command_span)
            else:
                code, seconds = call_cli(self.mrap, argv)
            result.seconds[cmd] = seconds
            self.checks.check(code == 0, f"{cmd} exited {code}")
        self._check_outputs(result)
        if traced:
            result.layers = layer_metrics(rec.of_run(rec.run), self.workload.commands, rec.unbound)
        else:
            result.setup_s = self._time_setup()
        return result

    def _check_outputs(self, result: Repeat) -> None:
        imputed = self.out / "imputed.tsv"
        if not self.checks.check(imputed.exists(), "imputed.tsv not written"):
            return
        result.imputed_sha = hashlib.sha256(imputed.read_bytes()).hexdigest()
        self.checks.check(
            covers_targets(imputed, self.entries, self.targets),
            "imputed.tsv does not cover every target exactly once with a finite value",
        )
        report = self.out / ("ablation.csv" if "ablate" in self.workload.commands else "report.csv")
        result.errors = method_errors(report, self.workload.spec.types) if report.exists() else None
        self.checks.check(result.errors is not None, f"{report.name} lacks finite MrAP rows for every type")

    def _time_setup(self) -> float:
        """Wall time of load_bundle against the directory the commands left."""
        cfg = self.mrap.cli.RunConfig(
            triples=str(self.inputs / "triples.tsv"),
            attrs=str(self.inputs / "attrs.tsv"),
            out=str(self.out),
            seed=CLI_SEED,
            observed_fraction=self.workload.observed_fraction,
        )
        gc.collect()
        start = time.perf_counter()
        self.mrap.cli.load_bundle(cfg)
        return time.perf_counter() - start

    def measure(self, seconds: float, trace: bool) -> list[Repeat]:
        """Repeat until the next repeat would end past the deadline.

        A first, untimed repeat lets the interpreter's heap grow to its
        working size, so that the first timed repeat is not the only one that
        pays for it. Its outputs are checked like the others.
        """
        repeats: list[Repeat] = [self.repeat(traced=False)]
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(repeats) % 2 == 1
            start = time.perf_counter()
            repeats.append(self.repeat(traced))
            took = time.perf_counter() - start
            kinds = (False, True) if trace else (False,)
            enough = all(sum(1 for r in repeats[1:] if r.traced == kind) >= MIN_REPEATS for kind in kinds)
            if enough and (not trace or traced) and time.perf_counter() + took > deadline:
                return repeats


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def summarize(repeats: list[Repeat], checks: Checks) -> tuple[dict, dict]:
    """(end-to-end metrics, per-layer metrics) as medians over the repeats."""
    plain = [r for r in repeats[1:] if not r.traced]  # the first repeat warms up
    traced = [r for r in repeats if r.traced]
    shas = {r.imputed_sha for r in repeats}
    checks.check(len(shas) == 1, f"imputed.tsv differs across repeats ({len(shas)} versions)")
    errors = {r.errors for r in repeats}
    checks.check(len(errors) == 1, "report errors differ across repeats")
    mae, rmse = next(iter(errors)) or (None, None)

    e2e: dict = {
        "setup_s": median(r.setup_s for r in plain),
        **{f"{cmd}_s": median(r.seconds[cmd] for r in plain) for cmd in ("fit", "impute", "eval", "ablate") if cmd in plain[0].seconds},
        "total_s": median(r.total_s for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mae_test": mae,
        "rmse_test": rmse,
    }

    layers: dict = {}
    if traced:
        for name in LAYER_UNITS:
            if name == "bench.trace_overhead_s":
                continue
            values = [r.layers.get(name) for r in traced]
            if None in values:
                layers[name] = None
            elif name in LAYER_COUNTS:
                layers[name] = values[0]
                checks.check(len(set(values)) == 1, f"count {name} differs across repeats: {sorted(set(values))}")
            else:
                layers[name] = median(values)
        layers["bench.trace_overhead_s"] = median(r.total_s for r in traced) - e2e["total_s"]
    return e2e, layers


def metric_entry(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            text = "missing" if name in values else "n/a"
        else:
            text = f"{value:.6g}"
        print(f"  {name:<28} {text:>14} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mrap = import_mrap()
    import numpy as np

    checks = Checks()
    bench = Bench(mrap, args.workload, args.seed, checks)
    check_planted(mrap, checks, args.seed)
    repeats = bench.measure(args.seconds, bool(args.trace))
    e2e, layers = summarize(repeats, checks)
    # after peak_rss_mb is read: the probe graph is larger than the workload's
    probe = run_noise_probe(mrap, bench.workload, args.seed) if bench.workload.noise_probe and not args.trace else None
    e2e["fail_rate"] = len(checks.failures) / checks.attempted
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    workload = bench.workload
    print(f"workload {args.workload} (seed {args.seed}): {workload.why}")
    print(
        f"  {len(repeats) - 1} timed repeats of: mrap {' -> '.join(workload.commands)}; "
        f"{bench.generated['triples']} triples, {bench.generated['attributes']} attributes"
    )
    print_table("end-to-end (untraced medians)", {k: v for k, v in e2e.items() if v is not None}, END_TO_END_UNITS)
    if args.trace:
        print_table("per layer (traced medians)", layers, LAYER_UNITS)
        if bench.recorder.unbound:
            print(f"  unbound span targets: {', '.join(bench.recorder.unbound)}")
    if probe:
        rmse = ", ".join(f"{k} {v:.4g}" for k, v in probe["rmse_test"].items() if v is not None)
        print(
            f"noise probe ({probe['generator']['entities']} entities, {probe['generator']['noise_relations']} of "
            f"{probe['generator']['relations']} relations noise; not checked): "
            f"converged={probe['converged']} after {probe['iterations']} iterations; test RMSE {rmse}"
        )
    print(f"checks: {checks.attempted - len(checks.failures)}/{checks.attempted} passed")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": environment(np, args),
        "workload": {
            "name": args.workload,
            "why": workload.why,
            "generator": workload.spec.as_dict(),
            "generator_seed": args.seed,
            "observed_fraction": workload.observed_fraction,
            "commands": list(workload.commands),
            "cli_seed": CLI_SEED,
            "generated": bench.generated,
        },
        "end_to_end": {k: metric_entry(v, END_TO_END_UNITS[k]) for k, v in e2e.items()},
        "per_layer": {k: metric_entry(v, LAYER_UNITS[k]) for k, v in layers.items()},
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "repeats": [  # the first one warms up and is left out of the medians
            {"traced": r.traced, "seconds": r.seconds, "setup_s": r.setup_s, "layers": r.layers} for r in repeats
        ],
        "noise_probe": probe,
        "unbound": bench.recorder.unbound,
        "spans": [s.as_dict() for s in bench.recorder.spans],
    }
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        metrics = {k: metric_entry(layers.get(k), LAYER_UNITS[k]) for k in LAYER_UNITS}
    else:
        metrics = {k: metric_entry(e2e[k], END_TO_END_UNITS[k]) for k in REPORTED_END_TO_END}
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": len(checks.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
