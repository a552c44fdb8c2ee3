import argparse
import builtins
import csv
import errno
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from helpers import bench_generate, bench_run, bench_spans, write_cli_dataset

import mrap
import mrap.codec
from mrap.cli import (
    EXIT_DATA,
    EXIT_NOCONV,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    _build_parser,
    build_config,
    main,
)


SRC_DIR = Path(mrap.__file__).resolve().parents[1]


def _python(*args, **env) -> subprocess.CompletedProcess:
    """Run this interpreter in a fresh process that imports ``mrap`` from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture()
def dataset(tmp_path):
    return write_cli_dataset(tmp_path)


def _args(dataset, out, *extra):
    triples, attrs = dataset
    return ["--triples", str(triples), "--attrs", str(attrs), "--out", str(out), *extra]


def _logged_paths(records) -> int:
    """The count of the first ``paths:`` line of the propagation log."""
    lines = (r.getMessage() for r in records if r.name == "mrap.propagation")
    return int(next(m for m in map(re.compile(r"^paths: (\d+) built").match, lines) if m).group(1))


def _stats_paths(text: str) -> int:
    return int(re.search(r"^message passing paths +(\d+)$", text, re.M).group(1))


class TestPipeline:
    def test_full_pipeline_exit_codes(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "7", "--min-support", "3")
        assert main(["split", *base]) == EXIT_OK
        assert (out / "split.tsv").exists()
        assert main(["fit", *base]) == EXIT_OK
        assert (out / "models.tsv").exists()
        assert main(["impute", *base]) == EXIT_OK
        assert (out / "imputed.tsv").exists()
        assert (out / "trace.csv").exists()
        assert main(["eval", *base]) == EXIT_OK
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()
        assert main(["ablate", *base]) == EXIT_OK
        assert (out / "ablation.csv").exists()
        table = capsys.readouterr().out
        assert "w/o Cross" in table

    def test_stats_lists_counts(self, dataset, tmp_path, capsys):
        assert main(["stats", *_args(dataset, tmp_path / "o", "--min-support", "3")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "entities" in text and "message passing paths" in text

    def test_stats_empty_dataset(self, tmp_path, capsys):
        triples = tmp_path / "t.tsv"
        attrs = tmp_path / "a.tsv"
        triples.write_text("")
        attrs.write_text("")
        code = main(
            ["stats", "--triples", str(triples), "--attrs", str(attrs), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "entities" in text
        assert _stats_paths(text) == 0

    def test_stats_paths_are_the_paths_impute_builds(self, dataset, tmp_path, capsys, caplog):
        # p0 has no death entry, so no model that predicts death has a path into it
        _, attrs = dataset
        attrs.write_text("".join(line for line in attrs.read_text().splitlines(True) if not line.startswith("p0\tdeath\t")))
        flags = ("--seed", "7", "--min-support", "3", "--observed-fraction", "0.5")
        assert main(["stats", *_args(dataset, tmp_path / "s", *flags)]) == EXIT_OK
        with caplog.at_level(logging.INFO, logger="mrap.propagation"):
            assert main(["impute", *_args(dataset, tmp_path / "i", *flags)]) == EXIT_OK
        paths = _logged_paths(caplog.records)
        assert paths > 0
        assert _stats_paths(capsys.readouterr().out) == paths

    def test_split_idempotent(self, dataset, tmp_path):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "3")
        assert main(["split", *base]) == EXIT_OK
        first = (out / "split.tsv").read_bytes()
        assert main(["split", *base]) == EXIT_OK
        assert (out / "split.tsv").read_bytes() == first

    def test_impute_fits_inline_when_no_dump(self, dataset, tmp_path):
        out = tmp_path / "out"
        base = _args(dataset, out, "--min-support", "3")
        assert main(["impute", *base]) == EXIT_OK
        assert (out / "models.tsv").exists()

    def test_observed_fraction_setups(self, dataset, tmp_path):
        full = tmp_path / "full"
        half = tmp_path / "half"
        base = lambda out, frac: _args(
            dataset, out, "--seed", "1", "--min-support", "3", "--observed-fraction", frac
        )
        assert main(["impute", *base(full, "1.0")]) == EXIT_OK
        assert main(["impute", *base(half, "0.5")]) == EXIT_OK
        # the 50% setup has strictly more targets
        assert len((half / "imputed.tsv").read_text().splitlines()) > len(
            (full / "imputed.tsv").read_text().splitlines()
        )

    def test_eval_skips_comment_lines_in_imputed(self, dataset, tmp_path):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "1", "--min-support", "3")
        assert main(["impute", *base]) == EXIT_OK
        assert main(["eval", *base]) == EXIT_OK
        plain = (out / "report.csv").read_bytes()
        imputed = out / "imputed.tsv"
        imputed.write_text("# mrap imputed values\n" + imputed.read_text(), encoding="utf-8")
        assert main(["eval", *base]) == EXIT_OK
        assert (out / "report.csv").read_bytes() == plain

    def test_info_log_times_propagation_layers(self, dataset, tmp_path, caplog):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "1", "--min-support", "3")
        with caplog.at_level(logging.INFO, logger="mrap.propagation"), caplog.at_level(
            logging.INFO, logger="mrap.ingest"
        ), caplog.at_level(logging.INFO, logger="mrap.cli"):
            assert main(["impute", *base]) == EXIT_OK
        config = next(r.getMessage() for r in caplog.records if r.name == "mrap.cli")
        # every resolved setting, in the order of RunConfig's fields
        assert re.findall(r"(?:^config: |, )(\w+)=", config) == [f.name for f in fields(RunConfig)]
        assert ", seed=1, " in config and ", min_support=3, " in config
        loaded = "\n".join(r.getMessage() for r in caplog.records if r.name == "mrap.ingest")
        # 40 people: 80 distinct triples over 80 entities, 3 attribute types
        assert re.search(
            r"^loaded: 80 triples read, 0 duplicates dropped, 80 entities, 2 relations, 80 edges, "
            r"120 attribute entries of 3 types in \d+\.\d+ s$",
            loaded,
            re.M,
        )
        text = "\n".join(r.getMessage() for r in caplog.records if r.name == "mrap.propagation")
        # one line per layer, each with its count and seconds
        assert re.search(r"^paths: \d+ built in \d+\.\d+ s$", text, re.M)
        assert re.search(r"^operator: \d+ entries .* compiled in \d+\.\d+ s$", text, re.M)
        found = re.search(
            r"^iterations: \d+ in \d+\.\d+ s \(\d+\.\d+ ms each\), converged=True, final loss (\S+)$",
            text,
            re.M,
        )
        assert found
        last_loss = float((out / "trace.csv").read_text().splitlines()[-1].split(",")[3])
        assert float(found.group(1)) == pytest.approx(last_loss, rel=1e-5)

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("birth,deaht", "exclusion 'birth,deaht': the data has no attribute type 'deaht'"),
            ("birth,death,knowz", "exclusion 'birth,death,knowz': the data has no relation 'knowz'"),
        ],
        ids=["attribute", "relation"],
    )
    def test_exclude_naming_a_label_the_data_lacks_exits_1(self, dataset, tmp_path, capsys, rule, message):
        out = tmp_path / "o"
        assert main(["fit", *_args(dataset, out, "--min-support", "3", "--exclude", rule)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "models.tsv").exists()

    @pytest.mark.parametrize("command", ["impute", "ablate"])
    def test_exclude_is_checked_when_the_model_dump_is_reused(self, dataset, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main(["fit", *_args(dataset, out, "--min-support", "3")]) == EXIT_OK
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main([command, *_args(dataset, out, "--min-support", "3", "--exclude", "birth,deaht")]) == EXIT_USAGE
        message = "error: exclusion 'birth,deaht': the data has no attribute type 'deaht'"
        assert capsys.readouterr().err.splitlines() == [message]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == written

    def test_exclude_counts_the_keys_it_drops(self, dataset, tmp_path, capsys):
        assert main(["fit", *_args(dataset, tmp_path / "o", "--min-support", "3", "--exclude", "birth,death")]) == EXIT_OK
        assert "  excluded: 3" in capsys.readouterr().out.splitlines()


class TestBenchmarkSmoke:
    def test_planted_forest_recovered_through_cli(self, tmp_path):
        # the benchmark's planted check at its smallest size: a noiseless
        # forest must come back to float64 rounding through `mrap impute`
        inputs, out = tmp_path / "in", tmp_path / "out"
        truth = bench_generate().write_planted(seed=3, out_dir=inputs)
        base = _args((inputs / "triples.tsv", inputs / "attrs.tsv"), out, "--seed", "7")
        assert main(["split", *base]) == EXIT_OK
        flags = ("--observed-fraction", "1.0", "--conv-frac", "1e-13", "--max-iters", "5000")
        assert main(["impute", *base, *flags]) == EXIT_OK
        hidden = {
            (entity, attr)
            for entity, attr, split in (line.split("\t") for line in (out / "split.tsv").read_text().splitlines())
            if split != "train"
        }
        imputed = {
            (entity, attr): float(value)
            for entity, attr, value, *_ in (line.split("\t") for line in (out / "imputed.tsv").read_text().splitlines())
        }
        assert hidden and set(imputed) == hidden
        for key, value in imputed.items():
            assert abs(value - truth[key]) <= 1e-9 * (1 + abs(truth[key])), key
        trace = (out / "trace.csv").read_text().splitlines()[1:]
        assert trace and all(math.isfinite(float(row.split(",")[3])) for row in trace)


class TestBenchmarkTracing:
    """The benchmark times layers by patching names of ``mrap``; a rename must not unbind them."""

    def test_every_span_target_resolves_and_parse_results_count_rows(self, dataset, tmp_path):
        spans = bench_spans()
        recorder = spans.Recorder()
        # the observers of bench/run.py that give ingest.lines, graph.entities and attributes.entries
        observers = {
            "ingest.parse_triples": lambda a, k, rows: {"lines": len(rows)},
            "ingest.parse_attributes": lambda a, k, result: {"lines": len(result[0])},
            "graph.build_graph": lambda a, k, g: {"entities": g.n_entities},
            "attributes.build": lambda a, k, table: {"entries": table.n_entries},
            "cli.load_bundle": lambda a, k, bundle: {"entities": bundle.graph.n_entities},
        }
        triples, attrs = dataset
        with open(attrs, "a", encoding="utf-8") as fh:  # entities that only carry attributes
            fh.write("solo0\tbirth\t1950.0\nsolo1\trelease\t1990.0\n")
        with spans.instrument(recorder, observers):
            assert main(["impute", *_args(dataset, tmp_path / "out", "--min-support", "3")]) == EXIT_OK
        assert recorder.unbound == []
        info = {s.name: s.info for s in recorder.spans if s.info}
        triple_rows = [line.split("\t") for line in triples.read_text().splitlines()]
        attr_rows = [line.split("\t") for line in attrs.read_text().splitlines()]
        assert {name: info[name]["lines"] for name in ("ingest.parse_triples", "ingest.parse_attributes")} == {
            "ingest.parse_triples": len(triple_rows),
            "ingest.parse_attributes": len(attr_rows),
        }
        entities = {h for h, _, _ in triple_rows} | {t for _, _, t in triple_rows} | {e for e, _, _ in attr_rows}
        assert info["graph.build_graph"]["entities"] == info["cli.load_bundle"]["entities"] == len(entities)
        assert info["attributes.build"]["entries"] == len(attr_rows)
        names = {s.name for s in recorder.spans}
        assert {"graph.build_graph", "attributes.build", "propagation.write_imputations"} <= names

    def test_benchmark_observers_count_an_impute(self, dataset, tmp_path, caplog):
        # bench/run.py's own observers and after_impute, as a traced repeat runs them
        bench = bench_run()
        recorder = bench.Recorder()
        base = _args(dataset, tmp_path / "out", "--seed", "7", "--min-support", "3", "--observed-fraction", "0.5")
        with caplog.at_level(logging.INFO, logger="mrap.propagation"):
            with bench.instrument(recorder, bench.observers()), recorder.span("cli.impute") as command_span:
                assert main(["impute", *base]) == EXIT_OK
        bench.after_impute(mrap, recorder, command_span)
        assert recorder.unbound == []
        info = {s.name: s.info for s in recorder.spans if s.info}
        assert not [name for name, counts in info.items() if "unobservable" in counts]
        assert info["regression.build_registry"]["models"] == info["propagation.run"]["models"] > 0
        assert info["propagation.run"]["iterations"] > 0
        assert info["propagation.run"]["paths"] == _logged_paths(caplog.records)

    def test_a_traced_repeat_measures_every_layer(self, tmp_path, monkeypatch):
        # bench/run.py --workload staged-reuse --trace 1 on a small graph: a
        # traced repeat must bind every span and give every per-layer metric,
        # and the result line must stay strict JSON
        import mrap.propagation  # noqa: F401  the bench reaches them through the package
        import mrap.regression  # noqa: F401

        bench = bench_run()
        monkeypatch.setattr(bench, "WORK_DIR", tmp_path)
        workload = bench.WORKLOADS["staged-reuse"]
        monkeypatch.setitem(bench.WORKLOADS, "staged-reuse", replace(workload, spec=replace(workload.spec, entities=400)))
        checks = bench.Checks()
        runner = bench.Bench(mrap, "staged-reuse", 201, checks)
        repeats = [runner.repeat(traced=False), runner.repeat(traced=False), runner.repeat(traced=True)]
        assert checks.failures == []
        assert runner.recorder.unbound == []
        layers = repeats[-1].layers
        assert {k: v for k, v in layers.items() if not isinstance(v, (int, float)) or not math.isfinite(v)} == {}
        _, per_layer = bench.summarize(repeats, checks)
        assert checks.failures == []
        json.dumps({k: bench.metric_entry(v, bench.LAYER_UNITS[k]) for k, v in per_layer.items()}, allow_nan=False)

    def test_eval_and_ablate_spans_fire(self, dataset, tmp_path):
        spans = bench_spans()
        recorder = spans.Recorder()
        base = _args(dataset, tmp_path / "out", "--min-support", "3")
        assert main(["impute", *base]) == EXIT_OK
        with spans.instrument(recorder, {}):
            assert main(["eval", *base]) == EXIT_OK
            assert main(["ablate", *base]) == EXIT_OK
        assert recorder.unbound == []
        by_id = {s.id: s for s in recorder.spans}
        fired = {(s.name, by_id[s.parent].name if s.parent is not None else None) for s in recorder.spans}
        assert {
            ("evaluation.baseline_global", None),
            ("evaluation.baseline_local", None),
            ("evaluation.evaluate", None),
            ("evaluation.write_report_csv", None),
            ("evaluation.ablation_suite", None),
            ("propagation.run", "evaluation.ablation_suite"),
            ("evaluation.evaluate", "evaluation.ablation_suite"),
        } <= fired


class TestCsvArtifacts:
    def test_labels_with_commas_and_quotes_read_back(self, dataset, tmp_path):
        _, attrs = dataset
        attrs.write_text(attrs.read_text().replace("\tbirth\t", "\th,cm\t").replace("\tdeath\t", '\tw"x\t'))
        base = _args(dataset, tmp_path / "out", "--min-support", "3")
        assert main(["impute", *base]) == EXIT_OK
        assert main(["eval", *base]) == EXIT_OK
        for name, width, column in (("trace.csv", 4, 1), ("report.csv", 7, 2)):
            with open(tmp_path / "out" / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert len(header) == width and rows
            assert all(len(row) == width for row in rows), name
            assert {"h,cm", 'w"x', "release"} == {row[column] for row in rows}, name


class TestExitCodes:
    def test_usage_error_bad_damping(self, dataset, tmp_path):
        assert main(["impute", *_args(dataset, tmp_path / "o", "--damping", "2.0")]) == EXIT_USAGE

    def test_usage_error_unknown_flag(self):
        assert main(["impute", "--definitely-not-a-flag"]) == EXIT_USAGE

    def test_a_flag_prefix_is_unknown(self, dataset, tmp_path, capsys):
        # every flag has one spelling: a prefix of --damping or --max-iters is no flag
        assert main(["impute", *_args(dataset, tmp_path / "o", "--damp", "0.7", "--max", "9")]) == EXIT_USAGE
        assert "unrecognized arguments: --damp 0.7 --max 9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threads_flag_is_unknown(self, dataset, tmp_path):
        assert main(["impute", *_args(dataset, tmp_path / "o", "--threads", "4")]) == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    def test_usage_error_missing_inputs(self, tmp_path):
        assert main(["impute", "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_data_error_missing_file(self, tmp_path):
        code = main(
            [
                "impute",
                "--triples",
                str(tmp_path / "absent.tsv"),
                "--attrs",
                str(tmp_path / "absent2.tsv"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA

    def test_data_error_bad_attr_value(self, tmp_path):
        triples = tmp_path / "t.tsv"
        attrs = tmp_path / "a.tsv"
        triples.write_text("a\tp\tb\n")
        attrs.write_text("a\theight\tnot-a-number\n")
        code = main(
            ["stats", "--triples", str(triples), "--attrs", str(attrs), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA

    def test_nonconvergence_exit_code_with_outputs(self, dataset, tmp_path):
        out = tmp_path / "out"
        args = _args(
            dataset, out, "--min-support", "3", "--max-iters", "1", "--conv-frac", "1e-12"
        )
        assert main(["impute", *args]) == EXIT_NOCONV
        assert (out / "imputed.tsv").exists()
        assert (out / "trace.csv").exists()

    def test_eval_requires_imputation_output(self, dataset, tmp_path):
        assert main(["eval", *_args(dataset, tmp_path / "never_ran")]) == EXIT_DATA

    def _corrupt_imputed(self, dataset, tmp_path, corrupt):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "1", "--min-support", "3")
        assert main(["impute", *base]) == EXIT_OK
        imputed = out / "imputed.tsv"
        imputed.write_text(corrupt(imputed.read_text().splitlines(keepends=True)), encoding="utf-8")
        return main(["eval", *base])

    def test_eval_rejects_non_finite_imputed_value(self, dataset, tmp_path, capsys):
        def nan_on_line_2(lines):
            fields = lines[1].split("\t")
            fields[2] = "nan"
            return "".join([lines[0], "\t".join(fields), *lines[2:]])

        assert self._corrupt_imputed(dataset, tmp_path, nan_on_line_2) == EXIT_DATA
        imputed = tmp_path / "out" / "imputed.tsv"
        assert capsys.readouterr().err == f"error: {imputed}:2: non-finite value 'nan'\n"

    def test_eval_rejects_duplicate_imputed_target(self, dataset, tmp_path, capsys):
        def repeat_line_1(lines):
            return "".join([lines[0], *lines])

        assert self._corrupt_imputed(dataset, tmp_path, repeat_line_1) == EXIT_DATA
        imputed = tmp_path / "out" / "imputed.tsv"
        entity, attr = imputed.read_text().split("\t")[:2]
        assert capsys.readouterr().err == f"error: {imputed}:2: duplicate target ({entity!r}, {attr!r})\n"

    @pytest.mark.parametrize("which", [0, 1], ids=["triples", "attrs"])
    def test_bad_byte_in_input_names_its_line(self, dataset, tmp_path, capsys, which):
        path = dataset[which]
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        assert main(["impute", *_args(dataset, tmp_path / "out", "--min-support", "3")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}:3: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize(
        "name, before, command, line_2, reason",
        [
            ("triples.tsv", None, "impute", lambda one, two: "p0\tknows\n", "expected 3 tab-separated fields, got 2"),
            ("attrs.tsv", None, "impute", lambda one, two: "p0\tbirth\tabc\n", "unparseable float 'abc'"),
            (
                "split.tsv",
                "split",
                "impute",
                lambda one, two: "zz\tbirth\ttrain\n",
                "manifest row ('zz', 'birth') not in the attribute table",
            ),
            ("split.tsv", "split", "impute", lambda one, two: one, "manifest labels ({0!r}, {1!r}) twice"),
            ("models.tsv", "fit", "impute", lambda one, two: re.sub(r"^([^\t]*\t[^\t]*\t)[^\t]*", r"\1Q", two), "unknown relation 'Q'"),
            ("models.tsv", "fit", "ablate", lambda one, two: one, "duplicate key"),
            ("imputed.tsv", "impute", "eval", lambda one, two: "zz\tbirth\t1.0\t1\t1.0\n", "unknown target ('zz', 'birth')"),
            ("split.tsv", "split", "impute", lambda one, two: "", "manifest leaves 1 attribute entries unlabeled"),
        ],
        ids=["triples", "attrs", "split-unknown", "split-repeated", "models-relation", "models-repeated", "imputed", "split-short"],
    )
    def test_a_bad_row_names_its_file_and_line(self, dataset, tmp_path, capsys, name, before, command, line_2, reason):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "7", "--min-support", "3")
        if before is not None:
            assert main([before, *base]) == EXIT_OK
        path = {"triples.tsv": dataset[0], "attrs.tsv": dataset[1]}.get(name, out / name)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = line_2(lines[0], lines[1])
        sep = "\t"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main([command, *base]) == EXIT_DATA
        err = capsys.readouterr().err
        where = f"{path}:2" if lines[1] else f"{path}"  # a deleted row leaves no line to name
        assert err == f"error: {where}: {reason.format(*lines[0].split(sep))}\n"
        assert "Traceback" not in err

    def test_impute_rejects_non_finite_model_dump(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "7", "--min-support", "3")
        assert main(["fit", *base]) == EXIT_OK
        models = out / "models.tsv"
        lines = models.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[0].split("\t")
        fields[4] = "nan"  # eta
        models.write_text("".join(["\t".join(fields), *lines[1:]]), encoding="utf-8")
        assert main(["impute", *base]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {models}:1: non-finite eta 'nan'\n"
        assert not (out / "imputed.tsv").exists()

    def test_impute_rejects_a_model_dump_missing_a_mirror(self, dataset, tmp_path, capsys):
        # the first row loses its line; its mirror's row is left alone and named
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "7", "--min-support", "3")
        assert main(["fit", *base]) == EXIT_OK
        models = out / "models.tsv"
        dropped, *lines = models.read_text(encoding="utf-8").splitlines(keepends=True)
        models.write_text("".join(lines), encoding="utf-8")
        dep, indep, relation, direction = dropped.split("\t")[:4]
        flipped = {"forward": "reverse", "reverse": "forward", "-": "-"}[direction]
        line = next(n for n, row in enumerate(lines, 1) if row.split("\t")[:4] == [indep, dep, relation, flipped])
        link = "within the node" if relation == "INNER" else f"over {relation} {flipped}"
        capsys.readouterr()
        assert main(["impute", *base]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {models}:{line}: no mirror for {indep!r} from {dep!r} {link}\n"
        assert not (out / "imputed.tsv").exists()

    def test_failed_write_keeps_previous_artifacts(self, dataset, tmp_path, monkeypatch):
        out = tmp_path / "out"
        base = _args(dataset, out, "--seed", "7", "--min-support", "3")
        assert main(["impute", *base]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        class HalfWriter:
            """A file that takes half of what it is given, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(mrap.codec, "open", lambda *a, **k: HalfWriter(builtins.open(*a, **k)), raising=False)
        assert main(["impute", *base, "--damping", "0.7"]) == EXIT_DATA
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_non_finite_split_fraction(self, dataset, tmp_path, capsys, where):
        config = tmp_path / "nan.cfg"
        config.write_text("split=nan/0.5/0.5\n")
        extra = ["--split", "nan/0.5/0.5"] if where == "flag" else ["--config", str(config)]
        assert main(["split", *_args(dataset, tmp_path / "o", *extra)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: split fractions must be finite, got (nan, 0.5, 0.5)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_conv_frac(self, dataset, tmp_path, value):
        out = tmp_path / "o"
        assert main(["impute", *_args(dataset, out, f"--conv-frac={value}")]) == EXIT_USAGE
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


# Each RunConfig field: its default, a config-file value and what it sets, flags that
# override that file value and what they set, and a bad file value with its error
# ({loc} is "PATH:LINE: config key 'NAME': "; None where no text fails to parse).
INT = "{loc}invalid literal for int() with base 10: {bad!r}"
FLOAT = "{loc}could not convert string to float: {bad!r}"
SETTINGS = [
    ("triples", None, "t.tsv", "t.tsv", ["--triples", "u.tsv"], "u.tsv", None, None),
    ("attrs", None, "a.tsv", "a.tsv", ["--attrs", "b.tsv"], "b.tsv", None, None),
    ("out", "out", "o1", "o1", ["--out", "o2"], "o2", None, None),
    ("seed", 0, "3", 3, ["--seed", "4"], 4, "x", INT),
    (
        "split",
        (0.8, 0.1, 0.1),
        "0.6/0.2/0.2",
        (0.6, 0.2, 0.2),
        ["--split", "0.5/0.25/0.25"],
        (0.5, 0.25, 0.25),
        "1/2",
        "{loc}split must be three /-separated fractions, got '1/2'",
    ),
    ("observed_fraction", 1.0, "0.5", 0.5, ["--observed-fraction", "0.25"], 0.25, "half", FLOAT),
    ("damping", 0.5, "0.7", 0.7, ["--damping", "0.9"], 0.9, "x", FLOAT),
    ("conv_frac", 0.001, "0.01", 0.01, ["--conv-frac", "0.1"], 0.1, "", FLOAT),
    ("max_iters", 200, "50", 50, ["--max-iters", "60"], 60, "1.5", INT),
    ("min_support", 5, "3", 3, ["--min-support", "4"], 4, "three", INT),
    ("r2_min", 0.0, "0.1", 0.1, ["--r2-min", "0.2"], 0.2, "-", FLOAT),
    (
        "exclude",
        (),
        "a,b; ;c,d,INNER",
        ("a,b", "c,d,INNER"),
        ["--exclude", "e,f", "--exclude", "g,h;i,j"],  # a flag is one rule, ; and all
        ("e,f", "g,h;i,j"),
        "a",
        "exclusion must be 'attrA,attrB[,link]', got 'a'",  # a range error: no line
    ),
    ("eval_split", "test", "dev", "dev", ["--eval-split", "test"], "test", "val",
     "eval-split must be dev or test, got 'val'"),
]


class TestConfigFile:
    @pytest.mark.parametrize(
        "name,default,text,value,flags,flag_value,bad,error", SETTINGS, ids=[c[0] for c in SETTINGS]
    )
    def test_every_setting(self, tmp_path, capsys, name, default, text, value, flags, flag_value, bad, error):
        assert [c[0] for c in SETTINGS] == [f.name for f in fields(RunConfig)]
        config = tmp_path / "run.cfg"

        def resolve(*argv):
            return getattr(build_config(_build_parser().parse_args(["stats", *argv])), name)

        assert getattr(RunConfig(), name) == default
        assert resolve() == default
        config.write_text(f"# one setting\n{name}={text}\n")
        assert resolve("--config", str(config)) == value
        assert resolve("--config", str(config), *flags) == flag_value
        if bad is not None:
            config.write_text(f"# one setting\n{name}={bad}\n")
            assert main(["stats", "--config", str(config)]) == EXIT_USAGE
            loc = f"{config}:2: config key {name!r}: "
            assert capsys.readouterr().err == f"error: {error.format(loc=loc, bad=bad)}\n"

    def test_removed_ablation_flags_fail_as_usage(self, dataset, tmp_path, capsys):
        # an ablation is a registry of the models it keeps, which only `ablate` builds
        out = tmp_path / "o"
        assert main(["impute", *_args(dataset, out, "--no-cross")]) == EXIT_USAGE
        config = tmp_path / "run.cfg"
        config.write_text("no_cross=yes\n")
        capsys.readouterr()
        assert main(["impute", *_args(dataset, out, "--config", str(config))]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {config}:1: unknown config key 'no_cross'\n"
        assert not out.exists()

    def test_parser_options_are_pinned(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert list(commands) == ["stats", "split", "fit", "impute", "eval", "ablate"]
        for sub in commands.values():
            assert [s for a in sub._actions for s in a.option_strings] == [
                "-h", "--help", "--config", "--triples", "--attrs", "--out", "--seed", "--split",
                "--observed-fraction", "--damping", "--conv-frac", "--max-iters", "--min-support",
                "--r2-min", "--exclude", "--eval-split",
            ]

    def test_duplicate_config_key(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("seed=x\n\nseed=3\n")
        assert main(["stats", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {config}:3: duplicate config key 'seed'\n"

    def test_config_file_with_flag_override(self, dataset, tmp_path, capsys):
        triples, attrs = dataset
        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join(
                [
                    f"triples={triples}",
                    f"attrs={attrs}",
                    f"out={tmp_path / 'cfg_out'}",
                    "seed=11",
                    "min_support=3",
                    "observed_fraction=0.5",
                    "# comment line",
                ]
            )
            + "\n"
        )
        assert main(["split", "--config", str(config)]) == EXIT_OK
        assert (tmp_path / "cfg_out" / "split.tsv").exists()
        override_out = tmp_path / "override_out"
        assert main(["split", "--config", str(config), "--out", str(override_out)]) == EXIT_OK
        assert (override_out / "split.tsv").exists()

    def test_unknown_config_key(self, dataset, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_knob=1\n")
        assert main(["split", "--config", str(config)]) == EXIT_USAGE

    def test_threads_config_key_is_unknown(self, dataset, tmp_path, capsys):
        config = tmp_path / "threads.cfg"
        config.write_text("# settings\nseed=3\nthreads=4\n")
        assert main(["split", "--config", str(config), *_args(dataset, tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {config}:3: unknown config key 'threads'"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_file(self, dataset, tmp_path, capsys, kind):
        config = tmp_path / "absent.cfg"
        if kind == "directory":
            config.mkdir()
        assert main(["stats", "--config", str(config), *_args(dataset, tmp_path / "o")]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        reason = "No such file or directory" if kind == "missing" else "Is a directory"
        assert lines == [f"error: cannot read config file {config}: {reason}"]

    def test_malformed_config_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        assert main(["split", "--config", str(config)]) == EXIT_USAGE


class TestDeterminism:
    def test_reruns_are_byte_identical(self, dataset, tmp_path):
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            base = _args(dataset, out, "--seed", "13", "--min-support", "3")
            assert main(["split", *base]) == EXIT_OK
            assert main(["fit", *base]) == EXIT_OK
            assert main(["impute", *base]) == EXIT_OK
            assert main(["eval", *base]) == EXIT_OK
            outputs.append(
                {
                    name: (out / name).read_bytes()
                    for name in ("split.tsv", "models.tsv", "imputed.tsv", "trace.csv", "report.csv", "report.txt")
                }
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one core OpenBLAS runs every dot product on one thread")
    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # OpenBLAS splits only long dot products across threads. With the
        # loss summed by BLAS dot, trace.csv of this graph (about 10,000 live
        # targets) differed between one and two threads; at 2,000 entities
        # it did not.
        generate = bench_generate()
        spec = generate.GraphSpec(entities=4000, edges_per_entity=5, relations=20, noise_relations=0, types=6, density=0.5)
        inputs = tmp_path / "in"
        generate.write_graph(spec, 201, inputs)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            argv = _args((inputs / "triples.tsv", inputs / "attrs.tsv"), out, "--seed", "7", "--observed-fraction", "0.2")
            result = _python("-m", "mrap.cli", "impute", *argv, OPENBLAS_NUM_THREADS=threads)
            assert result.returncode == EXIT_OK, result.stderr
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert set(outputs[0]) == {"models.tsv", "imputed.tsv", "trace.csv"}
        assert outputs[0] == outputs[1]


class TestImports:
    def test_the_cli_does_not_import_scipy(self):
        # scipy serves test references only: its import alone adds about
        # 20 MB to the peak RSS of a run
        result = _python("-c", "import sys, mrap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
