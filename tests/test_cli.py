import logging
import math
import re

import pytest

from helpers import bench_generate, write_cli_dataset

from mrap.cli import (
    EXIT_DATA,
    EXIT_NOCONV,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


@pytest.fixture()
def dataset(tmp_path):
    return write_cli_dataset(tmp_path)


def _args(dataset, out, *extra):
    triples, attrs = dataset
    return ["--triples", str(triples), "--attrs", str(attrs), "--out", str(out), *extra]


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
        ):
            assert main(["impute", *base]) == EXIT_OK
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

    def test_ablation_flags_thread_through(self, dataset, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = lambda out, *extra: _args(dataset, out, "--seed", "1", "--min-support", "3", *extra)
        assert main(["impute", *base(out_a)]) == EXIT_OK
        assert main(["impute", *base(out_b, "--no-cross")]) == EXIT_OK
        assert (out_a / "imputed.tsv").read_text() != (out_b / "imputed.tsv").read_text()


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


class TestExitCodes:
    def test_usage_error_bad_damping(self, dataset, tmp_path):
        assert main(["impute", *_args(dataset, tmp_path / "o", "--damping", "2.0")]) == EXIT_USAGE

    def test_usage_error_unknown_flag(self):
        assert main(["impute", "--definitely-not-a-flag"]) == EXIT_USAGE

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
        assert "line 2: non-finite value 'nan'" in capsys.readouterr().err

    def test_eval_rejects_duplicate_imputed_target(self, dataset, tmp_path, capsys):
        def repeat_line_1(lines):
            return "".join([lines[0], *lines])

        assert self._corrupt_imputed(dataset, tmp_path, repeat_line_1) == EXIT_DATA
        assert "line 2: duplicate target" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


class TestConfigFile:
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
        config.write_text("threads=4\n")
        assert main(["split", "--config", str(config), *_args(dataset, tmp_path / "o")]) == EXIT_USAGE
        assert "unknown config key 'threads'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_config_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        assert main(["split", "--config", str(config)]) == EXIT_USAGE


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, dataset, tmp_path):
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
