import io
import math
from collections import Counter

import numpy as np
import pytest

from helpers import (
    ABLATIONS,
    ablated,
    entry_index,
    export_differences,
    extract_pairs,
    make_bundle,
    propagation_predictions,
    random_instance,
    reference_baseline_global,
    reference_baseline_local,
    reference_evaluate,
    reference_format_report_table,
    reference_propagation_predictions,
    registry_of,
    six_node_fixture,
    target_of,
    vector_of,
    write_cli_dataset,
    write_differences,
)

from mrap import evaluation
from mrap.cli import EXIT_DATA, EXIT_OK, main
from mrap.errors import DataError
from mrap.evaluation import (
    EvalReport,
    EvalRow,
    ablation_suite,
    baseline_global,
    baseline_local,
    evaluate,
    format_report_table,
    write_report_csv,
)
from mrap.graph import Direction
from mrap.ingest import DatasetBundle, Split
from mrap.propagation import PropagationConfig, run
from mrap.regression import AdmissionConfig, PathKey, _mirror, build_registry


class TestBaselineGlobal:
    def test_mean_of_observed(self):
        bundle = make_bundle([], {("a", "h"): 10.0, ("b", "h"): 20.0}, {("c", "h"): 0.0})
        assert baseline_global(bundle)[entry_index(bundle, "c", "h")] == 15.0

    def test_single_observed_value(self):
        bundle = make_bundle([], {("a", "h"): 7.0}, {("c", "h"): 0.0})
        assert baseline_global(bundle)[entry_index(bundle, "c", "h")] == 7.0

    def test_constant_observed(self):
        bundle = make_bundle(
            [], {("a", "h"): 3.0, ("b", "h"): 3.0}, {("c", "h"): 0.0, ("d", "h"): 0.0}
        )
        preds = baseline_global(bundle)
        assert set(preds[bundle.target_indices()].tolist()) == {3.0}

    def test_unobserved_type_raises(self):
        bundle = make_bundle([], {("a", "g"): 1.0}, {("c", "h"): 0.0}, attr_order=("g", "h"))
        with pytest.raises(DataError) as err:
            baseline_global(bundle)
        assert "h" in str(err.value)


class TestBaselineLocal:
    def test_neighborhood_mean(self):
        bundle = six_node_fixture()
        preds = baseline_local(bundle)
        assert preds[entry_index(bundle, "n2", "h")] == 20.0

    def test_fallback_to_global(self):
        bundle = six_node_fixture()
        preds = baseline_local(bundle)
        assert preds[entry_index(bundle, "n4", "h")] == 15.0

    def test_isolated_node_falls_back_to_global(self):
        bundle = make_bundle(
            [("a", "p", "b")], {("a", "h"): 10.0, ("b", "h"): 20.0}, {("iso", "h"): 0.0}
        )
        assert baseline_local(bundle)[entry_index(bundle, "iso", "h")] == 15.0

    def test_single_neighbor_exact(self):
        bundle = make_bundle([("a", "p", "b")], {("a", "h"): 42.0, ("z", "h"): 0.0}, {("b", "h"): 0.0})
        assert baseline_local(bundle)[entry_index(bundle, "b", "h")] == 42.0

    def test_parallel_edges_count_neighbor_once(self):
        bundle = make_bundle(
            [("a", "p", "b"), ("a", "q", "b"), ("c", "p", "b")],
            {("a", "h"): 10.0, ("c", "h"): 20.0},
            {("b", "h"): 0.0},
        )
        assert baseline_local(bundle)[entry_index(bundle, "b", "h")] == 15.0


class TestEvaluate:
    def test_definition_arithmetic(self):
        bundle = make_bundle([], {("a", "h"): 1.0}, {("b", "h"): 2.0, ("c", "h"): 4.0})
        preds = vector_of(bundle, {target_of(bundle, "b", "h"): 1.0, target_of(bundle, "c", "h"): 2.0})
        report = evaluate(preds, bundle, Split.TEST)
        row = report.rows[0]
        assert row.mae == pytest.approx(1.5)
        assert row.rmse == pytest.approx(math.sqrt(2.5))
        assert row.n == 2

    def test_perfect_predictions(self):
        bundle = make_bundle([], {("a", "h"): 1.0}, {("b", "h"): 2.0})
        report = evaluate(vector_of(bundle, {target_of(bundle, "b", "h"): 2.0}), bundle, Split.TEST)
        assert report.rows[0].mae == 0.0 and report.rows[0].rmse == 0.0

    def test_unpredicted_scored_at_global_fallback(self):
        bundle = make_bundle([], {("a", "h"): 10.0, ("b", "h"): 20.0}, {("c", "h"): 18.0})
        report = evaluate(vector_of(bundle, {}), bundle, Split.TEST)
        row = report.rows[0]
        assert row.n_unpredicted == 1
        assert row.mae == pytest.approx(3.0)  # |15 - 18|

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            bundle, registry = random_instance(rng)
            preds, _ = propagation_predictions(bundle, registry, PropagationConfig(max_iters=30))
            for split in (Split.TEST, Split.DEV):
                for row in evaluate(preds, bundle, split).rows:
                    assert row.rmse >= row.mae >= 0.0

    def test_dev_split_scored_separately(self):
        bundle = make_bundle(
            [],
            {("a", "h"): 1.0},
            {("b", "h"): 5.0},
            missing_split=Split.DEV,
        )
        preds = vector_of(bundle, {target_of(bundle, "b", "h"): 4.0})
        dev = evaluate(preds, bundle, Split.DEV)
        test = evaluate(preds, bundle, Split.TEST)
        assert dev.rows[0].mae == 1.0
        assert test.rows == []

    def test_pure_function_of_prediction_map(self):
        bundle = six_node_fixture()
        preds = baseline_local(bundle)
        preds[entry_index(bundle, "n4", "h")] = np.nan  # a hole, scored at the Global fallback
        given = preds.copy()
        one = evaluate(preds, bundle, Split.TEST)
        two = evaluate(preds, bundle, Split.TEST)
        assert one.rows[0].mae == two.rows[0].mae and one.rows[0].n_unpredicted == 1
        assert np.array_equal(preds, given, equal_nan=True)


def _with_dev(rng, bundle):
    """The bundle with about half of its targets moved to the DEV split."""
    split = bundle.split.copy()
    targets = bundle.target_indices()
    split[targets[rng.random(len(targets)) < 0.5]] = int(Split.DEV)
    return DatasetBundle(graph=bundle.graph, attrs=bundle.attrs, split=split)


def _rows(report):
    return [(r.attr, r.mae, r.rmse, r.n, r.n_unpredicted) for r in report.rows]


class TestArrayScoringAgainstDictOracles:
    """Vectors over the entries against the dicts keyed by (entity id, attr id) they replaced."""

    def _assert_matches(self, bundle, vector, oracle):
        """Bit-equal values at the oracle's keys, NaN at every other entry."""
        attrs = bundle.attrs
        want = np.full(attrs.n_entries, np.nan)
        keys = list(oracle)
        idx = attrs.lookup([e for e, _ in keys], [a for _, a in keys])
        assert (idx >= 0).all()
        want[idx] = list(oracle.values())
        assert vector.dtype == np.float64 and vector.shape == (attrs.n_entries,)
        assert np.array_equal(np.isnan(vector), np.isnan(want))
        assert vector[~np.isnan(want)].tobytes() == want[~np.isnan(want)].tobytes()

    def test_random_instances(self, caplog):
        rng = np.random.default_rng(44)
        cfg = PropagationConfig(max_iters=30)
        holes = isolated = 0
        for _ in range(60):
            bundle, registry = random_instance(rng, quirks=True)
            bundle = _with_dev(rng, bundle)
            isolated += int(bundle.graph.entities.get("loner") is not None)
            mrap, _ = propagation_predictions(bundle, registry, cfg)
            oracles = {
                "MrAP": reference_propagation_predictions(bundle, registry, cfg)[0],
                "Global": reference_baseline_global(bundle),
                "Local": reference_baseline_local(bundle),
            }
            vectors = {"MrAP": mrap, "Global": baseline_global(bundle), "Local": baseline_local(bundle)}
            for method, oracle in oracles.items():
                self._assert_matches(bundle, vectors[method], oracle)
            for split in (Split.DEV, Split.TEST):
                entries = bundle.split_indices(split)
                in_split = {
                    key: value
                    for key, value in oracles["Local"].items()
                    if bundle.split[bundle.attrs.lookup([key[0]], [key[1]])[0]] == int(split)
                }
                self._assert_matches(bundle, baseline_local(bundle, entries), in_split)
                self._assert_matches(
                    bundle, baseline_global(bundle, entries), {k: oracles["Global"][k] for k in in_split}
                )
                for method, oracle in oracles.items():
                    # drop a random part of the predictions: holes score at the Global mean
                    kept = {k: v for k, v in oracle.items() if rng.random() < 0.8}
                    vector = vectors[method].copy()
                    dropped = [k for k in oracle if k not in kept]
                    if dropped:
                        gone = bundle.attrs.lookup([e for e, _ in dropped], [a for _, a in dropped])
                        vector[gone] = np.nan
                    for preds, ref in ((vectors[method], oracle), (vector, kept)):
                        caplog.clear()
                        got = evaluate(preds, bundle, split, method=method, setup="x")
                        warned = [r.getMessage() for r in caplog.records]
                        caplog.clear()
                        want = reference_evaluate(ref, bundle, split, method=method, setup="x")
                        assert (got.method, got.setup) == (want.method, want.setup)
                        assert _rows(got) == _rows(want)
                        assert warned == [r.getMessage() for r in caplog.records]
                    holes += sum(r.n_unpredicted for r in evaluate(vector, bundle, split).rows)
        assert holes > 100 and isolated == 60

    def test_unobserved_type_raises_the_first_targets_error(self):
        # the first target in entry order has type z, whose id is above y's
        bundle = make_bundle(
            [("a", "p", "b")],
            {("c", "x"): 1.0},
            {("a", "z"): 0.0, ("b", "y"): 0.0, ("c", "y"): 0.0},
            attr_order=("x", "y", "z"),
        )
        with pytest.raises(DataError) as want:
            reference_baseline_global(bundle)
        assert "'z'" in str(want.value)
        for baseline in (baseline_global, baseline_local):
            for entries in (None, bundle.split_indices(Split.TEST)[-1:]):
                with pytest.raises(DataError) as got:
                    baseline(bundle, entries)
                assert str(got.value) == str(want.value)

    def test_eval_exits_on_a_target_type_without_observed_entries(self, tmp_path, capsys):
        """Every birth entry is a dev target: eval on the test split exits 2 as before."""
        triples, attrs = write_cli_dataset(tmp_path)
        rows = [line.split("\t") for line in attrs.read_text().splitlines()]
        out = tmp_path / "out"
        out.mkdir()

        def write_manifest(label):
            lines = [f"{e}\t{a}\t{label(i, a)}\n" for i, (e, a, _) in enumerate(rows)]
            (out / "split.tsv").write_text("".join(lines))

        def held_out(i, attr):
            return "test" if i % 5 == 0 else "train"

        # every entry has an imputed value, so only the baselines can fail
        (out / "imputed.tsv").write_text("".join(f"{e}\t{a}\t{v}\t0\t0\n" for e, a, v in rows))
        args = ["--triples", str(triples), "--attrs", str(attrs), "--out", str(out)]
        write_manifest(lambda i, attr: "dev" if attr == "birth" else held_out(i, attr))
        capsys.readouterr()
        assert main(["eval", *args]) == EXIT_DATA
        assert capsys.readouterr().err == "error: attribute type 'birth' has no observed entries\n"
        assert not (out / "report.csv").exists()
        write_manifest(held_out)
        assert main(["eval", *args]) == EXIT_OK


class TestMrapVsGlobal:
    def test_messageless_targets_equal_global_baseline(self):
        bundle = six_node_fixture()
        preds, report = propagation_predictions(bundle, registry_of(), PropagationConfig())
        glob = baseline_global(bundle)
        assert report.n_silent == report.n_targets == 2
        assert np.array_equal(preds, glob, equal_nan=True)


class TestAblationSuite:
    def _bundle(self):
        rng = np.random.default_rng(42)
        return random_instance(rng)

    def test_three_reports_with_labels(self):
        bundle, registry = self._bundle()
        reports = ablation_suite(bundle, PropagationConfig(max_iters=50), registry=registry)
        assert [r.method for r in reports] == ["MrAP", "w/o Inner", "w/o Cross"]
        assert all(r.converged is not None for r in reports)

    def test_deterministic_across_reruns(self):
        bundle, registry = self._bundle()
        cfg = PropagationConfig(max_iters=50)
        one = ablation_suite(bundle, cfg, registry=registry)
        two = ablation_suite(bundle, cfg, registry=registry)
        for a, b in zip(one, two):
            assert [(r.attr, r.mae, r.rmse) for r in a.rows] == [
                (r.attr, r.mae, r.rmse) for r in b.rows
            ]

    def test_ablation_suite_runs_each_variant_on_its_models(self):
        rng = np.random.default_rng(52)
        cfg = PropagationConfig(max_iters=50)
        for _ in range(10):
            bundle, registry = random_instance(rng, quirks=True)
            reports = ablation_suite(bundle, cfg, registry=registry)
            assert [r.method for r in reports] == ["MrAP", "w/o Inner", "w/o Cross"]
            for report, ablation in zip(reports, ABLATIONS):
                values, run_report = run(bundle, ablated(registry, ablation), cfg)
                preds = np.full(bundle.attrs.n_entries, np.nan)
                preds[run_report.target_entries] = values[run_report.target_entries]
                want = evaluate(preds, bundle, Split.TEST, method=report.method)
                want.converged = run_report.converged
                assert repr(report) == repr(want)  # floats repr exactly: bit for bit

    def test_every_variant_runs_on_a_mirror_closed_registry(self, monkeypatch):
        # w/o Inner keeps the relational models and w/o Cross those with
        # dep == indep: the mirror of each such model is one too
        rng = np.random.default_rng(54)
        seen, kinds = [], Counter()

        def record(bundle, registry, cfg):
            seen.append(registry)
            return run(bundle, registry, cfg)

        monkeypatch.setattr(evaluation, "run", record)
        for _ in range(10):
            bundle, _ = random_instance(rng, quirks=True)
            registry = build_registry(bundle, AdmissionConfig(min_support=2))
            seen.clear()
            ablation_suite(bundle, PropagationConfig(max_iters=5), registry=registry)
            # each variant's mask keeps exactly the models that the oracle's ``allows`` keeps, in registry order
            assert [list(kept.models.items()) for kept in seen] == [list(ablated(registry, a).models.items()) for a in ABLATIONS]
            for kept in seen:
                assert np.isin(_mirror(kept.codes, kept.span, kept.n_types), kept.codes).all()
            kinds.update("inner" if k.relation is None else "same" if k.dep == k.indep else "cross" for k in registry.models)
        assert min(kinds[kind] for kind in ("same", "cross", "inner")) > 10, kinds


class TestExportDifferences:
    def test_constant_shift(self):
        observed = {}
        for i in range(5):
            observed[(f"e{i}", "x")] = float(i)
            observed[(f"e{i}", "y")] = float(i) + 25.0
        bundle = make_bundle([], observed, attr_order=("x", "y"))
        diffs, mean, std = export_differences(bundle, PathKey(1, 0))
        np.testing.assert_allclose(diffs, 25.0)
        assert mean == 25.0 and std == 0.0

    def test_empty_key_warns(self, caplog):
        bundle = make_bundle([], {("e", "x"): 1.0}, attr_order=("x", "y"))
        with caplog.at_level("WARNING"):
            diffs, mean, std = export_differences(bundle, PathKey(1, 0))
        assert diffs.size == 0
        assert math.isnan(mean) and math.isnan(std)

    def test_matches_per_key_extraction_on_random_instances(self, caplog):
        rng = np.random.default_rng(43)
        with_pairs = without = 0
        for _ in range(10):
            bundle, _ = random_instance(rng, quirks=True)
            n_rel, n_types = bundle.graph.n_relations, bundle.attrs.n_types
            keys = [
                PathKey(dep, indep, rel, Direction.FORWARD)
                for rel in range(n_rel + 1)  # relation n_rel has no edges
                for dep in range(n_types)
                for indep in range(n_types)
            ]
            keys += [
                PathKey(dep, indep) for dep in range(n_types) for indep in range(n_types) if dep != indep
            ]
            for key in keys:
                ys, xs = extract_pairs(bundle, key)
                caplog.clear()
                with caplog.at_level("WARNING"):
                    diffs, mean, std = export_differences(bundle, key)
                if ys.size == 0:
                    assert diffs.size == 0 and math.isnan(mean) and math.isnan(std)
                    assert "no training pairs" in caplog.text
                    without += 1
                    continue
                want = ys - xs
                assert diffs.tolist() == want.tolist()
                assert (mean, std) == (float(want.mean()), float(want.std()))
                assert not caplog.text
                with_pairs += 1
            with pytest.raises(ValueError):
                export_differences(bundle, PathKey(0, 0, 0, Direction.REVERSE))
        assert with_pairs > 50 and without > 10

    def test_write_format(self):
        buf = io.StringIO()
        write_differences(buf, "y|x|INNER", np.array([25.0, 25.0]), 25.0, 0.0)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "key,value"
        assert lines[1].startswith("y|x|INNER,25")
        assert lines[-1].startswith("# fitted_normal mean=25")


class TestReportOutput:
    def _reports(self):
        bundle = six_node_fixture()
        return bundle, [
            evaluate(baseline_global(bundle), bundle, Split.TEST, method="Global", setup="100%"),
            evaluate(baseline_local(bundle), bundle, Split.TEST, method="Local", setup="100%"),
        ]

    def test_csv_layout(self, tmp_path):
        _, reports = self._reports()
        write_report_csv(tmp_path / "report.csv", reports)
        lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,setup,attr_type,mae,rmse,n_test,n_unpredicted"
        assert len(lines) == 3
        assert lines[1].startswith("Global,100%,h,")

    def test_table_merges_local_global_with_asterisk(self):
        _, reports = self._reports()
        table = format_report_table(reports)
        assert "Local/Global" in table
        # Local (20, 15, 15) beats Global (15, 15, 15) on MAE here? Check row content exists
        assert "h" in table

    def test_random_report_sets_render_as_the_reference(self):
        rng = np.random.default_rng(14)
        methods = ["MrAP", "Global", "Local", "w/o Inner", "w/o Cross"]
        attrs = ["birth", "death", "height", "release", "a0", "weight_kg"]
        magnitudes = [1e-7, 0.5, 3.0, 1234.5678, 1.5e6, 2.5e11]
        merged = ties = exponents = 0
        for _ in range(200):
            reports = []
            for method in rng.permutation(methods)[: int(rng.integers(1, 6))].tolist():
                rows = []
                for attr in rng.permutation(attrs)[: int(rng.integers(1, 7))].tolist():
                    mae, rmse = rng.choice(magnitudes, 2) * rng.uniform(0.5, 2.0, 2)
                    rows.append(EvalRow(attr, float(mae), float(rmse), 10, 0))
                reports.append(EvalReport(method, "20%", rows))
            by_method = {r.method: r for r in reports}
            if "Global" in by_method and "Local" in by_method:
                merged += 1
                local = {row.attr: row for row in by_method["Local"].rows}
                for row in by_method["Global"].rows:
                    if row.attr in local and rng.random() < 0.5:  # a tie goes to Global
                        row.mae = local[row.attr].mae
                        ties += 1
            table = format_report_table(reports)
            assert table == reference_format_report_table(reports)
            exponents += "e-" in table and "e+" in table
        assert merged > 30 and ties > 30 and exponents > 30

    def test_asterisk_marks_global_wins(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "h"): 0.0, ("z", "h"): 20.0},
            {("b", "h"): 10.0},
        )
        # global mean 10 is exact; local (neighbor a=0) is off by 10
        reports = [
            evaluate(baseline_global(bundle), bundle, Split.TEST, method="Global"),
            evaluate(baseline_local(bundle), bundle, Split.TEST, method="Local"),
        ]
        table = format_report_table(reports)
        assert "*0" in table
