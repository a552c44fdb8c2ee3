import io
import math

import numpy as np
import pytest

from helpers import (
    extract_pairs,
    make_bundle,
    make_model,
    random_instance,
    registry_of,
    six_node_fixture,
    target_of,
)

from mrap.errors import DataError
from mrap.evaluation import (
    ablation_suite,
    baseline_global,
    baseline_local,
    evaluate,
    export_differences,
    format_report_table,
    propagation_predictions,
    write_differences,
    write_report_csv,
)
from mrap.graph import Direction
from mrap.ingest import Split
from mrap.propagation import PropagationConfig
from mrap.regression import PathKey


class TestBaselineGlobal:
    def test_mean_of_observed(self):
        bundle = make_bundle([], {("a", "h"): 10.0, ("b", "h"): 20.0}, {("c", "h"): 0.0})
        assert baseline_global(bundle)[target_of(bundle, "c", "h")] == 15.0

    def test_single_observed_value(self):
        bundle = make_bundle([], {("a", "h"): 7.0}, {("c", "h"): 0.0})
        assert baseline_global(bundle)[target_of(bundle, "c", "h")] == 7.0

    def test_constant_observed(self):
        bundle = make_bundle(
            [], {("a", "h"): 3.0, ("b", "h"): 3.0}, {("c", "h"): 0.0, ("d", "h"): 0.0}
        )
        preds = baseline_global(bundle)
        assert set(preds.values()) == {3.0}

    def test_unobserved_type_raises(self):
        bundle = make_bundle([], {("a", "g"): 1.0}, {("c", "h"): 0.0}, attr_order=("g", "h"))
        with pytest.raises(DataError) as err:
            baseline_global(bundle)
        assert "h" in str(err.value)


class TestBaselineLocal:
    def test_neighborhood_mean(self):
        bundle = six_node_fixture()
        preds = baseline_local(bundle)
        assert preds[target_of(bundle, "n2", "h")] == 20.0

    def test_fallback_to_global(self):
        bundle = six_node_fixture()
        preds = baseline_local(bundle)
        assert preds[target_of(bundle, "n4", "h")] == 15.0

    def test_isolated_node_falls_back_to_global(self):
        bundle = make_bundle(
            [("a", "p", "b")], {("a", "h"): 10.0, ("b", "h"): 20.0}, {("iso", "h"): 0.0}
        )
        assert baseline_local(bundle)[target_of(bundle, "iso", "h")] == 15.0

    def test_single_neighbor_exact(self):
        bundle = make_bundle([("a", "p", "b")], {("a", "h"): 42.0, ("z", "h"): 0.0}, {("b", "h"): 0.0})
        assert baseline_local(bundle)[target_of(bundle, "b", "h")] == 42.0

    def test_parallel_edges_count_neighbor_once(self):
        bundle = make_bundle(
            [("a", "p", "b"), ("a", "q", "b"), ("c", "p", "b")],
            {("a", "h"): 10.0, ("c", "h"): 20.0},
            {("b", "h"): 0.0},
        )
        assert baseline_local(bundle)[target_of(bundle, "b", "h")] == 15.0


class TestEvaluate:
    def test_definition_arithmetic(self):
        bundle = make_bundle([], {("a", "h"): 1.0}, {("b", "h"): 2.0, ("c", "h"): 4.0})
        preds = {target_of(bundle, "b", "h"): 1.0, target_of(bundle, "c", "h"): 2.0}
        report = evaluate(preds, bundle, Split.TEST)
        row = report.rows[0]
        assert row.mae == pytest.approx(1.5)
        assert row.rmse == pytest.approx(math.sqrt(2.5))
        assert row.n == 2

    def test_perfect_predictions(self):
        bundle = make_bundle([], {("a", "h"): 1.0}, {("b", "h"): 2.0})
        report = evaluate({target_of(bundle, "b", "h"): 2.0}, bundle, Split.TEST)
        assert report.rows[0].mae == 0.0 and report.rows[0].rmse == 0.0

    def test_unpredicted_scored_at_global_fallback(self):
        bundle = make_bundle([], {("a", "h"): 10.0, ("b", "h"): 20.0}, {("c", "h"): 18.0})
        report = evaluate({}, bundle, Split.TEST)
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
        dev = evaluate({target_of(bundle, "b", "h"): 4.0}, bundle, Split.DEV)
        test = evaluate({target_of(bundle, "b", "h"): 4.0}, bundle, Split.TEST)
        assert dev.rows[0].mae == 1.0
        assert test.rows == []

    def test_pure_function_of_prediction_map(self):
        bundle = six_node_fixture()
        preds = baseline_local(bundle)
        one = evaluate(preds, bundle, Split.TEST)
        two = evaluate(dict(reversed(list(preds.items()))), bundle, Split.TEST)
        assert one.rows[0].mae == two.rows[0].mae


class TestMrapVsGlobal:
    def test_messageless_targets_equal_global_baseline(self):
        bundle = six_node_fixture()
        preds, report = propagation_predictions(bundle, registry_of(), PropagationConfig())
        glob = baseline_global(bundle)
        assert report.n_silent == report.n_targets == 2
        for target, value in preds.items():
            assert value == glob[target]


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


class TestExportDifferences:
    def test_constant_shift(self):
        observed = {}
        for i in range(5):
            observed[(f"e{i}", "x")] = float(i)
            observed[(f"e{i}", "y")] = float(i) + 25.0
        bundle = make_bundle([], observed, attr_order=("x", "y"))
        diffs, mean, std = export_differences(bundle, PathKey.inner(1, 0))
        np.testing.assert_allclose(diffs, 25.0)
        assert mean == 25.0 and std == 0.0

    def test_empty_key_warns(self, caplog):
        bundle = make_bundle([], {("e", "x"): 1.0}, attr_order=("x", "y"))
        with caplog.at_level("WARNING"):
            diffs, mean, std = export_differences(bundle, PathKey.inner(1, 0))
        assert diffs.size == 0
        assert math.isnan(mean) and math.isnan(std)

    def test_matches_per_key_extraction_on_random_instances(self, caplog):
        rng = np.random.default_rng(43)
        with_pairs = without = 0
        for _ in range(10):
            bundle, _ = random_instance(rng, quirks=True)
            n_rel, n_types = bundle.graph.n_relations, bundle.attrs.n_types
            keys = [
                PathKey.relational(dep, indep, rel, Direction.FORWARD)
                for rel in range(n_rel + 1)  # relation n_rel has no edges
                for dep in range(n_types)
                for indep in range(n_types)
            ]
            keys += [
                PathKey.inner(dep, indep) for dep in range(n_types) for indep in range(n_types) if dep != indep
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
                export_differences(bundle, PathKey.relational(0, 0, 0, Direction.REVERSE))
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

    def test_csv_layout(self):
        _, reports = self._reports()
        buf = io.StringIO()
        write_report_csv(buf, reports)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "method,setup,attr_type,mae,rmse,n_test,n_unpredicted"
        assert len(lines) == 3
        assert lines[1].startswith("Global,100%,h,")

    def test_table_merges_local_global_with_asterisk(self):
        _, reports = self._reports()
        table = format_report_table(reports)
        assert "Local/Global" in table
        # Local (20, 15, 15) beats Global (15, 15, 15) on MAE here? Check row content exists
        assert "h" in table

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
