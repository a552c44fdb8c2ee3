"""Acceptance suite: one test per criterion, each printing a pass line.

Run ``pytest tests/test_acceptance.py -v -s`` for the per-criterion summary
lines. The final criterion needs the real FB15K-237 files and is skipped
unless MRAP_FB15K_TRIPLES and MRAP_FB15K_ATTRS point at them (attribute
labels there must contain date_of_birth / date_of_death / film_release).
"""
import os
import time

import numpy as np
import pytest

from helpers import (
    SingularSystemError,
    _build_paths,
    ablation_dataset,
    aggregate,
    bench_bundle,
    collect_messages,
    entry_index,
    fixed_point_oracle,
    loss,
    one_key_per_relation,
    planted_exact_instance,
    random_instance,
    registry_of,
    six_node_fixture,
    sparse_fixed_point,
    write_cli_dataset,
)

from mrap.cli import EXIT_NOCONV, EXIT_OK, main
from mrap.evaluation import (
    ablation_suite,
    baseline_global,
    baseline_local,
    evaluate,
    propagation_predictions,
)
from mrap.ingest import Split
from mrap.propagation import PropagationConfig, run
from mrap.regression import AdmissionConfig, build_registry

RECOVERY_TOL = 1e-6  # fraction of the per-type observed range


def _close(a: float, b: float, scale: float, rel: float = 1e-9) -> bool:
    """Relative closeness measured against the larger magnitude or the
    quantity's natural unit scale (guards exact fits where both sides are
    tiny sums of rounding error)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def test_criterion_1_fit_matches_independent_normal_equations():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    samples = []
    while len(samples) < 1000:
        n = int(rng.integers(2, 51))
        x = rng.uniform(-1e6, 1e6, n)
        y = rng.uniform(-1e6, 1e6, n)
        if np.ptp(x) > 0.0:
            samples.append((y, x))
    bundle, keys = one_key_per_relation(samples)  # one fit key per sample, all fitted in one pass
    registry = build_registry(bundle, AdmissionConfig(min_support=2))
    y_range = bundle.attrs.value_range(keys[0].dep)
    floor = 1e-12 * y_range * y_range
    for key, (y, x) in zip(keys, samples):
        model = registry.models[key]
        design = np.column_stack([x, np.ones(len(x))])
        (eta_o, tau_o), *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - eta_o * x - tau_o
        sigma2_o = float(np.mean(resid * resid))
        y_scale = max(1.0, float(np.abs(y).max()))
        x_scale = max(1.0, float(np.abs(x).max()))
        assert _close(model.eta, float(eta_o), y_scale / x_scale)
        assert _close(model.tau, float(tau_o), y_scale)
        assert _close(model.sigma2, max(sigma2_o, floor), y_scale * y_scale)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: 1000 fits match the SVD oracle within 1e-9 ({elapsed:.2f}s)")


def test_criterion_2_reverse_model_identities():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    samples = []
    for _ in range(1000):
        eta = float(rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0]))
        tau = float(rng.uniform(-1e3, 1e3))
        x = rng.uniform(-1e3, 1e3, 5)
        samples.append((eta * x + tau + rng.normal(0.0, float(rng.uniform(1e-3, 30.0)), 5), x))
    bundle, keys = one_key_per_relation(samples)
    registry = build_registry(bundle, AdmissionConfig(min_support=2))
    for key in keys:
        model, reverse = registry.models[key], registry.models[key.reversed()]
        eta, tau, sigma2 = model.eta, model.tau, model.sigma2
        # the reverse derived from the derived reverse is the fitted model
        assert reverse.key.reversed() == key and reverse.fit.derived_reverse
        assert abs(1.0 / reverse.eta - eta) <= 1e-12 * abs(eta)
        assert abs(-reverse.tau / reverse.eta - tau) <= 1e-12 * max(abs(tau), 1e-300)
        assert abs(reverse.sigma2 / (reverse.eta * reverse.eta) - sigma2) <= 1e-12 * sigma2
        x = float(rng.uniform(-1e3, 1e3))
        round_trip = reverse.eta * (model.eta * x + model.tau) + reverse.tau
        assert abs(round_trip - x) <= 1e-9 * max(1.0, abs(x))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: 1000 reverse round-trips within 1e-12/1e-9 ({elapsed:.2f}s)")


def _converged_random_runs(n_instances: int, seed: int):
    """Converged (bundle, registry, cfg, values, report, oracle) tuples."""
    rng = np.random.default_rng(seed)
    cfg = PropagationConfig(conv_frac=1e-9, max_iters=3000)
    out = []
    for _ in range(n_instances):
        bundle, registry = random_instance(rng)
        values, report = run(bundle, registry, cfg)
        if not report.converged:
            continue
        try:
            oracle = fixed_point_oracle(bundle, registry)
        except SingularSystemError:
            continue  # non-unique fixed point: nothing to compare against
        out.append((bundle, registry, cfg, values, report, oracle))
    return out


def test_criterion_3_iteration_matches_direct_solve():
    start = time.perf_counter()
    runs = _converged_random_runs(100, seed=1003)
    assert len(runs) >= 60, "too few random instances converged to a unique fixed point"
    for bundle, _, _, values, report, oracle in runs:
        attrs = bundle.attrs
        for t in report.target_entries:
            attr = int(attrs.attr_ids[t])
            tol = RECOVERY_TOL * max(attrs.value_range(attr), 1e-12)
            want = oracle[(int(attrs.entity_ids[t]), attr)]
            assert abs(values[t] - want) < tol
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 3 PASS: {len(runs)}/100 converged instances match the direct solve "
        f"within 1e-6 x range ({elapsed:.2f}s)"
    )


def test_criterion_3_at_sparse_mix_size():
    pytest.importorskip("scipy")
    start = time.perf_counter()
    bundle = bench_bundle(
        201, 0.2, entities=8000, edges_per_entity=5, relations=20, noise_relations=0, types=6, density=0.5
    )
    registry = build_registry(bundle, AdmissionConfig())
    cfg = PropagationConfig(conv_frac=1e-12, max_iters=1000)
    values, report = run(bundle, registry, cfg)
    assert report.converged
    want = sparse_fixed_point(bundle, registry)
    attrs = bundle.attrs
    targets = report.target_entries
    gap = np.abs(values[targets] - want[targets])
    scale = np.array([attrs.value_range(a) for a in range(attrs.n_types)])[attrs.attr_ids[targets]]
    worst = float(np.max(gap / scale))
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 3 PASS at sparse-mix size: {len(targets)} targets, {report.iterations} iterations, "
        f"largest gap {worst:.1e} x range ({elapsed:.2f}s)"
    )


def _exact_recovery_runs(n_instances: int, seed: int):
    rng = np.random.default_rng(seed)
    cfg = PropagationConfig(conv_frac=1e-9, max_iters=50000)
    out = []
    for _ in range(n_instances):
        bundle, registry, truth = planted_exact_instance(rng)
        values, report = run(bundle, registry, cfg)
        assert report.converged
        out.append((bundle, registry, cfg, values, report, truth))
    return out


def test_criterion_4_exact_recovery_on_noiseless_data():
    start = time.perf_counter()
    runs = _exact_recovery_runs(10, seed=1004)
    for bundle, registry, cfg, values, report, truth in runs:
        attrs = bundle.attrs
        for t in report.target_entries:
            attr = int(attrs.attr_ids[t])
            tol = RECOVERY_TOL * max(attrs.value_range(attr), 1e-12)
            want = truth[(int(attrs.entity_ids[t]), attr)]
            assert abs(values[t] - want) < tol
        total = loss(bundle, registry, values)
        paths = _build_paths(bundle, registry)
        scale = float(
            np.sum(
                paths.weight
                * np.array([attrs.value_range(int(attrs.attr_ids[t])) ** 2 for t in paths.tgt])
            )
        )
        assert total <= 1e-9 * scale
        assert report.losses[-1] <= 1e-9 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 4 PASS: {len(runs)} noiseless instances recovered within 1e-6 x range, "
        f"loss below 1e-9 of the floored-weight scale ({elapsed:.2f}s)"
    )


def test_criterion_5_local_stationarity_at_convergence():
    stationary_checked = 0
    runs = _converged_random_runs(30, seed=1003)[:15] + _exact_recovery_runs(5, seed=1004)[:5]
    for bundle, registry, cfg, values, report, _ in runs:
        attrs = bundle.attrs
        for t, n_msgs in zip(report.target_entries, report.n_messages):
            if n_msgs == 0:
                continue
            attr = int(attrs.attr_ids[t])
            target = (int(attrs.entity_ids[t]), attr)
            messages = collect_messages(bundle, registry, values, target)
            gap = abs(values[t] - aggregate(messages))
            assert gap < RECOVERY_TOL * max(attrs.value_range(attr), 1e-12)
            stationary_checked += 1
    assert stationary_checked > 0
    print(
        f"\nACCEPTANCE 5 PASS: {stationary_checked} imputed values equal their weighted "
        "message mean within tolerance"
    )


def test_criterion_6_baseline_correctness_on_fixture():
    bundle = six_node_fixture()
    glob = baseline_global(bundle)
    local = baseline_local(bundle)

    def tgt(name):
        return entry_index(bundle, name, "h")

    assert bundle.graph.n_entities == 6
    assert glob[tgt("n2")] == 15.0 and glob[tgt("n4")] == 15.0
    assert local[tgt("n2")] == 20.0  # mean of observed neighbors 10 and 30
    assert local[tgt("n4")] == 15.0  # no attributed neighbor: global fallback

    preds, report = propagation_predictions(bundle, registry_of(), PropagationConfig())
    assert report.n_silent == report.n_targets
    assert np.array_equal(preds, glob, equal_nan=True)  # message-less targets degrade to the Global baseline
    print("\nACCEPTANCE 6 PASS: baselines match hand-computed means; silent targets equal Global")


def test_criterion_7_ablation_ordering_with_margin():
    from mrap.regression import AdmissionConfig, build_registry

    bundle = ablation_dataset(seed=0)
    registry = build_registry(bundle, AdmissionConfig(min_support=3))
    reports = ablation_suite(bundle, PropagationConfig(max_iters=2000), registry=registry)
    mae = {r.method: next(row.mae for row in r.rows if row.attr == "t") for r in reports}
    assert all(r.converged for r in reports)
    assert mae["MrAP"] <= mae["w/o Inner"] <= mae["w/o Cross"]
    assert mae["w/o Inner"] >= 1.10 * mae["MrAP"]
    print(
        "\nACCEPTANCE 7 PASS: MAE ordering "
        f"MrAP {mae['MrAP']:.3f} <= w/o Inner {mae['w/o Inner']:.3f} "
        f"<= w/o Cross {mae['w/o Cross']:.3f} with >=10% margin"
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    dataset = write_cli_dataset(tmp_path)
    triples, attrs = dataset
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        base = [
            "--triples", str(triples), "--attrs", str(attrs), "--out", str(out),
            "--seed", "17", "--min-support", "3",
        ]
        assert main(["split", *base]) == EXIT_OK
        assert main(["fit", *base]) == EXIT_OK
        assert main(["impute", *base]) in (EXIT_OK, EXIT_NOCONV)
        assert main(["eval", *base]) == EXIT_OK
        outputs.append(
            {
                f: (out / f).read_bytes()
                for f in ("split.tsv", "models.tsv", "imputed.tsv", "trace.csv", "report.csv", "report.txt")
            }
        )
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 8 PASS: byte-identical artifacts across reruns")


@pytest.mark.skipif(
    not (os.environ.get("MRAP_FB15K_TRIPLES") and os.environ.get("MRAP_FB15K_ATTRS")),
    reason="FB15K-237 files not provided (set MRAP_FB15K_TRIPLES and MRAP_FB15K_ATTRS)",
)
def test_criterion_9_fb15k_headline_numbers(tmp_path):
    """Optional dataset-level check on the 50% observed setup."""
    start = time.perf_counter()
    with open(os.environ["MRAP_FB15K_TRIPLES"], encoding="utf-8") as fh:
        from mrap.ingest import parse_triples

        triples = parse_triples(fh)
    with open(os.environ["MRAP_FB15K_ATTRS"], encoding="utf-8") as fh:
        from mrap.ingest import parse_attributes

        attr_rows, _ = parse_attributes(fh)
    from mrap.ingest import SplitSpec, load_dataset, split_attributes, subsample_observed
    from mrap.regression import build_registry

    graph, table = load_dataset(triples, attr_rows)
    bundle = subsample_observed(split_attributes(graph, table, SplitSpec(seed=0)), 0.5, seed=0)
    registry = build_registry(bundle)
    preds, _ = propagation_predictions(bundle, registry, PropagationConfig())
    mrap_report = evaluate(preds, bundle, Split.TEST, method="MrAP")
    glob = evaluate(baseline_global(bundle), bundle, Split.TEST, method="Global")
    local = evaluate(baseline_local(bundle), bundle, Split.TEST, method="Local")

    def row(report, name):
        matches = [r for r in report.rows if name in r.attr]
        assert matches, f"no attribute containing {name!r} in the dataset"
        return matches[0]

    anchors = {"date_of_birth": 12.3, "film_release": 6.4}
    for name, expected in anchors.items():
        got = row(mrap_report, name).mae
        assert expected * 0.75 <= got <= expected * 1.25, (name, got)
    for name in ("date_of_birth", "date_of_death"):
        assert row(mrap_report, name).mae < row(glob, name).mae
        assert row(mrap_report, name).mae < row(local, name).mae
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9 PASS: FB15K-237 50% setup within 25% of reference MAEs ({elapsed:.1f}s)")
