import numpy as np
import pytest

from helpers import (
    aggregate,
    bench_generate,
    collect_messages,
    combine,
    entry_index,
    index,
    make_bundle,
    make_model,
    random_instance,
    registry_of,
    target_of,
)

from mrap.attributes import Status
from mrap.errors import SingularSystemError
from mrap.graph import Direction
from mrap.ingest import Split, SplitSpec, load_dataset, split_attributes, subsample_observed
from mrap.propagation import (
    PropagationConfig,
    _build_paths,
    fixed_point_oracle,
    loss,
    run,
)
from mrap.regression import AdmissionConfig, PathKey, build_registry, derive_reverse


class FakeMessage:
    def __init__(self, prediction, weight):
        self.prediction = prediction
        self.weight = weight


class TestAggregate:
    def test_single_message(self):
        assert aggregate([FakeMessage(7.0, 1.0)]) == 7.0

    def test_weighted_mean(self):
        assert aggregate([FakeMessage(10.0, 1.0), FakeMessage(20.0, 3.0)]) == 17.5

    def test_agreement_is_fixed_point(self):
        assert aggregate([FakeMessage(5.0, 2.0), FakeMessage(5.0, 9.0)]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestCombine:
    def test_halfway(self):
        assert combine(10.0, 20.0, 0.5) == 15.0

    def test_no_damping(self):
        assert combine(10.0, 20.0, 1.0) == 20.0

    def test_fixed_point(self):
        for damping in (0.1, 0.5, 1.0):
            assert combine(7.0, 7.0, damping) == 7.0


def _chain_bundle():
    """a -p-> b with 'v' observed at a=1939; b missing; anchor widens the range."""
    return make_bundle(
        [("a", "p", "b")],
        {("a", "v"): 1939.0, ("anchor", "v"): 1000.0},
        {("b", "v"): 0.0},
        attr_order=("v",),
    )


class TestCollectMessages:
    def test_affine_prediction(self):
        bundle = _chain_bundle()
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 25.0, 0.5)
        registry = registry_of(model)
        values = bundle.attrs.values
        msgs = collect_messages(bundle, registry, values, target_of(bundle, "b", "v"), PropagationConfig())
        assert len(msgs) == 1
        assert msgs[0].prediction == 1964.0
        assert msgs[0].weight == 2.0

    def test_untracked_target_rejected(self):
        bundle = _chain_bundle()
        with pytest.raises(ValueError):
            collect_messages(bundle, registry_of(), bundle.attrs.values, (0, 99), PropagationConfig())

    def _cross_setup(self):
        # b has missing 'y'; neighbor a has observed 'x' (cross relational);
        # b itself has observed 'z' (inner); plus same-type y->y relational.
        bundle = make_bundle(
            [("a", "p", "b"), ("c", "p", "b")],
            {("a", "x"): 2.0, ("b", "z"): 4.0, ("c", "y"): 7.0, ("anchor", "y"): 0.0},
            {("b", "y"): 0.0},
            attr_order=("x", "y", "z"),
        )
        x, y, z = 0, 1, 2
        registry = registry_of(
            make_model(PathKey.relational(y, x, 0, Direction.FORWARD), 1.0, 0.0, 1.0),
            make_model(PathKey.relational(y, y, 0, Direction.FORWARD), 1.0, 1.0, 1.0),
            make_model(PathKey.inner(y, z), 2.0, 0.0, 1.0),
        )
        return bundle, registry

    def test_all_message_kinds(self):
        bundle, registry = self._cross_setup()
        msgs = collect_messages(
            bundle, registry, bundle.attrs.values, target_of(bundle, "b", "y"), PropagationConfig()
        )
        kinds = {(m.key.is_inner, m.key.is_cross) for m in msgs}
        assert len(msgs) == 3
        assert kinds == {(False, True), (False, False), (True, True)}

    def test_no_inner_filter(self):
        bundle, registry = self._cross_setup()
        msgs = collect_messages(
            bundle,
            registry,
            bundle.attrs.values,
            target_of(bundle, "b", "y"),
            PropagationConfig(no_inner=True),
        )
        assert len(msgs) == 2
        assert all(not m.key.is_inner for m in msgs)

    def test_no_cross_filter_subsumes_no_inner(self):
        bundle, registry = self._cross_setup()
        msgs = collect_messages(
            bundle,
            registry,
            bundle.attrs.values,
            target_of(bundle, "b", "y"),
            PropagationConfig(no_cross=True),
        )
        assert len(msgs) == 1
        only = msgs[0].key
        assert not only.is_inner and not only.is_cross


def _oracle_paths(bundle, registry, cfg):
    """Sorted (src entry, tgt entry, eta, tau, weight) of every message, per target."""
    attrs = bundle.attrs
    entry_of = index(attrs)
    out = []
    for tgt in range(attrs.n_entries):
        target = (int(attrs.entity_ids[tgt]), int(attrs.attr_ids[tgt]))
        for msg in collect_messages(bundle, registry, attrs.values, target, cfg):
            src = entry_of[(msg.source_entity, msg.key.indep)]
            model = registry.get(msg.key)
            out.append((src, tgt, model.eta, model.tau, model.weight))
    return sorted(out)


class TestBuildPaths:
    @pytest.mark.parametrize(
        "cfg",
        [PropagationConfig(), PropagationConfig(no_inner=True), PropagationConfig(no_cross=True)],
        ids=["full", "no_inner", "no_cross"],
    )
    def test_join_matches_per_target_oracle(self, cfg):
        # self-loops, parallel edges, attribute-less and isolated entities
        rng = np.random.default_rng(37)
        for _ in range(15):
            bundle, registry = random_instance(rng, quirks=True)
            paths = _build_paths(bundle, registry, cfg)
            got = sorted(zip(*(column.tolist() for column in paths)))
            assert got == _oracle_paths(bundle, registry, cfg)

    def test_no_models_no_paths(self):
        rng = np.random.default_rng(38)
        bundle, _ = random_instance(rng, quirks=True)
        assert _build_paths(bundle, registry_of(), PropagationConfig()).n == 0


class TestRun:
    def test_two_node_chain(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-9)
        state, report = run(bundle, registry_of(model), PropagationConfig(conv_frac=1e-9, max_iters=500))
        assert state.converged
        assert state.values[entry_index(bundle, "b", "v")] == pytest.approx(3.0, abs=1e-8)
        assert report.n_targets == 1 and report.n_silent == 0

    def test_three_node_path_hand_solved(self):
        # b = (1 + (c-1))/2 and c = b + 1 solve to b=1, c=2
        bundle = make_bundle(
            [("a", "p", "b"), ("b", "p", "c")],
            {("a", "v"): 0.0},
            {("b", "v"): 0.0, ("c", "v"): 0.0},
            attr_order=("v",),
        )
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 1.0, 1.0)
        registry = registry_of(fwd, derive_reverse(fwd))
        state, _ = run(bundle, registry, PropagationConfig(max_iters=1000))
        assert state.converged
        assert state.values[entry_index(bundle, "b", "v")] == pytest.approx(1.0, abs=1e-9)
        assert state.values[entry_index(bundle, "c", "v")] == pytest.approx(2.0, abs=1e-9)

    def test_isolated_target_stays_at_global_mean(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "height"): 10.0, ("b", "height"): 20.0},
            {("loner", "height"): 0.0},
            attr_order=("height",),
        )
        state, report = run(bundle, registry_of(), PropagationConfig())
        assert state.converged
        assert state.values[entry_index(bundle, "loner", "height")] == 15.0
        assert report.n_silent == 1

    def test_observed_entries_clamped_bit_exact(self):
        rng = np.random.default_rng(31)
        bundle, registry = random_instance(rng)
        state, _ = run(bundle, registry, PropagationConfig(max_iters=50))
        observed = bundle.attrs.status == Status.OBSERVED
        np.testing.assert_array_equal(state.values[observed], bundle.attrs.values[observed])

    def test_synchronous_determinism(self):
        rng = np.random.default_rng(32)
        bundle, registry = random_instance(rng)
        cfg = PropagationConfig(max_iters=60)
        s1, r1 = run(bundle, registry, cfg)
        s2, r2 = run(bundle, registry, cfg)
        np.testing.assert_array_equal(s1.values, s2.values)
        assert r1.trace == r2.trace

    def test_engine_matches_per_target_aggregation(self):
        rng = np.random.default_rng(33)
        bundle, registry = random_instance(rng)
        cfg = PropagationConfig(damping=1.0, max_iters=1)
        from mrap.propagation import _init_values

        init = _init_values(bundle)
        state, report = run(bundle, registry, cfg)
        attrs = bundle.attrs
        for t, n_msgs in zip(report.target_entries, report.n_messages):
            target = (int(attrs.entity_ids[t]), int(attrs.attr_ids[t]))
            msgs = collect_messages(bundle, registry, init, target, cfg)
            assert len(msgs) == n_msgs
            if msgs:
                assert state.values[t] == pytest.approx(aggregate(msgs), rel=1e-12, abs=1e-12)

    def test_nonconvergence_reported_not_raised(self):
        # two missing nodes amplifying each other through parallel relations
        bundle = make_bundle(
            [("u", "p", "v"), ("v", "q", "u")],
            {("anchor1", "t"): 0.0, ("anchor2", "t"): 1.0},
            {("u", "t"): 0.0, ("v", "t"): 0.0},
            attr_order=("t",),
        )
        registry = registry_of(
            make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 3.0, 1.0, 1.0),
            make_model(PathKey.relational(0, 0, 1, Direction.FORWARD), 3.0, 1.0, 1.0),
        )
        state, report = run(bundle, registry, PropagationConfig(max_iters=30))
        assert not state.converged
        assert report.iterations == 30

    def test_warm_start_keeps_fixed_point_for_any_damping(self):
        rng = np.random.default_rng(34)
        bundle, registry = random_instance(rng)
        solution = fixed_point_oracle(bundle, registry, PropagationConfig())
        attrs = bundle.attrs
        fixed = attrs.values.copy()
        for t in bundle.target_indices():
            fixed[t] = solution[(int(attrs.entity_ids[t]), int(attrs.attr_ids[t]))]
        for damping in (0.25, 0.5, 1.0):
            cfg = PropagationConfig(damping=damping, conv_frac=1e-9, max_iters=5)
            state, _ = run(bundle, registry, cfg, initial=fixed)
            assert state.converged
            np.testing.assert_allclose(state.values, fixed, rtol=1e-9, atol=1e-9)

    def test_no_targets_converges_immediately(self):
        bundle = make_bundle([("a", "p", "b")], {("a", "v"): 1.0, ("b", "v"): 2.0})
        state, report = run(bundle, registry_of(), PropagationConfig())
        assert state.converged
        assert report.n_targets == 0
        np.testing.assert_array_equal(state.values, bundle.attrs.values)

    def test_imputed_table_marks_targets(self):
        from mrap.attributes import Status
        from mrap.propagation import imputed_table

        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-9)
        state, _ = run(bundle, registry_of(model), PropagationConfig(conv_frac=1e-9, max_iters=500))
        table = imputed_table(bundle, state)
        idx = entry_index(bundle, "b", "v")
        assert table.status[idx] == Status.IMPUTED
        assert table.values[idx] == state.values[idx]
        # source table untouched
        assert bundle.attrs.status[idx] == Status.MISSING

    def test_trace_rows_cover_target_types(self):
        bundle = _chain_bundle()
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 25.0, 0.5)
        _, report = run(bundle, registry_of(model), PropagationConfig())
        assert report.trace
        iters = [row[0] for row in report.trace]
        assert iters == sorted(iters)
        assert {row[1] for row in report.trace} == {"v"}


class TestFixedPointOracle:
    def test_two_node_chain_exact(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-9)
        solution = fixed_point_oracle(bundle, registry_of(model), PropagationConfig())
        assert solution[target_of(bundle, "b", "v")] == 3.0

    def test_three_node_path_exact(self):
        bundle = make_bundle(
            [("a", "p", "b"), ("b", "p", "c")],
            {("a", "v"): 0.0},
            {("b", "v"): 0.0, ("c", "v"): 0.0},
            attr_order=("v",),
        )
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 1.0, 1.0)
        solution = fixed_point_oracle(bundle, registry_of(fwd, derive_reverse(fwd)), PropagationConfig())
        assert solution[target_of(bundle, "b", "v")] == pytest.approx(1.0, abs=1e-12)
        assert solution[target_of(bundle, "c", "v")] == pytest.approx(2.0, abs=1e-12)

    def test_run_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(35)
        cfg = PropagationConfig(conv_frac=1e-9, max_iters=3000)
        checked = 0
        for _ in range(20):
            bundle, registry = random_instance(rng)
            state, report = run(bundle, registry, cfg)
            if not state.converged:
                continue
            try:
                solution = fixed_point_oracle(bundle, registry, cfg)
            except SingularSystemError:
                # a forward model plus its derived reverse between two
                # otherwise isolated targets is one constraint for two
                # unknowns; the iteration settles somewhere on the solution
                # line but no unique fixed point exists to compare against
                continue
            attrs = bundle.attrs
            for t in report.target_entries:
                attr = int(attrs.attr_ids[t])
                tol = 1e-6 * max(attrs.value_range(attr), 1.0)
                want = solution[(int(attrs.entity_ids[t]), attr)]
                assert abs(state.values[t] - want) < tol
            checked += 1
        assert checked >= 10  # most random instances must actually converge

    def test_singular_component_named(self):
        # two targets that only copy each other: translation-invariant system
        bundle = make_bundle(
            [("u", "p", "v")],
            {("anchor1", "t"): 0.0, ("anchor2", "t"): 4.0},
            {("u", "t"): 0.0, ("v", "t"): 0.0},
            attr_order=("t",),
        )
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 0.0, 1.0)
        with pytest.raises(SingularSystemError) as err:
            fixed_point_oracle(bundle, registry_of(fwd, derive_reverse(fwd)), PropagationConfig())
        assert sorted(err.value.targets) == [("u", "t"), ("v", "t")]

    def test_silent_targets_fixed_at_init_mean(self):
        bundle = make_bundle(
            [],
            {("a", "h"): 10.0, ("b", "h"): 20.0},
            {("loner", "h"): 0.0},
            attr_order=("h",),
        )
        solution = fixed_point_oracle(bundle, registry_of(), PropagationConfig())
        assert solution[target_of(bundle, "loner", "h")] == 15.0


class TestLoss:
    def _stationary_setup(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-6)
        return bundle, registry_of(model)

    def test_perturbing_the_fixed_point_increases_loss(self):
        bundle, registry = self._stationary_setup()
        cfg = PropagationConfig()
        solution = fixed_point_oracle(bundle, registry, cfg)
        values = bundle.attrs.values.copy()
        idx = entry_index(bundle, "b", "v")
        values[idx] = solution[target_of(bundle, "b", "v")]
        base = loss(bundle, registry, values, cfg)
        for delta in (0.1, -0.1):
            perturbed = values.copy()
            perturbed[idx] += delta
            assert loss(bundle, registry, perturbed, cfg) > base

    def test_zero_residual_data_has_near_zero_loss(self):
        bundle, registry = self._stationary_setup()
        values = bundle.attrs.values.copy()
        values[entry_index(bundle, "b", "v")] = 3.0  # exactly on the fitted line
        assert loss(bundle, registry, values, PropagationConfig()) == pytest.approx(0.0, abs=1e-18)

    def test_loss_recorded_per_iteration(self):
        bundle, registry = self._stationary_setup()
        _, report = run(bundle, registry, PropagationConfig(max_iters=20))
        losses = [row[3] for row in report.trace]
        assert len(losses) >= 2
        assert losses[-1] <= losses[0]

    def test_trace_loss_equals_loss_over_all_paths(self):
        # the compiled loss is a quadratic form centered on the initial values
        rng = np.random.default_rng(39)
        for _ in range(10):
            bundle, registry = random_instance(rng, quirks=True)
            for cfg in (PropagationConfig(max_iters=1), PropagationConfig(no_inner=True, max_iters=7)):
                state, report = run(bundle, registry, cfg)
                want = loss(bundle, registry, state, cfg)
                assert report.trace[-1][3] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_trace_loss_equals_loss_at_year_magnitudes(self):
        # values near 2000 with residuals of a few units: an uncentered form
        # of the loss would lose digits to cancellation here
        generate = bench_generate()
        spec = generate.GraphSpec(
            entities=1500, edges_per_entity=5, relations=10, noise_relations=0, types=3, density=0.5
        )
        edges, values, present = generate.generate(spec, seed=5)
        triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in edges.tolist()]
        ents, types = np.nonzero(present)
        rows = [(f"e{e}", f"a{k}", float(values[e, k])) for e, k in zip(ents.tolist(), types.tolist())]
        bundle = split_attributes(*load_dataset(triples, rows), SplitSpec(seed=5))
        bundle = subsample_observed(bundle, 0.2, seed=5)
        registry = build_registry(bundle, AdmissionConfig())
        assert np.median(np.abs(bundle.attrs.values)) > 1900.0
        for k in (1, 2, 5, 10, 20, 40):
            cfg = PropagationConfig(conv_frac=1e-12, max_iters=k)
            state, report = run(bundle, registry, cfg)
            assert state.iteration == k
            want = loss(bundle, registry, state, cfg)
            assert report.trace[-1][3] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_no_cross_admits_fewer_paths_than_no_inner(self):
        rng = np.random.default_rng(36)
        found = False
        for _ in range(10):
            bundle, registry = random_instance(rng)
            _, r_inner = run(bundle, registry, PropagationConfig(no_inner=True, max_iters=1))
            _, r_cross = run(bundle, registry, PropagationConfig(no_cross=True, max_iters=1))
            assert int(r_cross.n_messages.sum()) <= int(r_inner.n_messages.sum())
            if int(r_cross.n_messages.sum()) < int(r_inner.n_messages.sum()):
                found = True
        assert found
