import io
import tracemalloc

import numpy as np
import pytest

from helpers import (
    ABLATIONS,
    IMPUTED,
    SingularSystemError,
    _build_paths,
    _link,
    ablated,
    aggregate,
    bench_bundle,
    collect_messages,
    combine,
    derive_reverse,
    entry_index,
    fixed_point_oracle,
    imputed_table,
    index,
    init_values,
    loss,
    make_bundle,
    make_model,
    random_instance,
    reference_write_trace,
    registry_of,
    target_of,
)

from mrap.attributes import Status
from mrap.graph import Direction
from mrap import propagation
from mrap.propagation import (
    PropagationConfig,
    _compile,
    _jagged,
    _Operator,
    _paths,
    run,
)
from mrap.regression import AdmissionConfig, PathKey, build_registry, incidences, inflow, ragged

# product chunk sizes: a chunk edge between every two slots, inside runs of
# narrow slots, and the default, next to any slot wider than it
BLOCKS = (1, 7, propagation.BLOCK)


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
        msgs = collect_messages(bundle, registry, values, target_of(bundle, "b", "v"))
        assert len(msgs) == 1
        assert msgs[0].prediction == 1964.0
        assert msgs[0].weight == 2.0

    def test_untracked_target_rejected(self):
        bundle = _chain_bundle()
        with pytest.raises(ValueError):
            collect_messages(bundle, registry_of(), bundle.attrs.values, (0, 99))

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
        msgs = collect_messages(bundle, registry, bundle.attrs.values, target_of(bundle, "b", "y"))
        kinds = {(m.key.is_inner, m.key.dep != m.key.indep) for m in msgs}
        assert len(msgs) == 3
        assert kinds == {(False, True), (False, False), (True, True)}

    def test_no_inner_filter(self):
        bundle, registry = self._cross_setup()
        msgs = collect_messages(bundle, ablated(registry, "no_inner"), bundle.attrs.values, target_of(bundle, "b", "y"))
        assert len(msgs) == 2
        assert all(not m.key.is_inner for m in msgs)

    def test_no_cross_filter_subsumes_no_inner(self):
        bundle, registry = self._cross_setup()
        msgs = collect_messages(bundle, ablated(registry, "no_cross"), bundle.attrs.values, target_of(bundle, "b", "y"))
        assert len(msgs) == 1
        only = msgs[0].key
        assert not only.is_inner and only.dep == only.indep


def _oracle_paths(bundle, registry):
    """Sorted (src entry, tgt entry, eta, tau, weight) of every message, per target."""
    attrs = bundle.attrs
    entry_of = index(attrs)
    out = []
    for tgt in range(attrs.n_entries):
        target = (int(attrs.entity_ids[tgt]), int(attrs.attr_ids[tgt]))
        for msg in collect_messages(bundle, registry, attrs.values, target):
            src = entry_of[(msg.source_entity, msg.key.indep)]
            model = registry.models[msg.key]
            out.append((src, tgt, model.eta, model.tau, model.weight))
    return sorted(out)


class TestBuildPaths:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_join_matches_per_target_oracle(self, ablation):
        # self-loops, parallel edges, attribute-less and isolated entities
        rng = np.random.default_rng(37)
        for _ in range(15):
            bundle, registry = random_instance(rng, quirks=True)
            registry = ablated(registry, ablation)
            paths = _build_paths(bundle, registry)
            got = sorted(zip(*(column.tolist() for column in paths)))
            assert got == _oracle_paths(bundle, registry)

    def test_no_models_no_paths(self):
        rng = np.random.default_rng(38)
        bundle, _ = random_instance(rng, quirks=True)
        assert _build_paths(bundle, registry_of()).n == 0


@pytest.fixture(scope="module")
def sparse_mix_2000():
    """The sparse-mix shape at 2,000 entities, and its registry."""
    bundle = bench_bundle(
        3, 0.2, entities=2000, edges_per_entity=5, relations=20, noise_relations=0, types=6, density=0.5
    )
    return bundle, build_registry(bundle, AdmissionConfig())


class TestTargetMajorCompile:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_paths_are_the_edge_major_oracle_sorted_by_target(self, ablation):
        # self-loops, parallel edges, attribute-less and attribute-only
        # entities, relations without models
        rng = np.random.default_rng(41)
        for _ in range(25):
            bundle, registry = random_instance(rng, quirks=True)
            registry = ablated(registry, ablation)
            attrs, n = bundle.attrs, bundle.attrs.n_entries
            src, tgt, mid, params = _link(bundle, registry)
            order = np.argsort(tgt, kind="stable")
            inc = incidences(bundle.graph, registry, attrs)
            np.testing.assert_array_equal(inc.params, params)
            # blocks cut at any entity boundaries give the same paths
            cuts = np.sort(rng.choice(inc.entries, size=3)).tolist()
            blocks = []
            for t0, t1 in zip([0] + cuts, cuts + [n]):
                block_src, row, block_mid = _paths(inc, attrs, np.arange(t0, t1))
                blocks.append((block_src, t0 + row, block_mid))
            for got, want in zip(zip(*blocks), (src, tgt, mid)):
                np.testing.assert_array_equal(np.concatenate(got), want[order])
            # as do the paths into any ascending subset of the entries
            subset = np.flatnonzero(rng.random(n) < 0.5)
            subset_src, row, subset_mid = _paths(inc, attrs, subset)
            into = np.isin(tgt[order], subset)
            for got, want in zip((subset_src, subset[row], subset_mid), (src, tgt, mid)):
                np.testing.assert_array_equal(got, want[order][into])
            # the plan counts every entry's messages, and those from any sources
            np.testing.assert_array_equal(inflow(inc, attrs, np.ones(n, dtype=bool)), np.bincount(tgt, minlength=n))
            sources = rng.random(n) < 0.5
            np.testing.assert_array_equal(inflow(inc, attrs, sources), np.bincount(tgt[sources[src]], minlength=n))

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_product_is_bit_equal_to_bincount_over_the_oracle_paths(self, ablation, monkeypatch):
        rng = np.random.default_rng(42)
        for _ in range(25):
            bundle, registry = random_instance(rng, quirks=True)
            registry = ablated(registry, ablation)
            n = bundle.attrs.n_entries
            op, n_msgs, weight_sum = _compile(bundle, registry, PropagationConfig(), init_values(bundle))
            src, tgt, mid, (eta, _, weight) = _link(bundle, registry)
            row_of = np.full(n, len(op.live))
            row_of[op.live] = np.arange(len(op.live))
            live = (row_of[src] < len(op.live)) & (row_of[tgt] < len(op.live))
            a = weight[mid[live]] * eta[mid[live]] / weight_sum[tgt[live]]
            x = rng.normal(size=n) * 1e3
            want = np.bincount(row_of[tgt[live]], weights=a * x[src[live]], minlength=len(op.live))
            for block in BLOCKS:
                with monkeypatch.context() as patch:
                    patch.setattr(propagation, "BLOCK", block)
                    got = op.product(x)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            targets = bundle.target_indices()
            np.testing.assert_array_equal(n_msgs[targets], np.bincount(tgt, minlength=n)[targets])

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_operator_terms_are_the_oracle_path_sums(self, ablation):
        # q and c bit for bit as bincount over the oracle paths in target-major
        # order; loss0 against a direct evaluation over the live rows' in-paths
        rng = np.random.default_rng(46)
        for _ in range(25):
            bundle, registry = random_instance(rng, quirks=True)
            registry = ablated(registry, ablation)
            n, targets = bundle.attrs.n_entries, bundle.target_indices()
            values = init_values(bundle)
            values[targets] += rng.normal(size=len(targets))
            op, _, q = _compile(bundle, registry, PropagationConfig(), values)
            src, tgt, mid, (eta, tau, weight) = _link(bundle, registry)
            order = np.argsort(tgt, kind="stable")
            src, tgt, w, e, t = src[order], tgt[order], weight[mid[order]], eta[mid[order]], tau[mid[order]]
            want_q = np.bincount(tgt, weights=w, minlength=n)
            np.testing.assert_array_equal(q[targets].view(np.int64), want_q[targets].view(np.int64))
            fixed = values.copy()
            fixed[op.live] = 0.0
            want_c = np.bincount(tgt, weights=(e * fixed[src] + t) * w / want_q[tgt], minlength=n)[op.live]
            np.testing.assert_array_equal(op.c.view(np.int64), want_c.view(np.int64))

            live = np.zeros(n, dtype=bool)
            live[op.live] = True
            r0 = values[tgt] - (e * values[src] + t)
            counted = np.where(live[tgt], np.where(live[src], 1.0, 2.0), 0.0)  # a fixed source's path, and its mirror
            assert op.loss0 == pytest.approx(float((counted * w * r0 * r0).sum()), rel=1e-12, abs=1e-300)

    def test_the_plan_counts_past_eight_types(self):
        # ten types take two bytes of type bits per entity and per model row
        bundle = bench_bundle(5, 0.5, entities=300, edges_per_entity=3, relations=4, noise_relations=0, types=10, density=0.6)
        registry = build_registry(bundle, AdmissionConfig())
        attrs, n = bundle.attrs, bundle.attrs.n_entries
        src, tgt, _, _ = _link(bundle, registry)
        assert len(tgt) > 0 and attrs.n_types == 10
        inc = incidences(bundle.graph, registry, attrs)
        np.testing.assert_array_equal(inflow(inc, attrs, np.ones(n, dtype=bool)), np.bincount(tgt, minlength=n))
        sources = np.random.default_rng(50).random(n) < 0.5
        np.testing.assert_array_equal(inflow(inc, attrs, sources), np.bincount(tgt[sources[src]], minlength=n))

    def test_an_empty_block_has_no_paths(self):
        bundle, registry = random_instance(np.random.default_rng(48), quirks=True)
        inc = incidences(bundle.graph, registry, bundle.attrs)
        for t in (0, int(inc.entries[len(inc.entries) // 2]), bundle.attrs.n_entries):
            for column in _paths(inc, bundle.attrs, np.arange(t, t)):
                assert column.dtype == np.int64 and column.shape == (0,)

    def test_blocks_of_one_target_build_the_same_operator(self, monkeypatch):
        # "c" carries no entries and comes last; with BLOCK 1, each block is one live target
        triples = [("a", "p", "b"), ("d", "p", "b"), ("b", "p", "c")]
        bundle = make_bundle(triples, {("a", "v"): 1.0, ("d", "v"): 3.0}, {("b", "v"): 0.0}, attr_order=("v",))
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1.0)
        instances = [(bundle, registry_of(fwd, derive_reverse(fwd)))]
        rng = np.random.default_rng(49)
        instances += [random_instance(rng, quirks=True) for _ in range(10)]
        for bundle, registry in instances:
            values = init_values(bundle)
            want, _, want_q = _compile(bundle, registry, PropagationConfig(), values)
            with monkeypatch.context() as patch:
                patch.setattr(propagation, "BLOCK", 1)
                got, _, q = _compile(bundle, registry, PropagationConfig(), values)
            for field in ("live", "src", "a", "c", "q"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            np.testing.assert_array_equal(q, want_q)
            assert got.loss0 == pytest.approx(want.loss0, rel=1e-12, abs=1e-12)

    def test_incidence_order_past_one_radix_digit(self):
        # more than 2**16 entities: the incidences are ordered in two stable
        # 16-bit passes, with no combined (entity, edge) code to overflow
        rng = np.random.default_rng(47)
        n = 70_000
        heads, tails = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
        triples = [(f"e{h}", "r", f"e{t}") for h, t in zip(heads.tolist(), tails.tolist())]
        observed = {(f"e{e}", "v"): float(e % 7) for e in range(0, n, 2)}
        missing = {(f"e{e}", "v"): 0.0 for e in range(1, n, 2)}
        bundle = make_bundle(triples, observed, missing, attr_order=("v",))
        assert bundle.graph.n_entities > 2**16
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 0.5, 1.0, 1.0)
        registry = registry_of(fwd, derive_reverse(fwd))
        src, tgt, mid, _ = _link(bundle, registry)
        order = np.argsort(tgt, kind="stable")
        inc = incidences(bundle.graph, registry, bundle.attrs)
        for got, want in zip(_paths(inc, bundle.attrs, np.arange(bundle.attrs.n_entries)), (src, tgt, mid)):
            np.testing.assert_array_equal(got, want[order])

    def test_empty_registry_has_no_paths_and_no_live_rows(self):
        bundle, _ = random_instance(np.random.default_rng(43), quirks=True)
        inc = incidences(bundle.graph, registry_of(), bundle.attrs)
        src, tgt, mid = _paths(inc, bundle.attrs, np.arange(bundle.attrs.n_entries))
        assert len(src) == len(tgt) == len(mid) == 0
        op, n_msgs, _ = _compile(bundle, registry_of(), PropagationConfig(), init_values(bundle))
        assert len(op.live) == 0 and op.widths == [] and op.product(init_values(bundle)).shape == (0,)
        assert not n_msgs.any()

    def test_paths_only_into_observed_entries_leave_no_live_rows(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("b", "v"): 5.0},
            {("loner", "v"): 0.0},
            attr_order=("v",),
        )
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1.0)
        registry = registry_of(fwd, derive_reverse(fwd))
        values, report = run(bundle, registry, PropagationConfig())
        assert report.converged and report.n_silent == 1
        assert loss(bundle, registry, values) > 0.0
        assert report.losses[-1] == loss(bundle, registry, values, skip_fixed=True) == 0.0  # every path joins two fixed entries

    def test_plan_counts_bits_without_numpy_2(self, monkeypatch):
        # np.bitwise_count is NumPy 2 only; the package supports numpy>=1.24
        bundle, registry = random_instance(np.random.default_rng(45), quirks=True)
        want, _ = run(bundle, registry)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        got, _ = run(bundle, registry)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_block_that_misses_its_plan_raises(self, monkeypatch):
        bundle, registry = random_instance(np.random.default_rng(44), quirks=True)
        assert _build_paths(bundle, registry).n > 0
        build = propagation._paths
        monkeypatch.setattr(propagation, "_paths", lambda *args: tuple(column[1:] for column in build(*args)))
        with pytest.raises(RuntimeError, match="planned"):
            run(bundle, registry)

    def test_run_peak_memory_is_a_small_multiple_of_the_operator(self, sparse_mix_2000):
        # sparse-mix shape at 2,000 entities: the operator, the per-edge plan and
        # one block's paths peak at 2.9x the operator's bytes; a compile that
        # holds every path at once, as one edge-major join does, peaks near 5x
        bundle, registry = sparse_mix_2000
        op = _compile(bundle, registry, PropagationConfig(), init_values(bundle))[0]
        op_bytes = sum(field.nbytes for field in op if isinstance(field, np.ndarray))
        del op
        tracemalloc.start()
        try:
            run(bundle, registry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * op_bytes

    def test_a_product_holds_one_chunk_of_terms(self, sparse_mix_2000, monkeypatch):
        # the chunk's terms, the row sums and the result; a product that
        # gathers every term at once peaks near 8 (len(a) + 2 len(live))
        bundle, registry = sparse_mix_2000
        values = init_values(bundle)
        op = _compile(bundle, registry, PropagationConfig(), values)[0]
        monkeypatch.setattr(propagation, "BLOCK", 64)
        tracemalloc.start()
        try:
            op.product(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(op.a) > 2 * op.widths[0]  # a whole gather would break the bound
        assert peak <= 8 * (max(64, op.widths[0]) + 2 * len(op.live)) + 4096


class TestJaggedSweep:
    """``A x`` as a slice-add per jagged diagonal adds what ``bincount`` adds, in its order."""

    @staticmethod
    def assert_sweep_is_bincount(degree, terms):
        degree = np.asarray(degree, dtype=np.int64)
        rows, k = ragged(degree)  # each row's terms in order
        rank, widths, start = _jagged(degree)
        a = np.empty(len(terms))
        a[start[k] + rank[rows]] = terms
        op = _Operator(np.arange(len(degree)), np.zeros(len(terms), dtype=np.int64), a, rank, widths, *[None] * 5)
        want = np.bincount(rows, weights=terms, minlength=len(degree))
        for block in BLOCKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(propagation, "BLOCK", block)
                got = op.product(np.ones(1))
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_random_operators(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            degree = rng.integers(0, 9, n) * (rng.random(n) < 0.8)  # some rows with no live source
            m = int(degree.sum())
            self.assert_sweep_is_bincount(degree, rng.normal(size=m) * 10.0 ** rng.integers(-12, 12, m))

    def test_one_row_holds_every_entry(self):
        rng = np.random.default_rng(46)
        self.assert_sweep_is_bincount([0, 0, 57, 0], rng.normal(size=57) * 10.0 ** rng.integers(-12, 12, 57))

    def test_negative_zero_terms(self):
        # from zero, rows of -0.0 terms sum to +0.0, as bincount's do
        self.assert_sweep_is_bincount([1, 2, 0, 3, 1], [-0.0, -0.0, -0.0, 1.5, -0.0, -1.5, -0.0])


class TestRun:
    def test_two_node_chain(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-9)
        registry = registry_of(model, derive_reverse(model))  # the reverse flows into the observed a
        values, report = run(bundle, registry, PropagationConfig(conv_frac=1e-9, max_iters=500))
        assert report.converged
        assert values[entry_index(bundle, "b", "v")] == pytest.approx(3.0, abs=1e-8)
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
        values, report = run(bundle, registry, PropagationConfig(max_iters=1000))
        assert report.converged
        assert values[entry_index(bundle, "b", "v")] == pytest.approx(1.0, abs=1e-9)
        assert values[entry_index(bundle, "c", "v")] == pytest.approx(2.0, abs=1e-9)

    def test_isolated_target_stays_at_global_mean(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "height"): 10.0, ("b", "height"): 20.0},
            {("loner", "height"): 0.0},
            attr_order=("height",),
        )
        values, report = run(bundle, registry_of(), PropagationConfig())
        assert report.converged
        assert values[entry_index(bundle, "loner", "height")] == 15.0
        assert report.n_silent == 1

    def test_observed_entries_clamped_bit_exact(self):
        rng = np.random.default_rng(31)
        bundle, registry = random_instance(rng)
        values, report = run(bundle, registry, PropagationConfig(max_iters=50))
        observed = bundle.attrs.status == Status.OBSERVED
        np.testing.assert_array_equal(values[observed], bundle.attrs.values[observed])

    def test_synchronous_determinism(self):
        rng = np.random.default_rng(32)
        bundle, registry = random_instance(rng)
        cfg = PropagationConfig(max_iters=60)
        s1, r1 = run(bundle, registry, cfg)
        s2, r2 = run(bundle, registry, cfg)
        np.testing.assert_array_equal(s1, s2)
        assert r1.types == r2.types
        np.testing.assert_array_equal(r1.deltas, r2.deltas)
        np.testing.assert_array_equal(r1.losses, r2.losses)

    def test_engine_matches_per_target_aggregation(self):
        rng = np.random.default_rng(33)
        bundle, registry = random_instance(rng)
        cfg = PropagationConfig(damping=1.0, max_iters=1)
        init = init_values(bundle)
        values, report = run(bundle, registry, cfg)
        attrs = bundle.attrs
        for t, n_msgs in zip(report.target_entries, report.n_messages):
            target = (int(attrs.entity_ids[t]), int(attrs.attr_ids[t]))
            msgs = collect_messages(bundle, registry, init, target)
            assert len(msgs) == n_msgs
            if msgs:
                assert values[t] == pytest.approx(aggregate(msgs), rel=1e-12, abs=1e-12)

    def test_nonconvergence_reported_not_raised(self):
        # two missing nodes on an undamped two-relation cycle, each copying
        # the other: from 0 and 1 they swap their values every iteration
        bundle = make_bundle(
            [("u", "p", "v"), ("v", "q", "u")],
            {("anchor1", "t"): 0.0, ("anchor2", "t"): 1.0},
            {("u", "t"): 0.0, ("v", "t"): 0.0},
            attr_order=("t",),
        )
        models = [make_model(PathKey.relational(0, 0, r, Direction.FORWARD), 1.0, 0.0, 1.0) for r in (0, 1)]
        registry = registry_of(*models, *map(derive_reverse, models))
        initial = init_values(bundle)
        initial[entry_index(bundle, "u", "t")], initial[entry_index(bundle, "v", "t")] = 0.0, 1.0
        values, report = run(bundle, registry, PropagationConfig(damping=1.0, max_iters=30), initial=initial)
        assert not report.converged
        assert report.iterations == 30
        np.testing.assert_array_equal(report.deltas, 1.0)

    def test_warm_start_keeps_fixed_point_for_any_damping(self):
        rng = np.random.default_rng(34)
        bundle, registry = random_instance(rng)
        solution = fixed_point_oracle(bundle, registry)
        attrs = bundle.attrs
        fixed = attrs.values.copy()
        for t in bundle.target_indices():
            fixed[t] = solution[(int(attrs.entity_ids[t]), int(attrs.attr_ids[t]))]
        for damping in (0.25, 0.5, 1.0):
            cfg = PropagationConfig(damping=damping, conv_frac=1e-9, max_iters=5)
            values, report = run(bundle, registry, cfg, initial=fixed)
            assert report.converged
            np.testing.assert_allclose(values, fixed, rtol=1e-9, atol=1e-9)

    def test_no_targets_converges_immediately(self):
        bundle = make_bundle([("a", "p", "b")], {("a", "v"): 1.0, ("b", "v"): 2.0})
        values, report = run(bundle, registry_of(), PropagationConfig())
        assert report.converged
        assert report.n_targets == 0
        np.testing.assert_array_equal(values, bundle.attrs.values)

    def test_triples_without_attribute_entries_converge_immediately(self):
        bundle = make_bundle([("a", "p", "b"), ("b", "p", "b")], {})
        assert bundle.attrs.n_types == bundle.attrs.n_entries == 0
        values, report = run(bundle, registry_of(), PropagationConfig())
        assert report.converged and values.shape == (0,)
        assert report.n_targets == 0 and report.types == [] and report.deltas.size == 0

    def test_imputed_table_marks_targets(self):
        from mrap.attributes import Status

        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-9)
        registry = registry_of(model, derive_reverse(model))
        values, report = run(bundle, registry, PropagationConfig(conv_frac=1e-9, max_iters=500))
        table = imputed_table(bundle, values)
        idx = entry_index(bundle, "b", "v")
        assert table.status[idx] == IMPUTED
        assert table.values[idx] == values[idx]
        # source table untouched
        assert bundle.attrs.status[idx] == Status.MISSING

    def test_trace_rows_cover_target_types(self):
        bundle = _chain_bundle()
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 25.0, 0.5)
        _, report = run(bundle, registry_of(model, derive_reverse(model)), PropagationConfig())
        assert report.types == ["v"]
        assert report.deltas.shape == (report.iterations, 1) == (len(report.losses), 1)


class TestStopRule:
    """The run stops at the first iteration at which every target type meets its tolerance.

    Type ``v`` (id 0) has observed values 0 and 100, so a tolerance of 0.1;
    type ``c`` (id 1) is constant, so its range and tolerance are 0 and it
    meets its tolerance only on a delta of exactly 0. Target ``tv`` hears
    only from ``ov`` and ``t1`` only from ``oc``, each under a copy model
    and its mirror.
    """

    @staticmethod
    def _bundle():
        triples = [("ov", "p", "tv"), ("oc", "p", "t1")]
        observed = {("ov", "v"): 100.0, ("anchor", "v"): 0.0, ("oc", "c"): 5.0, ("anchor", "c"): 5.0}
        missing = {("tv", "v"): 0.0, ("t1", "c"): 0.0}
        bundle = make_bundle(triples, observed, missing, attr_order=("v", "c"))
        models = [make_model(PathKey.relational(t, t, 0, Direction.FORWARD), 1.0, 0.0, 1.0) for t in (0, 1)]
        return bundle, registry_of(*models, *map(derive_reverse, models))

    @staticmethod
    def _trace_rows(tmp_path, report) -> list[str]:
        propagation.write_trace(tmp_path / "trace.csv", report)
        text = (tmp_path / "trace.csv").read_text()
        reference = io.StringIO()
        reference_write_trace(reference, report)
        assert text == reference.getvalue()
        return text.splitlines()[1:]

    # a delta equal to the tolerance does not meet it: at 2**-10 the
    # tolerance is 25 / 2**8, the delta of iteration 9
    @pytest.mark.parametrize("conv_frac, iterations", [(0.001, 9), (2.0**-10, 10)])
    def test_constant_type_waits_for_the_other(self, tmp_path, conv_frac, iterations):
        # c is at its fixed point from the start; v halves its distance each
        # iteration, from a delta of 25 to 25 / 2**8 < 0.1 at iteration 9
        bundle, registry = self._bundle()
        _, report = run(bundle, registry, PropagationConfig(damping=0.5, conv_frac=conv_frac))
        assert report.converged and report.iterations == iterations
        assert report.types == ["v", "c"]
        np.testing.assert_array_equal(report.deltas[:, 1], 0.0)
        np.testing.assert_array_equal(report.deltas[:, 0], 25.0 / 2.0 ** np.arange(iterations))
        rows = self._trace_rows(tmp_path, report)
        assert [row.split(",")[:2] for row in rows] == [[str(k), t] for k in range(1, iterations + 1) for t in ("v", "c")]
        # the loss is v's residual 100 - 75, squared, on the path into tv and on its mirror out of it
        assert rows[:2] == ["1,v,25,1250", "1,c,0,1250"]

    def test_other_type_waits_for_the_constant_one(self, tmp_path):
        # v meets its tolerance at iteration 9; c starts at 7 and halves its
        # distance to 5 each iteration until it rounds onto 5 at iteration
        # 52, and shows a delta of 0 at iteration 53
        bundle, registry = self._bundle()
        initial = init_values(bundle)
        initial[entry_index(bundle, "t1", "c")] = 7.0
        _, report = run(bundle, registry, PropagationConfig(damping=0.5), initial=initial)
        assert report.converged and report.iterations == 53
        v, c = report.deltas.T
        assert v[7] > 0.1 > v[8] and (c[:-1] > 0.0).all() and c[-1] == 0.0
        np.testing.assert_array_equal(c[:51], 2.0 ** -np.arange(51))
        rows = self._trace_rows(tmp_path, report)
        assert [row.split(",")[:3] for row in rows[-1:]] == [["53", "c", "0"]]

    def test_a_constant_type_that_keeps_moving_does_not_converge(self):
        bundle, registry = self._bundle()
        initial = init_values(bundle)
        initial[entry_index(bundle, "t1", "c")] = 7.0
        _, report = run(bundle, registry, PropagationConfig(damping=0.5, max_iters=52), initial=initial)
        assert not report.converged and report.iterations == 52


class TestFixedPointOracle:
    def test_two_node_chain_exact(self):
        bundle = make_bundle(
            [("a", "p", "b")],
            {("a", "v"): 1.0, ("anchor", "v"): 0.0},
            {("b", "v"): 0.0},
            attr_order=("v",),
        )
        model = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 2.0, 1.0, 1e-9)
        solution = fixed_point_oracle(bundle, registry_of(model))
        assert solution[target_of(bundle, "b", "v")] == 3.0

    def test_three_node_path_exact(self):
        bundle = make_bundle(
            [("a", "p", "b"), ("b", "p", "c")],
            {("a", "v"): 0.0},
            {("b", "v"): 0.0, ("c", "v"): 0.0},
            attr_order=("v",),
        )
        fwd = make_model(PathKey.relational(0, 0, 0, Direction.FORWARD), 1.0, 1.0, 1.0)
        solution = fixed_point_oracle(bundle, registry_of(fwd, derive_reverse(fwd)))
        assert solution[target_of(bundle, "b", "v")] == pytest.approx(1.0, abs=1e-12)
        assert solution[target_of(bundle, "c", "v")] == pytest.approx(2.0, abs=1e-12)

    def test_run_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(35)
        cfg = PropagationConfig(conv_frac=1e-9, max_iters=3000)
        checked = 0
        for _ in range(20):
            bundle, registry = random_instance(rng)
            values, report = run(bundle, registry, cfg)
            if not report.converged:
                continue
            try:
                solution = fixed_point_oracle(bundle, registry)
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
                assert abs(values[t] - want) < tol
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
            fixed_point_oracle(bundle, registry_of(fwd, derive_reverse(fwd)))
        assert sorted(err.value.targets) == [("u", "t"), ("v", "t")]

    def test_silent_targets_fixed_at_init_mean(self):
        bundle = make_bundle(
            [],
            {("a", "h"): 10.0, ("b", "h"): 20.0},
            {("loner", "h"): 0.0},
            attr_order=("h",),
        )
        solution = fixed_point_oracle(bundle, registry_of())
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
        return bundle, registry_of(model, derive_reverse(model))

    def test_perturbing_the_fixed_point_increases_loss(self):
        bundle, registry = self._stationary_setup()
        solution = fixed_point_oracle(bundle, registry)
        values = bundle.attrs.values.copy()
        idx = entry_index(bundle, "b", "v")
        values[idx] = solution[target_of(bundle, "b", "v")]
        base = loss(bundle, registry, values)
        for delta in (0.1, -0.1):
            perturbed = values.copy()
            perturbed[idx] += delta
            assert loss(bundle, registry, perturbed) > base

    def test_zero_residual_data_has_near_zero_loss(self):
        bundle, registry = self._stationary_setup()
        values = bundle.attrs.values.copy()
        values[entry_index(bundle, "b", "v")] = 3.0  # exactly on the fitted line
        assert loss(bundle, registry, values) == pytest.approx(0.0, abs=1e-18)

    def test_loss_recorded_per_iteration(self):
        bundle, registry = self._stationary_setup()
        _, report = run(bundle, registry, PropagationConfig(max_iters=20))
        losses = report.losses
        assert len(losses) >= 2
        assert losses[-1] <= losses[0]

    def test_trace_loss_equals_loss_over_paths_with_a_live_end(self):
        # the compiled loss is a quadratic form centered on the initial values
        rng = np.random.default_rng(39)
        for _ in range(10):
            bundle, registry = random_instance(rng, quirks=True)
            for kept, cfg in (
                (registry, PropagationConfig(max_iters=1)),
                (ablated(registry, "no_inner"), PropagationConfig(max_iters=7)),
            ):
                values, report = run(bundle, kept, cfg)
                want = loss(bundle, kept, values, skip_fixed=True)
                assert report.losses[-1] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_trace_loss_equals_loss_at_year_magnitudes(self):
        # values near 2000 with residuals of a few units: an uncentered form
        # of the loss would lose digits to cancellation here
        bundle = bench_bundle(
            5, 0.2, entities=1500, edges_per_entity=5, relations=10, noise_relations=0, types=3, density=0.5
        )
        registry = build_registry(bundle, AdmissionConfig())
        assert np.median(np.abs(bundle.attrs.values)) > 1900.0
        for k in (1, 2, 5, 10, 20, 40):
            cfg = PropagationConfig(conv_frac=1e-12, max_iters=k)
            values, report = run(bundle, registry, cfg)
            assert report.iterations == k
            want = loss(bundle, registry, values, skip_fixed=True)
            assert report.losses[-1] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_trace_loss_is_the_every_path_loss_less_a_constant(self):
        # the paths between two fixed entries add one constant at every
        # iterate: over random live values, the every-path loss minus the
        # compiled one does not move
        rng = np.random.default_rng(53)
        for _ in range(10):
            bundle, registry = random_instance(rng, quirks=True)
            values = init_values(bundle)
            op = _compile(bundle, registry, PropagationConfig(), values)[0]
            gaps, scale = [], 0.0
            for _ in range(5):
                values[op.live] = op.x0 + rng.normal(size=len(op.live)) * 10.0 ** rng.integers(-2, 2)
                every = loss(bundle, registry, values)
                gaps.append(every - op.loss(values[op.live], op.product(values)))
                scale = max(scale, every)
            assert max(gaps) - min(gaps) <= 1e-12 * scale
            assert min(gaps) >= -1e-12 * scale  # the constant is a sum of squares

    def test_no_cross_admits_fewer_paths_than_no_inner(self):
        rng = np.random.default_rng(36)
        found = False
        for _ in range(10):
            bundle, registry = random_instance(rng)
            _, r_inner = run(bundle, ablated(registry, "no_inner"), PropagationConfig(max_iters=1))
            _, r_cross = run(bundle, ablated(registry, "no_cross"), PropagationConfig(max_iters=1))
            assert int(r_cross.n_messages.sum()) <= int(r_inner.n_messages.sum())
            if int(r_cross.n_messages.sum()) < int(r_inner.n_messages.sum()):
                found = True
        assert found
