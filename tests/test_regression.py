import io
from collections import Counter

import numpy as np
import pytest

from helpers import (
    DegenerateRegressorError,
    InsufficientSupportError,
    NonInvertibleSlopeError,
    _link,
    derive_reverse,
    extract_pairs,
    fit_simple_regression,
    key_of,
    make_bundle,
    make_model,
    one_key_per_relation,
    random_instance,
    registry_of,
    rowwise_read_model_dump,
    target_of,
)

from mrap.errors import DataError, ParseError
from mrap.graph import Direction
from mrap.regression import (
    ETA_MIN_SCALE,
    VAR_FLOOR_SCALE,
    AdmissionConfig,
    PathKey,
    _codes,
    _grouped_fit,
    _mirror,
    build_registry,
    count_paths,
    read_model_dump,
    training_pairs,
    write_model_dump,
)


def lstsq_oracle(y, x):
    """Independent least-squares fit via SVD on the design matrix."""
    design = np.column_stack([np.asarray(x, float), np.ones(len(x))])
    (eta, tau), *_ = np.linalg.lstsq(design, np.asarray(y, float), rcond=None)
    resid = y - eta * x - tau
    return float(eta), float(tau), float(np.mean(resid * resid))


class TestExtractPairs:
    def _bundle(self, observed, missing=None):
        return make_bundle([("n", "p", "v")], observed, missing, attr_order=("x", "y"))

    def test_single_qualifying_edge(self):
        bundle = self._bundle({("v", "y"): 5.0, ("n", "x"): 2.0})
        key = PathKey.relational(1, 0, 0, Direction.FORWARD)
        ys, xs = extract_pairs(bundle, key)
        assert list(ys) == [5.0] and list(xs) == [2.0]

    def test_missing_source_excluded(self):
        bundle = self._bundle({("v", "y"): 5.0}, {("n", "x"): 2.0})
        key = PathKey.relational(1, 0, 0, Direction.FORWARD)
        ys, xs = extract_pairs(bundle, key)
        assert len(ys) == 0

    def test_inner_pair(self):
        bundle = make_bundle([], {("e", "birth"): 1939.0, ("e", "death"): 2020.0}, attr_order=("birth", "death"))
        ys, xs = extract_pairs(bundle, PathKey.inner(1, 0))
        assert list(ys) == [2020.0] and list(xs) == [1939.0]

    def test_reverse_key_rejected(self):
        bundle = self._bundle({("v", "y"): 5.0, ("n", "x"): 2.0})
        with pytest.raises(ValueError):
            extract_pairs(bundle, PathKey.relational(0, 1, 0, Direction.REVERSE))


def _fit(ys, xs, **admission):
    """The registry of a bundle whose one fit key regresses ys on xs, and that key."""
    bundle, (key,) = one_key_per_relation([(ys, xs)])
    return build_registry(bundle, AdmissionConfig(min_support=2, **admission)), key


def _random_lines(rng, n_keys: int, n_pairs: int = 8):
    """``(ys, xs)`` samples of noisy lines with random slopes of 0.1 to 10 in magnitude."""
    samples = []
    for _ in range(n_keys):
        eta, tau = rng.uniform(0.1, 10) * rng.choice([-1, 1]), rng.uniform(-100, 100)
        x = rng.uniform(-100, 100, n_pairs)
        samples.append((eta * x + tau + rng.normal(0, 1, n_pairs), x))
    return samples


def assert_matches_oracle(model, ys, xs, attrs):
    """A fit of the grouped pass against the scalar oracle, within bounds set from float64 rounding.

    The grouped sums run in a different order from the oracle's pairwise
    ones, so only the last bits may differ; support and the flags are exact.
    """
    eta, tau, sigma2, fit = fit_simple_regression(ys, xs)
    assert (model.fit.support, model.fit.derived_reverse) == (fit.support, False)
    assert abs(model.eta - eta) <= 1e-13 * abs(eta)
    assert abs(model.tau - tau) <= 1e-13 * float(np.abs(ys).max())
    assert abs(model.fit.r2 - fit.r2) <= 1e-12
    dep_range = attrs.value_range(model.key.dep)
    floor = VAR_FLOOR_SCALE * dep_range * dep_range or VAR_FLOOR_SCALE
    assert model.sigma2 >= floor
    if sigma2 < floor * (1.0 - 1e-11):
        assert model.sigma2 == floor
    assert model.sigma2 == pytest.approx(max(sigma2, floor), rel=1e-11)
    assert model.weight == 1.0 / model.sigma2


class TestFitSimpleRegression:
    """The closed-form fit of ``build_registry``, on bundles of one fit key."""

    def test_exact_line(self):
        registry, key = _fit([3.0, 5.0, 7.0], [1.0, 2.0, 3.0])
        model = registry.models[key]
        assert model.eta == pytest.approx(2.0, abs=1e-12)
        assert model.tau == pytest.approx(1.0, abs=1e-12)
        assert model.sigma2 == 1e-12 * 4.0 * 4.0  # a zero residual is raised to the floor: y spans 4
        assert model.fit.r2 == 1.0

    def test_noisy_sample_matches_independent_oracle(self):
        # values frozen from the lstsq oracle: eta=1.5, tau=-1/6, sigma2=1/18
        y = np.array([0.0, 1.0, 3.0])
        x = np.array([0.0, 1.0, 2.0])
        registry, key = _fit(y, x)
        model = registry.models[key]
        assert model.eta == pytest.approx(1.5, rel=1e-12)
        assert model.tau == pytest.approx(-1.0 / 6.0, rel=1e-12)
        assert model.sigma2 == pytest.approx(1.0 / 18.0, rel=1e-12)
        o_eta, o_tau, o_sigma2 = lstsq_oracle(y, x)
        assert model.eta == pytest.approx(o_eta, rel=1e-9)
        assert model.tau == pytest.approx(o_tau, rel=1e-9)
        assert model.sigma2 == pytest.approx(o_sigma2, rel=1e-9)

    def test_insufficient_support(self):
        registry, key = _fit([1.0], [1.0])
        assert not registry.models
        assert registry.rejections == {"insufficient_support": 1}

    def test_degenerate_regressor(self):
        registry, key = _fit([1.0, 2.0], [3.0, 3.0])
        assert not registry.models
        assert registry.rejections == {"degenerate_regressor": 1}

    def test_residual_mean_is_zero(self):
        rng = np.random.default_rng(11)
        samples = []
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.uniform(-50, 50, n)
            y = rng.uniform(-50, 50, n)
            if np.ptp(x) > 0:
                samples.append((y, x))
        bundle, keys = one_key_per_relation(samples)
        registry = build_registry(bundle, AdmissionConfig(min_support=2))
        for key, (y, x) in zip(keys, samples):
            model = registry.models[key]
            assert abs(np.mean(y - model.eta * x - model.tau)) < 1e-9 * max(1.0, np.abs(y).max())

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 10, 20)
        y = 3.0 * x + 1.0 + rng.normal(0, 0.5, 20)
        c = 7.5
        bundle, keys = one_key_per_relation([(y, x), (y, c * x)])
        registry = build_registry(bundle, AdmissionConfig(min_support=2))
        model, scaled = (registry.models[key] for key in keys)
        assert scaled.eta == pytest.approx(model.eta / c, rel=1e-9)
        for xv in (0.0, 1.0, -4.2):
            assert scaled.eta * (c * xv) + scaled.tau == pytest.approx(model.eta * xv + model.tau, rel=1e-9, abs=1e-9)

    def test_r2_clamped_and_degenerate_y(self):
        ys, xs = np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0])
        _, _, _, eta, _, sigma2, r2 = _grouped_fit(np.zeros(3, dtype=np.int64), ys, xs)
        assert r2.tolist() == [1.0]  # zero y-variance
        assert eta.tolist() == sigma2.tolist() == [0.0]
        registry, key = _fit(ys, xs)
        assert len(registry) == 0  # a zero slope has no reverse, so the key is rejected whole
        assert registry.rejections == {"non_invertible_slope": 1}


class TestPredict:
    def test_affine(self):
        model = make_model(PathKey.inner(1, 0), eta=2.0, tau=1.0, sigma2=1.0)
        assert model.eta * 3.0 + model.tau == 7.0

    def test_identity(self):
        model = make_model(PathKey.inner(1, 0), eta=1.0, tau=0.0, sigma2=1.0)
        assert model.eta * 42.0 + model.tau == 42.0

    def test_fitted_model_prediction(self):
        registry, key = _fit([0.0, 1.0, 3.0], [0.0, 1.0, 2.0])
        model = registry.models[key]
        assert model.eta * 2.0 + model.tau == pytest.approx(17.0 / 6.0, rel=1e-12)


class TestDeriveReverse:
    """The derived reverse models of ``build_registry``.

    On x = 0, 0, 1, 1 the residuals (a, -a, b, -b) are orthogonal to both
    regressors, so y = eta x + tau + r fits eta, tau and (a^2 + b^2) / 2 exactly.
    """

    XS = [0.0, 0.0, 1.0, 1.0]

    def _pair(self, ys):
        registry, key = _fit(ys, self.XS)
        return registry.models[key], registry.models[key.reversed()]

    def test_basic(self):
        fwd, rev = self._pair([5.0, 3.0, 7.0, 5.0])
        assert (fwd.eta, fwd.tau, fwd.sigma2) == (2.0, 4.0, 1.0)
        assert (rev.eta, rev.tau, rev.weight) == (0.5, -2.0, 4.0)
        assert rev.key == PathKey.relational(0, 1, 0, Direction.REVERSE)
        assert rev.fit.derived_reverse and not fwd.fit.derived_reverse

    def test_identity_slope(self):
        fwd, rev = self._pair([2.0, -2.0, 1.0, 1.0])
        assert (fwd.eta, fwd.tau, fwd.sigma2) == (1.0, 0.0, 2.0)
        assert (rev.eta, rev.tau, rev.weight) == (1.0, 0.0, 0.5)

    def test_negative_slope(self):
        fwd, rev = self._pair([3.0, -1.0, 2.5, -1.5])
        assert (fwd.eta, fwd.tau, fwd.sigma2) == (-0.5, 1.0, 4.0)
        assert (rev.eta, rev.tau, rev.weight) == (-2.0, 2.0, 0.0625)

    def test_non_invertible(self):
        # y spans about 2 and x spans 1: slopes below about 2e-9 have no
        # reverse, and a fit without its reverse is rejected whole
        for slope, invertible in ((0.0, False), (1e-12, False), (1e-8, True)):
            registry, key = _fit([1.0, -1.0, 1.0 + slope, -1.0 + slope], self.XS)
            assert list(registry.models) == ([key, key.reversed()] if invertible else [])
            assert registry.rejections == ({} if invertible else {"non_invertible_slope": 1})

    def test_double_reverse_round_trip(self):
        bundle, keys = one_key_per_relation(_random_lines(np.random.default_rng(21), 200))
        registry = build_registry(bundle, AdmissionConfig(min_support=2))
        for key in keys:
            fwd, rev = registry.models[key], registry.models[key.reversed()]
            assert rev.key.reversed() == fwd.key
            # the reverse derived from the reverse is the fitted model
            assert 1.0 / rev.eta == pytest.approx(fwd.eta, rel=1e-12)
            assert -rev.tau / rev.eta == pytest.approx(fwd.tau, rel=1e-12, abs=1e-12)
            assert rev.sigma2 / (rev.eta * rev.eta) == pytest.approx(fwd.sigma2, rel=1e-12)

    def test_prediction_round_trip(self):
        rng = np.random.default_rng(22)
        bundle, keys = one_key_per_relation(_random_lines(rng, 200))
        registry = build_registry(bundle, AdmissionConfig(min_support=2))
        for key in keys:
            fwd, rev = registry.models[key], registry.models[key.reversed()]
            x = rng.uniform(-100, 100)
            assert rev.eta * (fwd.eta * x + fwd.tau) + rev.tau == pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_weight_consistency(self):
        fwd, rev = self._pair([1.5, 0.5, 4.5, 3.5])  # eta 3, tau 1, sigma2 0.25
        assert fwd.weight * fwd.sigma2 == pytest.approx(1.0, abs=1e-12)
        assert rev.weight == pytest.approx(fwd.eta**2 / fwd.sigma2, rel=1e-12)
        assert rev.weight * rev.sigma2 == pytest.approx(1.0, abs=1e-12)


def _line_bundle(n=8, eta=2.0, tau=5.0):
    """Chain over one relation with exact y = eta*x + tau across each edge."""
    triples = [(f"n{i}", "p", f"n{i+1}") for i in range(n - 1)]
    observed = {}
    for i in range(n - 1):
        observed[(f"n{i}", "x")] = float(i + 1)
        observed[(f"n{i+1}", "y")] = eta * (i + 1) + tau
    return make_bundle(triples, observed, attr_order=("x", "y"))


class TestBuildRegistry:
    def test_forward_and_reverse_admitted(self):
        bundle = _line_bundle()
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        fwd = PathKey.relational(1, 0, 0, Direction.FORWARD)
        assert fwd in registry.models
        assert fwd.reversed() in registry.models
        model = registry.models.get(fwd)
        assert model.eta == pytest.approx(2.0)
        assert model.tau == pytest.approx(5.0)
        assert model.sigma2 > 0  # variance floor applied on exact fit
        assert model.weight == pytest.approx(1.0 / model.sigma2)

    def test_min_support_filter(self):
        bundle = _line_bundle(n=4)  # 3 pairs per key
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        assert PathKey.relational(1, 0, 0, Direction.FORWARD) not in registry.models
        assert registry.rejections.get("insufficient_support", 0) > 0

    def test_exclusion_list(self):
        bundle = make_bundle(
            [],
            {(f"e{i}", "latitude"): float(i) for i in range(6)}
            | {(f"e{i}", "longitude"): float(2 * i + 1) for i in range(6)},
            attr_order=("latitude", "longitude"),
        )
        admission = AdmissionConfig(
            min_support=2, exclusions=AdmissionConfig.parse_exclusions(["latitude,longitude,INNER"])
        )
        registry = build_registry(bundle, admission)
        assert PathKey.inner(1, 0) not in registry.models
        assert PathKey.inner(0, 1) not in registry.models
        assert registry.rejections.get("excluded", 0) == 1

    def test_r2_filter(self):
        rng = np.random.default_rng(5)
        observed = {}
        for i in range(30):
            observed[(f"e{i}", "a")] = float(rng.uniform(0, 1))
            observed[(f"e{i}", "b")] = float(rng.uniform(0, 1))  # uncorrelated
        bundle = make_bundle([], observed, attr_order=("a", "b"))
        admission = AdmissionConfig(min_support=5, r2_min=0.9)
        registry = build_registry(bundle, admission)
        assert len(registry) == 0
        assert registry.rejections.get("low_r2", 0) == 1

    def test_grouped_fit_equals_per_key_extraction(self):
        # build_registry fits every key in one grouped pass; refitting from
        # the per-key extraction must give the same model up to rounding
        bundle = _line_bundle()
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        for key, model in registry.models.items():
            if model.fit.derived_reverse:
                continue
            assert key.reversed() in registry.models
            ys, xs = extract_pairs(bundle, key)
            assert_matches_oracle(model, ys, xs, bundle.attrs)

    def test_each_admission_rule_tallies_its_key(self):
        # one fit key (y | x) per relation; each key meets the first rule it
        # fails, and an excluded key with too few pairs counts as excluded
        samples = {
            "excluded": ([1.0, 2.0, 3.0, 5.0], [0.0, 1.0, 2.0, 3.0]),
            "excluded_and_few": ([1.0], [2.0]),
            "few": ([1.0, 2.0], [0.0, 1.0]),
            "flat": ([1.0, 2.0, 4.0, 3.0], [2.0, 2.0, 2.0, 2.0]),
            "noise": ([1.0, -1.0, -1.0, 1.0], [0.0, 1.0, 2.0, 3.0]),
            "zero_slope": ([4.0, 4.0, 4.0], [0.0, 1.0, 2.0]),
            "line": ([1.0, 3.0, 5.0], [0.0, 1.0, 2.0]),
        }
        bundle, keys = one_key_per_relation(list(samples.values()))
        relations = [f"r{k}" for k in range(len(samples))]
        rules = AdmissionConfig.parse_exclusions([f"x,y,{relations[0]}", f"y,x,{relations[1]}"])
        registry = build_registry(bundle, AdmissionConfig(min_support=3, r2_min=0.5, exclusions=rules))
        assert registry.rejections == {
            "excluded": 2,
            "insufficient_support": 1,
            "degenerate_regressor": 1,
            "low_r2": 1,
            "non_invertible_slope": 1,
        }
        line = keys[6]
        assert list(registry.models) == [line, line.reversed()]
        assert registry.models[line].sigma2 == 1e-12 * 6.0 * 6.0  # exact, so at the floor: y spans -1 to 5

    def test_inner_canonical_fit_and_derived_swap(self):
        observed = {}
        for i in range(6):
            observed[(f"e{i}", "birth")] = 1900.0 + i
            observed[(f"e{i}", "death")] = 1900.0 + i + 80.0 + 0.01 * i * i  # slight curvature
        bundle = make_bundle([], observed, attr_order=("birth", "death"))
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        fitted = registry.models.get(PathKey.inner(1, 0))  # death | birth, higher id on lower
        derived = registry.models.get(PathKey.inner(0, 1))
        assert fitted is not None and not fitted.fit.derived_reverse
        assert derived is not None and derived.fit.derived_reverse
        assert derived.eta == pytest.approx(1.0 / fitted.eta, rel=1e-12)


class TestRegistryOnRandomInstances:
    def test_every_key_matches_the_scalar_oracle(self):
        rng = np.random.default_rng(41)
        admission = AdmissionConfig(min_support=2)
        fitted = 0
        for _ in range(10):
            bundle, _ = random_instance(rng, quirks=True)
            graph, attrs = bundle.graph, bundle.attrs
            registry = build_registry(bundle, admission)
            keys = [
                PathKey.relational(dep, indep, rel, Direction.FORWARD)
                for rel in range(graph.n_relations)
                for dep in range(attrs.n_types)
                for indep in range(attrs.n_types)
            ] + [PathKey.inner(dep, indep) for dep in range(attrs.n_types) for indep in range(dep)]
            # the scalar oracle, key by key in code order: admitted keys and the rejection tally
            order, tally = [], Counter()
            for key in keys:
                ys, xs = extract_pairs(bundle, key)
                try:
                    eta = fit_simple_regression(ys, xs)[0]
                except InsufficientSupportError:
                    tally["insufficient_support"] += ys.size == 1  # a key without pairs is no key
                    continue
                except DegenerateRegressorError:
                    tally["degenerate_regressor"] += 1
                    continue
                dep_range, indep_range = attrs.value_range(key.dep), attrs.value_range(key.indep)
                eta_min = ETA_MIN_SCALE * dep_range / indep_range if indep_range > 0.0 else 0.0
                try:
                    derive_reverse(make_model(key, eta, 0.0, 1.0), eta_min)
                except NonInvertibleSlopeError:
                    tally["non_invertible_slope"] += 1  # no reverse, so no model
                    assert key not in registry.models
                    continue
                model = registry.models[key]
                assert_matches_oracle(model, ys, xs, attrs)
                reverse = derive_reverse(model, eta_min)
                assert registry.models[reverse.key] == reverse  # the same arithmetic, bit for bit
                order += [key, reverse.key]
                fitted += 1
            assert list(registry.models) == order
            assert registry.rejections == {reason: n for reason, n in tally.items() if n}
        assert fitted > 50

    def test_mirror_code_is_the_reversed_key(self):
        rng = np.random.default_rng(46)
        mirrored = 0
        for _ in range(10):
            bundle, _ = random_instance(rng, quirks=True)
            registry = build_registry(bundle, AdmissionConfig(min_support=2))
            n_types = bundle.attrs.n_types
            span, codes = _codes(bundle.graph, registry, n_types)
            for key, code, mirror in zip(registry.models, codes.tolist(), _mirror(codes, span, n_types).tolist()):
                assert key_of(code, span, n_types) == key
                assert key_of(mirror, span, n_types) == key.reversed()
                mirrored += 1
        assert mirrored > 50


class TestTrainingPairs:
    def test_equals_the_per_key_extraction_on_quirk_instances(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            bundle, _ = random_instance(rng, quirks=True)
            graph, attrs = bundle.graph, bundle.attrs
            code, ys, xs = training_pairs(bundle)
            assert (np.diff(code) >= 0).all()
            codes = np.unique(code).tolist()
            keys = [key_of(c, graph.n_relations, attrs.n_types) for c in codes]
            every_key = [
                PathKey.relational(dep, indep, rel, Direction.FORWARD)
                for rel in range(graph.n_relations)
                for dep in range(attrs.n_types)
                for indep in range(attrs.n_types)
            ] + [PathKey.inner(dep, indep) for dep in range(attrs.n_types) for indep in range(dep)]
            assert keys == [key for key in every_key if extract_pairs(bundle, key)[0].size]
            for c, key in zip(codes, keys):
                want_ys, want_xs = extract_pairs(bundle, key)
                assert ys[code == c].tolist() == want_ys.tolist()
                assert xs[code == c].tolist() == want_xs.tolist()


class TestCountPaths:
    def test_equals_the_oracle_path_count_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            bundle, registry = random_instance(rng, quirks=True)
            count = count_paths(bundle.graph, registry, bundle.attrs)
            assert count == len(_link(bundle, registry)[0])

    def _setup(self, with_reverse, y_at_v):
        observed = {("n", "x"): 2.0}
        if y_at_v:
            observed[("v", "y")] = 5.0
        bundle = make_bundle([("n", "p", "v")], observed, attr_order=("x", "y"))
        fwd = make_model(PathKey.relational(1, 0, 0, Direction.FORWARD), 1.0, 0.0, 1.0)
        models = [fwd] + ([derive_reverse(fwd)] if with_reverse else [])
        return bundle, registry_of(*models)

    def test_single_forward_path(self):
        # a model without its mirror: the plan refuses the registry
        bundle, registry = self._setup(with_reverse=False, y_at_v=True)
        with pytest.raises(ValueError, match="no mirror for PathKey"):
            count_paths(bundle.graph, registry, bundle.attrs)

    def test_target_without_the_dep_type_gets_no_path(self):
        # v has no y entry, so the y-from-x model has nothing to predict there
        bundle, registry = self._setup(with_reverse=True, y_at_v=False)
        assert count_paths(bundle.graph, registry, bundle.attrs) == 0

    def test_both_directions(self):
        bundle, registry = self._setup(with_reverse=True, y_at_v=True)
        assert count_paths(bundle.graph, registry, bundle.attrs) == 2

    def test_inner_paths(self):
        bundle = make_bundle([], {("e", "a"): 1.0, ("e", "b"): 2.0}, attr_order=("a", "b"))
        model = make_model(PathKey.inner(1, 0), 1.0, 0.0, 1.0)
        registry = registry_of(model, derive_reverse(model))
        assert count_paths(bundle.graph, registry, bundle.attrs) == 2


class TestModelDump:
    def test_round_trip_exact(self, tmp_path):
        bundle = _line_bundle()
        observed = {(f"e{i}", "x"): float(i) for i in range(6)}
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        assert len(registry) > 0
        write_model_dump(tmp_path / "models.tsv", registry, bundle.graph, bundle.attrs)
        with open(tmp_path / "models.tsv", "rb") as fh:
            reloaded = read_model_dump(fh, bundle.graph, bundle.attrs)
        assert set(reloaded.models) == set(registry.models)
        for key, model in registry.models.items():
            other = reloaded.models[key]
            assert other.eta == model.eta  # 17 significant digits reload exactly
            assert other.tau == model.tau
            assert other.sigma2 == model.sigma2
            assert other.weight == model.weight
            assert other.fit.support == model.fit.support
            assert other.fit.derived_reverse == model.fit.derived_reverse

    def test_line_layout(self, tmp_path):
        bundle = _line_bundle()
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        write_model_dump(tmp_path / "models.tsv", registry, bundle.graph, bundle.attrs)
        for line in (tmp_path / "models.tsv").read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            assert len(fields) == 11
            assert fields[3] in ("forward", "reverse", "-")
            assert fields[10] in ("true", "false")

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (4, "nan", "non-finite eta 'nan'"),
            (5, "inf", "non-finite tau 'inf'"),
            (6, "-inf", "non-finite sigma2 '-inf'"),
            (6, "0", "non-positive sigma2 '0'"),
            (7, "nan", "non-finite weight 'nan'"),
            (7, "-2.5", "non-positive weight '-2.5'"),
            (9, "nan", "non-finite r2 'nan'"),
        ],
    )
    def test_non_finite_or_non_positive_field_rejected(self, tmp_path, column, text, message):
        bundle = _line_bundle()
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        write_model_dump(tmp_path / "models.tsv", registry, bundle.graph, bundle.attrs)
        lines = (tmp_path / "models.tsv").read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        fields[column] = text
        lines[1] = "\t".join(fields)
        with pytest.raises(ParseError) as err:
            read_model_dump(io.StringIO("\n".join(lines)), bundle.graph, bundle.attrs)
        assert str(err.value) == f"line 2: {message}"

    def test_bad_line_rejected(self):
        bundle = _line_bundle()
        with pytest.raises(Exception):
            read_model_dump(io.StringIO("too\tfew\tfields\n"), bundle.graph, bundle.attrs)

    def test_random_corruptions_match_the_per_row_reader(self, tmp_path):
        """Every field corrupted at random rows: same models, or the same first error."""
        rng = np.random.default_rng(45)
        bad_texts = {
            "label": ["ghost", "", " x"],
            "relation": ["ghost", "INNER", "-"],
            "direction": ["forwards", "-", "forward", "reverse", ""],
            "float": ["abc", "", "inf", "-inf", "nan", "0", "-0.0", "-1.5", " 2.5 ", "1_0", "1e400", "0x1p3"],
            "support": ["abc", "", "1.5", " 7 ", "-3", "1_000", "+4"],
            "derived": ["maybe", "true", "false", ""],
        }
        kinds = ["label", "label", "relation", "direction"] + ["float"] * 4 + ["support", "float", "derived"]

        def outcome(read, data):
            try:
                models = read(io.StringIO(data), graph, attrs).models
            except (ParseError, DataError) as exc:
                return (type(exc), str(exc), getattr(exc, "line_no", None))
            return [(k, m.eta, m.tau, m.sigma2, m.weight, m.fit.support, m.fit.r2, m.fit.derived_reverse) for k, m in models.items()]

        seen = Counter()
        for _ in range(200):
            bundle, _ = random_instance(rng, quirks=rng.random() < 0.5)
            registry = build_registry(bundle, AdmissionConfig(min_support=2))
            if not len(registry):
                continue
            graph, attrs = bundle.graph, bundle.attrs
            write_model_dump(tmp_path / "models.tsv", registry, graph, attrs)
            rows = [line.split("\t") for line in (tmp_path / "models.tsv").read_text().splitlines()]
            for _ in range(int(rng.integers(0, 4))):
                row = rows[int(rng.integers(len(rows)))]
                draw = rng.random()
                if draw < 0.2:  # repeat a row further down
                    rows.insert(int(rng.integers(rows.index(row) + 1, len(rows) + 1)), list(row))
                    continue
                if draw < 0.3 and len(rows) > 1:  # drop a row, which leaves its mirror alone
                    rows.remove(row)
                    continue
                column = int(rng.integers(11))
                texts = bad_texts[kinds[column]]
                if kinds[column] == "label" and rng.random() < 0.5:
                    texts = attrs.types.labels  # a known label: maybe a repeated key or a self-pair
                if kinds[column] == "relation" and rng.random() < 0.5:
                    texts = graph.relations.labels
                row[column] = texts[int(rng.integers(len(texts)))]
            data = "".join("\t".join(row) + "\n" for row in rows)
            got = outcome(read_model_dump, data)
            assert got == outcome(rowwise_read_model_dump, data)
            seen["ok" if isinstance(got, list) else got[1].split(": ")[1].split(" ")[0]] += 1
        assert seen["ok"] > 20
        for word in ("duplicate", "unknown", "inner", "could", "invalid", "non-finite", "non-positive", "no"):
            assert seen[word] > 2, (word, seen)
