import io
from collections import Counter

import numpy as np
import pytest

from helpers import (
    _link,
    extract_pairs,
    make_bundle,
    make_model,
    random_instance,
    registry_of,
    rowwise_read_model_dump,
    target_of,
)

from mrap.errors import (
    DataError,
    DegenerateRegressorError,
    InsufficientSupportError,
    NonInvertibleSlopeError,
    ParseError,
)
from mrap.graph import Direction
from mrap.propagation import PropagationConfig
from mrap.regression import (
    AdmissionConfig,
    PathKey,
    build_registry,
    count_paths,
    derive_reverse,
    fit_simple_regression,
    read_model_dump,
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


class TestFitSimpleRegression:
    def test_exact_line(self):
        eta, tau, sigma2, fit = fit_simple_regression(np.array([3.0, 5.0, 7.0]), np.array([1.0, 2.0, 3.0]))
        assert eta == pytest.approx(2.0, abs=1e-12)
        assert tau == pytest.approx(1.0, abs=1e-12)
        assert sigma2 == pytest.approx(0.0, abs=1e-24)
        assert fit.r2 == 1.0

    def test_noisy_sample_matches_independent_oracle(self):
        # values frozen from the lstsq oracle: eta=1.5, tau=-1/6, sigma2=1/18
        y = np.array([0.0, 1.0, 3.0])
        x = np.array([0.0, 1.0, 2.0])
        eta, tau, sigma2, _ = fit_simple_regression(y, x)
        assert eta == pytest.approx(1.5, rel=1e-12)
        assert tau == pytest.approx(-1.0 / 6.0, rel=1e-12)
        assert sigma2 == pytest.approx(1.0 / 18.0, rel=1e-12)
        o_eta, o_tau, o_sigma2 = lstsq_oracle(y, x)
        assert eta == pytest.approx(o_eta, rel=1e-9)
        assert tau == pytest.approx(o_tau, rel=1e-9)
        assert sigma2 == pytest.approx(o_sigma2, rel=1e-9)

    def test_insufficient_support(self):
        with pytest.raises(InsufficientSupportError):
            fit_simple_regression(np.array([1.0]), np.array([1.0]))

    def test_degenerate_regressor(self):
        with pytest.raises(DegenerateRegressorError):
            fit_simple_regression(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_residual_mean_is_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.uniform(-50, 50, n)
            y = rng.uniform(-50, 50, n)
            if np.ptp(x) == 0:
                continue
            eta, tau, _, _ = fit_simple_regression(y, x)
            assert abs(np.mean(y - eta * x - tau)) < 1e-9 * max(1.0, np.abs(y).max())

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 10, 20)
        y = 3.0 * x + 1.0 + rng.normal(0, 0.5, 20)
        eta, tau, _, _ = fit_simple_regression(y, x)
        c = 7.5
        eta_c, tau_c, _, _ = fit_simple_regression(y, c * x)
        assert eta_c == pytest.approx(eta / c, rel=1e-9)
        for xv in (0.0, 1.0, -4.2):
            assert eta_c * (c * xv) + tau_c == pytest.approx(eta * xv + tau, rel=1e-9, abs=1e-9)

    def test_r2_clamped_and_degenerate_y(self):
        _, _, _, fit = fit_simple_regression(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))
        assert fit.r2 == 1.0  # zero y-variance


class TestPredict:
    def test_affine(self):
        model = make_model(PathKey.inner(1, 0), eta=2.0, tau=1.0, sigma2=1.0)
        assert model.eta * 3.0 + model.tau == 7.0

    def test_identity(self):
        model = make_model(PathKey.inner(1, 0), eta=1.0, tau=0.0, sigma2=1.0)
        assert model.eta * 42.0 + model.tau == 42.0

    def test_fitted_model_prediction(self):
        eta, tau, _, _ = fit_simple_regression(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0]))
        assert eta * 2.0 + tau == pytest.approx(17.0 / 6.0, rel=1e-12)


class TestDeriveReverse:
    def _model(self, eta, tau, sigma2):
        return make_model(PathKey.relational(1, 0, 0, Direction.FORWARD), eta, tau, sigma2)

    def test_basic(self):
        rev = derive_reverse(self._model(2.0, 4.0, 1.0))
        assert (rev.eta, rev.tau, rev.weight) == (0.5, -2.0, 4.0)
        assert rev.key == PathKey.relational(0, 1, 0, Direction.REVERSE)
        assert rev.fit.derived_reverse

    def test_identity_slope(self):
        rev = derive_reverse(self._model(1.0, 0.0, 2.0))
        assert (rev.eta, rev.tau, rev.weight) == (1.0, 0.0, 0.5)

    def test_negative_slope(self):
        rev = derive_reverse(self._model(-0.5, 1.0, 4.0))
        assert (rev.eta, rev.tau, rev.weight) == (-2.0, 2.0, 0.0625)

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleSlopeError):
            derive_reverse(self._model(1e-12, 0.0, 1.0), eta_min=1e-9)
        with pytest.raises(NonInvertibleSlopeError):
            derive_reverse(self._model(0.0, 0.0, 1.0))

    def test_double_reverse_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            eta = rng.uniform(0.1, 10) * rng.choice([-1, 1])
            tau = rng.uniform(-100, 100)
            sigma2 = rng.uniform(1e-6, 100)
            model = self._model(eta, tau, sigma2)
            back = derive_reverse(derive_reverse(model))
            assert back.key == model.key
            assert back.eta == pytest.approx(eta, rel=1e-12)
            assert back.tau == pytest.approx(tau, rel=1e-12, abs=1e-12)
            assert back.sigma2 == pytest.approx(sigma2, rel=1e-12)

    def test_prediction_round_trip(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            model = self._model(rng.uniform(0.1, 10) * rng.choice([-1, 1]), rng.uniform(-100, 100), 1.0)
            rev = derive_reverse(model)
            x = rng.uniform(-100, 100)
            assert rev.eta * (model.eta * x + model.tau) + rev.tau == pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_weight_consistency(self):
        model = self._model(3.0, 1.0, 0.25)
        assert model.weight * model.sigma2 == pytest.approx(1.0, abs=1e-12)
        rev = derive_reverse(model)
        assert rev.weight == pytest.approx(model.eta**2 / model.sigma2, rel=1e-12)
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
        # build_registry groups pairs in one pass; refitting from the public
        # per-key extraction must give the identical model
        bundle = _line_bundle()
        registry = build_registry(bundle, AdmissionConfig(min_support=5))
        for key, model in registry.models.items():
            if model.fit.derived_reverse:
                continue
            ys, xs = extract_pairs(bundle, key)
            eta, tau, sigma2, fit = fit_simple_regression(ys, xs)
            assert model.eta == eta and model.tau == tau
            assert model.sigma2 >= sigma2  # floor can only lift the variance
            assert model.fit.support == fit.support

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
    def test_every_key_equals_its_extracted_fit_bit_for_bit(self):
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
            for key in keys:
                ys, xs = extract_pairs(bundle, key)
                try:
                    eta, tau, sigma2, fit = fit_simple_regression(ys, xs)
                except (InsufficientSupportError, DegenerateRegressorError):
                    assert key not in registry.models
                    continue
                model = registry.models.get(key)
                assert model is not None and not model.fit.derived_reverse
                assert (model.eta, model.tau, model.fit) == (eta, tau, fit)
                dep_range = attrs.value_range(key.dep)
                assert model.sigma2 == max(sigma2, 1e-12 * dep_range * dep_range or 1e-12)
                fitted += 1
            assert sum(not m.fit.derived_reverse for m in registry.models.values()) == sum(
                1 for key in keys if key in registry.models
            )
        assert fitted > 50


class TestCountPaths:
    def test_equals_the_oracle_path_count_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            bundle, registry = random_instance(rng, quirks=True)
            count = count_paths(bundle.graph, registry, bundle.attrs)
            assert count == len(_link(bundle, registry, PropagationConfig())[0])

    def _setup(self, with_reverse, y_at_v):
        observed = {("n", "x"): 2.0}
        if y_at_v:
            observed[("v", "y")] = 5.0
        bundle = make_bundle([("n", "p", "v")], observed, attr_order=("x", "y"))
        fwd = make_model(PathKey.relational(1, 0, 0, Direction.FORWARD), 1.0, 0.0, 1.0)
        models = [fwd] + ([derive_reverse(fwd)] if with_reverse else [])
        return bundle, registry_of(*models)

    def test_single_forward_path(self):
        bundle, registry = self._setup(with_reverse=False, y_at_v=True)
        assert count_paths(bundle.graph, registry, bundle.attrs) == 1

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
                if rng.random() < 0.2:  # repeat a row further down
                    rows.insert(int(rng.integers(rows.index(row) + 1, len(rows) + 1)), list(row))
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
        for word in ("duplicate", "unknown", "inner", "could", "invalid", "non-finite", "non-positive"):
            assert seen[word] > 2, (word, seen)
