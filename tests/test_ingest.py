import io
from collections import Counter

import numpy as np
import pytest

from helpers import load_rows, neighbors, random_load_inputs, reference_apply_split_manifest, rows_of, table_of

from mrap.attributes import Status
from mrap.errors import DataError, ParseError
from mrap.ingest import (
    Split,
    SplitSpec,
    apply_split_manifest,
    largest_remainder_counts,
    parse_attributes,
    parse_triples,
    read_split_manifest,
    split_attributes,
    subsample_observed,
    write_split_manifest,
)


class TestParseTriples:
    def test_basic(self):
        assert rows_of(parse_triples(io.StringIO("e1\tp\te2\n"))) == [("e1", "p", "e2")]

    def test_empty_stream(self):
        assert rows_of(parse_triples(io.StringIO(""))) == []

    def test_arity_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_triples(io.StringIO("e1\tp\n"))
        assert err.value.line_no == 1

    def test_skips_blanks_and_comments(self):
        text = "# header\n\ne1\tp\te2\n"
        assert rows_of(parse_triples(io.StringIO(text))) == [("e1", "p", "e2")]

    def test_error_line_number_counts_skipped_lines(self):
        with pytest.raises(ParseError) as err:
            parse_triples(io.StringIO("# c\ne1\tp\te2\nbad line\n"))
        assert err.value.line_no == 3


class TestParseAttributes:
    def test_basic(self):
        rows, dups = parse_attributes(io.StringIO("e1\tdate_of_birth\t1939.0\n"))
        assert rows_of(rows) == [("e1", "date_of_birth", 1939.0)]
        assert dups == 0

    def test_unparseable_float(self):
        with pytest.raises(ParseError) as err:
            parse_attributes(io.StringIO("e1\theight\tabc\n"))
        assert err.value.line_no == 1

    def test_duplicate_last_wins(self):
        text = "e1\th\t1.0\ne1\th\t2.0\n"
        rows, dups = parse_attributes(io.StringIO(text))
        assert rows_of(rows) == [("e1", "h", 2.0)]
        assert dups == 1

    def test_scientific_notation(self):
        rows, _ = parse_attributes(io.StringIO("e1\tarea\t5.4e5\n"))
        assert rows_of(rows)[0][2] == 5.4e5


class TestLargestRemainder:
    def test_exact(self):
        assert largest_remainder_counts(10, (0.8, 0.1, 0.1)) == [8, 1, 1]

    def test_leftover_goes_to_largest_remainder(self):
        assert largest_remainder_counts(5, (0.5, 0.25, 0.25)) == [3, 1, 1]

    def test_zero(self):
        assert largest_remainder_counts(0, (0.8, 0.1, 0.1)) == [0, 0, 0]

    def test_sums_to_n(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(0, 100))
            f = rng.dirichlet([1, 1, 1])
            assert sum(largest_remainder_counts(n, tuple(f))) == n


class TestSplitSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitSpec(0.8, 0.1, 0.2)

    def test_fractions_must_be_positive(self):
        with pytest.raises(ValueError):
            SplitSpec(1.1, -0.05, -0.05)


def _toy_dataset(n_entities=10, n_types=1):
    triples = [(f"n{i}", "p", f"n{i+1}") for i in range(n_entities - 1)]
    attr_rows = [
        (f"n{i}", f"a{t}", float(10 * t + i)) for i in range(n_entities) for t in range(n_types)
    ]
    return load_rows(triples, attr_rows)


class TestSplitAttributes:
    def test_counts_80_10_10(self):
        graph, attrs = _toy_dataset(10)
        bundle = split_attributes(graph, attrs, SplitSpec(seed=1))
        assert bundle.split_counts() == (8, 1, 1)

    def test_deterministic(self):
        graph, attrs = _toy_dataset(20, n_types=2)
        one = split_attributes(graph, attrs, SplitSpec(seed=5))
        two = split_attributes(graph, attrs, SplitSpec(seed=5))
        np.testing.assert_array_equal(one.split, two.split)

    def test_seed_changes_assignment(self):
        graph, attrs = _toy_dataset(40)
        one = split_attributes(graph, attrs, SplitSpec(seed=5))
        two = split_attributes(graph, attrs, SplitSpec(seed=6))
        assert (one.split != two.split).any()

    def test_partition_covers_all_entries(self):
        graph, attrs = _toy_dataset(17, n_types=3)
        bundle = split_attributes(graph, attrs, SplitSpec(seed=2))
        assert set(np.unique(bundle.split)) <= {0, 1, 2}
        assert sum(bundle.split_counts()) == attrs.n_entries

    def test_stratified_per_type(self):
        graph, attrs = _toy_dataset(10, n_types=3)
        bundle = split_attributes(graph, attrs, SplitSpec(seed=0))
        for t in range(3):
            mask = attrs.attr_ids == t
            counts = [int((bundle.split[mask] == s).sum()) for s in range(3)]
            assert counts == [8, 1, 1]

    def test_statuses_follow_split(self):
        graph, attrs = _toy_dataset(10)
        bundle = split_attributes(graph, attrs, SplitSpec(seed=1))
        train = bundle.split == int(Split.TRAIN)
        assert (bundle.attrs.status[train] == Status.OBSERVED).all()
        assert (bundle.attrs.status[~train] == Status.MISSING).all()


class TestSubsampleObserved:
    def _bundle(self, n=10):
        graph, attrs = _toy_dataset(n)
        return split_attributes(graph, attrs, SplitSpec(seed=1))

    def test_identity_fraction(self):
        bundle = self._bundle()
        sub = subsample_observed(bundle, 1.0, seed=1)
        np.testing.assert_array_equal(sub.attrs.status, bundle.attrs.status)

    def test_half_fraction_counts(self):
        graph, attrs = _toy_dataset(13)  # 13 entries -> 11 train
        bundle = split_attributes(graph, attrs, SplitSpec(seed=1))
        sub = subsample_observed(bundle, 0.5, seed=1)
        n_train = bundle.split_counts()[0]
        observed = int((sub.attrs.status == Status.OBSERVED).sum())
        assert observed == -(-n_train // 2)  # ceil

    def test_observed_subset_of_train(self):
        bundle = self._bundle()
        sub = subsample_observed(bundle, 0.4, seed=3)
        observed = sub.attrs.status == Status.OBSERVED
        assert (sub.split[observed] == int(Split.TRAIN)).all()

    def test_dev_test_always_missing(self):
        bundle = self._bundle()
        sub = subsample_observed(bundle, 1.0, seed=3)
        non_train = sub.split != int(Split.TRAIN)
        assert (sub.attrs.status[non_train] == Status.MISSING).all()

    def test_fraction_bounds(self):
        bundle = self._bundle()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsample_observed(bundle, bad, seed=1)

    def test_deterministic(self):
        bundle = self._bundle()
        one = subsample_observed(bundle, 0.5, seed=9)
        two = subsample_observed(bundle, 0.5, seed=9)
        np.testing.assert_array_equal(one.attrs.status, two.attrs.status)


class TestSplitManifest:
    def test_round_trip(self, tmp_path):
        graph, attrs = _toy_dataset(12, n_types=2)
        bundle = split_attributes(graph, attrs, SplitSpec(seed=4))
        write_split_manifest(tmp_path / "one.tsv", bundle)
        with open(tmp_path / "one.tsv", "rb") as fh:
            restored = apply_split_manifest(graph, attrs, read_split_manifest(fh))
        np.testing.assert_array_equal(restored.split, bundle.split)
        np.testing.assert_array_equal(restored.attrs.status, bundle.attrs.status)
        # byte-identical on rewrite
        write_split_manifest(tmp_path / "two.tsv", restored)
        assert (tmp_path / "two.tsv").read_bytes() == (tmp_path / "one.tsv").read_bytes()

    def test_unknown_entry_rejected(self):
        graph, attrs = _toy_dataset(3)
        with pytest.raises(ParseError, match=r"^line 1: manifest row \('ghost', 'a0'\) not in the attribute table$"):
            apply_split_manifest(graph, attrs, table_of([("ghost", "a0", Split.TRAIN)]))

    def test_incomplete_manifest_rejected(self, tmp_path):
        graph, attrs = _toy_dataset(3)
        bundle = split_attributes(graph, attrs, SplitSpec(seed=4))
        write_split_manifest(tmp_path / "split.tsv", bundle)
        with open(tmp_path / "split.tsv", "rb") as fh:
            rows = rows_of(read_split_manifest(fh))[:-1]
        with pytest.raises(DataError):
            apply_split_manifest(graph, attrs, table_of(rows))

    def test_bad_split_label(self):
        with pytest.raises(ParseError):
            read_split_manifest(io.StringIO("e\ta\tvalidation\n"))


def _bulk_apply(graph, attrs, rows):
    bundle = apply_split_manifest(graph, attrs, table_of(rows))
    return bundle.split, bundle.attrs.status


class TestBulkManifestMatchesPerRow:
    """The bulk manifest apply gives the per-row loop's arrays, or its first error."""

    @staticmethod
    def _outcome(apply, graph, attrs, rows):
        try:
            split, status = apply(graph, attrs, list(rows))
        except (DataError, ParseError) as exc:
            return type(exc), str(exc)
        return split.dtype, split.tolist(), status.tolist()

    def test_random_manifests(self, tmp_path):
        rng = np.random.default_rng(23)
        seen = Counter()
        for _ in range(300):
            graph, attrs = load_rows(*random_load_inputs(rng))
            bundle = split_attributes(graph, attrs, SplitSpec(seed=int(rng.integers(100))))
            write_split_manifest(tmp_path / "split.tsv", bundle)
            with open(tmp_path / "split.tsv", "rb") as fh:
                rows = [(e, a, Split(code)) for e, a, code in rows_of(read_split_manifest(fh))]
            rows = [rows[i] for i in rng.permutation(len(rows))]

            def insert(row):
                rows.insert(int(rng.integers(len(rows) + 1)), row)

            if rng.random() < 0.3:
                insert(("ghost", rows[0][1], Split.TRAIN))
            if rng.random() < 0.3:
                insert((rows[0][0], "no_such_type", Split.DEV))
            if rng.random() < 0.3:
                insert(rows[int(rng.integers(len(rows)))])
            if rng.random() < 0.3:
                rows.pop(int(rng.integers(len(rows))))
            want = self._outcome(reference_apply_split_manifest, graph, attrs, rows)
            assert self._outcome(_bulk_apply, graph, attrs, rows) == want
            seen[want[1].split(" ")[-1] if len(want) == 2 else "applied"] += 1
        # every outcome occurs: applied, unknown row, repeated row, unlabeled entries
        assert set(seen) == {"applied", "table", "twice", "unlabeled"}
        assert min(seen.values()) >= 10


class TestLoadDataset:
    def test_attribute_only_entities_are_isolated_nodes(self):
        graph, attrs = load_rows([("a", "p", "b")], [("lonely", "h", 1.0), ("a", "h", 2.0)])
        assert "lonely" in graph.entities
        assert neighbors(graph, graph.entities.id("lonely")) == []
        assert attrs.n_entries == 2
