import numpy as np
import pytest

from mrap.attributes import AttributeTable, Status
from mrap.errors import DataError
from mrap.graph import Direction, Vocabulary, build_graph
from mrap.ingest import load_dataset

from helpers import (
    OrientedRelation,
    entries_of,
    index,
    neighbors,
    random_load_inputs,
    reference_attribute_entries,
    reference_build_graph,
)


class TestBuildGraph:
    def test_single_edge_orientation(self):
        g = build_graph([("a", "p", "b")])
        assert g.n_entities == 2
        assert g.n_relations == 1
        a, b = g.entities.id("a"), g.entities.id("b")
        p = g.relations.id("p")
        assert neighbors(g, b) == [(a, OrientedRelation(p, Direction.FORWARD))]
        assert neighbors(g, a) == [(b, OrientedRelation(p, Direction.REVERSE))]

    def test_duplicate_triples_stored_once(self):
        g = build_graph([("a", "p", "b"), ("a", "p", "b")])
        assert g.n_edges == 1

    def test_neighbors_deterministic_order(self):
        g = build_graph([("c", "q", "b"), ("a", "p", "b")])
        b = g.entities.id("b")
        got = [(n, o.relation, o.direction) for n, o in neighbors(g, b)]
        assert got == sorted(got)  # neighbor id, then relation id, then direction
        assert {g.entities.label(n) for n, _, _ in got} == {"a", "c"}
        assert all(d is Direction.FORWARD for _, _, d in got)

    def test_invalid_entity_id(self):
        g = build_graph([("a", "p", "b")])
        with pytest.raises(ValueError):
            neighbors(g, 99)

    def test_empty_input(self):
        g = build_graph([])
        assert g.n_entities == 0 and g.n_edges == 0

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            build_graph([("a", "", "b")])

    def test_extra_entities_are_isolated(self):
        g = build_graph([("a", "p", "b")], extra_entities=["z", "a"])
        z = g.entities.id("z")
        assert neighbors(g, z) == []
        assert g.n_entities == 3  # "a" not duplicated

    def test_self_loop_one_entry_per_direction(self):
        g = build_graph([("a", "p", "a")])
        a = g.entities.id("a")
        directions = sorted(o.direction for _, o in neighbors(g, a))
        assert directions == [Direction.FORWARD, Direction.REVERSE]


class TestGraphProperties:
    def test_round_trip_reproduces_triple_set(self):
        triples = [("a", "p", "b"), ("b", "q", "c"), ("a", "p", "b"), ("c", "p", "a")]
        g = build_graph(triples)
        assert set(g.triples()) == set(triples)

    def test_orientation_symmetry_random(self):
        rng = np.random.default_rng(7)
        names = [f"n{i}" for i in range(12)]
        rels = ["p", "q", "r"]
        triples = [
            (names[rng.integers(12)], rels[rng.integers(3)], names[rng.integers(12)])
            for _ in range(60)
        ]
        g = build_graph(triples)
        for v in range(g.n_entities):
            for n, oriented in neighbors(g, v):
                assert (v, oriented.flipped) in neighbors(g, n)

    def test_adjacency_total_twice_edges(self):
        triples = [("a", "p", "b"), ("b", "q", "c"), ("c", "p", "a"), ("a", "q", "c")]
        g = build_graph(triples)
        assert sum(len(neighbors(g, v)) for v in range(g.n_entities)) == 2 * g.n_edges


class TestVocabulary:
    def test_bijection(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab.id("x") == 0 and vocab.label(1) == "y"
        assert vocab.add("x") == 0
        assert vocab.add("z") == 2
        assert len(vocab) == 3

    def test_get_missing(self):
        assert Vocabulary().get("nope") is None

    def test_intern_matches_repeated_add(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seed_labels = [f"l{i}" for i in rng.integers(0, 6, size=int(rng.integers(0, 4)))]
            labels = [f"l{i}" for i in rng.integers(0, 12, size=int(rng.integers(0, 30)))]
            bulk, single = Vocabulary(seed_labels), Vocabulary(seed_labels)
            assert bulk.intern(labels) == [single.add(label) for label in labels]
            assert bulk.labels == single.labels
            assert all(bulk.id(label) == i for i, label in enumerate(bulk))


class TestArrayLoadMatchesReference:
    """The array-native load keeps ids, edge rows and entry order of the scalar build."""

    def _check(self, triples, attr_rows):
        extras = [e for e, _, _ in attr_rows]
        ent_labels, rel_labels, edges = reference_build_graph(triples, extras)
        graph, table = load_dataset(triples, attr_rows)
        assert graph.entities.labels == ent_labels
        assert graph.relations.labels == rel_labels
        assert graph.edge_array.dtype == np.int64 and graph.edge_array.shape == (len(edges), 3)
        assert [tuple(row) for row in graph.edge_array.tolist()] == edges

        types = Vocabulary()
        entries = [(ent_labels.index(e), types.add(a), v) for e, a, v in attr_rows]
        entity_ids, attr_ids, values, ref_index, ref_per_entity = reference_attribute_entries(
            len(ent_labels), entries
        )
        assert table.types.labels == types.labels
        assert table.entity_ids.tolist() == entity_ids
        assert table.attr_ids.tolist() == attr_ids
        assert table.values.tolist() == values
        assert index(table) == ref_index
        assert [entries_of(table, e) for e in range(graph.n_entities)] == ref_per_entity

    def test_random_labelled_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            self._check(*random_load_inputs(rng))

    def test_empty_input(self):
        self._check([], [])

    def test_attribute_only_input(self):
        self._check([], [("x", "h", 1.0), ("w", "h", 2.0), ("x", "g", 3.0)])

    @pytest.mark.parametrize(
        "bad", [("", "p", "b"), ("a", "", "b"), ("a", "p", "")], ids=["head", "relation", "tail"]
    )
    def test_empty_triple_field_rejected(self, bad):
        triples = [("a", "p", "b"), bad, ("b", "p", "c")]
        with pytest.raises(ValueError, match="empty field"):
            reference_build_graph(triples)
        with pytest.raises(ValueError, match="empty field"):
            build_graph(triples)

    def test_duplicate_entry_rejected(self):
        entries = [(1, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]
        with pytest.raises(DataError):
            reference_attribute_entries(2, entries)
        with pytest.raises(DataError):
            AttributeTable.build(2, Vocabulary(["h", "g"]), entries)

    @pytest.mark.parametrize("entity", [-1, 2])
    def test_entity_id_out_of_range_rejected(self, entity):
        with pytest.raises(ValueError, match="out of range"):
            AttributeTable.build(2, Vocabulary(["h"]), [(0, 0, 1.0), (entity, 0, 2.0)])


class TestLookup:
    """``AttributeTable.lookup`` against the ``(entity, attr) -> entry`` dict."""

    def _check(self, table):
        ref = index(table)
        present = list(ref)
        got = table.lookup([e for e, _ in present], [a for _, a in present])
        assert got.tolist() == [ref[key] for key in present]
        # ids one past either end, where a bare code would alias a neighbor's entry
        absent = [
            (e, a)
            for e in range(-1, table.n_entities + 1)
            for a in range(-1, table.n_types + 1)
            if (e, a) not in ref
        ]
        got = table.lookup([e for e, _ in absent], [a for _, a in absent])
        assert got.tolist() == [-1] * len(absent)

    def test_random_tables(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            self._check(load_dataset(*random_load_inputs(rng))[1])

    def test_empty_table(self):
        self._check(load_dataset([], [])[1])


class TestAttrRange:
    def _table(self, values, statuses=None):
        types = Vocabulary(["h"])
        entries = [(i, 0, v) for i, v in enumerate(values)]
        table = AttributeTable.build(len(values), types, entries)
        if statuses is not None:
            table = table.with_status(np.array(statuses, dtype=np.int8))
        return table

    def test_max_minus_min(self):
        assert self._table([10.0, 30.0, 20.0]).value_range(0) == 20.0

    def test_single_value(self):
        assert self._table([5.0]).value_range(0) == 0.0

    def test_signed(self):
        assert self._table([-3.0, 7.0]).value_range(0) == 10.0

    def test_observed_only(self):
        table = self._table([1.0, 100.0], statuses=[Status.OBSERVED, Status.MISSING])
        assert table.value_range(0) == 0.0

    def test_no_observed_entries(self):
        table = self._table([1.0], statuses=[Status.MISSING])
        with pytest.raises(DataError):
            table.value_range(0)

    def test_observed_values_never_change_after_status_swap(self):
        table = self._table([4.0, 6.0])
        relabeled = table.with_status(np.array([Status.OBSERVED, Status.MISSING], dtype=np.int8))
        np.testing.assert_array_equal(relabeled.values, table.values)
