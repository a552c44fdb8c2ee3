import numpy as np
import pytest

from mrap.attributes import AttributeTable, Status
from mrap.errors import DataError, ParseError
from mrap.graph import Direction, Vocabulary, build_graph, edge_codes

from helpers import (
    OrientedRelation,
    entries_of,
    graph_of,
    index,
    load_rows,
    neighbors,
    random_load_inputs,
    reference_attribute_entries,
    reference_build_graph,
    table_of,
    triples_of,
)


class TestBuildGraph:
    def test_single_edge_orientation(self):
        g = graph_of([("a", "p", "b")])
        assert g.n_entities == 2
        assert g.n_relations == 1
        a, b = g.entities.id("a"), g.entities.id("b")
        p = g.relations.id("p")
        assert neighbors(g, b) == [(a, OrientedRelation(p, Direction.FORWARD))]
        assert neighbors(g, a) == [(b, OrientedRelation(p, Direction.REVERSE))]

    def test_duplicate_triples_stored_once(self):
        g = graph_of([("a", "p", "b"), ("a", "p", "b")])
        assert g.n_edges == 1

    def test_neighbors_deterministic_order(self):
        g = graph_of([("c", "q", "b"), ("a", "p", "b")])
        b = g.entities.id("b")
        got = [(n, o.relation, o.direction) for n, o in neighbors(g, b)]
        assert got == sorted(got)  # neighbor id, then relation id, then direction
        assert {g.entities.label(n) for n, _, _ in got} == {"a", "c"}
        assert all(d is Direction.FORWARD for _, _, d in got)

    def test_invalid_entity_id(self):
        g = graph_of([("a", "p", "b")])
        with pytest.raises(ValueError):
            neighbors(g, 99)

    def test_empty_input(self):
        g = graph_of([])
        assert g.n_entities == 0 and g.n_edges == 0

    def test_empty_field_rejected(self):
        with pytest.raises(ParseError, match="^line 1: empty field in triple$"):
            graph_of([("a", "", "b")])

    def test_triple_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="triple id out of range"):
            build_graph(Vocabulary(["a"]), Vocabulary(["p"]), [[0, 0, 1]])
        with pytest.raises(ValueError, match="triple id out of range"):
            build_graph(Vocabulary(["a"]), Vocabulary(["p"]), [[0, -1, 0]])

    def test_extra_entities_are_isolated(self):
        g = graph_of([("a", "p", "b")], extra_entities=["z", "a"])
        z = g.entities.id("z")
        assert neighbors(g, z) == []
        assert g.n_entities == 3  # "a" not duplicated

    def test_self_loop_one_entry_per_direction(self):
        g = graph_of([("a", "p", "a")])
        a = g.entities.id("a")
        directions = sorted(o.direction for _, o in neighbors(g, a))
        assert directions == [Direction.FORWARD, Direction.REVERSE]


class TestGraphProperties:
    def test_round_trip_reproduces_triple_set(self):
        triples = [("a", "p", "b"), ("b", "q", "c"), ("a", "p", "b"), ("c", "p", "a")]
        g = graph_of(triples)
        assert set(triples_of(g)) == set(triples)

    def test_orientation_symmetry_random(self):
        rng = np.random.default_rng(7)
        names = [f"n{i}" for i in range(12)]
        rels = ["p", "q", "r"]
        triples = [
            (names[rng.integers(12)], rels[rng.integers(3)], names[rng.integers(12)])
            for _ in range(60)
        ]
        g = graph_of(triples)
        for v in range(g.n_entities):
            for n, oriented in neighbors(g, v):
                assert (v, oriented.flipped) in neighbors(g, n)

    def test_adjacency_total_twice_edges(self):
        triples = [("a", "p", "b"), ("b", "q", "c"), ("c", "p", "a"), ("a", "q", "c")]
        g = graph_of(triples)
        assert sum(len(neighbors(g, v)) for v in range(g.n_entities)) == 2 * g.n_edges


class TestVocabulary:
    def test_bijection(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab.id("x") == 0 and vocab.label(1) == "y"
        assert vocab.intern(["x", "z", "z"]) == [0, 2, 2]
        assert len(vocab) == 3

    def test_get_missing(self):
        assert Vocabulary().get("nope") is None

    def test_intern_matches_repeated_add(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seed_labels = [f"l{i}" for i in rng.integers(0, 6, size=int(rng.integers(0, 4)))]
            labels = [f"l{i}" for i in rng.integers(0, 12, size=int(rng.integers(0, 30)))]
            bulk, ids = Vocabulary(seed_labels), {}  # ids: each label added once, when first seen
            for label in seed_labels + labels:
                ids.setdefault(label, len(ids))
            assert bulk.intern(labels) == [ids[label] for label in labels]
            assert bulk.labels == list(ids)
            assert all(bulk.id(label) == i for i, label in enumerate(bulk.labels))
            with pytest.raises(KeyError):  # interning leaves no default behind
                bulk.id("unseen")
            assert "unseen" not in bulk and bulk.get("unseen") is None and len(bulk) == len(ids)


class TestArrayLoadMatchesReference:
    """The array-native load keeps ids, edge rows and entry order of the scalar build."""

    def _check(self, triples, attr_rows):
        extras = [e for e, _, _ in attr_rows]
        ent_labels, rel_labels, edges = reference_build_graph(triples, extras)
        graph, table = load_rows(triples, attr_rows)
        assert graph.entities.labels == ent_labels
        assert graph.relations.labels == rel_labels
        assert graph.edge_array.dtype == np.int64 and graph.edge_array.shape == (len(edges), 3)
        assert [tuple(row) for row in graph.edge_array.tolist()] == edges

        types = Vocabulary()
        type_ids = types.intern(a for _, a, _ in attr_rows)
        entries = [(ent_labels.index(e), a, v) for (e, _, v), a in zip(attr_rows, type_ids)]
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
        for _ in range(140):
            self._check(*random_load_inputs(rng))

    def test_random_inputs_with_many_entities_or_many_relations(self):
        # the edge code (head * n_rel + rel) * n_ent + tail with either size the larger
        rng = np.random.default_rng(12)
        for _ in range(30):
            self._check(*random_load_inputs(rng, n_names=int(rng.integers(200, 400))))
        for _ in range(30):
            n_names = int(rng.integers(2, 8))
            self._check(*random_load_inputs(rng, n_names=n_names, n_rels=int(rng.integers(n_names + 1, 40))))

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
        with pytest.raises(ParseError, match="^line 2: empty field in triple$"):
            graph_of(triples)

    def test_duplicate_entry_rejected(self):
        entries = [(1, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]
        with pytest.raises(DataError):
            reference_attribute_entries(2, entries)
        with pytest.raises(DataError):
            AttributeTable.build(2, Vocabulary(["h", "g"]), *table_of(entries).columns)

    @pytest.mark.parametrize("entity", [-1, 2])
    def test_entity_id_out_of_range_rejected(self, entity):
        with pytest.raises(ValueError, match="out of range"):
            AttributeTable.build(2, Vocabulary(["h"]), [0, entity], [0, 0], [1.0, 2.0])

    @pytest.mark.parametrize("attr", [-1, 1])
    def test_attribute_id_out_of_range_rejected(self, attr):
        # with one type, entity 1's attribute 0 and entity 0's attribute 1 share code 1
        with pytest.raises(ValueError, match="attribute id out of range"):
            AttributeTable.build(2, Vocabulary(["h"]), [0, 1], [attr, 0], [1.0, 2.0])


class TestEdgeCodes:
    def test_codes_ascend_with_rows(self):
        rng = np.random.default_rng(5)
        for n_entities, n_relations in [(7, 3), (3, 7), (1, 1)]:
            rows = np.stack(
                [rng.integers(n, size=200) for n in (n_entities, n_relations, n_entities)], axis=1
            )
            codes = edge_codes(*rows.T, n_entities, n_relations)
            order = np.lexsort(rows.T[::-1])
            assert (np.diff(codes[order]) >= 0).all()
            assert len(np.unique(codes)) == len(np.unique(rows, axis=0))

    @pytest.mark.parametrize("n_entities, n_relations", [(2**31, 2), (2**21, 2**21), (3_037_000_499, 1)])
    def test_largest_code_that_fits(self, n_entities, n_relations):
        last = np.array([n_entities - 1], dtype=np.int64)
        code = edge_codes(last, np.array([n_relations - 1], dtype=np.int64), last, n_entities, n_relations)
        assert int(code[0]) == n_entities**2 * n_relations - 1

    @pytest.mark.parametrize("n_entities, n_relations", [(2**31, 3), (2**31 + 1, 2), (2**21, 2**21 + 1)])
    def test_sizes_past_int64_rejected(self, n_entities, n_relations):
        zero = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match=f"{n_entities} entities and {n_relations} relations"):
            edge_codes(zero, zero, zero, n_entities, n_relations)


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
            self._check(load_rows(*random_load_inputs(rng))[1])

    def test_empty_table(self):
        self._check(load_rows([], [])[1])


class TestAttrRange:
    def _table(self, values, statuses=None):
        types = Vocabulary(["h"])
        entries = [(i, 0, v) for i, v in enumerate(values)]
        table = AttributeTable.build(len(values), types, *table_of(entries).columns)
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
