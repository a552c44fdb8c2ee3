"""Build a small multi-relational graph and inspect its incident edges.

The graph stores its edges as one sorted array of (head, relation, tail)
rows, and every edge can be traversed in both directions: the edge
(person, directed, film) lets the film see its director (forward) and the
director see the film (reverse). Numeric attributes live in a sparse table
next to the graph.
"""
from mrap import build_graph
from mrap.attributes import AttributeTable
from mrap.graph import Direction, Vocabulary

triples = [
    ("coppola", "directed", "the_godfather"),
    ("coppola", "directed", "apocalypse_now"),
    ("sofia", "child_of", "coppola"),
    ("sofia", "directed", "lost_in_translation"),
]
graph = build_graph(*zip(*triples))  # head, relation and tail columns
print(f"{graph.n_entities} entities, {graph.n_relations} relation types, {graph.n_edges} edges\n")

edges = graph.edge_array
for name in ("coppola", "the_godfather", "sofia"):
    v = graph.entities.id(name)
    print(f"incident edges of {name}:")
    # an edge is seen FORWARD from its tail and REVERSE from its head
    for direction, here, there in ((Direction.FORWARD, 2, 0), (Direction.REVERSE, 0, 2)):
        arrow = "<-" if direction is Direction.FORWARD else "->"
        for row in edges[edges[:, here] == v].tolist():
            print(
                f"  {name} {arrow}{graph.relations.label(row[1])}{arrow[::-1]} "
                f"{graph.entities.label(row[there])}  ({direction.name.lower()})"
            )
    print()

# attach numeric attributes; values stay in native units
types = Vocabulary()
rows = [
    ("coppola", "date_of_birth", 1939.0),
    ("sofia", "date_of_birth", 1971.0),
    ("the_godfather", "film_release", 1972.0),
    ("apocalypse_now", "film_release", 1979.0),
    ("lost_in_translation", "film_release", 2003.0),
]
entity_ids = [graph.entities.id(e) for e, _, _ in rows]
attr_ids = types.intern(a for _, a, _ in rows)
table = AttributeTable.build(graph.n_entities, types, entity_ids, attr_ids, [v for _, _, v in rows])

print("attribute summaries over observed entries:")
for attr in range(table.n_types):
    observed = table.observed_values(attr)
    print(f"  {types.label(attr):15s} count = {observed.size}, mean = {table.mean_value(attr)}")
    print(f"  {'':15s} observed range = {table.value_range(attr)}")
