"""Seeded synthetic knowledge graphs for the benchmark.

Every entity carries a latent base value drawn from N(1950, 30). Attribute
type ``k`` of an entity is ``base + 10 k + N(0, 5)`` and is present with
probability ``density``. Relations come in two kinds:

* local relations link entities whose bases are close. Relation ``r`` picks a
  head at random and a tail whose rank by base lies within a window of the
  head's rank. Windows grow geometrically from ``locality[0]`` to
  ``locality[1]`` (shares of the entity count) across the local relations, so
  relation models range from tight to loose.
* noise relations link uniformly random endpoints and carry no signal.

The same spec and seed always give byte-identical files. Values are written
as ``repr(float(v))``: a bare numpy scalar prints as ``np.float64(...)``
under numpy 2, which the attribute parser rejects.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

BASE_MEAN = 1950.0
BASE_STD = 30.0
TYPE_OFFSET = 10.0
VALUE_NOISE = 5.0


@dataclass(frozen=True)
class GraphSpec:
    entities: int
    edges_per_entity: int
    relations: int
    noise_relations: int
    types: int
    density: float
    locality: tuple[float, float] = (0.002, 0.2)

    def __post_init__(self):
        if self.entities < 4 or self.edges_per_entity < 1 or self.types < 1:
            raise ValueError(f"degenerate graph spec {self}")
        if not 0 <= self.noise_relations <= self.relations:
            raise ValueError("noise_relations must lie in [0, relations]")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        lo, hi = self.locality
        if not 0.0 < lo <= hi < 0.5:
            raise ValueError("locality windows must satisfy 0 < tight <= loose < 0.5")

    def as_dict(self) -> dict:
        return asdict(self)


def _windows(spec: GraphSpec) -> np.ndarray:
    """Half-width in ranks of each local relation's window, tight to loose."""
    n_local = spec.relations - spec.noise_relations
    lo, hi = spec.locality
    shares = lo * (hi / lo) ** (np.arange(n_local) / max(n_local - 1, 1))
    return np.maximum(1, np.round(shares * spec.entities)).astype(np.int64)


def generate(spec: GraphSpec, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (edges[m, 3] as head/relation/tail ids, values[n, T], present[n, T])."""
    rng = np.random.default_rng([seed, 0x6B67])
    n = spec.entities
    base = rng.normal(BASE_MEAN, BASE_STD, n)
    order = np.argsort(base, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    m = n * spec.edges_per_entity
    relation = rng.integers(0, spec.relations, m)
    head = rng.integers(0, n, m)
    tail = rng.integers(0, n, m)  # noise relations keep these uniform endpoints
    n_local = spec.relations - spec.noise_relations
    local = relation < n_local
    width = _windows(spec)[relation[local]]
    offset = rng.integers(1, width + 1) * rng.choice([-1, 1], size=width.size)
    target_rank = rank[head[local]] + offset
    outside = (target_rank < 0) | (target_rank >= n)
    target_rank[outside] -= 2 * offset[outside]  # reflect back into range
    tail[local] = order[target_rank]
    loops = head == tail
    tail[loops] = (tail[loops] + 1) % n

    present = rng.random((n, spec.types)) < spec.density
    values = (
        base[:, None]
        + TYPE_OFFSET * np.arange(spec.types)[None, :]
        + rng.normal(0.0, VALUE_NOISE, (n, spec.types))
    )
    return np.stack([head, relation, tail], axis=1), values, present


def write_graph(spec: GraphSpec, seed: int, out_dir: Path) -> tuple[dict, set[tuple[str, str]]]:
    """Write ``triples.tsv`` and ``attrs.tsv``.

    Returns their row counts and the (entity, attribute) labels written.
    """
    edges, values, present = generate(spec, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "triples.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in edges.tolist())
    ents, types = np.nonzero(present)
    with open(out_dir / "attrs.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(
            f"e{e}\ta{k}\t{v!r}\n"
            for e, k, v in zip(ents.tolist(), types.tolist(), values[ents, types].tolist())
        )
    per_type = np.bincount(types, minlength=spec.types)
    counts = {"triples": len(edges), "attributes": int(len(ents)), "per_type": per_type.tolist()}
    return counts, {(f"e{e}", f"a{k}") for e, k in zip(ents.tolist(), types.tolist())}


# -- planted instance ----------------------------------------------------------

PLANTED_ETA = 0.9  # child u = PLANTED_ETA * parent u + PLANTED_TAU
PLANTED_TAU = 120.0
PLANTED_INNER = (2.0, -50.0)  # w = a * u + b within every node


def write_planted(seed: int, out_dir: Path, nodes: int = 400, roots: int = 8) -> dict[tuple[str, str], float]:
    """Noiseless forest whose values satisfy the planted models exactly.

    Attribute ``u`` flows from parent to child through one exact affine
    relation, and ``w`` is an exact affine view of ``u`` inside each node, so
    a converged run must return every hidden value up to float64 rounding.
    Returns the truth of every (entity, attribute) entry written.
    """
    rng = np.random.default_rng([seed, 0x706C])
    u = np.empty(nodes)
    u[:roots] = rng.uniform(500.0, 1500.0, roots)
    parents = [int(rng.integers(0, i)) for i in range(roots, nodes)]
    for child, parent in enumerate(parents, start=roots):
        u[child] = PLANTED_ETA * u[parent] + PLANTED_TAU
    a, b = PLANTED_INNER
    w = a * u + b
    truth: dict[tuple[str, str], float] = {}
    for i in range(nodes):
        truth[(f"n{i}", "u")] = float(u[i])
        truth[(f"n{i}", "w")] = float(w[i])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "triples.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"n{p}\tparent_of\tn{c}\n" for c, p in enumerate(parents, start=roots))
    with open(out_dir / "attrs.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{e}\t{k}\t{v!r}\n" for (e, k), v in truth.items())
    return truth
