"""Qubit layout graphs, patch embeddings, and coupling-edge classification.

Heavy-hex graphs are built as brick walls: each hexagon is a 4x2 brick on a
square grid whose boundary carries 12 qubits (five along the top and bottom
runs, one on each side), with odd brick rows offset by two columns.  The
resulting numbering is row-major over grid coordinates and emitted alongside
the graph, since the figure numbering in the source layout is not specified
anywhere reusable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMBED_MAX_EXPANSIONS = 10**6  # embed_patches' search budget


@dataclass(frozen=True)
class LayoutGraph:
    """Simple undirected graph on qubits 0..n_qubits-1."""

    n_qubits: int
    edges: frozenset[tuple[int, int]]
    coords: tuple[tuple[int, int], ...] | None = None  # (row, col) per qubit, if planar

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop in layout")
            if not (0 <= u < self.n_qubits and 0 <= v < self.n_qubits):
                raise ValueError("edge endpoint out of range")
            if u > v:
                raise ValueError("edges must be stored as sorted pairs")

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_qubits)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "edges": sorted([list(e) for e in self.edges]),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LayoutGraph":
        return cls(d["n_qubits"], frozenset(tuple(sorted(e)) for e in d["edges"]))


@dataclass(frozen=True)
class PatchEmbedding:
    """Vertex-disjoint embedded paths plus the leftover padding qubits.

    For the main construction each path has 16 qubits and even path
    positions carry the support (S0) qubits; for the warmup each path has
    4 qubits and the last one is the coupling qubit.

    Consecutive path qubits sit at layout distance 1 or 2.  Distance-2
    steps cannot be avoided entirely: a heavy-hex patch of h hexes is the
    full subdivision of a honeycomb, so its bipartition classes have sizes
    (V, E) of the honeycomb -- (22, 27) for six hexes -- while k disjoint
    16-vertex edge-paths would need 8k vertices from each class.
    """

    paths: tuple[tuple[int, ...], ...]
    padding: tuple[int, ...]

    def s0_qubits(self) -> set[int]:
        return {p[i] for p in self.paths for i in range(0, len(p), 2)}

    def s1_qubits(self) -> set[int]:
        return {p[i] for p in self.paths for i in range(1, len(p), 2)}

    def coupling_qubits(self) -> set[int]:
        """Warmup convention: last qubit of each patch path."""
        return {p[-1] for p in self.paths}

    def patch_qubits(self) -> set[int]:
        return {q for p in self.paths for q in p}

    def to_json_dict(self) -> dict:
        return {"paths": [list(p) for p in self.paths], "padding": list(self.padding)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PatchEmbedding":
        return cls(tuple(tuple(p) for p in d["paths"]), tuple(d["padding"]))


def build_heavy_hex(rows: int, cols: int) -> LayoutGraph:
    """Heavy-hex layout for a rows x cols grid of hexes; (3, 2) gives 49 qubits."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    verts: set[tuple[int, int]] = set()
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for r in range(rows):
        for c in range(cols):
            x0 = 4 * c + 2 * (r % 2)
            top = [(2 * r, x0 + i) for i in range(5)]
            bot = [(2 * r + 2, x0 + i) for i in range(5)]
            ring = top + [(2 * r + 1, x0 + 4)] + bot[::-1] + [(2 * r + 1, x0)]
            verts.update(ring)
            for i in range(len(ring)):
                a, b = ring[i], ring[(i + 1) % len(ring)]
                edges.add((min(a, b), max(a, b)))
    order = sorted(verts)
    index = {v: i for i, v in enumerate(order)}
    edge_idx = frozenset(
        (min(index[a], index[b]), max(index[a], index[b])) for a, b in edges
    )
    return LayoutGraph(len(order), edge_idx, coords=tuple(order))


def build_path(n: int) -> LayoutGraph:
    """A bare path layout of n qubits."""
    if n < 1:
        raise ValueError("path needs at least one qubit")
    return LayoutGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


class EmbeddingError(RuntimeError):
    pass


def _square_adjacency(g: LayoutGraph) -> list[list[int]]:
    """Adjacency of the distance-<=2 graph, each list sorted."""
    adj = g.neighbors()
    out = []
    for v in range(g.n_qubits):
        near = set(adj[v])
        for w in adj[v]:
            near.update(adj[w])
        near.discard(v)
        out.append(sorted(near))
    return out


def embed_patches(
    g: LayoutGraph,
    n_patch: int,
    path_len: int,
    seed: int = 0,
) -> PatchEmbedding:
    """Find n_patch vertex-disjoint paths of path_len qubits each.

    Consecutive path qubits must lie at layout distance 1 or 2, with
    distance-1 steps preferred (see PatchEmbedding for why distance-2
    steps are unavoidable on heavy-hex).  Seeded randomized DFS with
    backtracking: candidates are ordered by step length, then by fewest
    onward moves with random tie-breaks, and branches that strand more
    distance-2-graph vertices than the padding budget are pruned.  Raises
    EmbeddingError once EMBED_MAX_EXPANSIONS expansions are spent.
    """
    if n_patch * path_len > g.n_qubits:
        raise EmbeddingError("not enough qubits for the requested patches")
    adj = g.neighbors()
    sq = _square_adjacency(g)
    near1 = [set(a) for a in adj]
    rng = np.random.default_rng(seed)
    used = np.zeros(g.n_qubits, dtype=bool)
    pad_budget = g.n_qubits - n_patch * path_len
    paths: list[list[int]] = []
    budget = [EMBED_MAX_EXPANSIONS]

    def free_degree(v: int) -> int:
        return sum(1 for w in sq[v] if not used[w])

    def ordered(cands: list[int], anchor: int | None) -> list[int]:
        keys = rng.random(len(cands))
        def rank(pair):
            k, v = pair
            step = 0 if anchor is None or v in near1[anchor] else 1
            return (step, free_degree(v), k)
        return [v for _, v in sorted(zip(keys, cands), key=rank)]

    def feasible(paths_left: int, tip: int | None) -> bool:
        # Components of the free distance-<=2 graph smaller than path_len
        # can only become padding, unless the active tip reaches them.
        free = [v for v in range(g.n_qubits) if not used[v]]
        tip_reach = set(sq[tip]) if tip is not None else set()
        seen: set[int] = set()
        stranded = 0
        capacity = 0
        for s in free:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            i = 0
            while i < len(comp):
                for w in sq[comp[i]]:
                    if not used[w] and w not in seen:
                        seen.add(w)
                        comp.append(w)
                i += 1
            if tip_reach & set(comp):
                capacity += max(0, len(comp) - 1) // path_len + 1
            elif len(comp) < path_len:
                stranded += len(comp)
            else:
                capacity += len(comp) // path_len
        return stranded <= pad_budget and capacity >= paths_left

    def extend(path: list[int]) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        if len(path) == path_len:
            return place_next()
        tip = path[-1]
        for v in ordered([w for w in sq[tip] if not used[w]], tip):
            used[v] = True
            path.append(v)
            if feasible(n_patch - len(paths), v if len(path) < path_len else None) and extend(path):
                return True
            path.pop()
            used[v] = False
        return False

    def place_next() -> bool:
        if len(paths) == n_patch:
            return True
        if not feasible(n_patch - len(paths), None):
            return False
        starts = ordered([v for v in range(g.n_qubits) if not used[v]], None)
        for s in starts:
            if budget[0] <= 0:
                return False
            used[s] = True
            path = [s]
            paths.append(path)
            if extend(path):
                return True
            paths.pop()
            used[s] = False
        return False

    if not place_next():
        raise EmbeddingError(
            f"no embedding of {n_patch} length-{path_len} paths found "
            f"within {EMBED_MAX_EXPANSIONS} expansions (seed {seed})"
        )
    padding = tuple(v for v in range(g.n_qubits) if not used[v])
    emb = PatchEmbedding(tuple(tuple(p) for p in paths), padding)
    validate_embedding(g, emb, path_len)
    return emb


def count_loose_steps(g: LayoutGraph, emb: PatchEmbedding) -> int:
    """Number of consecutive path pairs that are not lattice edges."""
    return sum(
        0 if g.has_edge(a, b) else 1
        for p in emb.paths
        for a, b in zip(p, p[1:])
    )


def validate_embedding(g: LayoutGraph, emb: PatchEmbedding, path_len: int | None = None) -> None:
    """Independent validator: disjointness, step distance <= 2, exact length."""
    near2 = _square_adjacency(g)
    seen: set[int] = set()
    for path in emb.paths:
        if path_len is not None and len(path) != path_len:
            raise EmbeddingError(f"path length {len(path)} != {path_len}")
        if len(set(path)) != len(path):
            raise EmbeddingError("path revisits a qubit")
        if seen & set(path):
            raise EmbeddingError("paths are not vertex-disjoint")
        seen.update(path)
        for a, b in zip(path, path[1:]):
            if b not in near2[a]:
                raise EmbeddingError(f"path step ({a},{b}) exceeds layout distance 2")
    expected_pad = set(range(g.n_qubits)) - seen
    if set(emb.padding) != expected_pad:
        raise EmbeddingError("padding list inconsistent with paths")


def classify_edges(g: LayoutGraph, emb: PatchEmbedding, mode: str) -> frozenset[tuple[int, int]]:
    """Edges that receive the two-qubit interaction term.

    main:   every lattice edge with at least one endpoint among the
            odd-position (S1) qubits of some patch.
    warmup: every lattice edge touching no patch, plus edges whose only
            patch endpoint is a coupling qubit.
    """
    validate_embedding(g, emb)
    if mode == "main":
        s1 = emb.s1_qubits()
        return frozenset(e for e in g.edges if e[0] in s1 or e[1] in s1)
    if mode == "warmup":
        patch = emb.patch_qubits()
        coupling = emb.coupling_qubits()
        out = set()
        for u, v in g.edges:
            inside = {u, v} & patch
            if not inside:
                out.add((u, v))
            elif inside <= coupling:
                out.add((u, v))
        return frozenset(out)
    raise ValueError(f"unknown mode {mode!r}")
