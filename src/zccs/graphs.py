"""Graphs of quadratic forms and the delete-vertices-leave-a-path test.

The quadratic part of a GBF induces a weighted graph: one vertex per
variable, one edge per degree-2 term, weighted by the term's coefficient.
The constructions in this package require that deleting a chosen set of
vertices leaves a Hamiltonian path on the survivors, and (for moduli above
2) that every surviving edge carries weight q/2.  Validation here is exact:
connectivity plus degree counting, no heuristics.  A PathCertificate is what
validate_deletion_path returns; nothing else builds one or checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .gbf import GBF

# Enumeration runs one O(V) path test per k-subset of the V vertices; this
# caps C(V, k) * V.  At the 0.8 us per vertex measured on a 2-vCPU x86 host
# that is about 8 s.
MAX_ENUMERATION_STEPS = 10**7


class NotAPathError(Exception):
    """Deleting the chosen vertices does not leave a valid weighted path."""

    EMPTY = "empty-residual"
    BRANCH = "branch-vertex"
    DISCONNECTED = "disconnected"
    CYCLE = "cycle"
    WEIGHT = "edge-weight"

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected simple graph with integer edge weights.

    Edges normalize to (min, max, weight) and sort; duplicate pairs and
    self-loops are rejected, as are zero weights (a zero coefficient is no
    edge at all).
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.vertex_count}")
        seen: set[tuple[int, int]] = set()
        normalized = []
        for i, j, w in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) out of range for {self.vertex_count} vertices")
            if w == 0:
                raise ValueError(f"edge ({i}, {j}) has zero weight")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            normalized.append((pair[0], pair[1], w))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def adjacency(self, keep: frozenset[int]) -> dict[int, list[int]]:
        """Neighbor lists of the vertices in keep, over the edges among them."""
        adj: dict[int, list[int]] = {v: [] for v in sorted(keep)}
        for i, j, _ in self.edges:
            if i in keep and j in keep:
                adj[i].append(j)
                adj[j].append(i)
        return adj


@dataclass(frozen=True)
class PathCertificate:
    """Witness that a deletion leaves a path: the order and its endpoints.

    It is the record validate_deletion_path returns, built nowhere else and
    not checked again.  end_vertices has two entries for a path on two or
    more vertices and one for the single-vertex path.  Either endpoint is a
    valid choice wherever a construction asks for one.
    """

    deleted: tuple[int, ...]
    path_order: tuple[int, ...]
    end_vertices: tuple[int, ...]


def graph_of_quadratic(f: GBF) -> LabeledGraph:
    """Graph of the quadratic part of f.

    Vertices are the m variables; each degree-2 term contributes an edge
    weighted by its coefficient.  Linear and constant terms are ignored.
    Terms of degree 3 or more, and quadratic terms written with complemented
    literals, have no graph reading and are rejected.
    """
    edges = []
    for coefficient, literals in f.terms:
        if len(literals) > 2:
            raise ValueError(f"term of degree {len(literals)} has no graph form")
        if len(literals) == 2:
            (i, i_complemented), (j, j_complemented) = literals
            if i_complemented or j_complemented:
                raise ValueError("quadratic terms must use plain literals")
            edges.append((i, j, coefficient))
    return LabeledGraph(f.m, tuple(edges))


def validate_deletion_path(
    graph: LabeledGraph,
    deleted: tuple[int, ...],
    required_weight: int | None = None,
) -> PathCertificate:
    """Certify that removing `deleted` leaves a path on the remaining vertices.

    The residual graph must be connected, acyclic, and free of vertices of
    degree 3 or more; a single surviving vertex counts as the trivial path.
    With required_weight set, every surviving edge must carry exactly that
    weight.  Raises NotAPathError (with a structured reason) on failure and
    ValueError on malformed input.
    """
    deleted_t = tuple(sorted(deleted))
    dset = set(deleted_t)
    if len(dset) != len(deleted_t):
        raise ValueError(f"deleted vertices repeat: {deleted}")
    for v in dset:
        if not 0 <= v < graph.vertex_count:
            raise ValueError(f"deleted vertex {v} out of range")

    survivors = graph.vertex_count - len(dset)
    if not survivors:
        raise NotAPathError(NotAPathError.EMPTY, "no vertices survive the deletion")

    edges = [(i, j, w) for i, j, w in graph.edges if i not in dset and j not in dset]
    if required_weight is not None:
        for i, j, w in edges:
            if w != required_weight:
                raise NotAPathError(
                    NotAPathError.WEIGHT,
                    f"edge ({i}, {j}) has weight {w}, required {required_weight}",
                )

    # Neighbour lists of the edges' ends only, so no structure grows with V;
    # a survivor missing from adj is isolated.
    adj = graph.adjacency(frozenset(v for i, j, _ in edges for v in (i, j)))
    for v, near in adj.items():
        if len(near) >= 3:
            raise NotAPathError(
                NotAPathError.BRANCH, f"vertex {v} has degree {len(near)} after deletion"
            )

    # A connected graph on r vertices has at least r - 1 edges, so only
    # r <= E + 1 survivors are listed below.
    if len(edges) < survivors - 1:
        raise NotAPathError(
            NotAPathError.DISCONNECTED,
            f"residual graph splits: {survivors} vertices, {len(edges)} edges",
        )

    # With every degree at most 2, each component is a path or a cycle: one
    # walk from an end (or from any vertex when none is an end) runs until it
    # stops at the far end or closes, and covers exactly its component.
    residual = [v for v in range(graph.vertex_count) if v not in dset]
    ends = tuple(v for v in residual if len(adj.get(v, ())) <= 1)
    start = ends[0] if ends else residual[0]
    order, nxt = [start], adj.get(start, [])[:1]
    while nxt and nxt[0] != start:
        order.append(nxt[0])
        nxt = [u for u in adj[order[-1]] if u != order[-2]]
    if len(order) != len(residual):
        missing = sorted(set(residual) - set(order))
        raise NotAPathError(
            NotAPathError.DISCONNECTED,
            f"residual graph splits; unreachable from {start}: {missing}",
        )
    if not ends:
        raise NotAPathError(
            NotAPathError.CYCLE, f"residual graph is a cycle on {len(residual)} vertices"
        )

    return PathCertificate(deleted=deleted_t, path_order=tuple(order), end_vertices=ends)


def enumerate_admissible_deletions(
    graph: LabeledGraph, k: int, required_weight: int | None = None
) -> list[PathCertificate]:
    """All k-subsets of vertices whose deletion leaves a valid path.

    Certificates come back in lexicographic order of the deleted set; each
    carries both endpoint choices.  k must satisfy 0 <= k < vertex_count,
    and C(V, k) * V must stay within MAX_ENUMERATION_STEPS.
    """
    vertices = graph.vertex_count
    if not 0 <= k < vertices:
        raise ValueError(f"k={k} out of range for {vertices} vertices")
    # C(V, j) grows with j up to V/2 and C(130, 65) alone is past the limit,
    # so capping j at 65 keeps comb() cheap without letting a large k through.
    if comb(vertices, min(k, vertices - k, 65)) * vertices > MAX_ENUMERATION_STEPS:
        raise ValueError(
            f"enumerating the C({vertices}, {k}) deletions of {vertices} vertices "
            f"exceeds the limit of {MAX_ENUMERATION_STEPS} path-test steps"
        )
    # combinations() copies its pool, and only k = 0 admits a large V
    found = []
    for combo in combinations(range(vertices), k) if k else [()]:
        try:
            found.append(validate_deletion_path(graph, combo, required_weight))
        except NotAPathError:
            continue
    return found
