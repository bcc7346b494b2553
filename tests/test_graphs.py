"""Graph layer: quadratic-form graphs and the deletion-to-path test.

enumerate_admissible_deletions is cross-checked against networkx over every
graph on up to five vertices, and with required_weight over every graph on up
to four vertices with random edge weights in {1, 2}.  The reason a deletion
fails, and for weight and branch failures its detail, are checked against
networkx over every deletion of those weighted graphs, with and without
required_weight.
"""

import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from zccs import (
    GBF,
    LabeledGraph,
    NotAPathError,
    Term,
    enumerate_admissible_deletions,
    graph_of_quadratic,
    validate_deletion_path,
    z,
    zbar,
)

from conftest import all_graphs, quadratic_gbf


class TestLabeledGraph:
    def test_normalizes_orientation_and_sorts(self):
        g = LabeledGraph(4, ((3, 1, 2), (2, 0, 1)))
        assert g.edges == ((0, 2, 1), (1, 3, 2))

    def test_rejects_self_loop_duplicate_zero_weight(self):
        with pytest.raises(ValueError):
            LabeledGraph(2, ((0, 0, 1),))
        with pytest.raises(ValueError):
            LabeledGraph(2, ((0, 1, 1), (1, 0, 2)))
        with pytest.raises(ValueError):
            LabeledGraph(2, ((0, 1, 0),))
        with pytest.raises(ValueError):
            LabeledGraph(2, ((0, 5, 1),))

    def test_adjacency_restriction(self):
        g = LabeledGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)))
        adj = g.adjacency(keep=frozenset({1, 2, 3}))
        assert adj == {1: [2], 2: [1, 3], 3: [2]}


class TestGraphOfQuadratic:
    def test_extracts_weighted_edges_ignores_lower_degree(self):
        f = GBF(4, 4, (Term(2, (z(0), z(1))), Term(3, (z(2),)), Term(1, ())))
        g = graph_of_quadratic(f)
        assert g.vertex_count == 4
        assert g.edges == ((0, 1, 2),)

    def test_rejects_cubic_terms(self):
        f = GBF(3, 2, (Term(1, (z(0), z(1), z(2))),))
        with pytest.raises(ValueError):
            graph_of_quadratic(f)

    def test_rejects_complemented_quadratic_literals(self):
        f = GBF(2, 2, (Term(1, (z(0), zbar(1))),))
        with pytest.raises(ValueError):
            graph_of_quadratic(f)


def path_graph(nvars, *vertices):
    edges = tuple((vertices[i], vertices[i + 1], 1) for i in range(len(vertices) - 1))
    return LabeledGraph(nvars, edges)


class TestValidateDeletionPath:
    def test_single_vertex_is_a_path(self):
        cert = validate_deletion_path(LabeledGraph(1, ()), ())
        assert cert.path_order == (0,)
        assert cert.end_vertices == (0,)

    def test_simple_path_orientation_from_smaller_end(self):
        cert = validate_deletion_path(path_graph(3, 2, 1, 0), ())
        assert cert.path_order == (0, 1, 2)
        assert cert.end_vertices == (0, 2)

    def test_deletion_that_repairs(self):
        # star centered at 0 is not a path; removing 0 leaves singletons,
        # removing a leaf keeps it one
        star = LabeledGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
        with pytest.raises(NotAPathError) as info:
            validate_deletion_path(star, ())
        assert info.value.reason == NotAPathError.BRANCH

    def test_empty_residual(self):
        with pytest.raises(NotAPathError) as info:
            validate_deletion_path(LabeledGraph(2, ((0, 1, 1),)), (0, 1))
        assert info.value.reason == NotAPathError.EMPTY

    def test_disconnected_residual(self):
        g = LabeledGraph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(NotAPathError) as info:
            validate_deletion_path(g, ())
        assert info.value.reason == NotAPathError.DISCONNECTED

    def test_isolated_pair_disconnected(self):
        with pytest.raises(NotAPathError) as info:
            validate_deletion_path(LabeledGraph(2, ()), ())
        assert info.value.reason == NotAPathError.DISCONNECTED

    def test_cycle_residual(self):
        g = LabeledGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
        with pytest.raises(NotAPathError) as info:
            validate_deletion_path(g, ())
        assert info.value.reason == NotAPathError.CYCLE

    def test_weight_requirement(self):
        g = LabeledGraph(3, ((0, 1, 2), (1, 2, 1)))
        with pytest.raises(NotAPathError) as info:
            validate_deletion_path(g, (), required_weight=2)
        assert info.value.reason == NotAPathError.WEIGHT
        cert = validate_deletion_path(g, (2,), required_weight=2)
        assert cert.path_order == (0, 1)

    def test_deleted_vertices_come_back_sorted(self):
        cert = validate_deletion_path(path_graph(4, 1, 2), (3, 0))
        assert cert.deleted == (0, 3)
        assert cert.path_order == (1, 2)

    def test_deleted_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            validate_deletion_path(LabeledGraph(2, ((0, 1, 1),)), (5,))

    def test_duplicate_deletion_rejected(self):
        with pytest.raises(ValueError):
            validate_deletion_path(LabeledGraph(3, ((0, 1, 1),)), (2, 2))


def nx_residual(nvars, edges, deleted):
    g = nx.Graph()
    g.add_nodes_from(range(nvars))
    g.add_edges_from(edges)
    g.remove_nodes_from(deleted)
    return g


def nx_residual_is_path(nvars, edges, deleted):
    """Reference predicate: deleting the vertices leaves a nonempty path."""
    g = nx_residual(nvars, edges, deleted)
    if g.number_of_nodes() == 0:
        return False
    if not nx.is_connected(g):
        return False
    if g.number_of_edges() != g.number_of_nodes() - 1:
        return False
    return all(d <= 2 for _, d in g.degree())


class TestEnumerationAgainstNetworkx:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_matches_reference_on_all_graphs(self, nvars):
        for edges in all_graphs(nvars):
            graph = LabeledGraph(nvars, tuple((i, j, 1) for i, j in edges))
            for k in range(0, nvars):
                certs = enumerate_admissible_deletions(graph, k)
                want = {
                    d
                    for d in itertools.combinations(range(nvars), k)
                    if nx_residual_is_path(nvars, edges, d)
                }
                assert {c.deleted for c in certs} == want, (nvars, edges, k)
                for cert in certs:
                    # path_order is a Hamiltonian path of the residual, which
                    # is a path, so the residual has no edge off path_order
                    order, residual = cert.path_order, nx_residual(nvars, edges, cert.deleted)
                    assert sorted(order) == sorted(residual), (edges, cert)
                    assert all(residual.has_edge(a, b) for a, b in zip(order, order[1:])), cert
                    # the record's own invariants, which nothing rechecks
                    assert list(cert.deleted) == sorted(cert.deleted), cert
                    assert len(set(order)) == len(order), cert
                    assert not set(cert.deleted) & set(order), cert
                    assert cert.end_vertices == tuple(sorted({order[0], order[-1]})), cert

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_weighted_paths_match_reference(self, nvars):
        # the q-ary condition: a path whose every residual edge weighs q/2
        rng = random.Random(nvars)
        for edges in all_graphs(nvars):
            weighted = tuple((i, j, rng.choice((1, 2))) for i, j in edges)
            graph = LabeledGraph(nvars, weighted)
            for k in range(0, nvars):
                certs = enumerate_admissible_deletions(graph, k, required_weight=2)
                want = {
                    d
                    for d in itertools.combinations(range(nvars), k)
                    if nx_residual_is_path(nvars, edges, d)
                    and all(w == 2 for i, j, w in weighted if i not in d and j not in d)
                }
                assert {c.deleted for c in certs} == want, (nvars, weighted, k)

    def test_k_bounds(self):
        graph = LabeledGraph(3, ())
        with pytest.raises(ValueError):
            enumerate_admissible_deletions(graph, -1)
        with pytest.raises(ValueError):
            enumerate_admissible_deletions(graph, 3)

    def test_weight_filter_respected(self):
        graph = LabeledGraph(3, ((0, 1, 2), (1, 2, 2)))
        assert enumerate_admissible_deletions(graph, 0, required_weight=2)
        assert not enumerate_admissible_deletions(graph, 0, required_weight=3)


def nx_reason(nvars, weighted, deleted, required_weight):
    """Reference reason and detail of the first failed check, in the order
    empty, weight, branch, disconnected, cycle; None for a path."""
    kept = [(i, j, w) for i, j, w in weighted if i not in deleted and j not in deleted]
    g = nx_residual(nvars, [(i, j) for i, j, _ in weighted], deleted)
    if g.number_of_nodes() == 0:
        return NotAPathError.EMPTY, "no vertices survive the deletion"
    wrong = [(i, j, w) for i, j, w in kept if required_weight is not None and w != required_weight]
    if wrong:
        i, j, w = wrong[0]
        return NotAPathError.WEIGHT, f"edge ({i}, {j}) has weight {w}, required {required_weight}"
    branches = sorted(v for v, d in g.degree() if d >= 3)
    if branches:
        v = branches[0]
        return NotAPathError.BRANCH, f"vertex {v} has degree {g.degree(v)} after deletion"
    if not nx.is_connected(g):
        return NotAPathError.DISCONNECTED, None
    if g.number_of_edges() == g.number_of_nodes():
        return NotAPathError.CYCLE, None
    return None


class TestReasonsAgainstNetworkx:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_reasons_match_reference(self, nvars):
        rng = random.Random(100 + nvars)
        for edges in all_graphs(nvars):
            weighted = tuple((i, j, rng.choice((1, 2))) for i, j in edges)
            graph = LabeledGraph(nvars, weighted)
            for k in range(nvars + 1):
                for deleted in itertools.combinations(range(nvars), k):
                    for required_weight in (None, 2):
                        want = nx_reason(nvars, weighted, deleted, required_weight)
                        try:
                            validate_deletion_path(graph, deleted, required_weight)
                            got = None
                        except NotAPathError as exc:
                            got = exc.reason, exc.detail if want[1] is not None else None
                        assert got == want, (weighted, deleted, required_weight)

    def test_isolated_vertices_stay_in_bounded_memory(self):
        # 10^6 survivors and no edge: disconnected by the edge count alone,
        # with no per-vertex structure and a short message
        graph = LabeledGraph(10**6, ())
        tracemalloc.start()
        try:
            assert enumerate_admissible_deletions(graph, 0) == []
            with pytest.raises(NotAPathError) as info:
                validate_deletion_path(graph, (5,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.reason == NotAPathError.DISCONNECTED
        assert len(str(info.value)) < 100
        assert peak < 1 << 20, peak


class TestQuadraticRoundTrip:
    def test_gbf_edges_survive(self):
        f = quadratic_gbf(4, [(0, 1), (2, 3)])
        g = graph_of_quadratic(f)
        assert g.edges == ((0, 1, 1), (2, 3, 1))
