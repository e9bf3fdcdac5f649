import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flatland import (
    SimpleGraph,
    common_neighbor_graph,
    graph_shape,
    known_catalog,
    skeleton_graph,
)
from flatland.graphs import GraphShape, _classify_component, balls
from tests.conftest import edges_of, fam, graph_of, reference_layers


def shape_of(name: str, c: int) -> str:
    return str(graph_shape(common_neighbor_graph(skeleton_graph(fam(name)), c)))


class TestCommonNeighborGraph:
    def test_complete_graph_counts(self):
        k3 = graph_of(3, {(0, 1), (0, 2), (1, 2)})
        assert edges_of(common_neighbor_graph(k3, 1)) == edges_of(k3)
        assert not edges_of(common_neighbor_graph(k3, 0))

    def test_g4_of_t1214_is_3k4_with_mod3_classes(self):
        # Edges {i, j} with i = j (mod 3) under 1-based labels.
        g = common_neighbor_graph(skeleton_graph(fam("T(12,1,4)")), 4)
        expected = {
            (a, b)
            for a in range(12)
            for b in range(a + 1, 12)
            if (a - b) % 3 == 0
        }
        assert edges_of(g) == expected

    def test_g4_of_t1413_is_7k2(self):
        assert shape_of("T(14,1,3)", 4) == "7K_2"

    def test_edge_count_partition(self):
        g = skeleton_graph(fam("T(9,1,2)"))
        total = sum(
            len(edges_of(common_neighbor_graph(g, c))) for c in range(g.n)
        )
        assert total == g.n * (g.n - 1) // 2

    @given(st.integers(0, 2**32), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_relabeling(self, seed, c):
        g = skeleton_graph(fam("B(3,3)"))
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        relabeled = graph_of(g.n, {(perm[a], perm[b]) for a, b in edges_of(g)})
        lhs = common_neighbor_graph(relabeled, c)
        rhs = common_neighbor_graph(g, c)
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges_of(rhs)}
        assert edges_of(lhs) == mapped

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_definition_on_any_simple_graph(self, graph):
        n, pairs = graph
        edges = {(min(e), max(e)) for e in pairs if e[0] != e[1]}
        g = graph_of(n, edges)
        adj = [{v for e in edges if u in e for v in e if v != u} for u in range(n)]
        for c in range(n + 2):
            expected = {(u, v) for u in range(n) for v in range(u + 1, n)
                        if len(adj[u] & adj[v]) == c}
            h = common_neighbor_graph(g, c)
            assert edges_of(h) == expected
            assert graph_of(n, expected) == h

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    @settings(max_examples=60, deadline=None)
    def test_layers_are_the_distance_classes(self, graph):
        # The oracle's breadth-first search reads the masks; this one reads
        # the edges it was given.
        n, v, pairs = graph
        edges = {(min(e), max(e)) for e in pairs if e[0] != e[1]}
        adj = [{u for e in edges if w in e for u in e if u != w} for w in range(n)]
        dist = {v: 0}
        queue = [v]
        for x in queue:  # a plain breadth-first search
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        expected = [sum(1 << u for u in dist if dist[u] == d)
                    for d in range(max(dist.values()) + 1)]
        assert reference_layers(graph_of(n, edges), v) == expected

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    @settings(max_examples=60, deadline=None)
    def test_balls_are_the_unions_of_the_layers(self, graph):
        # Radius r holds, for every vertex, its layers 0..r; the balls stop
        # at the largest eccentricity, where none grows.
        n, pairs = graph
        g = graph_of(n, {e for e in pairs if e[0] != e[1]})
        walks = [reference_layers(g, v) for v in range(n)]
        radii = max(map(len, walks))
        assert list(balls(g)) == [[sum(walk[:r + 1]) for walk in walks] for r in range(radii)]


def layer_shape(g: SimpleGraph) -> GraphShape:
    """The shape from one breadth-first walk per component, an isolated
    vertex included."""
    unseen, parts = (1 << g.n) - 1, []
    while unseen:
        comp = sum(reference_layers(g, (unseen & -unseen).bit_length() - 1))
        unseen ^= comp
        parts.append(_classify_component(g, comp))
    return GraphShape(tuple(sorted(parts)))


class TestGraphShape:
    def test_cycles_for_small_twist_two(self):
        for n in range(11, 16):
            assert shape_of(f"T({n},1,2)", 4) == f"C_{n}"

    def test_null_shapes(self):
        assert shape_of("T(15,1,3)", 4) == "null_15"
        assert str(graph_shape(SimpleGraph(5, (0,) * 5))) == "null_5"

    def test_mixed_union_rendering(self):
        assert shape_of("B(4,3)", 4) == "K_4+C_8"
        assert shape_of("B(3,5)", 4) == "4C_3+null_3"
        assert shape_of("Q(5,3)", 4) == "2C_5+null_5"

    def test_path_component(self):
        assert str(graph_shape(graph_of(3, {(0, 1), (1, 2)}))) == "P_3"

    def test_triangle_component_renders_as_cycle(self):
        assert str(graph_shape(graph_of(3, {(0, 1), (0, 2), (1, 2)}))) == "C_3"

    def test_klein_bottle_shapes_from_proofs(self):
        assert shape_of("B(3,4)", 4) == "4C_3"
        assert shape_of("K(3,4)", 4) == "3K_4"
        assert shape_of("B(5,3)", 4) == "C_10+C_5"

    def test_isolated_vertices_from_zero_masks(self):
        # Every G_c of every distinct catalog complex with n <= 30 has the
        # shape that one walk per component gives.
        complexes = dict.fromkeys(named.complex for n in range(7, 31)
                                  for named in known_catalog(n))
        assert len(complexes) == 405
        for t in complexes:
            g = skeleton_graph(t)
            for c in range(7):
                h = common_neighbor_graph(g, c)
                assert graph_shape(h) == layer_shape(h)

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    @settings(max_examples=60, deadline=None)
    def test_shape_of_any_simple_graph(self, graph):
        n, pairs = graph
        g = graph_of(n, {e for e in pairs if e[0] != e[1]})
        assert graph_shape(g) == layer_shape(g)
