"""Simple graphs and the common-neighbor invariants used to separate
triangulations.

G_c(G) joins two vertices exactly when they have c common neighbors in G;
it commutes with relabeling, so differing G_c shapes certify that two
complexes are non-isomorphic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1, no loops or multi-edges."""

    n: int
    edges: frozenset[Edge]  # (a, b) with a < b

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if not (0 <= a < b < self.n):
                raise ValueError(f"bad edge ({a}, {b}) for n={self.n}")

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)


def common_neighbor_graph(g: SimpleGraph, c: int) -> SimpleGraph:
    """The graph on V(g) joining u, v iff they have exactly c common
    neighbors in g."""
    if c < 0:
        raise ValueError("common-neighbor count must be >= 0")
    adj = g.adjacency
    edges = frozenset(
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if len(adj[u] & adj[v]) == c
    )
    return SimpleGraph(g.n, edges)


# Component descriptors: ("isolated",), ("cycle", k), ("complete", k),
# ("path", k), ("other", nv, ne, degree multiset).
Descriptor = tuple


@dataclass(frozen=True)
class GraphShape:
    """Multiset of connected-component descriptors."""

    components: tuple[Descriptor, ...]

    def __str__(self) -> str:
        groups = Counter(self.components)
        rank = {"complete": 0, "cycle": 1, "path": 2, "other": 3, "isolated": 4}
        parts = []
        for desc in sorted(groups, key=lambda d: (rank[d[0]], -(d[1] if len(d) > 1 else 0))):
            count = groups[desc]
            kind = desc[0]
            if kind == "isolated":
                parts.append(f"null_{count}")
                continue
            mult = "" if count == 1 else str(count)
            if kind == "cycle":
                parts.append(f"{mult}C_{desc[1]}")
            elif kind == "complete":
                parts.append(f"{mult}K_{desc[1]}")
            elif kind == "path":
                parts.append(f"{mult}P_{desc[1]}")
            else:
                parts.append(f"{mult}other({desc[1]}v,{desc[2]}e)")
        return "+".join(parts) if parts else "null_0"


def _classify_component(g: SimpleGraph, comp: list[int]) -> Descriptor:
    k = len(comp)
    if k == 1:
        return ("isolated",)
    adj = g.adjacency
    degs = sorted(len(adj[v]) for v in comp)  # a component holds every neighbour
    ne = sum(degs) // 2
    if k >= 3 and degs == [2] * k:
        return ("cycle", k)
    if ne == k * (k - 1) // 2:
        return ("complete", k)
    if ne == k - 1 and degs == [1, 1] + [2] * (k - 2):
        return ("path", k)
    return ("other", k, ne, tuple(degs))


def graph_shape(g: SimpleGraph) -> GraphShape:
    """Decompose into connected components and classify each."""
    seen = [False] * g.n
    descriptors: list[Descriptor] = []
    for v in range(g.n):
        if seen[v]:
            continue
        comp = [v]
        seen[v] = True
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        descriptors.append(_classify_component(g, comp))
    return GraphShape(tuple(sorted(descriptors)))
