"""Simple graphs and the common-neighbor invariants used to separate
triangulations.

G_c(G) joins two vertices exactly when they have c common neighbors in G;
it commutes with relabeling, so differing G_c shapes certify that two
complexes are non-isomorphic.  A graph keeps its neighbourhoods as bit
masks, so |N(u) & N(v)| is one AND and one popcount, a degree is one
popcount, and a component grows by whole frontiers.  It counts the common
neighbours of every pair once, and keeps only the pairs that share one,
grouped by count: G_1, G_2, ... are read off those groups.  G_0 needs no
count (no bit in common), so it is built without one.
"""

from __future__ import annotations

from collections import Counter
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
    def neighbor_masks(self) -> tuple[int, ...]:
        """Bit v of mask u is set iff u and v are adjacent."""
        masks = [0] * self.n
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    @cached_property
    def pairs_by_common_count(self) -> dict[int, list[Edge]]:
        """c -> the pairs (u, v), u < v, with exactly c >= 1 common
        neighbours; the pairs with none are left out."""
        masks, n = self.neighbor_masks, self.n
        pairs: dict[int, list[Edge]] = {}
        for u, mask in enumerate(masks):
            for v in range(u + 1, n):
                c = (mask & masks[v]).bit_count()
                if c:
                    pairs.setdefault(c, []).append((u, v))
        return pairs


def common_neighbor_graph(g: SimpleGraph, c: int) -> SimpleGraph:
    """The graph on V(g) joining u, v iff they have exactly c common
    neighbors in g."""
    if c < 0:
        raise ValueError("common-neighbor count must be >= 0")
    if c > 0:
        return SimpleGraph(g.n, frozenset(g.pairs_by_common_count.get(c, ())))
    # G_0 tells most non-isomorphic pairs apart, so it pays for no count.
    masks, n = g.neighbor_masks, g.n
    edges = frozenset(
        (u, v) for u, mask in enumerate(masks) for v in range(u + 1, n) if not mask & masks[v]
    )
    g0 = SimpleGraph(n, edges)
    # G_0 is nearly complete, so its masks come from g's, not from its edges:
    # v shares a neighbour with u iff it is a neighbour of a neighbour of u.
    near = [1 << u for u in range(n)]
    for a, b in g.edges:
        near[a] |= masks[b]
        near[b] |= masks[a]
    full = (1 << n) - 1
    g0.__dict__["neighbor_masks"] = tuple(full ^ m for m in near)  # cached_property's slot
    return g0


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
    masks = g.neighbor_masks
    degs = sorted(masks[v].bit_count() for v in comp)  # a component holds every neighbour
    ne = sum(degs) // 2
    if k >= 3 and degs == [2] * k:
        return ("cycle", k)
    if ne == k * (k - 1) // 2:
        return ("complete", k)
    if ne == k - 1 and degs == [1, 1] + [2] * (k - 2):
        return ("path", k)
    return ("other", k, ne, tuple(degs))


def graph_shape(g: SimpleGraph) -> GraphShape:
    """Decompose into connected components and classify each.  A component
    grows by whole frontiers: the OR of their vertices' neighbour masks,
    less the vertices already reached."""
    masks = g.neighbor_masks
    unseen = (1 << g.n) - 1
    descriptors: list[Descriptor] = []
    while unseen:
        frontier = unseen & -unseen
        unseen ^= frontier
        comp: list[int] = []
        while frontier:
            reach = 0
            while frontier:  # take its vertices lowest first
                low = frontier & -frontier
                frontier ^= low
                comp.append(low.bit_length() - 1)
                reach |= masks[comp[-1]]
            frontier = reach & unseen
            unseen ^= frontier
        descriptors.append(_classify_component(g, comp))
    return GraphShape(tuple(sorted(descriptors)))
