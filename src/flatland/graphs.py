"""Simple graphs and the common-neighbor invariants used to separate
triangulations.

G_c(G) joins two vertices exactly when they have c common neighbors in G;
it commutes with relabeling, so differing G_c shapes certify that two
complexes are non-isomorphic.  A graph is its neighbour bit masks alone:
|N(u) & N(v)| is one AND and one popcount, and a breadth-first walk
(`layers`) grows by whole distance classes.  Edges are checked only where
they come from outside, in `SimpleGraph(n, edges)`; G_c graphs are built
from masks.  A graph counts the common neighbours of every pair once, into
the masks of G_1, G_2, ...; G_0 needs no count (no neighbour in common).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[int, int]


@dataclass(frozen=True, init=False)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1, no loops or multi-edges."""

    n: int
    neighbor_masks: tuple[int, ...]  # bit v of mask u is set iff u and v are adjacent

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        masks = [0] * n
        for a, b in edges:
            if not 0 <= a < b < n:
                raise ValueError(f"bad edge ({a}, {b}) for n={n}")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neighbor_masks", tuple(masks))

    @property
    def edges(self) -> frozenset[Edge]:
        """(a, b) with a < b, one per edge."""
        return frozenset((u, v) for u, mask in enumerate(self.neighbor_masks)
                         for v in _vertices(mask) if u < v)

    @cached_property
    def masks_by_common_count(self) -> dict[int, tuple[int, ...]]:
        """c -> the neighbour masks of G_c, for each c >= 1 that some pair
        of vertices has."""
        masks, n = self.neighbor_masks, self.n
        by_count: defaultdict[int, list[int]] = defaultdict(lambda: [0] * n)
        for u, mask in enumerate(masks):
            for v in range(u + 1, n):
                c = (mask & masks[v]).bit_count()
                if c:
                    gc = by_count[c]
                    gc[u] |= 1 << v
                    gc[v] |= 1 << u
        return {c: tuple(gc) for c, gc in by_count.items()}


def _from_masks(n: int, masks: tuple[int, ...]) -> SimpleGraph:
    """The graph with these masks, unchecked: they must be symmetric and loop-free."""
    g = object.__new__(SimpleGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "neighbor_masks", masks)
    return g


def _vertices(mask: int) -> Iterator[int]:
    """The vertices of a mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _reach(masks: tuple[int, ...], mask: int) -> int:
    """The vertices adjacent to some vertex of the mask."""
    reach = 0
    for v in _vertices(mask):
        reach |= masks[v]
    return reach


def layers(g: SimpleGraph, v: int) -> list[int]:
    """The distance classes from v, nearest first, as masks: layer d holds
    the vertices at distance d from v."""
    found: list[int] = []
    layer = reached = 1 << v
    while layer:
        found.append(layer)
        layer = _reach(g.neighbor_masks, layer) & ~reached
        reached |= layer
    return found


def common_neighbor_graph(g: SimpleGraph, c: int) -> SimpleGraph:
    """The graph on V(g) joining u, v iff they have exactly c common
    neighbors in g."""
    if c < 0:
        raise ValueError("common-neighbor count must be >= 0")
    n, masks = g.n, g.neighbor_masks
    if c > 0:
        return _from_masks(n, g.masks_by_common_count.get(c, (0,) * n))
    # G_0 tells most non-isomorphic pairs apart, so it pays for no count:
    # v shares a neighbour with u iff it is a neighbour of a neighbour of u.
    full = (1 << n) - 1
    return _from_masks(n, tuple(full ^ (1 << u | _reach(masks, mask))
                                for u, mask in enumerate(masks)))


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


def _classify_component(g: SimpleGraph, comp: int) -> Descriptor:
    k = comp.bit_count()
    if k == 1:
        return ("isolated",)
    masks = g.neighbor_masks
    degs = sorted(masks[v].bit_count() for v in _vertices(comp))  # a component holds every neighbour
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
    is the union of the layers of its least vertex."""
    unseen = (1 << g.n) - 1
    descriptors: list[Descriptor] = []
    while unseen:
        comp = sum(layers(g, (unseen & -unseen).bit_length() - 1))  # disjoint masks
        unseen ^= comp
        descriptors.append(_classify_component(g, comp))
    return GraphShape(tuple(sorted(descriptors)))
