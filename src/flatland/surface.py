"""Finite simplicial surfaces and their elementary invariants.

A triangulation is stored as a vertex count plus a set of sorted triangle
faces on vertices 0..n-1.  Validity (every edge in exactly two faces, every
vertex link a single cycle, connected) is established once at build time;
all other operations may assume it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .graphs import SimpleGraph

Face = tuple[int, int, int]
Edge = tuple[int, int]


class NotAManifold(ValueError):
    """The face list does not describe a closed combinatorial 2-manifold."""


class Disconnected(ValueError):
    """The face list describes a disconnected complex."""


@dataclass(frozen=True)
class SurfaceType:
    """Topological type of a closed surface, classified by Euler
    characteristic and orientability."""

    kind: str  # sphere | torus | klein_bottle | orientable | non_orientable | invalid
    genus: Optional[int] = None

    def __str__(self) -> str:
        if self.genus is None:
            return self.kind
        return f"{self.kind}_genus_{self.genus}"


SPHERE = SurfaceType("sphere")
TORUS = SurfaceType("torus")
KLEIN_BOTTLE = SurfaceType("klein_bottle")
INVALID_SURFACE = SurfaceType("invalid")


def surface_from_invariants(euler: int, orientable: bool) -> SurfaceType:
    if orientable:
        if euler == 2:
            return SPHERE
        if euler == 0:
            return TORUS
        if euler < 0 and euler % 2 == 0:
            return SurfaceType("orientable", (2 - euler) // 2)
        return INVALID_SURFACE
    if euler == 0:
        return KLEIN_BOTTLE
    if euler < 2:
        return SurfaceType("non_orientable", 2 - euler)
    return INVALID_SURFACE


@dataclass(frozen=True)
class Triangulation:
    """A validated closed combinatorial 2-manifold."""

    n: int
    faces: tuple[Face, ...]  # sorted triples in lexicographic order

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        seen: set[Edge] = set()
        for a, b, c in self.faces:
            seen.update(((a, b), (a, c), (b, c)))
        return tuple(sorted(seen))

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[Face, ...]]:
        table: dict[Edge, list[Face]] = defaultdict(list)
        for f in self.faces:
            a, b, c = f
            table[(a, b)].append(f)
            table[(a, c)].append(f)
            table[(b, c)].append(f)
        return {e: tuple(fs) for e, fs in table.items()}

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    @property
    def f0(self) -> int:
        return self.n

    @property
    def f1(self) -> int:
        return len(self.edges)

    @property
    def f2(self) -> int:
        return len(self.faces)

    def face_set(self) -> frozenset[Face]:
        return frozenset(self.faces)


@dataclass(frozen=True)
class ManifoldReport:
    """Outcome of validating a face list, plus invariants when valid."""

    ok: bool
    diagnostics: tuple[str, ...] = ()
    euler: Optional[int] = None
    degrees: tuple[int, ...] = ()
    regular_degree: Optional[int] = None
    orientable: Optional[bool] = None
    surface: SurfaceType = INVALID_SURFACE


def _normalize_faces(n: int, face_list: Iterable[Sequence[int]]) -> list[Face]:
    faces: list[Face] = []
    seen: set[Face] = set()
    for raw in face_list:
        t = tuple(sorted(raw))
        if len(t) != 3 or len(set(t)) != 3:
            raise NotAManifold(f"face {tuple(raw)} does not have three distinct vertices")
        if t[0] < 0 or t[2] >= n:
            raise ValueError(f"face {t} out of range for n={n}")
        if t not in seen:
            seen.add(t)
            faces.append(t)  # type: ignore[arg-type]
    faces.sort()
    return faces


def build_triangulation(n: int, face_list: Iterable[Sequence[int]]) -> Triangulation:
    """Validate a face list as a connected closed 2-manifold.

    Raises NotAManifold (naming the offending simplex) or Disconnected.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    faces = _normalize_faces(n, face_list)
    if not faces:
        raise NotAManifold("empty face list")

    covered = {v for f in faces for v in f}
    for v in range(n):
        if v not in covered:
            raise NotAManifold(f"vertex {v} lies in no face")

    edge_faces: dict[Edge, list[Face]] = defaultdict(list)
    for f in faces:
        a, b, c = f
        edge_faces[(a, b)].append(f)
        edge_faces[(a, c)].append(f)
        edge_faces[(b, c)].append(f)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise NotAManifold(f"edge {e} lies in {len(fs)} face(s), expected 2")

    # Every vertex link must be one cycle, not several.
    link_adj: list[dict[int, list[int]]] = [defaultdict(list) for _ in range(n)]
    for a, b, c in faces:
        link_adj[a][b].append(c)
        link_adj[a][c].append(b)
        link_adj[b][a].append(c)
        link_adj[b][c].append(a)
        link_adj[c][a].append(b)
        link_adj[c][b].append(a)
    for v in range(n):
        adj = link_adj[v]
        start = next(iter(adj))
        prev, cur = start, adj[start][0]
        count = 1
        while cur != start:
            w1, w2 = adj[cur]
            prev, cur = cur, (w2 if w1 == prev else w1)
            count += 1
        if count != len(adj):
            raise NotAManifold(f"link of vertex {v} is not a single cycle")

    # Face adjacency connectivity.
    index = {f: i for i, f in enumerate(faces)}
    seen_faces = {0}
    queue = deque([faces[0]])
    while queue:
        f = queue.popleft()
        a, b, c = f
        for e in ((a, b), (a, c), (b, c)):
            for g in edge_faces[e]:
                gi = index[g]
                if gi not in seen_faces:
                    seen_faces.add(gi)
                    queue.append(g)
    if len(seen_faces) != len(faces):
        raise Disconnected(f"complex has {len(faces) - len(seen_faces)} unreachable faces")

    return Triangulation(n, tuple(faces))


def euler_characteristic(t: Triangulation) -> int:
    return t.f0 - t.f1 + t.f2


def degree_profile(t: Triangulation) -> tuple[tuple[int, ...], Optional[int]]:
    degrees = tuple(len(t.neighbors[v]) for v in range(t.n))
    regular = degrees[0] if len(set(degrees)) == 1 else None
    return degrees, regular


def orientability(t: Triangulation) -> bool:
    """True iff the faces admit a coherent orientation.

    Propagates an orientation from the first face across shared edges and
    reports whether a conflict arises.
    """
    orient: dict[Face, int] = {t.faces[0]: 1}
    queue = deque([t.faces[0]])

    def directed(face: Face, e: Edge, o: int) -> Edge:
        a, b, c = face
        fwd = {(a, b): (a, b), (b, c): (b, c), (a, c): (c, a)}[e]
        return fwd if o == 1 else (fwd[1], fwd[0])

    while queue:
        f = queue.popleft()
        a, b, c = f
        for e in ((a, b), (a, c), (b, c)):
            g = next(h for h in t.edge_faces[e] if h != f)
            p, q = directed(f, e, orient[f])
            needed = 1 if directed(g, e, 1) == (q, p) else -1
            if g in orient:
                if orient[g] != needed:
                    return False
            else:
                orient[g] = needed
                queue.append(g)
    return True


def surface_type(t: Triangulation) -> SurfaceType:
    return surface_from_invariants(euler_characteristic(t), orientability(t))


def skeleton_graph(t: Triangulation, complement: bool = False) -> SimpleGraph:
    """EG(T) (the 1-skeleton), or NEG(T) when complement is set."""
    edges = set(t.edges)
    if complement:
        edges = {(a, b) for a in range(t.n) for b in range(a + 1, t.n)} - edges
    return SimpleGraph(t.n, frozenset(edges))


def relabel(t: Triangulation, perm: Sequence[int]) -> Triangulation:
    """Apply a vertex bijection (old -> new) and rebuild."""
    return build_triangulation(t.n, [(perm[a], perm[b], perm[c]) for a, b, c in t.faces])


def manifold_report(n: int, face_list: Iterable[Sequence[int]]) -> ManifoldReport:
    """Validate and summarize; never raises for bad complexes."""
    try:
        t = build_triangulation(n, face_list)
    except (NotAManifold, Disconnected, ValueError) as exc:
        return ManifoldReport(ok=False, diagnostics=(str(exc),))
    degrees, regular = degree_profile(t)
    orientable = orientability(t)
    euler = euler_characteristic(t)
    return ManifoldReport(
        ok=True,
        euler=euler,
        degrees=degrees,
        regular_degree=regular,
        orientable=orientable,
        surface=surface_from_invariants(euler, orientable),
    )
