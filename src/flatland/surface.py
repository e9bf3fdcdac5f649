"""Finite simplicial surfaces and their elementary invariants.

A triangulation is stored as a vertex count plus a set of sorted triangle
faces on vertices 0..n-1.  Validity (every edge in exactly two faces, every
vertex link a single cycle, connected) is checked once, in
`build_triangulation`; all other operations may assume it.  Each incidence
table is built once per complex, on first use, and kept on it.  The face
adjacency `Triangulation.across` serves the checks (building it is the edge
check: one pass over the faces pairs each edge's two sides), one face walk
for connectivity and `orientability` (`Triangulation._walk`, which keeps
each face's orientation as one parity bit), and the scan; the stars
`Triangulation.stars` the link check, the degrees and the scan's flags at
v0; the 1-skeleton (`skeleton_graph`) the G_c invariants and the choice of
v0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .graphs import SimpleGraph

Face = tuple[int, int, int]
Edge = tuple[int, int]
Adjacency = tuple[dict[int, tuple[int, int]], ...]


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
    def across(self) -> Adjacency:
        """across[fi][r] = (gi, w): across the edge of face fi opposite its
        vertex r lies face gi, whose vertex off that edge is w."""
        return _face_adjacency(self.faces)

    @cached_property
    def stars(self) -> tuple[tuple[int, ...], ...]:
        """stars[v]: the indices of the faces at vertex v, ascending."""
        stars: list[list[int]] = [[] for _ in range(self.n)]
        for fi, (a, b, c) in enumerate(self.faces):
            stars[a].append(fi)
            stars[b].append(fi)
            stars[c].append(fi)
        return tuple(map(tuple, stars))

    @cached_property
    def _skeleton(self) -> SimpleGraph:
        masks = [0] * self.n  # the faces are valid, so the masks need no check
        for a, b, c in self.faces:
            masks[a] |= 1 << b | 1 << c
            masks[b] |= 1 << a | 1 << c
            masks[c] |= 1 << a | 1 << b
        return SimpleGraph(self.n, tuple(masks))

    @cached_property
    def face_index(self) -> dict[Face, int]:  # face -> its index in `faces`
        return {face: fi for fi, face in enumerate(self.faces)}

    @cached_property
    def _walk(self) -> tuple[int, bool]:
        """(faces reached, coherent): orients face 0 as listed, then, breadth
        first, the face across each edge p -> q of an oriented face as q -> p;
        coherent unless a face reached twice gets opposite orientations.

        A face's orientation is one bit, its parity against the sorted face
        (a, b, c): 0 for a -> b -> c -> a.  With bit 0, a -> b and b -> c run
        up the vertex order and c -> a, the edge opposite the middle vertex,
        runs down; bit 1 turns all three round.  So where the edge of face fi
        opposite r is the edge of face gi opposite w, gi takes the bit that
        makes the edge run the other way in gi:
        1 ^ bit(fi) ^ (r is fi's middle) ^ (w is gi's middle)."""
        faces, across = self.faces, self.across
        orient = [-1] * self.f2
        orient[0] = 0
        queue = [0]
        coherent = True
        for fi in queue:  # the queue grows while read
            flip, middle = orient[fi] ^ 1, faces[fi][1]
            for r, (gi, w) in across[fi].items():
                o = flip ^ (r == middle) ^ (w == faces[gi][1])
                if orient[gi] < 0:
                    orient[gi] = o
                    queue.append(gi)
                elif orient[gi] != o:
                    coherent = False
        return len(queue), coherent

    @property
    def f0(self) -> int:
        return self.n

    @property
    def f1(self) -> int:
        return 3 * self.f2 // 2  # every edge lies in exactly two faces

    @property
    def f2(self) -> int:
        return len(self.faces)


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
    listed = list(face_list)
    last: tuple = ()
    for t in listed:  # a list of increasing triples in increasing order is kept as it is
        if not (type(t) is tuple and len(t) == 3 and t[0] < t[1] < t[2] and last < t):
            break
        last = t
    else:
        if listed and listed[0][0] >= 0 and max(map(itemgetter(2), listed)) < n:
            return listed
    faces: set[Face] = set()
    for raw in listed:
        t = tuple(raw)
        if not (len(t) == 3 and t[0] < t[1] < t[2]):  # else already sorted, and distinct
            if len(t) != 3 or len(set(t)) != 3:
                raise NotAManifold(f"face {t} does not have three distinct vertices")
            t = tuple(sorted(t))
        if t[0] < 0 or t[2] >= n:
            raise ValueError(f"face {t} out of range for n={n}")
        if t in faces:
            raise NotAManifold(f"face {t} is listed twice")
        faces.add(t)  # type: ignore[arg-type]
    return sorted(faces)


def _face_adjacency(faces: Sequence[Face]) -> Adjacency:
    """The table `Triangulation.across` of a face list; raises NotAManifold
    at the first edge, in face order, that does not lie in exactly two
    faces.  One pass pairs each edge's second side with its first; only
    when a third side comes or a side is left over are the edges counted,
    to name that edge."""
    sides: dict[Edge, Optional[tuple[int, int]]] = {}  # edge -> its first side; None once paired
    across: Adjacency = tuple({} for _ in faces)
    for fi, (a, b, c) in enumerate(faces):
        for edge, r in (((a, b), c), ((a, c), b), ((b, c), a)):
            side = (fi, r)
            other = sides.setdefault(edge, side)
            if other is side:
                continue
            if other is None:
                raise _edge_fault(faces)
            across[fi][r] = other
            across[other[0]][other[1]] = side
            sides[edge] = None
    if 2 * len(sides) != 3 * len(faces):  # some edge lies in one face only
        raise _edge_fault(faces)
    return across


def _edge_fault(faces: Sequence[Face]) -> NotAManifold:
    """The error for the first edge, in face order, not in exactly two faces."""
    counts = Counter(e for a, b, c in faces for e in ((a, b), (a, c), (b, c)))
    edge, count = next((e, k) for e, k in counts.items() if k != 2)
    return NotAManifold(f"edge {edge} lies in {count} face(s), expected 2")


def build_triangulation(n: int, face_list: Iterable[Sequence[int]]) -> Triangulation:
    """Validate a face list as a connected closed 2-manifold.

    Raises NotAManifold (naming the offending simplex) or Disconnected.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    faces = _normalize_faces(n, face_list)
    if not faces:
        raise NotAManifold("empty face list")

    used = {v for f in faces for v in f}  # at most 3f: a huge n allocates nothing
    if len(used) < n:
        unused = next(v for v in range(n) if v not in used)
        raise NotAManifold(f"vertex {unused} lies in no face")

    t = Triangulation(n, tuple(faces))
    across = t.across  # raises at the first edge not in exactly two faces

    # Every vertex link must be one cycle, not several: walking around v
    # face by face, across the edges at v, must reach every face at v.
    for v, star in enumerate(t.stars):
        fi = star[0]
        r, s = (x for x in faces[fi] if x != v)
        gi, w = across[fi][r]  # the face {v, s, w} across the edge {v, s}
        walked = 1
        while gi != fi:  # cross the edge {v, w} of the face {v, s, w}
            (gi, w), s = across[gi][s], w
            walked += 1
        if walked != len(star):
            raise NotAManifold(f"link of vertex {v} is not a single cycle")

    if t._walk[0] != len(faces):
        raise Disconnected(f"complex has {len(faces) - t._walk[0]} unreachable faces")

    return t


def euler_characteristic(t: Triangulation) -> int:
    return t.f0 - t.f1 + t.f2


def degree_profile(t: Triangulation) -> tuple[tuple[int, ...], Optional[int]]:
    degrees = tuple(map(len, t.stars))  # each vertex link is one cycle
    regular = degrees[0] if len(set(degrees)) == 1 else None
    return degrees, regular


def orientability(t: Triangulation) -> bool:
    """True iff the faces admit a coherent orientation."""
    return t._walk[1]


def surface_type(t: Triangulation) -> SurfaceType:
    return surface_from_invariants(euler_characteristic(t), orientability(t))


def skeleton_graph(t: Triangulation) -> SimpleGraph:
    """EG(T), the 1-skeleton, built once per complex."""
    return t._skeleton


def manifold_report(n: int, face_list: Iterable[Sequence[int]]) -> ManifoldReport:
    """Validate and summarize; never raises for bad complexes."""
    try:
        t = build_triangulation(n, face_list)
    except (NotAManifold, Disconnected, ValueError) as exc:
        return ManifoldReport(ok=False, diagnostics=(str(exc),))
    degrees, regular = degree_profile(t)
    return ManifoldReport(ok=True, euler=euler_characteristic(t), degrees=degrees,
                          regular_degree=regular, orientable=orientability(t),
                          surface=surface_type(t))
