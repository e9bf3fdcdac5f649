"""Finite simplicial surfaces and their elementary invariants.

A triangulation is stored as a vertex count plus a set of sorted triangle
faces on vertices 0..n-1.  Validity (every edge in exactly two faces, every
vertex link a single cycle, connected) is checked once, in
`build_triangulation`; all other operations may assume it.  One
face-adjacency table per complex, `Triangulation.across`, serves the checks
(building it is the edge check), one face walk for both connectivity and
`orientability` (`Triangulation._walk`), and the canonical scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    def face_index(self) -> dict[Face, int]:  # face -> its index in `faces`
        return {face: fi for fi, face in enumerate(self.faces)}

    @cached_property
    def _walk(self) -> tuple[int, bool]:
        """(faces reached, coherent): orients face 0 as listed, then, breadth
        first, the face across each edge p -> q of an oriented face as q -> p;
        coherent unless a face reached twice gets opposite orientations."""
        across = self.across
        orient: list[Optional[Face]] = [None] * self.f2
        orient[0] = self.faces[0]
        queue = [0]
        coherent = True
        for fi in queue:  # the queue grows while read
            x, y, z = orient[fi]
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                gi, w = across[fi][r]
                o = orient[gi]
                if o is None:
                    orient[gi] = (q, p, w)
                    queue.append(gi)
                elif o not in ((q, p, w), (p, w, q), (w, q, p)):
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
    faces: set[Face] = set()
    for raw in face_list:
        t = tuple(sorted(raw))
        if len(t) != 3 or len(set(t)) != 3:
            raise NotAManifold(f"face {tuple(raw)} does not have three distinct vertices")
        if t[0] < 0 or t[2] >= n:
            raise ValueError(f"face {t} out of range for n={n}")
        if t in faces:
            raise NotAManifold(f"face {t} is listed twice")
        faces.add(t)  # type: ignore[arg-type]
    return sorted(faces)


def _face_adjacency(faces: Sequence[Face]) -> Adjacency:
    """The table `Triangulation.across` of a face list; raises NotAManifold
    at the first edge, in face order, that does not lie in exactly two
    faces."""
    sides: dict[Edge, list[tuple[int, int]]] = {}
    for fi, (a, b, c) in enumerate(faces):
        for edge, r in (((a, b), c), ((a, c), b), ((b, c), a)):
            sides.setdefault(edge, []).append((fi, r))
    across: Adjacency = tuple({} for _ in faces)
    for edge, on_edge in sides.items():
        if len(on_edge) != 2:
            raise NotAManifold(f"edge {edge} lies in {len(on_edge)} face(s), expected 2")
        (f1, r1), (f2, r2) = on_edge
        across[f1][r1] = (f2, r2)
        across[f2][r2] = (f1, r1)
    return across


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
    faces_at = [0] * n  # the number of faces at each vertex
    face_at = [0] * n  # one of them
    for fi, f in enumerate(faces):
        for v in f:
            faces_at[v] += 1
            face_at[v] = fi

    t = Triangulation(n, tuple(faces))
    across = t.across  # raises at the first edge not in exactly two faces

    # Every vertex link must be one cycle, not several: walking around v
    # face by face, across the edges at v, must reach every face at v.
    for v in range(n):
        fi = face_at[v]
        r, s = (x for x in faces[fi] if x != v)
        gi, w = across[fi][r]  # the face {v, s, w} across the edge {v, s}
        walked = 1
        while gi != fi:  # cross the edge {v, w} of the face {v, s, w}
            (gi, w), s = across[gi][s], w
            walked += 1
        if walked != faces_at[v]:
            raise NotAManifold(f"link of vertex {v} is not a single cycle")

    if t._walk[0] != len(faces):
        raise Disconnected(f"complex has {len(faces) - t._walk[0]} unreachable faces")

    return t


def euler_characteristic(t: Triangulation) -> int:
    return t.f0 - t.f1 + t.f2


def degree_profile(t: Triangulation) -> tuple[tuple[int, ...], Optional[int]]:
    degrees = tuple(mask.bit_count() for mask in skeleton_graph(t).neighbor_masks)
    regular = degrees[0] if len(set(degrees)) == 1 else None
    return degrees, regular


def orientability(t: Triangulation) -> bool:
    """True iff the faces admit a coherent orientation."""
    return t._walk[1]


def surface_type(t: Triangulation) -> SurfaceType:
    return surface_from_invariants(euler_characteristic(t), orientability(t))


def skeleton_graph(t: Triangulation) -> SimpleGraph:
    """EG(T), the 1-skeleton."""
    return SimpleGraph(t.n, (e for a, b, c in t.faces for e in ((a, b), (a, c), (b, c))))


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
