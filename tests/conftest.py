"""Shared fixtures and independent oracles.

The brute-force routines here deliberately avoid the canonical-form
machinery: automorphisms and isomorphisms are found by filtering vertex
permutations directly against the face sets, so they can certify the fast
implementations.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import sys
from collections import Counter
from typing import Optional

import pytest

from flatland import (
    CensusReport,
    FamilySpec,
    NotAManifold,
    SimpleGraph,
    Triangulation,
    TriFormatError,
    build_triangulation,
    classify_census,
    construct_family,
    parse_name,
    skeleton_graph,
)

TETRAHEDRON = (4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# Two apexes (3, 4) over the 3-cycle 0-1-2: a 5-vertex sphere with mixed
# degrees (4, 4, 4, 3, 3).
DOUBLE_PYRAMID = (
    5,
    [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)],
)


def fam(name: str) -> Triangulation:
    return construct_family(parse_name(name)).complex


def relabel(t: Triangulation, perm) -> Triangulation:
    """Apply a vertex bijection (old -> new) and rebuild."""
    return build_triangulation(t.n, [(perm[a], perm[b], perm[c]) for a, b, c in t.faces])


def t1_valid_twists(n: int) -> list[int]:
    """The twists k of T_{n,1,k} in the paper's ranges, ascending:
    2 <= k <= (n - 3)/2 and (n + 1)/2 <= k <= n - 3."""
    return [k for k in range(2, n - 2) if 2 * k <= n - 3 or 2 * k >= n + 1]


def all_specs_up_to(max_vertices: int):
    """Every family spec in its range with at most `max_vertices` vertices,
    from the ranges as the paper states them."""
    for n in range(7, max_vertices + 1):
        for k in t1_valid_twists(n):
            yield FamilySpec("T1", (n, k))
    for n in range(4, max_vertices // 2 + 1):
        for k in range(1, n - 2):
            yield FamilySpec("T2", (n, k))
    for m in range(3, max_vertices // 3 + 1):
        for n in range(3, max_vertices // m + 1):
            for k in range(n):
                yield FamilySpec("TM", (n, m, k))
            yield FamilySpec("B", (m, n))
    for m in range(3, max_vertices // 4 + 1):
        for two_n in range(4, max_vertices // m + 1, 2):
            yield FamilySpec("K", (m, two_n))
    for q in range(5, max_vertices // 2 + 1, 2):
        for n in range(2, max_vertices // q + 1):
            yield FamilySpec("Q", (q, n))


def apply_perm_faces(perm, faces):
    return frozenset(tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in faces)


def brute_force_automorphisms(t: Triangulation) -> set[tuple[int, ...]]:
    """All vertex permutations preserving the face set, by exhaustive filter."""
    target = frozenset(t.faces)
    out = set()
    for perm in itertools.permutations(range(t.n)):
        for a, b, c in t.faces:
            if tuple(sorted((perm[a], perm[b], perm[c]))) not in target:
                break
        else:
            out.add(perm)
    return out


def group_elements(generators, n: int) -> frozenset[tuple[int, ...]]:
    """Every element of the group that the vertex permutations `generators`
    generate, closed breadth-first from the identity."""
    identity = tuple(range(n))
    elements, queue = {identity}, [identity]
    for p in queue:  # the queue grows while read
        for g in generators:
            e = tuple(g[v] for v in p)  # v -> g[p[v]]
            if e not in elements:
                elements.add(e)
                queue.append(e)
    return frozenset(elements)


def brute_force_isomorphism(a: Triangulation, b: Triangulation):
    """Some face-preserving bijection a -> b, or None, by exhaustive filter."""
    if a.n != b.n or a.f2 != b.f2:
        return None
    target = frozenset(b.faces)
    for perm in itertools.permutations(range(a.n)):
        for x, y, z in a.faces:
            if tuple(sorted((perm[x], perm[y], perm[z]))) not in target:
                break
        else:
            return perm
    return None


def flags(t: Triangulation) -> list[tuple[int, int, tuple[int, int, int]]]:
    """All 6*f_2 flags as (vertex, other end of an edge, face) triples."""
    return [(v, u, f) for f in t.faces for v in f for u in f if u != v]


def reference_links(faces) -> dict[int, list[tuple[int, int]]]:
    """The link of each vertex w of a face list, as the edges pq of its
    faces wpq."""
    link: dict[int, list[tuple[int, int]]] = {}
    for face in faces:
        for w in face:
            link.setdefault(w, []).append(tuple(x for x in face if x != w))
    return link


def _link_degrees(edges) -> Counter:
    """Each neighbour of a vertex with the number of its link edges (faces
    on the edge to it)."""
    return Counter(x for edge in edges for x in edge)


def _link_component(edges, start: int) -> set[int]:
    """The vertices of the link component of `start`, by a breadth-first walk."""
    component, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for edge in edges:
            if x in edge:
                y = edge[0] + edge[1] - x
                if y not in component:
                    component.add(y)
                    todo.append(y)
    return component


def reference_first_open(search) -> int:
    """The least vertex of a `census._LinkSearch` state that is not complete
    (6 neighbours, each on two faces), or n, from its face list alone."""
    link = reference_links(search.faces)
    for v in range(search.n):
        degrees = _link_degrees(link.get(v, ()))
        if len(degrees) != 6 or any(d != 2 for d in degrees.values()):
            return v
    return search.n


def reference_target_vertex(search) -> int:
    """The vertex a link-search state branches at, from its face list
    alone: the least vertex with 6 neighbours and an open link (a neighbour
    on one face only), else the least vertex that is not complete, or n."""
    link = reference_links(search.faces)
    for v in sorted(link):
        degrees = _link_degrees(link[v])
        if len(degrees) == 6 and 1 in degrees.values():
            return v
    return reference_first_open(search)


def reference_face_ok(search, face) -> bool:
    """The face rule of the link search, checked from the face list alone:
    the face is new, every edge stays on at most two faces, every vertex has
    at most 6 neighbours, and a vertex link closes only into a whole
    6-cycle."""
    if set(face) in map(set, search.faces):
        return False
    link = reference_links(search.faces)
    a, b, c = face
    for w, p, q in ((a, b, c), (b, a, c), (c, a, b)):
        edges = link.get(w, [])
        degrees = _link_degrees(edges)
        if degrees[p] >= 2 or degrees[q] >= 2:
            return False
        degree = len(degrees) + (p not in degrees) + (q not in degrees)
        if degree > 6:
            return False
        if p in degrees and q in degrees:
            component = _link_component(edges, p)
            if q in component and (degree != 6 or len(component) != 6):
                return False
    return True


def reference_branch_faces(search):
    """Branch faces of a link-search state, from its face list alone: put a
    face on the edge from the target vertex v to its least open neighbour
    u, with every x below min(max_used + 2, n) that passes
    `reference_face_ok`; None when every vertex is complete."""
    v = reference_target_vertex(search)
    if v == search.n:
        return None
    degrees = _link_degrees(reference_links(search.faces).get(v, ()))
    if not degrees:
        return []
    u = min(x for x, d in degrees.items() if d == 1)
    top = min(max(max(face) for face in search.faces) + 2, search.n)
    faces = (tuple(sorted((v, u, x))) for x in range(top) if x not in (v, u))
    return [f for f in faces if reference_face_ok(search, f)]


def _reference_crossings(faces, flag):
    """The traversal of the flag (x, y, z) over a face list, as `symmetry`
    reads it, as far as the faces fix it: the vertex w beyond the edge
    (x, y) is labelled 3 and its face queued as (y, x, w) before any key
    entry, then breadth-first from the flag's face, the edges (y, z) and
    (z, x) of each face in turn, the vertex beyond an edge labelled in
    first-use order, and the face there queued as (q, p, w).  Yields, for
    each of those edges crossed, the vertex beyond it and the labels so far
    (one dict, updated in place); it stops at the first edge that lies on
    one face only, (x, y) included."""
    sides: dict[frozenset, list[frozenset]] = {}
    for face in map(frozenset, faces):
        for edge in itertools.combinations(face, 2):
            sides.setdefault(frozenset(edge), []).append(face)

    def beyond(x, y, z):
        on_pq = sides[frozenset((x, y))]
        if len(on_pq) == 1:
            return None
        (other,) = [face for face in on_pq if face != {x, y, z}]
        (w,) = other - {x, y}
        return other, w

    x, y, z = flag
    if (found := beyond(x, y, z)) is None:
        return
    first, w = found
    label = {x: 0, y: 1, z: 2, w: 3}
    queue, seen = [flag, (y, x, w)], {frozenset(flag), first}
    for x, y, z in queue:  # the queue grows while read
        for p, q, r in ((y, z, x), (z, x, y)):
            if (found := beyond(p, q, r)) is None:
                return
            other, w = found
            label.setdefault(w, len(label))
            yield w, label
            if other not in seen:
                seen.add(other)
                queue.append((q, p, w))


def reference_prefix(faces, flag) -> list[int]:
    """The key of the flag over a face list as far as the faces fix it:
    the label of the vertex beyond each edge crossed."""
    return [label[w] for w, label in _reference_crossings(faces, flag)]


def reference_traversal(faces, n: int, flag) -> tuple[list[int], list[int]]:
    """The whole key of the flag over the face list of a closed complex on
    n vertices, and its label array (vertex -> label)."""
    key, label = [], {}
    for w, label in _reference_crossings(faces, flag):
        key.append(label[w])
    return key, [label[v] for v in range(n)]


def reference_labels(faces, flag, crossings: int) -> dict[int, int]:
    """The labels of the vertices that the traversal of the flag has met
    after crossing that many edges after (x, y), from scratch over a face
    list on which (x, y) lies on two faces."""
    x, y, z = flag
    (w,) = {v for face in faces if {x, y} <= set(face) for v in face} - {x, y, z}
    label = {x: 0, y: 1, z: 2, w: 3}
    for _, label in itertools.islice(_reference_crossings(faces, flag), crossings):
        pass
    return dict(label)


def reference_rivals(search) -> list[tuple[int, int, int]]:
    """The flags that the prefix test of a link-search state races against
    the search flag (0, 1, 2), from its face list alone: the other flags at
    vertex 0, and, once vertex 1 is complete, the flags at vertex 1."""
    centres = (0, 1) if reference_first_open(search) > 1 else (0,)
    return [(v, a, b) for v in centres for face in search.faces if v in face
            for a, b in itertools.permutations(set(face) - {v}) if (v, a, b) != (0, 1, 2)]


def reference_prefix_loses(search) -> bool:
    """Whether some flag of `reference_rivals` has a smaller key than the
    search flag in every completion, from the face list alone: their fixed
    prefixes differ at a position both reach, and the flag's entry there is
    the smaller."""
    lead = reference_prefix(search.faces, (0, 1, 2))
    for flag in reference_rivals(search):
        key = reference_prefix(search.faces, flag)
        common = min(len(key), len(lead))
        if key[:common] < lead[:common]:
            return True
    return False


_REFERENCE_INTEGER = re.compile(r"-?[0-9]+")
_REFERENCE_MAX_DIGITS = sys.int_info.default_max_str_digits


def _reference_integers(lineno: int, tokens: list[str], what: str) -> list[int]:
    if not all(_REFERENCE_INTEGER.fullmatch(t) for t in tokens):
        raise TriFormatError(lineno, f"{what} must be integers")
    if any(len(t.lstrip("-")) > _REFERENCE_MAX_DIGITS for t in tokens):
        raise TriFormatError(lineno, f"a number has more than {_REFERENCE_MAX_DIGITS} digits")
    return [int(t) for t in tokens]


def reference_parse_tri(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """`tri_io.parse_tri` read token by token: each line stripped, then each
    token matched on its own, then each token's length checked."""
    header: Optional[list[int]] = None
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise TriFormatError(lineno, "expected header `n f`")
            header_line, header = lineno, _reference_integers(lineno, parts, "header values")
            continue
        if len(parts) != 3:
            raise TriFormatError(lineno, "expected a face `a b c`")
        a, b, c = _reference_integers(lineno, parts, "face vertices")
        if not a < b < c:
            raise TriFormatError(lineno, f"face {a} {b} {c} is not strictly increasing")
        faces.append((a, b, c))
    if header is None:
        raise TriFormatError(None, "missing header `n f`")
    n, f = header
    if len(faces) != f:
        raise TriFormatError(header_line, f"header promised {f} faces, found {len(faces)}")
    return n, faces


def reference_normalize_faces(n: int, face_list) -> list[tuple[int, int, int]]:
    """`surface._normalize_faces` face by face, whatever the input: each face
    sorted unless it is an increasing triple, checked for range and
    repeats, and the set sorted; raises at the first bad face in input
    order."""
    faces: set[tuple[int, int, int]] = set()
    for raw in face_list:
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


def reference_face_adjacency(faces) -> tuple[dict[int, tuple[int, int]], ...]:
    """`Triangulation.across` of a face list by collecting every edge's
    sides first; raises NotAManifold at the first edge, in face order, that
    does not lie in exactly two faces, with its count."""
    sides: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for fi, (a, b, c) in enumerate(faces):
        for edge, r in (((a, b), c), ((a, c), b), ((b, c), a)):
            sides.setdefault(edge, []).append((fi, r))
    across: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in faces)
    for edge, on_edge in sides.items():
        if len(on_edge) != 2:
            raise NotAManifold(f"edge {edge} lies in {len(on_edge)} face(s), expected 2")
        (f1, r1), (f2, r2) = on_edge
        across[f1][r1] = (f2, r2)
        across[f2][r2] = (f1, r1)
    return across


def reference_walk(faces, across) -> tuple[int, bool]:
    """(faces reached, coherent) of `Triangulation._walk`, with each face's
    orientation kept as a vertex triple: face 0 as listed, then, breadth
    first, the face across each edge p -> q of an oriented face as q -> p;
    incoherent when a face reached again is not a rotation of that triple."""
    orient: list[Optional[tuple[int, int, int]]] = [None] * len(faces)
    orient[0] = faces[0]
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


@functools.cache
def census_report(n: int) -> CensusReport:
    """`classify_census(n)`, run once per test session: the census totals
    and the lattice oracle check the same run."""
    return classify_census(n, budget_seconds=600)


def graph_of(n: int, edges) -> SimpleGraph:
    """The graph on 0..n-1 with these edges, each a pair of distinct
    vertices in either order."""
    masks = [0] * n
    for a, b in edges:
        assert a != b and 0 <= a < n and 0 <= b < n, (a, b)
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return SimpleGraph(n, tuple(masks))


def vertices_of(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def edges_of(g: SimpleGraph) -> set[tuple[int, int]]:
    """(a, b) with a < b, one per edge."""
    return {(u, v) for u, mask in enumerate(g.neighbor_masks) for v in vertices_of(mask) if u < v}


def reference_layers(g: SimpleGraph, v: int) -> list[int]:
    """The distance classes from v, nearest first, as masks: each layer is
    the neighbours of the set bits of the last one, less those reached."""
    layers = []
    layer = reached = 1 << v
    while layer:
        layers.append(layer)
        near = 0
        for x in vertices_of(layer):
            near |= g.neighbor_masks[x]
        layer = near & ~reached
        reached |= layer
    return layers


def reference_first_cell(t: Triangulation) -> list[int]:
    """The cell a scan starts from, by one breadth-first walk per vertex:
    the vertices whose layer sizes, negated, are least, that is, whose
    sorted distances to all vertices are least, ascending."""
    g = skeleton_graph(t)
    sizes = [[-layer.bit_count() for layer in reference_layers(g, v)] for v in range(t.n)]
    least = min(sizes)
    return [v for v in range(t.n) if sizes[v] == least]


def shuffled(t: Triangulation, seed: int) -> Triangulation:
    rng = random.Random(seed)
    perm = list(range(t.n))
    rng.shuffle(perm)
    return relabel(t, perm)


@pytest.fixture(scope="session")
def tetrahedron() -> Triangulation:
    return build_triangulation(*TETRAHEDRON)


@pytest.fixture(scope="session")
def double_pyramid() -> Triangulation:
    return build_triangulation(*DOUBLE_PYRAMID)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests import test_acceptance
    except ImportError:
        import test_acceptance  # tests run with rootdir on sys.path
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
