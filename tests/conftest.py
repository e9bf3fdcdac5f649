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
from collections import Counter

import pytest

from flatland import (
    CensusReport,
    FamilySpec,
    Triangulation,
    build_triangulation,
    classify_census,
    construct_family,
    parse_name,
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
    target = t.face_set()
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
    target = b.face_set()
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


def reference_target_vertex(search) -> int:
    """The least vertex of a `census._LinkSearch` state that is not complete
    (6 neighbours, every edge on two faces), or n, by a scan from vertex 0."""
    for v in range(search.n):
        if len(search.lk[v]) != 6 or any(len(on) != 2 for on in search.lk[v].values()):
            return v
    return search.n


def reference_face_ok(search, face) -> bool:
    """The face rule of the link search, checked from scratch: the face is
    new, every edge stays on at most two faces, every vertex has at most 6
    neighbours, and a vertex link closes only into a whole 6-cycle (its
    component is found by a breadth-first walk)."""
    if face in search.faces:
        return False
    lk = search.lk
    a, b, c = face
    for p, q in ((a, b), (a, c), (b, c)):
        if len(lk[p].get(q, ())) >= 2:
            return False
    for w, p, q in ((a, b, c), (b, a, c), (c, a, b)):
        degree = len(lk[w]) + (p not in lk[w]) + (q not in lk[w])
        if degree > 6:
            return False
        if p in lk[w] and q in lk[w]:
            component, todo = {p}, [p]
            while todo:
                for y in lk[w][todo.pop()]:
                    if y not in component:
                        component.add(y)
                        todo.append(y)
            if q in component and (degree != 6 or len(component) != 6):
                return False
    return True


def reference_branch_faces(search):
    """Branch faces of a link-search state by the plain rule: extend the
    target vertex v at its least open neighbour u with every x below
    min(max_used + 2, n) that passes `reference_face_ok`; None when no
    vertex is open."""
    v = reference_target_vertex(search)
    if v == search.n:
        return None
    if not search.lk[v]:
        return []
    u = min(x for x, on in search.lk[v].items() if len(on) == 1)
    faces = (tuple(sorted((v, u, x)))
             for x in range(min(search.max_used + 2, search.n)) if x not in (v, u))
    return [f for f in faces if reference_face_ok(search, f)]


def reference_forced_face(search):
    """The first face a link-search state is forced to take, found from its
    face list alone, or None: a vertex w with 6 neighbours whose link (the
    edges pq of its faces wpq) is connected with 5 edges and 2 ends p and q,
    so a path, lies on the face {w, p, q} in every completion."""
    link: dict[int, list[tuple[int, int]]] = {}
    for face in search.faces:
        for w in face:
            link.setdefault(w, []).append(tuple(x for x in face if x != w))
    for w in sorted(link):
        edges = link[w]
        degree = Counter(x for edge in edges for x in edge)
        ends = [x for x, d in degree.items() if d == 1]
        if len(degree) != 6 or len(edges) != 5 or len(ends) != 2:
            continue
        component, todo = {ends[0]}, [ends[0]]
        while todo:
            x = todo.pop()
            for edge in edges:
                if x in edge:
                    y = edge[0] + edge[1] - x
                    if y not in component:
                        component.add(y)
                        todo.append(y)
        if len(component) == 6:
            return tuple(sorted((w, *ends)))
    return None


@functools.cache
def census_report(n: int) -> CensusReport:
    """`classify_census(n)`, run once per test session: the census totals
    and the lattice oracle check the same run."""
    return classify_census(n, budget_seconds=600)


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
