"""Isomorph-free exhaustive enumeration of degree-6 triangulations.

The search fixes the star of vertex 0 (link C_6 on vertices 1..6), then
completes one vertex link at a time, always extending the open link of the
smallest unfinished vertex at its smallest open endpoint.  New vertices are
introduced in first-use order.  These choices prune most relabelings;
residual duplicates are removed by canonical code, so the output is
independent of search order.

Every census takes one path, whatever the number of jobs: the search tree
is expanded breadth-first until it has `_FRONTIER_TARGET` open states or
runs out of them, and each state is searched depth-first by `_search_worker`,
in this process for one job and in a process pool otherwise.  A node budget
`max_nodes` counts the nodes searched below the frontier, summed over its
states; the frontier is the same for every job count, so the count and the
outcome are too.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

from .families import known_catalog
from .surface import (
    SurfaceType,
    Triangulation,
    build_triangulation,
    surface_type,
)
from .symmetry import Code, automorphism_group, canonical_form, regularity_flags

Face = tuple[int, int, int]

_CHECK_EVERY = 256  # nodes between deadline checks, the first at the root
_FRONTIER_TARGET = 8  # open states the search is split into, for any jobs


class ResourceLimit(RuntimeError):
    """The configured time or node budget was exceeded; partial results are
    never reported as a complete census."""


def _initial_star() -> list[Face]:
    return [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 1, 6)]


class _LinkSearch:
    """Mutable search state over a growing face list."""

    def __init__(self, n: int, faces: list[Face], deadline: Optional[float],
                 max_nodes: Optional[int]):
        self.n = n
        self.faces: list[Face] = []
        self.face_set: set[Face] = set()
        self.ecount: dict[tuple[int, int], int] = {}
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.lk: list[dict[int, list[int]]] = [dict() for _ in range(n)]
        self.open_count = [0] * n
        self.max_used = -1
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.nodes = 0
        self._undo: list[tuple[Face, list[tuple[int, int]], int]] = []
        for f in faces:
            self._apply(f)

    def _apply(self, face: Face) -> None:
        a, b, c = face
        new_edges: list[tuple[int, int]] = []
        for p, q in ((a, b), (a, c), (b, c)):
            e = (p, q)
            cnt = self.ecount.get(e, 0)
            self.ecount[e] = cnt + 1
            if cnt == 0:
                self.adj[p].add(q)
                self.adj[q].add(p)
                self.open_count[p] += 1
                self.open_count[q] += 1
                new_edges.append(e)
            else:
                self.open_count[p] -= 1
                self.open_count[q] -= 1
        self.lk[a].setdefault(b, []).append(c)
        self.lk[a].setdefault(c, []).append(b)
        self.lk[b].setdefault(a, []).append(c)
        self.lk[b].setdefault(c, []).append(a)
        self.lk[c].setdefault(a, []).append(b)
        self.lk[c].setdefault(b, []).append(a)
        prev_max = self.max_used
        self.max_used = max(self.max_used, c)
        self.faces.append(face)
        self.face_set.add(face)
        self._undo.append((face, new_edges, prev_max))

    def _revert(self) -> None:
        face, new_edges, prev_max = self._undo.pop()
        a, b, c = face
        self.faces.pop()
        self.face_set.remove(face)
        for u in (a, b, c):
            for v in (a, b, c):
                if u != v:
                    lst = self.lk[u][v]
                    lst.pop()
                    if not lst:
                        del self.lk[u][v]
        for p, q in ((a, b), (a, c), (b, c)):
            e = (p, q)
            self.ecount[e] -= 1
            if self.ecount[e] == 0:
                del self.ecount[e]
                self.adj[p].discard(q)
                self.adj[q].discard(p)
                self.open_count[p] -= 1
                self.open_count[q] -= 1
            else:
                self.open_count[p] += 1
                self.open_count[q] += 1
        self.max_used = prev_max

    def _complete(self, v: int) -> bool:
        return len(self.adj[v]) == 6 and self.open_count[v] == 0

    def _link_component(self, w: int, start: int) -> list[int]:
        # Walk the link path/cycle of w containing `start`.
        comp = [start]
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nb in self.lk[w].get(cur, ()):
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    frontier.append(nb)
        return comp

    def _face_ok(self, face: Face) -> bool:
        if face in self.face_set:
            return False
        a, b, c = face
        pairs = ((a, b), (a, c), (b, c))
        for e in pairs:
            if self.ecount.get(e, 0) >= 2:
                return False
        # Degree bound, counting edges this face would add.
        for w, (p, q) in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            deg_after = len(self.adj[w])
            deg_after += p not in self.adj[w]
            deg_after += q not in self.adj[w]
            if deg_after > 6:
                return False
            # Closing a link cycle is only allowed when it closes the whole
            # 6-cycle at once.
            if p in self.adj[w] and q in self.adj[w] and w in self.adj[p] and w in self.adj[q]:
                comp = self._link_component(w, p)
                if q in comp and (deg_after != 6 or len(comp) != 6):
                    return False
        return True

    def _target_vertex(self) -> int:
        for v in range(self.n):
            if not self._complete(v):
                return v
        return self.n

    def _branch_faces(self) -> Optional[list[Face]]:
        """Candidate next faces, or None when the complex is complete."""
        v = self._target_vertex()
        if v == self.n:
            return None
        if not self.adj[v]:
            return []  # earlier links closed without using v: dead branch
        u = min(
            u
            for u in self.adj[v]
            if self.ecount[(v, u) if v < u else (u, v)] == 1
        )
        out = []
        limit = min(self.max_used + 2, self.n)
        for x in range(limit):
            if x == v or x == u:
                continue
            face = tuple(sorted((v, u, x)))
            if self._face_ok(face):
                out.append(face)
        return out

    def _visit(self) -> Optional[list[Face]]:
        """Count the current state as one search node against the budgets
        and return its branch faces, or None when the complex is complete."""
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise ResourceLimit("census search exceeded its node budget")
        if self.nodes % _CHECK_EVERY == 1:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise ResourceLimit("census search exceeded its time budget")
        return self._branch_faces()

    def run(self, leaves: list[tuple[Face, ...]]) -> None:
        """Append every completion of the current faces to `leaves`.  The
        search is 2n - 6 faces deep, so it keeps a stack of branch iterators
        instead of recursing; each iterator above the bottom one stands for
        a face that is applied."""
        stack: list[Iterator[Face]] = []
        while True:
            branch = self._visit()
            if branch is None:
                leaves.append(tuple(self.faces))
                branch = []
            stack.append(iter(branch))
            face = next(stack[-1], None)
            while face is None:
                stack.pop()
                if not stack:
                    return
                self._revert()
                face = next(stack[-1], None)
            self._apply(face)


def _canonicalize_leaves(n: int, leaves: list[tuple[Face, ...]]) -> dict[Code, tuple[Face, ...]]:
    found: dict[Code, tuple[Face, ...]] = {}
    for faces in leaves:
        t = build_triangulation(n, faces)
        form = canonical_form(t)
        if form.code not in found:
            found[form.code] = form.faces
    return found


def _search_worker(args: tuple[int, tuple[Face, ...], Optional[float], Optional[int]]
                   ) -> tuple[dict[Code, tuple[Face, ...]], int]:
    """Classes found below one frontier state, and the nodes searched."""
    n, faces, deadline, max_nodes = args
    state = _LinkSearch(n, list(faces), deadline, max_nodes)
    leaves: list[tuple[Face, ...]] = []
    state.run(leaves)
    return _canonicalize_leaves(n, leaves), state.nodes


def _frontier(n: int, target: int) -> tuple[list[tuple[Face, ...]], list[tuple[Face, ...]]]:
    """Expand the search breadth-first until at least `target` open states
    exist; returns (open states, completed leaves found on the way)."""
    states: list[tuple[Face, ...]] = [tuple(_initial_star())]
    leaves: list[tuple[Face, ...]] = []
    while states and len(states) < target:
        faces = states.pop(0)
        branch = _LinkSearch(n, list(faces), None, None)._visit()
        if branch is None:
            leaves.append(faces)
            continue
        states.extend(faces + (f,) for f in branch)
    return states, leaves


def enumerate_degree_regular(
    n: int,
    *,
    budget_seconds: Optional[float] = None,
    max_nodes: Optional[int] = None,
    jobs: int = 1,
) -> list[Triangulation]:
    """All degree-6 triangulations on n vertices up to isomorphism, each in
    canonical form, sorted by canonical code.  Empty for n <= 6.  The search
    runs in min(jobs, os.cpu_count()) processes; `budget_seconds` must be
    finite and `jobs` at least 1.  `max_nodes` bounds the search nodes below
    the fixed frontier, summed over its states: the same count for every
    `jobs`.  Either budget raises ResourceLimit when exceeded."""
    return [t for _, t in _enumerate_with_codes(n, budget_seconds=budget_seconds,
                                                max_nodes=max_nodes, jobs=jobs)]


def _enumerate_with_codes(
    n: int,
    *,
    budget_seconds: Optional[float] = None,
    max_nodes: Optional[int] = None,
    jobs: int = 1,
) -> list[tuple[Code, Triangulation]]:
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if budget_seconds is not None and not math.isfinite(budget_seconds):
        raise ValueError(f"budget must be a finite number of seconds, not {budget_seconds}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if n <= 6:
        return []
    # The monotonic clock is system-wide, so pool workers can compare
    # against a deadline taken here.
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    states, leaves = _frontier(n, _FRONTIER_TARGET)
    found = _canonicalize_leaves(n, leaves)
    nodes = 0
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        search = pool.map if pool else map
        for classes, searched in search(_search_worker,
                                        [(n, s, deadline, max_nodes) for s in states]):
            nodes += searched
            if max_nodes is not None and nodes > max_nodes:
                raise ResourceLimit("census search exceeded its node budget")
            for code, faces in classes.items():
                found.setdefault(code, faces)
    # found holds the relabelled, sorted faces of validated leaves: valid
    # complexes that need no second validation.
    return [(code, Triangulation(n, found[code])) for code in sorted(found)]


@dataclass(frozen=True)
class CensusItem:
    triangulation: Triangulation
    code: Code
    surface: SurfaceType
    weakly_regular: bool
    combinatorially_regular: bool
    matched_family_names: tuple[str, ...]


@dataclass(frozen=True)
class CensusReport:
    n: int
    items: tuple[CensusItem, ...]

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def torus_count(self) -> int:
        return sum(1 for it in self.items if it.surface.kind == "torus")

    @property
    def klein_bottle_count(self) -> int:
        return sum(1 for it in self.items if it.surface.kind == "klein_bottle")

    @property
    def weakly_regular_count(self) -> int:
        return sum(1 for it in self.items if it.weakly_regular)


def classify_census(
    n: int,
    *,
    budget_seconds: Optional[float] = None,
    max_nodes: Optional[int] = None,
    jobs: int = 1,
) -> CensusReport:
    """Enumerate, then classify each item by surface type, regularity, and
    membership in the named families."""
    coded = _enumerate_with_codes(
        n, budget_seconds=budget_seconds, max_nodes=max_nodes, jobs=jobs
    )
    family_codes: dict[Code, list[str]] = {}
    for named in known_catalog(n):
        code = canonical_form(named.complex).code
        names = family_codes.setdefault(code, [])
        if named.name not in names:
            names.append(named.name)
    items = []
    for code, t in coded:
        group = automorphism_group(t)
        weakly, comb = regularity_flags(t, group)
        items.append(
            CensusItem(
                triangulation=t,
                code=code,
                surface=surface_type(t),
                weakly_regular=weakly,
                combinatorially_regular=comb,
                matched_family_names=tuple(family_codes.get(code, ())),
            )
        )
    return CensusReport(n, tuple(items))
