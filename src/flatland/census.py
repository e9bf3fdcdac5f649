"""Isomorph-free exhaustive enumeration of degree-6 triangulations.

The search fixes the star of vertex 0 (link C_6 on vertices 1..6), then
completes the vertex links one face at a time.  Each node puts a face on
one open edge vu, u the least open neighbour of v, and branches over its
third vertex.  It branches fail-first (Haralick and Elliott): v is the
least vertex that has 6 neighbours and an open link, which can take no new
neighbour, so its only candidates are its other open ends; when there is
none, v is the smallest unfinished vertex, which may also take a vertex it
does not meet yet.  New vertices are introduced in first-use order.  The
branch edge is read off the labelled state alone, and a face that takes a
new vertex gives it the next label, so the labelling of a leaf is still
fixed by its search flag (vertex 0, edge 01, face 012): each flag of a
class gives exactly one leaf, and the flags of one automorphism orbit give
the same leaf, so a class with automorphism group Aut comes out as
12n/|Aut| leaves, most of which the prefix test below ends before they
are built.  Each leaf left is scanned once (`symmetry.automorphism_group`),
which gives its canonical code and faces and its class's automorphism
group, and so the regularity flags, and the leaves are merged by canonical
code.  Every leaf of a class gives the same canonical faces and flags, so
the output depends neither on which leaves are left nor on their order,
only on the canonical code being a complete invariant.

A search node costs a few candidate checks, not a pass over all faces.
The smallest unfinished vertex is kept as a pointer that only moves
forward as faces are added (a new face never touches a complete vertex),
and is restored when a face is taken back; the vertex with 6 neighbours
is found by a scan of the used vertices from it.  Only the x that can fit
are checked: the other open endpoints of v's link, and, while v has fewer
than 6 neighbours, the used vertices (or the next new one) that are not
yet neighbours of v and have fewer than 6 neighbours.  Any other x would
put a third face on an edge or give v or x a seventh neighbour.  Closing a
link is checked by walking its path, at most 6 vertices.

A state with exactly one branch face is not a node: the face is added in
place and the branch faces are read again.  When the least vertex with 6
neighbours and an open link has one path for its link, the face that
closes the path is its only candidate, so no rule of its own adds such
faces.  A node is a state with no branch face (a dead end), a complete
complex (a leaf), or one with two or more branch faces.

A node that is not a dead end runs a prefix test on its faces, the prefix
pruning of plantri (Brinkmann and McKay 2007).  It traverses the search
flag and the other 11 flags at vertex 0, whose star is closed from the
root, and, from the first node where vertex 1 is complete, the 12 flags at
vertex 1, the other end of the search flag's first edge, which the search
completes early.  It traverses them exactly as `symmetry._traverse` does,
and stops each traversal at its first edge that lies on one face only.  A
flag's first edge, from its complete vertex, lies on two faces, so each
traversal starts having crossed it, with the vertex beyond labelled 3
(`_flags_at`); then each queued face crosses its other two edges.
An edge on two faces keeps them in every completion, so the key up to
there, the prefix, is a prefix of that flag's key in every completion.  If
some flag's prefix is smaller than the search flag's at a position both
reach, then in every leaf below some flag has a smaller key than the search
flag, and the node ends.  The leaves left are exactly those of the search
without it whose search flag has the least key among the 24 flags at
vertices 0 and 1 (ties kept).  That loses no class: a flag of a class with
the least key of all its flags gives a leaf whose search flag has the least
key, and every node above that leaf passes the test.

Racing the flags at vertex 2 too, or at every complete vertex, ends a few
more nodes but costs more than it saves.  A child's faces hold its
parent's, so along a path each traversal only grows: the search keeps one
traversal of the search flag, its race, and each node keeps only the
lengths it reached, from which the next node goes on once it has cut the
race back to them.  Two flags whose keys agree up to some position have
queued the same faces and crossed the same edges so far, read in their own
labels, so a flag still tied with the search flag crosses next the search
flag's edge at that position, read through its labels.  A tie holds its
position in the search flag's key, its labels and its vertices by label,
which grow in place, and their number, to which they are cut back before
it goes on; it stops at its first edge on one face or at the end of the
search flag's key, and a flag found larger is dropped for the whole
subtree.  That gives the same verdict at every node as a test from scratch
on its faces, so the nodes do not depend on where the search is split.
Nothing is copied, so the test's memory is linear in the search depth, and
the labels are dicts and lists over the vertices met and the queued faces
bit masks of their vertices, so nothing of size n is allocated.

Every census takes one path, whatever the number of jobs: the search tree
is expanded breadth-first until it has `_FRONTIER_TARGET` open states or
runs out of them, and each state is one task (`_search_worker`), run in
this process for one job and in a process pool otherwise.  The frontier is
grown by the search itself: a search stopped after one node hands back the
branches it did not enter, each with the faces above it.  A task
searches its state to the end and canonicalises the leaves it found.  The
tasks depend only on n, so they and the output are the same for every job
count; at larger n one state holds nearly all the nodes, so a second job
gains little.  The census stops early only on its time budget, which raises
where the deadline is found to have passed.

The classes are then named from `known_catalog`, one canonical form per
distinct complex, given the classes' codes, so a scan that finds one of
them among the flags at v0 stops there (`symmetry.canonical_form`).
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
from .surface import SurfaceType, Triangulation, build_triangulation, surface_type
from .symmetry import Code, automorphism_group, canonical_form, regularity_flags

Face = tuple[int, int, int]

_CHECK_EVERY = 256  # nodes between deadline checks, the first at the root
_FRONTIER_TARGET = 8  # open states the search is split into, for any jobs
_SEARCH_FLAG: Face = (0, 1, 2)  # the start every leaf is labelled from
_Class = tuple[tuple[Face, ...], tuple[bool, bool]]  # faces, (weakly, combinatorially regular)
# A flag tied with the search flag: its position in the search flag's key,
# its number of labels, its labels and its vertices by label.
_Tie = tuple[int, int, dict[int, int], list[int]]


class ResourceLimit(RuntimeError):
    """The time budget was exceeded; partial results are never reported as
    a complete census."""


def _initial_star() -> list[Face]:
    return [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 1, 6)]


class _LinkSearch:
    """Mutable search state over a growing face list.

    `lk[v]` maps each neighbour u of v to the third vertices of the faces
    on the edge vu, so its keys are the neighbours of v, its size is the
    degree of v, and the length of a value is the number of faces on that
    edge (at most 2).  `open_count[v]` counts the edges at v that lie on
    one face only.  `first_open` is the least vertex that is not complete
    (degree 6, no open edge), or n.  The search reads only the vertices
    below min(max_used + 2, n), so `lk` and `open_count` grow as vertices
    come into use: a huge n costs nothing up front."""

    def __init__(self, n: int, faces: list[Face], deadline: Optional[float],
                 quota: Optional[int]):
        self.n = n
        self.faces: list[Face] = []
        self.lk: list[dict[int, list[int]]] = []
        self.open_count: list[int] = []
        self.max_used = -1
        self.first_open = 0
        self.deadline = deadline
        self.quota = quota
        self.nodes = 0
        self.pruned = 0  # nodes ended by the prefix test
        # The race, the search flag's traversal as far as the faces reach:
        # its key, the labels of the edge crossed and of its face's third
        # vertex at each entry, its queue, its queued faces (as vertex bit
        # masks) and its labels, in label order.  A node keeps its lengths.
        self.key: list[int] = []
        self.steps: list[Face] = []
        self.queue: list[Face] = []
        self.seen: set[int] = set()
        self.label: dict[int, int] = {}
        self.race = (0, 0, 0)  # len(key), len(queue), len(label)
        self.ties: Optional[list[_Tie]] = None  # the flags still tied with the search flag
        self.ties_at_1 = False  # whether the ties have taken in the flags at vertex 1
        self._undo: list[tuple[int, int]] = []  # (max_used, first_open) before each face
        for f in faces:
            self._apply(f)

    def _apply(self, face: Face) -> None:
        a, b, c = face
        lk = self.lk
        open_count = self.open_count
        while len(lk) < min(c + 2, self.n):
            lk.append({})
            open_count.append(0)
        for p, q, r in ((a, b, c), (a, c, b), (b, c, a)):
            on_pq = lk[p].get(q)
            if on_pq is None:
                lk[p][q] = [r]
                lk[q][p] = [r]
                open_count[p] += 1
                open_count[q] += 1
            else:
                on_pq.append(r)
                lk[q][p].append(r)
                open_count[p] -= 1
                open_count[q] -= 1
        self._undo.append((self.max_used, self.first_open))
        self.max_used = max(self.max_used, c)
        self.faces.append(face)
        # A new face never touches a complete vertex, so the vertices below
        # first_open stay complete and the pointer only moves forward here.
        v = self.first_open
        while v < self.n and len(lk[v]) == 6 and open_count[v] == 0:
            v += 1
        self.first_open = v

    def _revert(self) -> None:
        a, b, c = self.faces.pop()
        lk = self.lk
        open_count = self.open_count
        for p, q in ((a, b), (a, c), (b, c)):
            on_pq = lk[p][q]
            if len(on_pq) == 1:
                del lk[p][q]
                del lk[q][p]
                open_count[p] -= 1
                open_count[q] -= 1
            else:
                on_pq.pop()
                lk[q][p].pop()
                open_count[p] += 1
                open_count[q] += 1
        self.max_used, self.first_open = self._undo.pop()

    def _closes_short_cycle(self, w: int, p: int, q: int) -> bool:
        """Whether p and q are the two ends of one path of the link of w
        that has fewer than 6 vertices.  Both must be ends of link paths:
        each lies on one face with w."""
        lk_w = self.lk[w]
        prev, end, size = p, lk_w[p][0], 2
        while len(lk_w[end]) == 2:
            a, b = lk_w[end]
            prev, end = end, b if a == prev else a
            size += 1
        return end == q and size < 6

    def _face_ok(self, face: Face) -> bool:
        """Whether the face can be added: it adds no third face to an edge,
        no seventh neighbour to a vertex, and closes a vertex link only
        into a whole 6-cycle.  A face already present fails the last rule:
        in the link of each of its vertices the other two are the ends of
        a path of 2 vertices."""
        a, b, c = face
        lk = self.lk
        for w, p, q in ((a, b, c), (b, a, c), (c, a, b)):
            lk_w = lk[w]
            on_p = lk_w.get(p)
            on_q = lk_w.get(q)
            if on_p is not None and len(on_p) == 2 or on_q is not None and len(on_q) == 2:
                return False
            if on_p is None or on_q is None:
                if len(lk_w) + (on_p is None) + (on_q is None) > 6:
                    return False
            elif self._closes_short_cycle(w, p, q):
                return False
        return True

    def _branch_faces(self) -> Optional[list[Face]]:
        """Candidate next faces, or None when the complex is complete.

        The new face is {v, u, x}, on the edge vu, where u is the least open
        neighbour of v.  v is the least vertex that has 6 neighbours and an
        open link, or, when there is none, the first open vertex; x <
        max_used + 2 (new vertices come in first-use order).  Only two
        kinds of x are offered to `_face_ok`, in ascending order: the other
        open neighbours of v, and, while v has fewer than 6 neighbours, the
        non-neighbours of v that have fewer than 6 neighbours.  Every other
        x fails `_face_ok`: the edge vx of a neighbour that is not open
        already lies on two faces; a non-neighbour would be a seventh
        neighbour of v when v has 6, and v a seventh neighbour of x when x
        has 6.  The vertices below the first open vertex are complete, so
        they have 6 neighbours and are never offered."""
        v = self.first_open
        if v == self.n:
            return None
        lk = self.lk
        open_count = self.open_count
        for w in range(v, len(lk)):
            if len(lk[w]) == 6 and open_count[w]:
                v = w
                break
        lk_v = lk[v]
        if not lk_v:
            return []  # earlier links closed without using v: dead branch
        xs = [x for x, on_vx in lk_v.items() if len(on_vx) == 1]
        u = min(xs)
        if len(lk_v) < 6:
            xs += [x for x in range(v + 1, min(self.max_used + 2, self.n))
                   if len(lk[x]) < 6 and x not in lk_v]
        xs.sort()
        out = []
        for x in xs:
            if x != u:
                face = tuple(sorted((v, u, x)))
                if self._face_ok(face):
                    out.append(face)
        return out

    def _search_flag_leads(self) -> bool:
        """The prefix test: False when some flag at vertex 0 or 1 has a
        smaller key than the search flag in every completion of the faces.

        The search flag's traversal goes on from where the parent node left
        it, its lengths `race`, to its first edge on one face or its end;
        the next entry crosses edge `len(key) % 2` of queued face
        `len(key) // 2`.  Its flags still tied, the other flags at vertex 0
        from the root and the flags at vertex 1 from the first node where
        vertex 1 is complete, then go on to their first edge on one face or
        to the end of the search flag's key.  A child only appends, so each
        traversal is first cut back to the lengths this node's parent kept.
        A tie whose entry differs from the search flag's is dropped if it is
        larger, and ends the node if it is smaller."""
        lk, ties, at_1 = self.lk, self.ties, self.ties_at_1
        key, steps, queue, seen, label = self.key, self.steps, self.queue, self.seen, self.label
        crossed, queued, labelled = self.race
        del key[crossed:], steps[crossed:]
        for x, y, z in queue[queued:]:
            seen.discard(1 << x | 1 << y | 1 << z)
        del queue[queued:]
        while len(label) > labelled:
            label.popitem()
        if ties is None:  # the search flag has crossed only its first edge, xy, to w
            x, y, z = _SEARCH_FLAG
            w = sum(lk[x][y]) - z
            label.update({x: 0, y: 1, z: 2, w: 3})
            queue += [_SEARCH_FLAG, (y, x, w)]
            seen.update((1 << x | 1 << y | 1 << z, 1 << x | 1 << y | 1 << w))
            ties = _flags_at(lk, 0)
        if not at_1 and self.first_open > 1:
            ties, at_1 = ties + _flags_at(lk, 1), True
        # As `symmetry._traverse`: each queued face (x, y, z) crosses (y, z),
        # then (z, x); faces are queued and vertices labelled in that order.
        get_label = label.get
        while len(key) < 2 * len(queue):  # breadth-first: the queue grows while read
            x, y, z = queue[len(key) // 2]
            p, q, r = (z, x, y) if len(key) % 2 else (y, z, x)
            on_pq = lk[p][q]
            if len(on_pq) == 1:
                break
            w = on_pq[0] + on_pq[1] - r
            lw = get_label(w)
            if lw is None:
                lw = label[w] = len(label)
            key.append(lw)
            steps.append((label[p], label[q], label[r]))
            face = 1 << p | 1 << q | 1 << w
            if face not in seen:
                seen.add(face)
                queue.append((q, p, w))
        end = len(key)
        kept = []
        for at, size, tie_label, inv in ties:
            while len(inv) > size:
                del tie_label[inv.pop()]
            while at < end:
                a, b, c = steps[at]
                on_ab = lk[inv[a]][inv[b]]
                if len(on_ab) == 1:
                    break
                w = on_ab[0] + on_ab[1] - inv[c]
                lw = tie_label.get(w, len(inv))
                if lw != key[at]:
                    if lw < key[at]:
                        return False
                    at = -1  # larger: dropped for the whole subtree
                    break
                if lw == len(inv):  # a new vertex
                    tie_label[w] = lw
                    inv.append(w)
                at += 1
            if at >= 0:
                kept.append((at, len(inv), tie_label, inv))
        self.race, self.ties, self.ties_at_1 = (end, len(queue), len(label)), kept, at_1
        return True

    def _visit(self) -> Optional[list[Face]]:
        """Count the current state as one search node, check the deadline,
        add its branch face while it has exactly one, and return its branch
        faces: [] at a dead end or when the prefix test fails, None when
        the complex is complete."""
        self.nodes += 1
        if self.nodes % _CHECK_EVERY == 1:
            _check_deadline(self.deadline, "census search")
        branch = self._branch_faces()
        while branch is not None and len(branch) == 1:
            self._apply(branch[0])
            branch = self._branch_faces()
        if branch == []:
            return []
        if not self._search_flag_leads():
            self.pruned += 1
            return []
        return branch

    def run(self, leaves: list[tuple[Face, ...]]) -> list[tuple[Face, ...]]:
        """Append every completion of the current faces to `leaves`.  The
        search is 2n - 6 faces deep, so it keeps a stack instead of
        recursing: for each node on the path from the root, its branch
        iterator, its face count once its single branch faces are added, so
        backtracking takes back those faces with the branch face, the
        lengths of its race, its ties, and whether those have taken in the
        flags at vertex 1.  Backtracking assigns these; the next prefix test
        cuts the race and the ties back to them.

        With a `quota` (None: no limit), the search stops once it has
        counted that many nodes and returns the states it has not entered:
        for each node on the stack from the bottom up, its faces (its single
        branch faces included) plus each remaining sibling face.  Their
        roots are not counted here, so searching them counts every node of the
        subtree exactly once.  Otherwise it returns []."""
        stack: list[tuple[Iterator[Face], int, tuple[int, int, int], Optional[list[_Tie]],
                          bool]] = []
        while True:
            branch = self._visit()
            if branch is None:
                leaves.append(tuple(self.faces))
                branch = []
            stack.append((iter(branch), len(self.faces), self.race, self.ties, self.ties_at_1))
            if self.quota is not None and self.nodes >= self.quota:
                return [tuple(self.faces[:end]) + (face,)
                        for rest, end, *_ in stack for face in rest]
            face = next(stack[-1][0], None)
            while face is None:
                stack.pop()
                if not stack:
                    return []
                rest, end, self.race, self.ties, self.ties_at_1 = stack[-1]
                while len(self.faces) > end:
                    self._revert()
                face = next(rest, None)
            self._apply(face)


def _flags_at(lk: list[dict[int, list[int]]], v: int) -> list[_Tie]:
    """The flags (v, a, b) at the complete vertex v other than the search
    flag, as ties that have crossed only their first edge va, to w: each
    edge va lies on the faces {v, a, b} and {v, a, w}."""
    return [(0, 4, {v: 0, a: 1, b: 2, w: 3}, [v, a, b, w])
            for a, (b1, b2) in lk[v].items() for b, w in ((b1, b2), (b2, b1))
            if (v, a, b) != _SEARCH_FLAG]


def _check_deadline(deadline: Optional[float], layer: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceLimit(f"{layer} exceeded its time budget")


def _canonicalize_leaves(n: int, leaves: list[tuple[Face, ...]],
                         deadline: Optional[float] = None) -> dict[Code, _Class]:
    """The classes of the leaves by canonical code, each in canonical form
    with its regularity flags, which do not depend on the leaf."""
    found: dict[Code, _Class] = {}
    for faces in leaves:
        _check_deadline(deadline, "census leaf canonicalisation")
        leaf = build_triangulation(n, faces)
        group = automorphism_group(leaf)
        found.setdefault(group.canonical.code,
                         (group.canonical.faces, regularity_flags(leaf, group)))
    return found


def _search_worker(args: tuple[int, tuple[Face, ...], Optional[float]]
                   ) -> tuple[dict[Code, _Class], int]:
    """Search one state to its end.  Returns the classes of the leaves found
    and the nodes searched; raises ResourceLimit once the deadline has
    passed."""
    n, faces, deadline = args
    state = _LinkSearch(n, list(faces), deadline, None)
    leaves: list[tuple[Face, ...]] = []
    state.run(leaves)
    return _canonicalize_leaves(n, leaves, deadline), state.nodes


def _frontier(n: int, target: int) -> tuple[list[tuple[Face, ...]], list[tuple[Face, ...]]]:
    """Expand the search breadth-first until at least `target` open states
    exist; returns (open states, completed leaves found on the way).  A
    state is expanded by a search with a quota of one node, so its children
    and leaf carry the single branch faces it added."""
    states: list[tuple[Face, ...]] = [tuple(_initial_star())]
    leaves: list[tuple[Face, ...]] = []
    while states and len(states) < target:
        states += _LinkSearch(n, list(states.pop(0)), None, 1).run(leaves)
    return states, leaves


def _enumerate_with_codes(n: int, deadline: Optional[float], jobs: int
                          ) -> list[tuple[Code, Triangulation, tuple[bool, bool]]]:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    if n <= 6:
        return []
    states, leaves = _frontier(n, _FRONTIER_TARGET)
    nodes = done = 0
    try:
        found = _canonicalize_leaves(n, leaves, deadline)
        pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
        with pool or contextlib.nullcontext():
            search = pool.map if pool else map
            for classes, searched in search(_search_worker, [(n, s, deadline) for s in states]):
                nodes += searched
                done += 1
                for code, found_class in classes.items():
                    found.setdefault(code, found_class)
    except ResourceLimit as stop:
        raise ResourceLimit(f"{stop} ({nodes} nodes, {done}/{len(states)} states done)") from None
    # found holds the relabelled, sorted faces of validated leaves: valid
    # complexes that need no second validation.
    return [(code, Triangulation(n, found[code][0]), found[code][1]) for code in sorted(found)]


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
    jobs: int = 1,
) -> CensusReport:
    """All degree-6 triangulations on n vertices up to isomorphism, each in
    canonical form, sorted by canonical code and classified by surface type
    and membership in the named families; its regularity flags come from
    its leaf.  No items for n <= 6.  The search runs in at most jobs
    processes, and no more than the CPUs this process may run on (its
    affinity set, or os.cpu_count() where the platform has none);
    `budget_seconds` must be finite and `jobs` at least 1.

    A census that exceeds the time budget raises ResourceLimit.  The budget
    covers all of it: the search and its leaf scans, then each catalog
    member's canonical form and each class's classification.  A stop in
    the search gives the nodes searched below the frontier by the tasks
    that finished, and the frontier states done out of all of them; a later
    stop gives the classes done."""
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if budget_seconds is not None and not math.isfinite(budget_seconds):
        raise ValueError(f"budget must be a finite number of seconds, not {budget_seconds}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    # On the monotonic clock: it is system-wide, so pool workers can use it.
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    coded = _enumerate_with_codes(n, deadline, jobs)
    items: list[CensusItem] = []
    try:
        # One scan per distinct complex (T_{n,1,k}, T_{n,1,n-1-k} share faces).
        code_of: dict[Triangulation, Code] = {}
        family_codes: dict[Code, list[str]] = {}
        classes = {code for code, _, _ in coded}
        for named in known_catalog(n):
            if named.complex not in code_of:
                _check_deadline(deadline, "census classification")
                code_of[named.complex] = canonical_form(named.complex, classes).code
            family_codes.setdefault(code_of[named.complex], []).append(named.name)
        for code, t, (weakly, comb) in coded:
            _check_deadline(deadline, "census classification")
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
    except ResourceLimit as stop:
        raise ResourceLimit(f"{stop} ({len(items)}/{len(coded)} classes done)") from None
    return CensusReport(n, tuple(items))
