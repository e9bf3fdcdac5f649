"""Canonical forms, certified isomorphism testing, and automorphism groups.

A *start* is one of the 6*f_2 flags, written as an oriented face (x, y, z).
From a start, a breadth-first traversal of the face adjacency labels x, y, z
as 0, 1, 2, and for each popped face (x, y, z) crosses its edges (p, q) =
(x, y), (y, z), (z, x) in turn: the vertex w beyond the edge gets the next
free label if it has none, and the face there is queued as (q, p, w) if it
is new.  The *key* of the start is the sequence of the 3*f_2 labels of those
vertices w.  The key determines the labelled face set (replay the
traversal), and the traversal never looks at vertex names, so isomorphic
complexes have the same keys.  The canonical key is the least one.  The
scan compares each key with the least key so far while producing it and
drops the start at the first larger entry (the prefix pruning of plantri,
Brinkmann & McKay 2007).

Two starts with the least key differ by an automorphism, and every
automorphism maps a least-key start to one.  The group acts freely on flags
(an automorphism fixing a flag fixes the flags of the adjacent faces, hence
all flags), so the tied starts are in bijection with the automorphisms,
|Aut| divides 6*f_2, there are 6*f_2/|Aut| flag orbits, and a complex is
combinatorially regular iff |Aut| = 6*f_2.  The canonical labelling is the
lexicographically least tied labelling, so canonicalising the canonical
complex gives the identity; the canonical code is the sorted relabelled
face list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .graphs import common_neighbor_graph, graph_shape
from .surface import Face, Triangulation, orientability, skeleton_graph

Code = tuple[int, ...]


@dataclass(frozen=True)
class CanonicalForm:
    code: Code  # flattened canonical face list
    relabeling: tuple[int, ...]  # input vertex -> canonical vertex

    @property
    def faces(self) -> tuple[Face, ...]:
        it = iter(self.code)
        return tuple(zip(it, it, it))


@dataclass(frozen=True)
class SymmetryGroup:
    elements: tuple[tuple[int, ...], ...]  # vertex permutations
    vertex_orbits: tuple[tuple[int, ...], ...]
    face_orbits: tuple[tuple[Face, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class IsomorphismResult:
    mapping: Optional[tuple[int, ...]]  # A vertex -> B vertex, or None
    distinguishing_invariant: Optional[str] = None

    @property
    def isomorphic(self) -> bool:
        return self.mapping is not None


def _traverse(t: Triangulation, table, start: tuple[int, int, int], start_fi: int,
              best: Optional[list[int]]):
    """Key and label array (input vertex -> label) of one start, or None as
    soon as a key entry exceeds `best` at the same position."""
    label = [-1] * t.n
    x, y, z = start
    label[x], label[y], label[z] = 0, 1, 2
    nxt = 3
    seen = [False] * t.f2
    seen[start_fi] = True
    queue = [(x, y, z, start_fi)]
    key: list[int] = []
    tight = best is not None  # the key so far equals best's prefix
    for x, y, z, fi in queue:  # breadth-first: the queue grows while read
        across = table[fi]
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            gi, w = across[r]
            lw = label[w]
            if lw < 0:
                lw = label[w] = nxt
                nxt += 1
            if tight and lw != best[len(key)]:
                if lw > best[len(key)]:
                    return None
                tight = False
            key.append(lw)
            if not seen[gi]:
                seen[gi] = True
                queue.append((q, p, w, gi))
    return key, label


def _scan(t: Triangulation) -> list[list[int]]:
    """The label arrays of all starts whose key is the least one: one per
    automorphism."""
    table = t.across
    best: Optional[list[int]] = None
    ties: list[list[int]] = []
    for fi, face in enumerate(t.faces):
        for start in permutations(face):
            found = _traverse(t, table, start, fi, best)
            if found is None:
                continue
            key, label = found
            if key == best:
                ties.append(label)
            else:  # a key that survives the pruning is at most best
                best, ties = key, [label]
    return ties


def canonical_form(t: Triangulation) -> CanonicalForm:
    """Deterministic relabeling-invariant encoding of the surface."""
    label = min(_scan(t))
    rel = sorted(tuple(sorted((label[a], label[b], label[c]))) for a, b, c in t.faces)
    return CanonicalForm(tuple(v for f in rel for v in f), tuple(label))


def _apply(perm: Sequence[int], faces: Sequence[Face]) -> frozenset[Face]:
    return frozenset(tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in faces)


def _invert(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return inv


def find_isomorphism(a: Triangulation, b: Triangulation) -> IsomorphismResult:
    """Explicit face-preserving bijection if one exists, else the first
    distinguishing invariant (cheapest invariant first)."""
    if a.n != b.n:
        return IsomorphismResult(None, f"vertex count ({a.n} vs {b.n})")
    if a.f2 != b.f2:
        return IsomorphismResult(None, f"face count ({a.f2} vs {b.f2})")
    oa, ob = orientability(a), orientability(b)
    if oa != ob:
        return IsomorphismResult(None, f"orientability ({oa} vs {ob})")
    ga, gb = skeleton_graph(a), skeleton_graph(b)
    for c in range(7):
        sa = graph_shape(common_neighbor_graph(ga, c))
        sb = graph_shape(common_neighbor_graph(gb, c))
        if sa != sb:
            return IsomorphismResult(None, f"G_{c}(EG) shape ({sa} vs {sb})")
    fa, fb = canonical_form(a), canonical_form(b)
    if fa.code != fb.code:
        return IsomorphismResult(None, "canonical code")
    inv_b = _invert(fb.relabeling)
    mapping = tuple(inv_b[fa.relabeling[v]] for v in range(a.n))
    if _apply(mapping, a.faces) != b.face_set():
        raise AssertionError("canonical relabelings produced a non-isomorphism")
    return IsomorphismResult(mapping)


def automorphism_group(t: Triangulation) -> SymmetryGroup:
    """The complete automorphism group as explicit vertex permutations."""
    labelings = _scan(t)
    base_inv = _invert(labelings[0])
    face_set = t.face_set()
    elements = []
    for label in labelings:
        perm = tuple(base_inv[label[v]] for v in range(t.n))
        if _apply(perm, t.faces) != face_set:
            raise AssertionError("traversal produced a non-automorphism")
        elements.append(perm)
    elements = tuple(sorted(elements))

    vertex_orbits = _orbit_partition(range(t.n), lambda v: {p[v] for p in elements})
    face_orbits = _orbit_partition(
        t.faces,
        lambda f: {tuple(sorted((p[f[0]], p[f[1]], p[f[2]]))) for p in elements},
    )
    return SymmetryGroup(elements, vertex_orbits, face_orbits)


def _orbit_partition(items, orbit_of):
    seen = set()
    parts = []
    for x in items:
        if x in seen:
            continue
        orbit = orbit_of(x)
        seen.update(orbit)
        parts.append(tuple(sorted(orbit)))
    return tuple(parts)


def regularity_flags(t: Triangulation, group: SymmetryGroup) -> tuple[bool, bool]:
    """(weakly regular, combinatorially regular): vertex- and
    flag-transitivity of the automorphism group; the action on flags is
    free, so it is transitive iff |Aut| = 6*f_2."""
    return len(group.vertex_orbits) == 1, group.order == 6 * t.f2
