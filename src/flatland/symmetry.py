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

Two starts with equal keys differ by an automorphism (the permutation that
takes each vertex to the vertex with its label in the other start), and
every automorphism maps a least-key start to one.  The group acts freely on
flags (an automorphism fixing a flag fixes the flags of the adjacent faces,
hence all flags), so the least-key starts are in bijection with the
automorphisms, |Aut| divides 6*f_2, there are 6*f_2/|Aut| flag orbits, and a
complex is combinatorially regular iff |Aut| = 6*f_2.  The canonical
labelling is the lexicographically least labelling of a least-key start, so
canonicalising the canonical complex gives the identity; the canonical code
is the sorted relabelled face list.

The scan also prunes by automorphisms (McKay & Piperno, Practical graph
isomorphism II, J. Symb. Comput. 60, 2014).  Each start that ties with the
least key so far gives an automorphism, and the scan keeps the group G that
these generate; it stays valid when a smaller key later replaces the least
one.  A start in the G-orbit of a traversed start has that start's key, so
it is skipped.  This loses nothing: a skipped start is pruned, tied or least
exactly when its traversed preimage was.  The action is free, so a tie
inside those orbits (at a flag at v0, below) gives an element of G, and one
outside them a new automorphism: it alone is checked against the face set,
and the orbits grow by the images under the new elements, the cosets that
the closure appends.  The other elements are products of checked ones.  The
first traversed start with the final least key reaches every other
least-key start, through a tie or through a skip from a start it reaches,
so at the end G is all of Aut, and the least-key labellings are that
start's labelling composed with the elements of G.

Which starts a scan traverses depends on their order, so the order is fixed
by the complex, not by its vertex names.  The scan first traverses every
flag at one vertex v0, the starts (v0, y, z), and skips none of them.
Whatever their order, the first of them with their least key becomes the
least so far and the later ones with that key tie with it, so G is then the
whole stabiliser of v0, and the traversed starts are the flags at v0.  The
other starts follow in the order of their labels under that least key's
labelling, an order fixed by the complex and v0 up to an automorphism.  So
the traversals, and their number, depend only on the complex and the orbit
of v0.  v0 is the seed's first vertex, or else a vertex whose sorted
distances to all vertices are least (`_first_vertex`): an invariant, so its
orbit is fixed whenever the vertices with those distances form one orbit,
as on every vertex-transitive complex.  A traversed start lies outside the
orbits of the starts before it, so a later tie at least doubles G: a
flag-regular map, where every start has the least key and the stabiliser
of a vertex has order 12, costs at most 12 + log2(|Aut|/12) traversals
instead of 6*f_2.

One scan gives both facts: `automorphism_group` takes the group the scan
built and carries the canonical form of the same scan.  It may be seeded
with one start (`automorphism_group(t, seed)`).  The seed is traversed
first and its key is the bound; the scan prunes larger keys and skips
covered starts as before, and gives up once a start's whole key is less
than the seed's: then the seed's key is not the least one, and there is no
group.  (A skipped start has the key of a traversed one.)  This is the leaf
test of orderly generation (McKay, J. Algorithms 26, 1998): a complex
produced from a known start is kept only if that start has the least key,
and a kept complex costs one scan, which yields its canonical form and its
automorphisms, a rejected one the traversals up to the first smaller key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations
from typing import Optional, Sequence

from .graphs import common_neighbor_graph, graph_shape
from .surface import Face, Triangulation, orientability, skeleton_graph

Code = tuple[int, ...]
Perm = tuple[int, ...]  # vertex v -> perm[v]


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
    canonical: CanonicalForm  # from the scan that found the elements

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


def _traverse(t: Triangulation, start: tuple[int, int, int], start_fi: int,
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
    table = t.across
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


def _first_vertex(t: Triangulation) -> int:
    """A vertex whose sorted list of distances to all vertices is least.
    The list is an invariant, so on a relabelled copy the vertex chosen lies
    in the same orbit whenever the vertices with the least list form one."""
    adj: list[list[int]] = [[] for _ in range(t.n)]
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)

    def distances(v: int) -> list[int]:
        dist = [-1] * t.n
        dist[v] = 0
        queue = [v]
        for x in queue:  # breadth-first: the queue grows while read
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return sorted(dist)

    return min(range(t.n), key=distances)


def _scan(t: Triangulation, seed: Optional[Face] = None) -> Optional[tuple[list[int], list[Perm]]]:
    """The label array `base` of a least-key start and the automorphism
    group: the least-key label arrays are base[g[v]], one per element g.
    With a `seed` start (an oriented face of t), None as soon as some
    start's key is found to be less than the seed's."""
    v0 = _first_vertex(t) if seed is None else seed[0]
    at_v0: list[tuple[Face, int]] = []
    others: list[tuple[Face, int]] = []
    for fi, face in enumerate(t.faces):
        for start in permutations(face):
            (at_v0 if start[0] == v0 else others).append((start, fi))
    if seed is not None:
        first = (seed, t.faces.index(tuple(sorted(seed))))
        at_v0.remove(first)
        at_v0.insert(0, first)
    best: Optional[list[int]] = None
    base: list[int] = []  # the label array of the first start with key best
    base_inv: list[int] = []
    group: list[Perm] = [tuple(range(t.n))]  # automorphisms found so far
    gens: list[Perm] = []
    traversed: list[Face] = []
    covered: set[Face] = set()  # the orbits of the traversed starts

    def by_label():  # the other starts by their labels in base, sorted once the flags at v0 set it
        yield from sorted(others, key=lambda s: (base[s[0][0]], base[s[0][1]], base[s[0][2]]))

    for start, fi in chain(at_v0, by_label()):
        if start[0] != v0 and start in covered:  # every flag at v0 is traversed
            continue
        found = _traverse(t, start, fi, best)
        traversed.append(start)
        if found is not None:
            key, label = found
            if key == best:
                if start in covered:  # its automorphism is already in the group
                    continue
                perm = tuple(map(base_inv.__getitem__, label))  # start -> base start
                if _apply(perm, t.faces) != t.face_set():
                    raise AssertionError("traversal produced a non-automorphism")
                gens.append(perm)
                old, group = len(group), _closure(group, gens)
                covered.update(_image(g, s) for s in traversed for g in group[old:])
                continue
            if best is not None and seed is not None:
                return None  # a key below the seed's
            # a key that survives the pruning is at most best
            best, base, base_inv = key, label, _invert(label)
        covered.update(_image(g, start) for g in group)
    return base, group


def _image(perm: Perm, start: Face) -> Face:
    x, y, z = start
    return perm[x], perm[y], perm[z]


def _closure(group: list[Perm], gens: list[Perm]) -> list[Perm]:
    """The group generated by `group` and the last of `gens`, given that
    `group` is generated by the others: Dimino's algorithm, which adds whole
    right cosets of `group` until right multiplication by every generator
    stays inside."""
    elements, members = list(group), set(group)
    reps: list[Perm] = [group[0]]  # the identity
    for r in reps:  # grows while read
        for g in gens:
            e = tuple(map(r.__getitem__, g))  # v -> r[g[v]]
            if e not in members:
                coset = [tuple(map(h.__getitem__, e)) for h in group]
                elements.extend(coset)
                members.update(coset)
                reps.append(e)
    return elements


def _form(t: Triangulation, base: list[int], group: list[Perm]) -> CanonicalForm:
    label = min([base[g[v]] for v in range(t.n)] for g in group)
    rel = sorted(tuple(sorted((label[a], label[b], label[c]))) for a, b, c in t.faces)
    return CanonicalForm(tuple(v for f in rel for v in f), tuple(label))


def canonical_form(t: Triangulation) -> CanonicalForm:
    """Deterministic relabeling-invariant encoding of the surface."""
    return _form(t, *_scan(t))


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


def automorphism_group(t: Triangulation, seed: Optional[Face] = None) -> Optional[SymmetryGroup]:
    """The complete automorphism group as explicit vertex permutations, with
    the canonical form.  With a `seed` start (an oriented face of t), None
    unless that start has the least key.  `_scan` checked the generators
    against the face set, so no element is applied to it again."""
    found = _scan(t, seed)
    if found is None:
        return None
    base, group = found
    elements = tuple(sorted(group))

    vertex_orbits = _orbit_partition(range(t.n), lambda v: {p[v] for p in elements})
    face_orbits = _orbit_partition(
        t.faces,
        lambda f: {tuple(sorted((p[f[0]], p[f[1]], p[f[2]]))) for p in elements},
    )
    return SymmetryGroup(elements, vertex_orbits, face_orbits, _form(t, base, group))


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
