"""Canonical forms, certified isomorphism testing, and automorphism groups.

A *start* is one of the 6*f_2 flags, written as an oriented face (x, y, z).
The scan names the flag of face fi read in its k-th order (in
`permutations` order, so first its vertex of rank k // 2) by 6*fi + k.
From a start, a breadth-first traversal of the face adjacency labels x, y, z
as 0, 1, 2 and the vertex w beyond the edge (x, y) as 3, and queues (x, y,
z) and (y, x, w).  Each popped face (x, y, z) crosses its edges (p, q) =
(y, z), (z, x) in turn: the vertex w beyond the edge gets the next free
label if it has none, and the face there is queued as (q, p, w) if it is
new.  Its edge (x, y) is not crossed: it leads back to the face it was
queued from (for the start, to the face of w), which is seen and whose
vertices have labels.  The *key* of the start is the sequence of the 2*f_2
labels of those vertices w.  The key determines the labelled face set
(replay the traversal), and the traversal never looks at vertex names, so
isomorphic complexes have the same keys.  The canonical key is the least
one.  The scan compares each key with the least key so far while producing
it and drops the start at the first larger entry (the prefix pruning of
plantri, Brinkmann & McKay 2007).

Two starts with equal keys differ by an automorphism (the permutation that
takes each vertex to the vertex with its label in the other start), and
every automorphism maps a least-key start to one.  The group acts freely on
flags (an automorphism fixing a flag fixes the flags of the adjacent faces,
hence all flags), so the least-key starts are in bijection with the
automorphisms, |Aut| divides 6*f_2, there are 6*f_2/|Aut| flag orbits, and a
complex is combinatorially regular iff |Aut| = 6*f_2.  The canonical
code is the face list relabelled by a least-key start, sorted.

The scan also prunes by automorphisms (McKay & Piperno, Practical graph
isomorphism II, J. Symb. Comput. 60, 2014).  Each start that ties with the
least key so far gives an automorphism, and the scan keeps the group G that
these generate; it stays valid when a smaller key later replaces the least
one.  A start in the G-orbit of a traversed start has that start's key, so
it is skipped.  This loses nothing: a skipped start is pruned, tied or
least exactly when its traversed preimage was.  G is kept as its generators
and the orbits they cut out.  The vertex orbits are classes that each new
generator joins along its cycles, relabelling the smaller class.  The flag
orbits are a union-find over the 6*f_2 integer flags, in which a generator
merges a flag with its image, and each class records whether it holds a
traversed start; a face's six flags find their images with the generator's
face permutation and a 6 x 6 table.  A flag's orbit lies over its vertex's
orbit, so the flag orbits are kept only over the vertex classes that the
scan visits: before the flags at a vertex are compared, every generator is
merged over the stars of its class, each (face, generator) pair once.  The
action is free, so a tie inside those classes (at a flag at v0, below)
gives an element of G, and one outside them a new generator: it alone is
checked against the face set, one lookup per face, which gives its face
permutation.  The other elements are products of checked ones, and none is
listed.  The first traversed start with the final least key reaches every
other least-key start, through a tie or through a skip from a start it
reaches, so at the end G is all of Aut, and the least-key labellings are
that start's labelling composed with the elements of G.  Orbit and
stabiliser give the order without the elements: |Aut| = |orbit(v0)| *
|Stab(v0)|, and Stab(v0), which the first phase below finds, acts freely on
the flags at v0, so its order is the size of any of its classes there.  The
face orbits are joined along the generators' face permutations.

Which starts a scan traverses depends on their order, so the order is fixed
by the complex, not by its vertex names.  The scan first traverses every
flag at one vertex v0, the starts (v0, y, z), and skips none of them.
Whatever their order, the first of them with their least key becomes the
least so far and the later ones with that key tie with it, so G is then the
whole stabiliser of v0, and the traversed starts are the flags at v0
(those ties fix v0, so they are merged on the faces at v0 only).  The
second phase visits the other vertices in the order of their labels under
that least key's labelling, and the 12 flags at each in the order of the
labels of their other two vertices: an order fixed by the complex and v0
up to an automorphism.  So the traversals, and their number, depend only
on the complex and the orbit of v0.  A vertex class is settled once one of
its vertices has had all its flags traversed or skipped; v0's is settled
by the first phase.  Every flag at a vertex of a settled class lies in the
orbit of a traversed start, so the phase passes over such a vertex, and
over the rest of a vertex once a tie there settles its class.  A tie may
instead grow the class without settling it (after a smaller key, a
generator maps to the new base); then the stars it gains are merged before
the next flag.  Since a flag's orbit lies over its vertex's class, a flag
is skipped exactly when it would be with the flag orbits kept over every
face, and the scan traverses the same starts in the same order.

v0 is the least vertex whose sorted distances to all vertices are least
(`_first_vertex`, on the complex's one skeleton, which `iso` also reads):
an invariant, so its orbit is fixed whenever the vertices with those
distances form one orbit, as on every vertex-transitive complex.  The less
sorted list has the larger closed ball B_r(v) at the first radius where
they differ, so `_first_vertex` grows the balls of all vertices one radius
at a time, B_{r+1}(v) = B_r(v) with the B_r(u) of the neighbours u
(`graphs.balls`), and keeps the vertices whose ball is largest: O(n diam)
mask operations, not a search from each vertex.  An orientable complex
whose stars all hold 6 faces has chi = 0, so it is a torus, which is
vertex-transitive (Datta & Upadhyay); there v0 is vertex 0 and no ball is
grown.  v0 only orders the starts, so no result rests on that theorem; its
flags come from its star, `Triangulation.stars[v0]`, in face order.  A
traversed start lies outside the orbits of the starts before it, so a later
tie at least doubles G: a flag-regular map, where every start has the least
key and the stabiliser of a vertex has order 12, costs at most
12 + log2(|Aut|/12) traversals instead of 6*f_2.

The canonical labelling is `base`, the labelling of the first traversed
start with the least key: as in nauty, any labelling that gives the
canonical code is canonical, and every least-key labelling gives it.  So a
group costs O(f_2 log|Aut|) time and O(f_2) memory, not O(|Aut| n).

One scan gives both facts: `automorphism_group` takes the group the scan
built and carries the canonical form of the same scan.

`iso` (`find_isomorphism`) tries the cheap invariants first: vertex and
face counts, orientability, then the shapes of G_0..G_6 (`graphs`).  When
they all agree, it runs the first phase of the scan on both complexes.  Two
starts with equal keys label their complexes into one face set, so if the
least keys among the flags at v0 agree, the first starts with that key
certify an isomorphism, base_b^-1 o base_a, which is checked against the
face set: one matching leaf is a certificate (McKay & Piperno).  On a
degree-6 torus pair that is 2 x 12 traversals.  Otherwise (the two v0 may
lie in orbits that do not correspond) both scans go on with their second
phases, from where they stopped, to their least keys.  Those are equal iff
the complexes are isomorphic; the mapping then goes through the two
canonical labellings, base_b^-1 o base_a again, and different keys give
the verdict "canonical code".

The same certificate spares a scan given the canonical codes of known
classes: `canonical_form(t, classes)` stops after the first phase if the
code of its base is one of them.  That code is t relabelled, so it proves
an isomorphism onto that class, and it is t's canonical code; no theorem
is used.  The census names its classes from the catalog this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Collection, Iterator, Optional, Sequence

from .graphs import balls, common_neighbor_graph, graph_shape
from .surface import Face, Triangulation, orientability, skeleton_graph

Code = tuple[int, ...]
Perm = tuple[int, ...]  # vertex v -> perm[v]


@dataclass(frozen=True)
class CanonicalForm:
    code: Code  # flattened canonical face list
    relabeling: tuple[int, ...]  # input vertex -> its label in a least-key start

    @property
    def faces(self) -> tuple[Face, ...]:
        it = iter(self.code)
        return tuple(zip(it, it, it))


@dataclass(frozen=True)
class SymmetryGroup:
    generators: tuple[Perm, ...]  # vertex permutations that generate the group
    order: int
    vertex_orbits: tuple[tuple[int, ...], ...]
    face_orbits: tuple[tuple[Face, ...], ...]
    canonical: CanonicalForm  # from the scan that found the generators


@dataclass(frozen=True)
class IsomorphismResult:
    mapping: Optional[tuple[int, ...]]  # A vertex -> B vertex, or None
    distinguishing_invariant: Optional[str] = None

    @property
    def isomorphic(self) -> bool:
        return self.mapping is not None


def _traverse(t: Triangulation, start: Face, start_fi: int, best: Optional[list[int]]):
    """Key and label array (input vertex -> label) of one start, or None as
    soon as a key entry exceeds `best` at the same position."""
    label = [-1] * t.n
    table = t.across
    x, y, z = start
    gi, w = table[start_fi][z]  # the edge (x, y)
    label[x], label[y], label[z], label[w] = 0, 1, 2, 3
    nxt = 4
    seen = [False] * t.f2
    seen[start_fi] = seen[gi] = True
    queue = [(x, y, z, start_fi), (y, x, w, gi)]
    key: list[int] = []
    add, enqueue = key.append, queue.append
    at = -1 if best is None else 0  # the entry of best compared next; -1 once below best
    for x, y, z, fi in queue:  # breadth-first: the queue grows while read
        across = table[fi]
        gi, w = across[x]  # the edge (y, z)
        lw = label[w]
        if lw < 0:
            lw = label[w] = nxt
            nxt += 1
        if at >= 0:
            if lw == best[at]:
                at += 1
            elif lw > best[at]:
                return None
            else:
                at = -1
        add(lw)
        if not seen[gi]:
            seen[gi] = True
            enqueue((z, y, w, gi))
        gi, w = across[y]  # the edge (z, x)
        lw = label[w]
        if lw < 0:
            lw = label[w] = nxt
            nxt += 1
        if at >= 0:
            if lw == best[at]:
                at += 1
            elif lw > best[at]:
                return None
            else:
                at = -1
        add(lw)
        if not seen[gi]:
            seen[gi] = True
            enqueue((x, z, w, gi))
    return key, label


def _first_vertex(t: Triangulation) -> int:
    """Vertex 0 on a torus, else the least vertex whose sorted list of
    distances to all vertices is least.  A torus is vertex-transitive, and
    the list is an invariant, so on a relabelled copy the vertex chosen lies
    in the same orbit whenever the vertices with the least list form one."""
    if all(len(star) == 6 for star in t.stars) and orientability(t):  # chi = n - 3n + 2n = 0
        return 0
    # The less sorted list has more vertices within distance r, at the
    # first radius r where the ball sizes differ.
    best = range(t.n)
    for ball in balls(skeleton_graph(t)):
        sizes = [ball[v].bit_count() for v in best]
        top = max(sizes)
        best = [v for v, size in zip(best, sizes) if size == top]
        if len(best) == 1 or top == t.n:
            break
    return best[0]


_ORDERS = tuple(permutations(range(3)))  # flag 6*fi + k is face fi read in order k
_READ = tuple(itemgetter(*order) for order in _ORDERS)
# _IMAGE[x > y, x > z, y > z], when a permutation sends a face's vertices to
# x, y, z: at k the order in which the image face reads the image of the
# flag read in order k.
_IMAGE = {(x > y, x > z, y > z): tuple(_ORDERS.index(tuple((x, y, z)[i] for i in order))
                                       for order in _ORDERS) for x, y, z in _ORDERS}


class _Scanner:
    """One scan of t, run phase by phase: `first_phase` traverses every flag
    at v0, `second_phase` the other starts, vertex by vertex.  After both
    phases, `base` is the canonical labelling, `gens` generate the group
    (acting on face indices as `face_gens`), and `root` names each vertex's
    orbit."""

    def __init__(self, t: Triangulation) -> None:
        self.t = t
        self.v0 = v0 = _first_vertex(t)
        self.at_v0 = _flags_at(t, v0)
        self.best: Optional[list[int]] = None
        self.base: list[int] = []  # the label array of the first start with key best
        self.base_inv: list[int] = []
        self.gens: list[Perm] = []
        self.face_gens: list[list[int]] = []
        flags = 6 * t.f2
        self.parent = list(range(flags))  # union-find of the flag orbits, over merged faces
        self.size = [1] * flags
        self.reached = [False] * flags  # at a root: its class holds a traversed start
        self.merged = [0] * t.f2  # face -> the number of generators merged over its flags
        # The vertex orbits, from the second phase on: vertex -> the root of
        # its class, root -> the class, and whether it holds a visited vertex.
        self.root: list[int] = []
        self.members: list[list[int]] = []
        self.settled: list[bool] = []

    def first_phase(self) -> None:
        self._run(self.at_v0, self.v0, skip=False)

    def second_phase(self) -> None:  # the other vertices, by their labels in base
        t, n, base, v0 = self.t, self.t.n, self.base, self.v0
        self.root, self.members = list(range(n)), [[v] for v in range(n)]
        self.settled = [False] * n
        for perm in self.gens:
            self._join_vertices(perm)
        self.settled[self.root[v0]] = True
        for x in self.base_inv[1:]:  # this base's order, kept if a smaller key replaces it
            if self.settled[self.root[x]]:
                continue
            flags = sorted(_flags_at(t, x),
                           key=lambda f: [base[w] for w in _READ[f % 6](t.faces[f // 6])])
            self._run(flags, x, skip=True)
            self.settled[self.root[x]] = True

    def _join_vertices(self, perm: Perm) -> None:
        """Merge the vertex classes along a new generator."""
        settled = self.settled
        for a, b in _join(self.root, self.members, perm):
            settled[a] = settled[a] or settled[b]

    def _catch_up(self, v: int) -> None:
        """Merge every generator over the stars of v's class, so that the
        union-find holds the orbits of the flags at those vertices; each
        (face, generator) pair is merged once.  In the first phase the class
        is v0 alone, since its ties fix v0."""
        gens, face_gens, merged, stars = self.gens, self.face_gens, self.merged, self.t.stars
        for u in self.members[self.root[v]] if self.root else (v,):
            for fi in stars[u]:
                for g in range(merged[fi], len(gens)):
                    self._merge(gens[g], fi, face_gens[g][fi])
                merged[fi] = len(gens)

    def _merge(self, perm: Perm, fi: int, gi: int) -> None:
        """Merge every flag of face fi with its image, a flag of gi = perm(fi)."""
        parent, size, reached = self.parent, self.size, self.reached
        a, b, c = self.t.faces[fi]
        x, y, z = perm[a], perm[b], perm[c]
        image = _IMAGE[x > y, x > z, y > z]
        gi *= 6
        for k in range(6):
            a, b = _find(parent, 6 * fi + k), _find(parent, gi + image[k])
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                reached[a] = reached[a] or reached[b]

    def _run(self, flags: Sequence[int], v: int, skip: bool) -> None:
        """Traverse the flags at v in turn; a tie adds a generator.  With
        `skip` (the second phase), a flag whose orbit holds a traversed start
        is passed over, and so are the rest once v's class is settled; the
        first phase skips none, since every flag at v0 is compared."""
        t, parent, reached = self.t, self.parent, self.reached
        self._catch_up(v)
        for f in flags:
            root = _find(parent, f)
            if skip and reached[root]:
                continue
            found = _traverse(t, _READ[f % 6](t.faces[f // 6]), f // 6, self.best)
            covered, reached[root] = reached[root], True
            if found is None:
                continue
            key, label = found
            if key == self.best:
                if covered:  # its automorphism is already in the group
                    continue
                perm = tuple(map(self.base_inv.__getitem__, label))  # start -> base start
                face_perm = _face_map(perm, t.faces, t.face_index)
                if face_perm is None:
                    raise AssertionError("traversal produced a non-automorphism")
                self.gens.append(perm)
                self.face_gens.append(face_perm)
                if skip:
                    self._join_vertices(perm)
                    if self.settled[self.root[v]]:
                        return  # every flag at v is in the orbit of a traversed start
                self._catch_up(v)
                continue
            # a key that survives the pruning is at most best
            self.best, self.base, self.base_inv = key, label, _invert(label)


def _flags_at(t: Triangulation, v: int) -> list[int]:
    """The 12 flags at v, in star order: for each face at v, the two
    orders that read v first."""
    return [6 * fi + 2 * t.faces[fi].index(v) + k for fi in t.stars[v] for k in (0, 1)]


def _join(root: list[int], members: list[list[int]], image: Sequence[int]) -> list[tuple[int, int]]:
    """Merge the class of each item i with the class of image[i], and return
    the merges as (kept, absorbed) roots.  root[i] is the root of i's class,
    members[r] the class of root r; the smaller class is relabelled."""
    merges = []
    for a, b in set(zip(root, map(root.__getitem__, image))):
        a, b = root[a], root[b]
        if a != b:
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for i in members[b]:
                root[i] = a
            members[a] += members[b]
            merges.append((a, b))
    return merges


def _find(parent: list[int], f: int) -> int:
    """The root of flag f in the union-find `parent`, halving the path."""
    while parent[f] != f:
        parent[f] = f = parent[parent[f]]
    return f


def _form(t: Triangulation, label: list[int]) -> CanonicalForm:
    rel = sorted(_images(label, t.faces))
    return CanonicalForm(tuple(v for f in rel for v in f), tuple(label))


def canonical_form(t: Triangulation, classes: Collection[Code] = ()) -> CanonicalForm:
    """Deterministic relabeling-invariant encoding of the surface.  When the
    code from the flags at v0 is one of `classes` (canonical codes), it is
    returned without the rest of the scan: an equal code is an isomorphism
    onto that class, so it is t's canonical code too."""
    scanner = _Scanner(t)
    scanner.first_phase()
    if classes and (form := _form(t, scanner.base)).code in classes:
        return form
    scanner.second_phase()
    return _form(t, scanner.base)


def _face_map(perm: Perm, faces: Sequence[Face], index: dict[Face, int]) -> Optional[list[int]]:
    """Each face's image under perm as its index in `index`, or None if one is
    not there: a bijection (as traversals give) maps faces onto faces iff so."""
    try:
        return list(map(index.__getitem__, _images(perm, faces)))
    except KeyError:
        return None


def _images(perm: Sequence[int], faces: Sequence[Face]) -> Iterator[Face]:
    """Each face's image under perm, sorted by compare-swaps, in face order."""
    for a, b, c in faces:
        x, y, z = perm[a], perm[b], perm[c]
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        yield x, y, z


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
    scan_a, scan_b = _Scanner(a), _Scanner(b)
    scan_a.first_phase()
    scan_b.first_phase()
    if scan_a.best != scan_b.best:  # the scans go on to the canonical keys
        scan_a.second_phase()
        scan_b.second_phase()
        if scan_a.best != scan_b.best:
            return IsomorphismResult(None, "canonical code")
    inv_b = _invert(scan_b.base)
    mapping = tuple(inv_b[label] for label in scan_a.base)
    if _face_map(mapping, a.faces, b.face_index) is None:
        raise AssertionError("equal keys produced a non-isomorphism")
    return IsomorphismResult(mapping)


def automorphism_group(t: Triangulation) -> SymmetryGroup:
    """The complete automorphism group, by generators, orbits and order,
    with the canonical form.  The scan checked the generators against the
    face set, and no other element is formed."""
    scan = _Scanner(t)
    scan.first_phase()
    scan.second_phase()
    # The first phase merged the flags at v0 into the orbits of Stab(v0),
    # which acts on them freely.
    parent, at_v0 = scan.parent, scan.at_v0
    first = _find(parent, at_v0[0])
    stabiliser = sum(_find(parent, f) == first for f in at_v0)
    face_root, face_members = list(range(t.f2)), [[fi] for fi in range(t.f2)]
    for face_perm in scan.face_gens:
        _join(face_root, face_members, face_perm)
    return SymmetryGroup(tuple(scan.gens), len(scan.members[scan.root[scan.v0]]) * stabiliser,
                         _orbits(scan.root, range(t.n)), _orbits(face_root, t.faces),
                         _form(t, scan.base))


def _orbits(reps, items) -> tuple[tuple, ...]:
    """The items grouped by orbit representative, in item order."""
    parts: dict[int, list] = {}
    for rep, x in zip(reps, items):
        parts.setdefault(rep, []).append(x)
    return tuple(map(tuple, parts.values()))


def regularity_flags(t: Triangulation, group: SymmetryGroup) -> tuple[bool, bool]:
    """(weakly regular, combinatorially regular): vertex- and
    flag-transitivity of the automorphism group; the action on flags is
    free, so it is transitive iff |Aut| = 6*f_2."""
    return len(group.vertex_orbits) == 1, group.order == 6 * t.f2
