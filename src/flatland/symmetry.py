"""Canonical forms, certified isomorphism testing, and automorphism groups.

A *start* is one of the 6*f_2 flags, written as an oriented face (x, y, z).
The scan names the flag of face fi read in its k-th order (in
`permutations` order, so first its vertex of rank k // 2) by 6*fi + k.
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
code is the face list relabelled by a least-key start, sorted.

The scan also prunes by automorphisms (McKay & Piperno, Practical graph
isomorphism II, J. Symb. Comput. 60, 2014).  Each start that ties with the
least key so far gives an automorphism, and the scan keeps the group G that
these generate; it stays valid when a smaller key later replaces the least
one.  A start in the G-orbit of a traversed start has that start's key, so
it is skipped.  This loses nothing: a skipped start is pruned, tied or
least exactly when its traversed preimage was.  G is kept as its generators
and the flag orbits they cut out: a union-find over the 6*f_2 integer
flags, in which each new generator merges every flag with its image, and
each class records whether it holds a traversed start; a face's six flags
find their images with one face lookup and a 6 x 6 table.  The action is
free, so a tie inside those classes (at a flag at v0, below) gives an
element of G, and one outside them a new generator: it alone is checked
against the face set.  The other elements are products of checked ones, and
none is listed.  The first traversed start with the final least key reaches
every other least-key start, through a tie or through a skip from a start
it reaches, so at the end G is all of Aut, and the least-key labellings are
that start's labelling composed with the elements of G.  Freeness gives the
rest without the elements: |Aut| is the size of that start's class, and two
vertices (faces) lie in one orbit iff their flags lie in the same classes.

Which starts a scan traverses depends on their order, so the order is fixed
by the complex, not by its vertex names.  The scan first traverses every
flag at one vertex v0, the starts (v0, y, z), and skips none of them.
Whatever their order, the first of them with their least key becomes the
least so far and the later ones with that key tie with it, so G is then the
whole stabiliser of v0, and the traversed starts are the flags at v0
(those ties fix v0, so they are merged on the faces at v0 only).  The
other starts follow in the order of their labels under that least key's
labelling, an order fixed by the complex and v0 up to an automorphism.  So
the traversals, and their number, depend only on the complex and the orbit
of v0.  v0 is the seed's first vertex, or else a vertex whose sorted
distances to all vertices are least (`_first_vertex`): an invariant, so its
orbit is fixed whenever the vertices with those distances form one orbit,
as on every vertex-transitive complex.  An orientable complex with every
vertex in 6 faces has chi = 0, so it is a torus, which is vertex-transitive
(Datta & Upadhyay); there v0 is vertex 0 and no distance is computed.  v0
only orders the starts, so no result rests on that theorem.  A traversed
start lies outside the orbits of the starts before it, so a later tie at
least doubles G: a flag-regular map, where every start has the least key
and the stabiliser of a vertex has order 12, costs at most
12 + log2(|Aut|/12) traversals instead of 6*f_2.

The canonical labelling is `base`, the labelling of the first traversed
start with the least key: as in nauty, any labelling that gives the
canonical code is canonical, and every least-key labelling gives it.  So a
group costs O(f_2 log|Aut|) time and O(f_2) memory, not O(|Aut| n).

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
from itertools import chain, permutations
from operator import itemgetter
from typing import Collection, Optional, Sequence

from .graphs import SimpleGraph, common_neighbor_graph, graph_shape, layers
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


def _first_vertex(t: Triangulation, g: Optional[SimpleGraph] = None) -> int:
    """Vertex 0 on a torus, else a vertex whose sorted list of distances to
    all vertices is least, read off the skeleton `g` if one is given.  A
    torus is vertex-transitive, and the list is an invariant, so on a
    relabelled copy the vertex chosen lies in the same orbit whenever the
    vertices with the least list form one."""
    faces_at = [0] * t.n
    for v in chain.from_iterable(t.faces):
        faces_at[v] += 1
    if faces_at.count(6) == t.n and orientability(t):  # chi = n - 3n + 2n = 0
        return 0
    # Sorted distance lists (of length n) order as their layer sizes, negated:
    # the less has more vertices in the first layer where the sizes differ.
    g = skeleton_graph(t) if g is None else g
    return min(range(t.n), key=lambda v: [-layer.bit_count() for layer in layers(g, v)])


_ORDERS = tuple(permutations(range(3)))  # flag 6*fi + k is face fi read in order k
_READ = tuple(itemgetter(*order) for order in _ORDERS)
# _IMAGE[x > y, x > z, y > z][k]: the order of the image of a flag read in
# order k, when a permutation sends the face's vertices to x, y, z.
_IMAGE = {(x > y, x > z, y > z): tuple(_ORDERS.index(tuple((x, y, z)[i] for i in order))
                                       for order in _ORDERS) for x, y, z in _ORDERS}


class _Scanner:
    """One scan of t, run phase by phase: `first_phase` traverses every flag
    at v0, `second_phase` the other starts.  With a `seed` start (an oriented
    face of t), a phase returns False as soon as some start's key is found
    to be less than the seed's.  After both phases, `base` is the canonical
    labelling and the union-find holds the flag orbits of the group."""

    def __init__(self, t: Triangulation, seed: Optional[Face] = None,
                 g: Optional[SimpleGraph] = None) -> None:
        self.t = t
        self.seeded = seed is not None
        self.v0 = v0 = _first_vertex(t, g) if seed is None else seed[0]
        self.faces_at_v0 = [fi for fi, face in enumerate(t.faces) if v0 in face]
        # The flags at v0 of a face are the two orders that read v0 first.
        self.at_v0 = at_v0 = [6 * fi + 2 * t.faces[fi].index(v0) + k
                              for fi in self.faces_at_v0 for k in (0, 1)]
        if seed is not None:
            face = tuple(sorted(seed))
            first = 6 * t.face_index[face] + _ORDERS.index(tuple(map(face.index, seed)))
            at_v0.remove(first)
            at_v0.insert(0, first)
        self.best: Optional[list[int]] = None
        self.base: list[int] = []  # the label array of the first start with key best
        self.base_inv: list[int] = []
        self.base_flag = 0
        self.gens: list[Perm] = []
        flags = 6 * t.f2
        self.parent = list(range(flags))  # union-find of the flag orbits
        self.size = [1] * flags
        self.reached = [False] * flags  # at a root: its class holds a traversed start

    def first_phase(self) -> bool:
        return self._run(self.at_v0, self.faces_at_v0, skip=False)

    def second_phase(self) -> bool:  # the other starts, by their labels in base
        t, base, v0, n, flags = self.t, self.base, self.v0, self.t.n, 6 * self.t.f2
        faces = range(t.f2)
        # The ties so far fix v0, so they were merged on the faces at v0 only.
        for perm in self.gens:
            self._merge(perm, faces)
        # A flag's labels in base, read in base n, then the flag.
        keyed = sorted(((base[x] * n + base[y]) * n + base[z]) * flags + 6 * fi + k
                       for fi, face in enumerate(t.faces)
                       for k, (x, y, z) in enumerate(read(face) for read in _READ) if x != v0)
        return self._run([key % flags for key in keyed], faces, skip=True)

    def _merge(self, perm: Perm, faces: Sequence[int]) -> None:
        """Merge every flag of the faces with its image under perm."""
        t_faces, index = self.t.faces, self.t.face_index
        parent, size, reached = self.parent, self.size, self.reached
        for fi in faces:
            a, b, c = t_faces[fi]
            x, y, z = perm[a], perm[b], perm[c]
            image = _IMAGE[x > y, x > z, y > z]
            gi = 6 * index[tuple(sorted((x, y, z)))]
            for k in range(6):
                a, b = _find(parent, 6 * fi + k), _find(parent, gi + image[k])
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
                    reached[a] = reached[a] or reached[b]

    def _run(self, flags: Sequence[int], faces: Sequence[int], skip: bool) -> bool:
        """Traverse the flags in turn; a tie merges its generator on `faces`.
        With `skip`, a flag whose orbit holds a traversed start is passed over;
        the first phase skips none, since every flag at v0 is compared."""
        t, parent, reached = self.t, self.parent, self.reached
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
                if _apply(perm, t.faces) != t.face_set():
                    raise AssertionError("traversal produced a non-automorphism")
                self.gens.append(perm)
                self._merge(perm, faces)
                continue
            if self.best is not None and self.seeded:
                return False  # a key below the seed's
            # a key that survives the pruning is at most best
            self.best, self.base, self.base_inv, self.base_flag = key, label, _invert(label), f
        return True


def _find(parent: list[int], f: int) -> int:
    """The root of flag f in the union-find `parent`, halving the path."""
    while parent[f] != f:
        parent[f] = f = parent[parent[f]]
    return f


def _scan(t: Triangulation, seed: Optional[Face] = None) -> Optional[_Scanner]:
    """The finished scan: the least key's base labelling and the automorphism
    group, as generators and flag orbits.  With a `seed` start (an oriented
    face of t), None as soon as some start's key is found to be less than the
    seed's."""
    scanner = _Scanner(t, seed)
    if scanner.first_phase() and scanner.second_phase():
        return scanner
    return None


def _form(t: Triangulation, label: list[int]) -> CanonicalForm:
    rel = sorted(tuple(sorted((label[a], label[b], label[c]))) for a, b, c in t.faces)
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
    scan_a, scan_b = _Scanner(a, g=ga), _Scanner(b, g=gb)
    scan_a.first_phase()
    scan_b.first_phase()
    if scan_a.best != scan_b.best:  # the scans go on to the canonical keys
        scan_a.second_phase()
        scan_b.second_phase()
        if scan_a.best != scan_b.best:
            return IsomorphismResult(None, "canonical code")
    inv_b = _invert(scan_b.base)
    mapping = tuple(inv_b[label] for label in scan_a.base)
    if _apply(mapping, a.faces) != b.face_set():
        raise AssertionError("equal keys produced a non-isomorphism")
    return IsomorphismResult(mapping)


def automorphism_group(t: Triangulation, seed: Optional[Face] = None) -> Optional[SymmetryGroup]:
    """The complete automorphism group, by generators, orbits and order,
    with the canonical form.  With a `seed` start (an oriented face of t),
    None unless that start has the least key.  `_scan` checked the
    generators against the face set, and no other element is formed."""
    scan = _scan(t, seed)
    if scan is None:
        return None
    flags, parent = 6 * t.f2, scan.parent
    flag_orbit = [_find(parent, f) for f in range(flags)]  # flag -> its orbit's root
    vertex_orbit = [flags] * t.n  # vertex -> the least root over its flags
    for f, rep in enumerate(flag_orbit):
        x = t.faces[f // 6][f % 6 // 2]  # the vertex a flag reads first
        vertex_orbit[x] = min(vertex_orbit[x], rep)
    face_orbit = (min(flag_orbit[6 * fi:6 * fi + 6]) for fi in range(t.f2))
    return SymmetryGroup(tuple(scan.gens), scan.size[flag_orbit[scan.base_flag]],
                         _orbits(vertex_orbit, range(t.n)),
                         _orbits(face_orbit, t.faces), _form(t, scan.base))


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
