"""Canonical forms, certified isomorphism testing, and automorphism groups.

A *start* is one of the 6*f_2 flags, written as an oriented face (x, y, z);
the flags at v are the 12 starts (v, y, z).  From a start, a breadth-first
traversal of the face adjacency labels x, y, z as 0, 1, 2 and the vertex w
beyond the edge (x, y) as 3, and queues (x, y, z) and (y, x, w).  Each
popped face (x, y, z) crosses its edges (p, q) = (y, z), (z, x) in turn:
the vertex w beyond the edge gets the next free label if it has none, and
the face there is queued as (q, p, w) if it is new.  Its edge (x, y) is not
crossed: it leads back to the face it was queued from (for the start, to
the face of w), which is seen and whose vertices have labels.  The *key* of
the start is the sequence of the 2*f_2 labels of those vertices w.  The key
determines the labelled face set (replay the traversal), and the traversal
never looks at vertex names, so isomorphic complexes have the same keys.
The *cell* is the set of vertices whose sorted lists of distances to all
vertices are least: every vertex on a torus.  The canonical key is the
least key of the starts at the vertices of the cell; a *least-key start* is
one of those starts with that key.  The scan compares each key with the
least key so far while producing it and drops the start at the first larger
entry (the prefix pruning of plantri, Brinkmann & McKay 2007).

The cell is the target cell of McKay & Piperno (below): the distance list
is an invariant, so an isomorphism maps one complex's cell onto the
other's, and the starts at it onto the starts at it, key for key.  So
isomorphic complexes have the same canonical key, and complexes with the
same canonical key are isomorphic (the key determines the face set): the
code stays complete, though it reads no start off the cell.  Two starts
with equal keys differ by an automorphism (the permutation that takes each
vertex to the vertex with its label in the other start), and every
automorphism maps the cell onto itself and a least-key start to one.  The
group acts freely on flags (an automorphism fixing a flag fixes the flags of
the adjacent faces, hence all flags), so the least-key starts are in
bijection with the automorphisms, |Aut| divides 6*f_2, there are
6*f_2/|Aut| flag orbits, and a complex is combinatorially regular iff
|Aut| = 6*f_2.  The canonical code is the face list relabelled by a
least-key start, sorted.

The scan also prunes by automorphisms (McKay & Piperno, Practical graph
isomorphism II, J. Symb. Comput. 60, 2014).  Each start that ties with the
least key so far gives an automorphism, and the scan keeps the group G that
these generate; it stays valid when a smaller key later replaces the least
one.  A start in the G-orbit of a traversed start has that start's key, so
it is skipped.  This loses nothing: a skipped start is pruned, tied or
least exactly when its traversed preimage was.  G is kept as its generators
alone, and every orbit is one rule: a breadth-first closure under them.
On vertices and face indices (`_closure`) g takes i to g[i]; on flags
(`_Scanner._orbit`) it takes (x, y, z) to (g[x], g[y], g[z]).  Flag orbits
are kept only at the vertex the scan visits: the closure of the starts
traversed there, recomputed when a generator is added.  That is exact.  A
flag's orbit lies over its vertex's orbit, and when the scan reaches a
vertex x, every vertex it visited before is settled (below), so x's orbit
holds no visited vertex: only the starts traversed at x itself can have a
flag at x in their orbits.  The action is free, so a tie inside those
orbits gives an element of G, and one outside them a new generator: it
alone is checked against the face set, one lookup per face, which gives its
face permutation.  The other elements are products of checked ones, and
none is listed.  The first traversed start with the final least key reaches
every other least-key start, through a tie or through a skip from a start
it reaches, so at the end G is all of Aut, and the least-key labellings are
that start's labelling composed with the elements of G.  Orbit and
stabiliser give the order without the elements: |Aut| = |orbit(v0)| *
|Stab(v0)|.  After the first phase below, the generators so far generate
Stab(v0), which acts freely on flags, so |Stab(v0)| is the size of the
base start's flag orbit under them.  The vertex and face orbits are the
closures under the final generators and their face permutations.

Which starts a scan traverses depends on their order, so the order is fixed
by the complex, not by its vertex names.  The scan first traverses every
flag at one vertex v0, the starts (v0, y, z), and skips none of them; a
tie in the orbits of those traversed before it adds no generator.  Whatever
their order, the first of them with their least key becomes the least so
far and the later ones with that key tie with it, so G is then the whole
stabiliser of v0 (those ties fix v0, so the orbits stay among the flags at
v0).  The second phase visits the other vertices of the cell in the order
of their labels under that least key's labelling, and the 12 flags at each
in the order of the labels of their other two vertices: an order fixed by
the complex and v0 up to an automorphism.  It visits no vertex off the
cell, whose starts the key does not read; their orbits follow from the
generators.  So the traversals, and their number, depend only on the
complex and the orbit of v0.  The settled vertices are the closure
of the vertices whose flags have all been traversed or skipped, v0 first,
closed again when a generator is added.  Every flag at a settled vertex
lies in the orbit of a traversed start, so the phase passes over such a
vertex, and over the rest of a vertex once a tie there settles it.  A tie
may instead grow G without settling the vertex (after a smaller key, a
generator maps to the new base); the vertices its orbit gains are not
visited either, and the recomputed flag orbits reach over them.

v0 is the least vertex of the cell (`_first_cell`, on the complex's one
skeleton, which `iso` also reads), so its orbit is fixed whenever the cell
is one orbit, as on every vertex-transitive complex.  The less sorted list
has the larger closed ball B_r(v) at the first radius where they differ, so
`_first_cell` grows the balls of all vertices one radius at a time,
B_{r+1}(v) = B_r(v) with the B_r(u) of the neighbours u (`graphs.balls`),
and keeps the vertices whose ball is largest: O(n diam) mask operations,
not a search from each vertex.  An orientable complex whose stars all hold
6 faces has chi = 0, so it is a torus, which is vertex-transitive (Datta &
Upadhyay); there the cell is every vertex, v0 is vertex 0, and no ball is
grown.  Every vertex is an invariant set too, so no result rests on that
theorem.  v0's flags come from its star, `Triangulation.stars[v0]`, in
face order.  A
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

`iso` (`find_isomorphism`) goes in the order G_0 -> certificate ->
G_1..G_6 -> second phases.  It compares the cheap invariants first: vertex
and face counts, orientability, and the shape of G_0 (`graphs`), which
tells most non-isomorphic pairs apart for less than a scan.  When they
agree, it runs the first phase of the scan on both complexes.  Two starts
with equal keys label their complexes into one face set, so if the least
keys among the flags at v0 agree, the first starts with that key certify an
isomorphism, base_b^-1 o base_a, which is checked against the face set: one
matching leaf is a certificate (McKay & Piperno).  On a degree-6 torus pair
that is 2 x 12 traversals, and no G_c with c >= 1 is built.  Otherwise (the
two v0 may lie in orbits that do not correspond) it compares the shapes of
G_1..G_6, and when they agree both scans go on with their second phases,
from where they stopped, to their canonical keys.  Those are equal iff the
complexes are isomorphic; the mapping then goes through the two canonical
labellings, base_b^-1 o base_a again, and different keys give the verdict
"canonical code".  The order gives every pair the verdict that G_0..G_6
before the scans would give.  A certified pair is isomorphic, so its G_c
shapes all agree, and it would reach the same first phases and the same
certificate.  A pair that is not isomorphic never certifies, so it meets
the shapes and the second phases in the same order.

The same certificate spares a scan given the canonical codes of known
classes: `canonical_form(t, classes)` stops after the first phase if the
code of its base is one of them.  That code is t relabelled, so it proves
an isomorphism onto that class, and it is t's canonical code; no theorem
is used.  The census names its classes from the catalog this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .graphs import SimpleGraph, balls, common_neighbor_graph, graph_shape
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


def _first_cell(t: Triangulation) -> list[int]:
    """The vertices whose sorted lists of distances to all vertices are
    least, ascending: every vertex on a torus, which is vertex-transitive.
    The list is an invariant, so an isomorphism maps the cell onto the other
    complex's cell."""
    if all(len(star) == 6 for star in t.stars) and orientability(t):  # chi = n - 3n + 2n = 0
        return list(range(t.n))
    # The less sorted list has more vertices within distance r, at the
    # first radius r where the ball sizes differ.
    cell = list(range(t.n))
    for ball in balls(skeleton_graph(t)):
        sizes = [ball[v].bit_count() for v in cell]
        top = max(sizes)
        cell = [v for v, size in zip(cell, sizes) if size == top]
        if len(cell) == 1 or top == t.n:
            break
    return cell


class _Scanner:
    """One scan of t, run phase by phase: `first_phase` traverses every flag
    at v0, `second_phase` the flags at the other vertices of v0's cell,
    vertex by vertex.  After both phases, `base` is the canonical labelling
    and `gens` generate the group (acting on face indices as `face_gens`);
    `stabiliser`, |Stab(v0)|, is set by the first phase."""

    def __init__(self, t: Triangulation) -> None:
        self.t = t
        self.cell = _first_cell(t)
        self.v0 = self.cell[0]
        self.best: Optional[list[int]] = None
        self.base: list[int] = []  # the label array of the first start with key best
        self.base_inv: list[int] = []
        self.gens: list[Perm] = []
        self.face_gens: list[list[int]] = []
        self.stabiliser = 0
        self.settled: set[int] = set()  # the orbits of the finished vertices, in the second phase

    def first_phase(self) -> None:
        self._run(_flags_at(self.t, self.v0), self.v0, skip=False)
        # The ties so far generate Stab(v0), which acts freely on flags.
        self.stabiliser = len(self._orbit((tuple(self.base_inv[:3]),)))

    def second_phase(self) -> None:  # the cell, by its labels in base
        t, base = self.t, self.base
        self.settled = _closure(self.gens, (self.v0,))
        for x in sorted(self.cell, key=base.__getitem__):  # this base's order, kept if replaced
            if x in self.settled:
                continue
            flags = sorted(_flags_at(t, x), key=lambda flag: [base[w] for w in flag[0]])
            self._run(flags, x, skip=True)
            self.settled |= _closure(self.gens, (x,))

    def _orbit(self, starts: Iterable[Face]) -> set[Face]:
        """The flags that the generators reach from `starts`: breadth-first,
        a generator g takes the flag (x, y, z) to (g[x], g[y], g[z])."""
        orbit = set(starts)
        queue = list(orbit)
        for x, y, z in queue:  # the queue grows while read
            for g in self.gens:
                image = g[x], g[y], g[z]
                if image not in orbit:
                    orbit.add(image)
                    queue.append(image)
        return orbit

    def _run(self, flags: Sequence[tuple[Face, int]], v: int, skip: bool) -> None:
        """Traverse the flags at v in turn; a tie adds a generator, unless
        the flag lies in the orbits of the starts traversed at v.  With
        `skip` (the second phase), such a flag is passed over, and so are
        the rest once v is settled; the first phase skips none, since every
        flag at v0 is compared."""
        t = self.t
        traversed: list[Face] = []
        orbit: set[Face] = set()  # the orbits of traversed, under gens
        for start, fi in flags:
            covered = start in orbit
            if skip and covered:
                continue
            found = _traverse(t, start, fi, self.best)
            if not covered:
                traversed.append(start)
                orbit |= self._orbit((start,))
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
                    self.settled = _closure(self.gens, self.settled)
                    if v in self.settled:
                        return  # every flag at v is in the orbit of a traversed start
                orbit = self._orbit(traversed)
                continue
            # a key that survives the pruning is at most best
            self.best, self.base, self.base_inv = key, label, _invert(label)


def _flags_at(t: Triangulation, v: int) -> list[tuple[Face, int]]:
    """The 12 flags at v as (start, face index) pairs, in star order: for
    each face at v, v and then the other two vertices in face order, and
    in the other order."""
    flags = []
    for fi in t.stars[v]:
        p, q = (u for u in t.faces[fi] if u != v)
        flags += ((v, p, q), fi), ((v, q, p), fi)
    return flags


def _closure(perms: Sequence[Sequence[int]], seeds: Iterable[int]) -> set[int]:
    """The items that the permutations reach from `seeds`: breadth-first,
    as `_Scanner._orbit` closes flags."""
    reached = set(seeds)
    queue = list(reached)
    for i in queue:  # the queue grows while read
        for p in perms:
            j = p[i]
            if j not in reached:
                reached.add(j)
                queue.append(j)
    return reached


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


def _shape_verdict(ga: SimpleGraph, gb: SimpleGraph, counts: Iterable[int]) -> Optional[str]:
    """The first G_c shape, c in `counts`, that differs between the skeletons."""
    for c in counts:
        sa = graph_shape(common_neighbor_graph(ga, c))
        sb = graph_shape(common_neighbor_graph(gb, c))
        if sa != sb:
            return f"G_{c}(EG) shape ({sa} vs {sb})"
    return None


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
    if verdict := _shape_verdict(ga, gb, (0,)):
        return IsomorphismResult(None, verdict)
    scan_a, scan_b = _Scanner(a), _Scanner(b)
    scan_a.first_phase()
    scan_b.first_phase()
    if scan_a.best != scan_b.best:  # no certificate: the other shapes, then the canonical keys
        if verdict := _shape_verdict(ga, gb, range(1, 7)):
            return IsomorphismResult(None, verdict)
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
    faces = t.faces
    return SymmetryGroup(tuple(scan.gens), len(_closure(scan.gens, (scan.v0,))) * scan.stabiliser,
                         _orbits(scan.gens, t.n),
                         tuple(tuple(map(faces.__getitem__, orbit))
                               for orbit in _orbits(scan.face_gens, t.f2)),
                         _form(t, scan.base))


def _orbits(perms: Sequence[Sequence[int]], count: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of the permutations on range(count), each ascending,
    ordered by least member."""
    orbits: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for i in range(count):
        if i not in seen:
            orbit = _closure(perms, (i,))
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def regularity_flags(t: Triangulation, group: SymmetryGroup) -> tuple[bool, bool]:
    """(weakly regular, combinatorially regular): vertex- and
    flag-transitivity of the automorphism group; the action on flags is
    free, so it is transitive iff |Aut| = 6*f_2."""
    return len(group.vertex_orbits) == 1, group.order == 6 * t.f2
