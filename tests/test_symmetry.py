import io
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatland import (
    automorphism_group,
    build_triangulation,
    canonical_form,
    cli,
    common_neighbor_graph,
    find_isomorphism,
    format_tri,
    graph_shape,
    known_catalog,
    orientability,
    regularity_flags,
    skeleton_graph,
    symmetry,
)
from tests.conftest import (
    brute_force_automorphisms,
    brute_force_isomorphism,
    census_report,
    fam,
    flags,
    group_elements,
    reference_first_vertex,
    reference_traversal,
    relabel,
    shuffled,
    t1_valid_twists,
)
from tests.lattice_oracle import klein_classes, klein_faces, quotient_faces, torus_classes


def multiplier_map(n: int, a: int) -> list[int]:
    """The 1-based multiplier map i -> a*i (mod n) expressed on 0-based labels."""
    return [(a * (v + 1) - 1) % n for v in range(n)]


def is_isomorphism_between(mapping, a, b) -> bool:
    image = frozenset(
        tuple(sorted((mapping[x], mapping[y], mapping[z]))) for x, y, z in a.faces
    )
    return image == frozenset(b.faces)


def test_catalog_codes_certified_from_the_flags_at_v0(monkeypatch):
    # Given the classes' codes, a scan whose code from the flags at v0 is
    # one of them stops there; that code is still the canonical one, and
    # with no classes every scan runs to its end.  The classes come from
    # the lattice oracle.  Of the 405 distinct catalog complexes with
    # n <= 30, only 28 Klein bottles run their second phase.
    second_phase, finished = symmetry._Scanner.second_phase, []
    monkeypatch.setattr(symmetry._Scanner, "second_phase",
                        lambda self: finished.append(self.t) or second_phase(self))
    complexes, missed = 0, {}
    for n in range(7, 31):
        quotients = ([build_triangulation(n, quotient_faces(lat)) for lat in torus_classes(n)]
                     + [build_triangulation(n, klein_faces(key)) for key in klein_classes(n)])
        classes = {canonical_form(q).code for q in quotients}
        for t in dict.fromkeys(named.complex for named in known_catalog(n)):
            complexes += 1
            code = canonical_form(t).code
            finished.clear()
            assert canonical_form(t, set()).code == code and finished == [t]
            finished.clear()
            assert canonical_form(t, classes).code == code
            if finished:
                assert not orientability(t)
                missed[n] = missed.get(n, 0) + 1
    assert complexes == 405
    assert missed == {9: 1, 12: 1, 15: 2, 16: 1, 18: 3, 20: 3, 21: 2, 24: 3, 25: 2, 27: 2,
                      28: 2, 30: 6}


class TestCanonicalForm:
    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_relabeling(self, seed):
        t = fam("B(3,3)")
        assert canonical_form(shuffled(t, seed)).code == canonical_form(t).code

    def test_equal_codes_for_isomorphic_twists(self):
        assert canonical_form(fam("T(13,1,2)")).code == canonical_form(fam("T(13,1,4)")).code

    def test_different_codes_for_non_isomorphic_twists(self):
        assert canonical_form(fam("T(12,1,2)")).code != canonical_form(fam("T(12,1,3)")).code

    def test_idempotence(self):
        t = fam("T(9,1,2)")
        form = canonical_form(t)
        canon = build_triangulation(t.n, form.faces)
        again = canonical_form(canon)
        assert again.code == form.code
        # A least-key labelling, not the least one: on the canonical
        # complex it is an automorphism, the identity only if it happens
        # to be the first least-key start traversed.
        assert is_isomorphism_between(again.relabeling, canon, canon)

    def test_relabeling_realizes_the_code(self):
        t = fam("Q(5,2)")
        form = canonical_form(t)
        assert relabel(t, form.relabeling).faces == form.faces


class TestFindIsomorphism:
    def test_certificate_is_verified_mapping(self):
        a, b = fam("T(13,1,2)"), fam("T(13,1,5)")
        result = find_isomorphism(a, b)
        assert result.isomorphic
        assert is_isomorphism_between(result.mapping, a, b)

    def test_grid_to_cyclic(self):
        result = find_isomorphism(fam("T(4,4,2)"), fam("T(8,2,2)"))
        assert result.isomorphic

    def test_negative_with_invariant(self):
        for k in t1_valid_twists(12):
            result = find_isomorphism(fam("T(6,2,2)"), fam(f"T(12,1,{k})"))
            assert not result.isomorphic
            assert result.distinguishing_invariant

    def test_symmetric(self):
        pairs = [("T(12,1,2)", "T(12,1,3)"), ("T(13,1,2)", "T(13,1,4)")]
        for x, y in pairs:
            assert (
                find_isomorphism(fam(x), fam(y)).isomorphic
                == find_isomorphism(fam(y), fam(x)).isomorphic
            )

    def test_size_mismatch_invariant(self):
        result = find_isomorphism(fam("T(7,1,2)"), fam("B(3,3)"))
        assert not result.isomorphic
        assert "vertex count" in result.distinguishing_invariant

    def test_orientability_invariant(self):
        result = find_isomorphism(fam("T(3,3,0)"), fam("B(3,3)"))
        assert not result.isomorphic
        assert "orientability" in result.distinguishing_invariant

    @pytest.mark.parametrize("x,y,invariant", [
        ("T(6,2,2)", "T(12,1,2)", "G_2(EG) shape (other(12v,36e) vs other(12v,30e))"),
        ("B(3,4)", "K(3,4)", "G_2(EG) shape (other(12v,30e) vs other(12v,36e))"),
        ("T(12,1,2)", "T(12,1,3)", "canonical code"),
    ])
    def test_first_distinguishing_invariant_is_pinned(self, x, y, invariant):
        # Same n, same orientability: the G_c shapes are compared in the
        # order c = 0..6, and the code only decides when they all agree.
        assert find_isomorphism(fam(x), fam(y)).distinguishing_invariant == invariant

    def test_shape_ties_cost_no_more_than_two_scans(self, monkeypatch):
        # Pairs that only the canonical key tells apart: both scans go on
        # from their first phases, so they traverse no flag twice.
        complexes = list(dict.fromkeys(
            named.complex for n in range(7, 17) for named in known_catalog(n)))
        shapes = {t: (t.n, orientability(t), tuple(
            graph_shape(common_neighbor_graph(skeleton_graph(t), c)) for c in range(7)))
            for t in complexes}
        codes = {t: canonical_form(t).code for t in complexes}
        ties = [(a, b) for i, a in enumerate(complexes) for b in complexes[i + 1:]
                if shapes[a] == shapes[b] and codes[a] != codes[b]]
        assert len(ties) == 27
        traverse, calls = symmetry._traverse, []
        monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
        for a, b in ties:
            calls.clear()
            canonical_form(a)
            canonical_form(b)
            scans = len(calls)
            calls.clear()
            assert find_isomorphism(a, b).distinguishing_invariant == "canonical code"
            assert len(calls) <= scans

    # The members of the benchmark's symmetry-queries workload.
    MEMBERS = ["T(6,3,0)", "B(3,6)", "T(21,1,4)", "T(12,2,5)", "K(4,6)", "T(9,3,3)",
               "Q(7,4)", "T(6,6,0)", "K(3,12)", "T(12,4,4)", "B(6,8)"]

    @pytest.mark.parametrize("name", MEMBERS)
    def test_traversals_do_not_depend_on_the_labelling(self, monkeypatch, name):
        # Equal least keys among the flags at v0 certify a pair, so a torus
        # pair costs its two first phases, 12 flags each, and no canonical
        # labelling is formed.
        traverse, calls = symmetry._traverse, []
        monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
        monkeypatch.setattr(symmetry, "_form", None)
        copies = [shuffled(fam(name), seed) for seed in range(3)]
        counts = set()
        for a, b in permutations(copies, 2):
            calls.clear()
            result = find_isomorphism(a, b)
            assert is_isomorphism_between(result.mapping, a, b)
            counts.add(len(calls))
        assert len(counts) == 1
        if name.startswith("T"):
            assert counts == {2 * 12}


class TestWitnessMaps:
    # (n, multiplier, source twist, target twist) explicit witnesses.
    WITNESSES = [
        (13, 4, 2, 4),
        (13, 7, 2, 5),
        (16, 3, 4, 3),
        (16, 3, 5, 2),
        (17, 14, 5, 2),
        (17, 2, 7, 2),
        (17, 13, 4, 3),
        (17, 3, 6, 3),
        (18, 5, 6, 5),
        (19, 3, 5, 3),
        (19, 15, 4, 3),
        (19, 6, 2, 6),
        (19, 9, 2, 8),
        (20, 3, 6, 2),
        (20, 3, 7, 3),
    ]

    @pytest.mark.parametrize("n,a,src,dst", WITNESSES)
    def test_multiplier_witnesses(self, n, a, src, dst):
        mapping = multiplier_map(n, a)
        assert is_isomorphism_between(
            mapping, fam(f"T({n},1,{src})"), fam(f"T({n},1,{dst})")
        )
        assert find_isomorphism(fam(f"T({n},1,{src})"), fam(f"T({n},1,{dst})")).isomorphic


class TestAutomorphismGroup:
    ORDERS = {
        "T(10,1,2)": 20,
        "T(12,1,4)": 48,
        "T(7,1,2)": 42,
        "T(13,1,3)": 78,
        "T(15,1,3)": 60,
    }

    @pytest.mark.parametrize("name,order", sorted(ORDERS.items()))
    def test_orders(self, name, order):
        assert automorphism_group(fam(name)).order == order

    def test_tetrahedron_full_symmetric_group(self, tetrahedron):
        group = automorphism_group(tetrahedron)
        assert group.order == 24
        assert regularity_flags(tetrahedron, group) == (True, True)

    @pytest.mark.parametrize("name", ["T(9,1,2)", "T(9,3,3)", "T(6,6,0)", "T(12,4,4)",
                                      "K(3,12)", "B(6,8)", "Q(7,4)"])
    def test_elements_are_sound(self, name):
        # Only the generators are checked inside the scan; every element of
        # the largest groups (up to 576 on 48 vertices) is checked here, and
        # there is one element per least-key start.
        t = shuffled(fam(name), 4)
        group = automorphism_group(t)
        elements = group_elements(group.generators, t.n)
        for perm in elements:
            assert is_isomorphism_between(perm, t, t)
        assert len(elements) == group.order == len(least_key_labels(t))
        # The face orbits, joined along the face permutations the scan's
        # checks gave, are the orbits of the elements on the faces.
        orbits = {frozenset(tuple(sorted(perm[v] for v in face)) for perm in elements)
                  for face in t.faces}
        assert set(map(frozenset, group.face_orbits)) == orbits

    def test_group_closure_and_inverse(self):
        group = automorphism_group(fam("B(3,3)"))
        elements = group_elements(group.generators, 9)
        for p in elements:
            inv = [0] * len(p)
            for i, v in enumerate(p):
                inv[v] = i
            assert tuple(inv) in elements
            for q in elements:
                assert tuple(p[q[i]] for i in range(len(p))) in elements

    def test_flag_count_and_divisibility(self):
        for name in ("T(7,1,2)", "T(3,3,0)", "B(3,3)", "Q(5,2)"):
            t = fam(name)
            assert len(flags(t)) == 6 * t.f2
            assert (6 * t.f2) % automorphism_group(t).order == 0

    def test_orbits_sorted_by_number(self):
        # Sorted as text, vertex 10 would come before vertex 2.
        group = automorphism_group(fam("T(12,1,2)"))
        assert group.vertex_orbits == (tuple(range(12)),)
        assert all(list(orbit) == sorted(orbit) for orbit in group.face_orbits)
        assert any((0, 1, 3) in orbit and (0, 1, 10) in orbit for orbit in group.face_orbits)

    def test_brute_force_agreement_small(self, tetrahedron, double_pyramid):
        for t in (tetrahedron, double_pyramid, fam("T(7,1,2)")):
            group = automorphism_group(t)
            assert group_elements(group.generators, t.n) == brute_force_automorphisms(t)

    def test_brute_force_isomorphism_agreement(self):
        a, b = fam("T(4,2,1)"), shuffled(fam("T(4,2,1)"), 7)
        assert find_isomorphism(a, b).isomorphic
        assert brute_force_isomorphism(a, b) is not None


def regularity_of(t):
    return regularity_flags(t, automorphism_group(t))


class TestRegularityFlags:
    def test_combinatorially_regular_items(self):
        assert regularity_of(fam("T(3,3,0)")) == (True, True)
        assert regularity_of(fam("T(6,2,2)")) == (True, True)

    def test_q_grid_not_weakly_regular(self):
        assert regularity_of(fam("Q(5,3)")) == (False, False)

    def test_q_band_weakly_regular(self):
        weakly, comb = regularity_of(fam("Q(9,2)"))
        assert weakly and not comb


class TestFlagOrbits:
    def test_count_matches_brute_force_orbits(self, tetrahedron):
        for t in (tetrahedron, fam("T(7,1,2)"), fam("B(3,3)"), fam("Q(5,2)")):
            group = brute_force_automorphisms(t)
            orbits = {
                frozenset((p[v], p[u], tuple(sorted(p[x] for x in f))) for p in group)
                for v, u, f in flags(t)
            }
            assert all(len(orbit) == len(group) for orbit in orbits)  # free action
            assert len(orbits) == 6 * t.f2 // automorphism_group(t).order
            assert regularity_of(t)[1] == (len(orbits) == 1)


def three_crossing_key(faces, flag) -> list[int]:
    """The key of the flag by the rule that crosses all three edges of each
    face: breadth-first from the flag's face, the edges (x, y), (y, z),
    (z, x) of each face (x, y, z) in turn, the vertex beyond an edge
    labelled in first-use order, and the face there queued as (q, p, w)."""
    sides: dict[frozenset, list[frozenset]] = {}
    for face in map(frozenset, faces):
        for edge in combinations(face, 2):
            sides.setdefault(frozenset(edge), []).append(face)
    label = {v: i for i, v in enumerate(flag)}
    queue, seen, key = [flag], {frozenset(flag)}, []
    for x, y, z in queue:  # the queue grows while read
        for p, q in ((x, y), (y, z), (z, x)):
            (other,) = [face for face in sides[frozenset((p, q))] if face != {x, y, z}]
            (w,) = other - {p, q}
            key.append(label.setdefault(w, len(label)))
            if other not in seen:
                seen.add(other)
                queue.append((q, p, w))
    return key


class TestTraverse:
    """`_traverse` against a plain rolled traversal of the face list
    (`reference_traversal`), and against the key that crosses three edges
    per face, on every start of small complexes and on sampled starts of a
    large one."""

    @staticmethod
    def check(t, starts):
        # With `best`, a traversal stops exactly when the first entry that
        # differs from best is larger, and otherwise gives the whole key.
        reference = [reference_traversal(t.faces, t.n, s) for s, _ in starts]
        keys = [key for key, _ in reference]
        least, greatest = min(keys), max(keys)
        stopped = False
        for i, ((s, fi), (key, label)) in enumerate(zip(starts, reference)):
            assert symmetry._traverse(t, s, fi, None) == (key, label)
            for best in (key, least, greatest, keys[(i + 1) % len(keys)]):
                larger = next((a > b for a, b in zip(key, best) if a != b), False)
                found = symmetry._traverse(t, s, fi, best)
                assert found == (None if larger else (key, label))
                stopped = stopped or found is None
        assert stopped == (least != greatest)
        # The key drops the first crossing of every face from the three-edge
        # key: the start's edge (x, y) always gives the new vertex 3, and any
        # other face's goes back into the face it was queued from, whose
        # vertices the entries before it have labelled.  So the starts sort
        # in one order, with the same ties, by either key.
        old = [three_crossing_key(t.faces, s) for s, _ in starts]
        assert keys == [[e for j, e in enumerate(entries) if j % 3] for entries in old]
        assert all(entries[0] == 3 for entries in old)

        def ranks(keys):
            order = sorted(set(map(tuple, keys)))
            return [order.index(tuple(key)) for key in keys]

        assert ranks(keys) == ranks(old)

    def test_every_start_of_small_complexes(self, tetrahedron):
        for t in (tetrahedron, *(shuffled(fam(name), 3) for name in
                                 ("T(7,1,2)", "B(3,3)", "Q(5,2)", "K(3,4)"))):
            self.check(t, [(s, fi) for fi, face in enumerate(t.faces) for s in permutations(face)])

    def test_sampled_starts_of_a_large_complex(self):
        t = shuffled(fam("K(10,20)"), 4)
        assert t.n >= 100
        starts = [(s, fi) for fi, face in enumerate(t.faces) for s in permutations(face)]
        self.check(t, random.Random(t.n).sample(starts, 24))


def least_key_starts(t):
    """Each start with the least key -> its label array, from the full key
    of every start (no pruning)."""
    found = {s: symmetry._traverse(t, s, fi, None)
             for fi, face in enumerate(t.faces) for s in permutations(face)}
    least = min(key for key, _ in found.values())
    return {s: tuple(label) for s, (key, label) in found.items() if key == least}


def least_key_labels(t):
    return set(least_key_starts(t).values())


def census_classes(ns):
    return [item.triangulation for n in ns for item in census_report(n).items]


class TestScan:
    def test_idempotent_on_census_classes(self):
        for seed, t in enumerate(census_classes(range(7, 13))):
            form = canonical_form(shuffled(t, seed))
            assert form.code == canonical_form(t).code
            canon = build_triangulation(t.n, form.faces)
            again = canonical_form(canon)
            assert again.code == form.code
            assert is_isomorphism_between(again.relabeling, canon, canon)

    def test_relabeling_is_a_least_key_labelling(self):
        # The canonical labelling is the base of the scan: the labelling of
        # a least-key start, which realizes the code.  `aut`, `iso` and the
        # census read the same one.
        for n in range(7, 22):
            for t in {named.complex for named in known_catalog(n)}:
                for u in (t, shuffled(t, 2000 * n), shuffled(t, 2000 * n + 1)):
                    least = least_key_starts(u)
                    form = canonical_form(u)
                    assert relabel(u, form.relabeling).faces == form.faces
                    assert form.relabeling in least.values()
                    assert automorphism_group(u).canonical == form

    def test_first_vertex_has_the_least_sorted_distances(self):
        # Off the torus, v0 is the first vertex whose sorted distances to
        # all vertices are least.  The scan reads them off the balls it
        # grows for all vertices at once, and picks the vertex that a plain
        # breadth-first search, or one layered walk, from each vertex picks.
        def distances(t, v):
            adj = [set() for _ in range(t.n)]
            for face in t.faces:
                for x in face:
                    adj[x].update(face)
            dist = {v: 0}
            queue = [v]
            for x in queue:  # a plain breadth-first search
                for y in adj[x] - dist.keys():
                    dist[y] = dist[x] + 1
                    queue.append(y)
            return sorted(dist.values())

        klein = {named.complex for n in range(7, 41) for named in known_catalog(n)
                 if not orientability(named.complex)}
        assert len(klein) == 81
        for t in klein:
            for u in (t, shuffled(t, t.n), shuffled(t, t.n + 1)):
                least = min(range(u.n), key=lambda v: distances(u, v))
                assert symmetry._first_vertex(u) == least == reference_first_vertex(u)
        for name in ("K(10,20)", "K(20,40)"):
            u = shuffled(fam(name), 1)
            assert symmetry._first_vertex(u) == reference_first_vertex(u)

    def test_scan_work_on_the_catalog(self, monkeypatch):
        # The traversals and face-set checks over the 405 distinct catalog
        # complexes with n <= 30, two relabellings each: the orbits are kept
        # only over the vertex classes a scan visits, and it traverses and
        # checks what it would with the orbits kept over every face.
        traverse, calls = symmetry._traverse, []
        check, checked = symmetry._face_map, []
        monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
        monkeypatch.setattr(symmetry, "_face_map", lambda *a: checked.append(a) or check(*a))
        complexes = [shuffled(t, seed) for n in range(7, 31)
                     for t in dict.fromkeys(named.complex for named in known_catalog(n))
                     for seed in (0, 1)]
        assert len(complexes) == 810
        for scan in (automorphism_group, canonical_form):
            calls.clear()
            checked.clear()
            for t in complexes:
                scan(t)
            assert (len(calls), len(checked)) == (15257, 2247)

    def test_ties_are_the_least_key_starts(self):
        # The pruned scan skips starts; base composed with its group must
        # still be the label arrays of exactly the least-key starts under
        # the unpruned rule.
        for n in range(7, 19):
            for t in {named.complex for named in known_catalog(n)}:
                for seed in range(2):
                    u = shuffled(t, 1000 * n + seed)
                    least = least_key_labels(u)
                    scan = symmetry._Scanner(u)
                    scan.first_phase()
                    scan.second_phase()
                    group = group_elements(scan.gens, u.n)
                    ties = {tuple(scan.base[g[v]] for v in range(u.n)) for g in group}
                    assert ties == least
                    assert len(group) == len(least) == automorphism_group(u).order

    @pytest.mark.parametrize("name", ["T(3,3,0)", "T(9,3,3)", "T(6,6,0)", "T(12,4,4)",
                                      "K(3,12)"])
    def test_traversals_on_regular_maps(self, monkeypatch, name):
        # Every start of a flag-regular map ties.  The 12 flags at the first
        # vertex are all traversed and give its stabiliser (order 12); after
        # them a traversed start is outside the orbits of those before it,
        # so each traversal at least doubles the group found:
        # 12 + log2(|Aut|/12) traversals, not 6*f_2.
        # The face set is checked once per new generator, inside the scan,
        # and each new generator at least doubles the group: at most
        # floor(log2 |Aut|) checks, also on K(3,12), which is not
        # flag-regular (|Aut| = 24 on 432 flags).
        t = shuffled(fam(name), 2)
        traverse, calls = symmetry._traverse, []
        check, checked = symmetry._face_map, []
        monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
        monkeypatch.setattr(symmetry, "_face_map", lambda *a: checked.append(a) or check(*a))
        order = automorphism_group(t).order
        assert len(checked) <= order.bit_length() - 1
        if name == "K(3,12)":
            assert order == 24
            return
        assert order == 6 * t.f2
        bound = 12 + (order // 12).bit_length() - 1  # 12 + floor(log2(|Aut|/12))
        assert len(calls) <= bound
        calls.clear()
        canonical_form(t)
        assert len(calls) <= bound

    @pytest.mark.parametrize("name", ["T(6,3,0)", "T(21,1,4)", "T(12,2,5)", "B(3,6)",
                                      "K(4,6)", "Q(7,4)", "K(3,12)", "B(6,8)"])
    def test_traversals_do_not_depend_on_the_labelling(self, monkeypatch, name):
        # The starts follow an order fixed by the complex, so relabelled
        # copies cost the same traversals, also where there are several
        # flag orbits (tori T(6,3,0) to T(12,2,5)) or several vertex orbits
        # (the Klein bottles).
        t = fam(name)
        traverse, calls = symmetry._traverse, []
        monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
        counts = set()
        for seed in range(6):
            calls.clear()
            canonical_form(shuffled(t, seed))
            counts.add(len(calls))
        assert len(counts) == 1
        assert counts.pop() < 6 * t.f2

    @pytest.mark.parametrize("name", ["T(6,3,0)", "T(21,1,4)", "T(12,4,4)", "K(4,6)",
                                      "K(3,12)", "B(6,8)", "Q(7,4)", "B(3,6)"])
    def test_canonical_labelling_is_the_scans_base(self, monkeypatch, name):
        # canonical_form takes the labelling of the first least-key start
        # that the scan traversed, so it costs exactly the traversals and
        # face-set checks of the scan that gives the group.  A torus is
        # vertex-transitive, so its scan starts at vertex 0.
        traverse, calls = symmetry._traverse, []
        check, checked = symmetry._face_map, []
        monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
        monkeypatch.setattr(symmetry, "_face_map", lambda *a: checked.append(a) or check(*a))
        for seed in range(4):
            t = shuffled(fam(name), seed)
            if name.startswith("T"):
                assert symmetry._first_vertex(t) == 0
            calls.clear()
            checked.clear()
            group = automorphism_group(t)
            work = len(calls), len(checked)
            calls.clear()
            checked.clear()
            form = canonical_form(t)
            assert (len(calls), len(checked)) == work
            assert form == group.canonical
            assert form.relabeling in least_key_labels(t)

    def test_code_equality_matches_brute_force_isomorphism(self):
        items = [
            (i, shuffled(t, 100 * i + seed))
            for i, t in enumerate(census_classes(range(7, 10)))
            for seed in range(2)
        ]
        for i, (ci, a) in enumerate(items):
            for cj, b in items[i + 1:]:
                if a.n != b.n:
                    continue
                same_code = canonical_form(a).code == canonical_form(b).code
                assert same_code == (brute_force_isomorphism(a, b) is not None)
                assert same_code == (ci == cj)

    @pytest.mark.stretch
    def test_code_and_order_invariant_for_the_paper_census(self):
        classes = census_classes(range(12, 16))
        assert len(classes) == 19
        for seed, t in enumerate(classes):
            other = shuffled(t, seed)
            assert canonical_form(other).code == canonical_form(t).code
            assert automorphism_group(other).order == automorphism_group(t).order



def corrupt_traversals(monkeypatch, when, repeat=False):
    """Make `_traverse` swap the labels 0 and 1 of its start (with `repeat`,
    give both vertices label 0) in each result for which when(t, key, best)
    holds."""
    traverse = symmetry._traverse

    def corrupted(t, start, start_fi, best):
        found = traverse(t, start, start_fi, best)
        if found is not None and when(t, found[0], best):
            found[1][start[0]], found[1][start[1]] = (0, 0) if repeat else (1, 0)
        return found

    monkeypatch.setattr(symmetry, "_traverse", corrupted)


def corrupt_bases(monkeypatch, b):
    """Give label 0 to the vertex labelled 1 in the base of each scan of b,
    after each phase: the scan's own checks use the labels as traversed."""
    for name in ("first_phase", "second_phase"):
        def corrupted(scan, phase=getattr(symmetry._Scanner, name)):
            done = phase(scan)
            if scan.t is b and 1 in scan.base:
                scan.base[scan.base.index(1)] = 0
            return done

        monkeypatch.setattr(symmetry._Scanner, name, corrupted)


def is_tie(t, key, best):
    return key == best


class TestSafetyChecks:
    # Each check guards a proof step: a traversal that mislabels its start
    # ends in the AssertionError, and the CLI turns that into exit 2.  The
    # same swap in every label array of b keeps b's ties automorphisms, but
    # its base no longer maps a's faces onto b's.
    def test_a_tie_that_is_no_automorphism_raises(self, monkeypatch):
        corrupt_traversals(monkeypatch, is_tie)
        with pytest.raises(AssertionError, match="traversal produced a non-automorphism"):
            automorphism_group(fam("T(12,1,3)"))

    def test_equal_keys_that_give_no_isomorphism_raise(self, monkeypatch):
        for name in ("T(12,1,3)", "K(4,6)"):
            a = fam(name)
            b = shuffled(a, 3)
            corrupt_traversals(monkeypatch, lambda t, key, best: t is b)
            with pytest.raises(AssertionError, match="equal keys produced a non-isomorphism"):
                find_isomorphism(a, b)

    def test_a_label_array_that_repeats_a_label_raises(self, monkeypatch):
        # Such an array forms no vertex bijection, and some face's image
        # is then no face, so the face-set checks still catch it.
        corrupt_traversals(monkeypatch, is_tie, repeat=True)
        with pytest.raises(AssertionError, match="traversal produced a non-automorphism"):
            automorphism_group(fam("T(12,1,3)"))
        monkeypatch.undo()
        for name in ("T(12,1,3)", "K(4,6)"):
            a = fam(name)
            b = shuffled(a, 3)
            corrupt_bases(monkeypatch, b)
            with pytest.raises(AssertionError, match="equal keys produced a non-isomorphism"):
                find_isomorphism(a, b)

    def test_cli_exit_2_without_a_traceback(self, monkeypatch, tmp_path):
        def run(*argv):
            out, err = io.StringIO(), io.StringIO()
            return cli.run(list(argv), out=out, err=err), out.getvalue(), err.getvalue()

        path = str(tmp_path / "t.tri")
        with open(path, "w") as f:
            f.write(format_tri(fam("T(12,1,3)")))
        corrupt_traversals(monkeypatch, is_tie)
        assert run("aut", path) == (
            2, "", "error: unexpected AssertionError('traversal produced a non-automorphism')\n")
        monkeypatch.undo()
        build, built = cli.build_triangulation, []
        monkeypatch.setattr(cli, "build_triangulation",
                            lambda n, faces: built.append(build(n, faces)) or built[-1])
        corrupt_traversals(monkeypatch, lambda t, key, best: t is built[-1])
        assert run("iso", path, path) == (
            2, "", "error: unexpected AssertionError('equal keys produced a non-isomorphism')\n")
