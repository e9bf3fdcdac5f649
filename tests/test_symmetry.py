import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatland import (
    automorphism_group,
    build_triangulation,
    canonical_form,
    enumerate_degree_regular,
    find_isomorphism,
    regularity_flags,
    relabel,
)
from tests.conftest import (
    brute_force_automorphisms,
    brute_force_isomorphism,
    fam,
    flags,
    shuffled,
)


def multiplier_map(n: int, a: int) -> list[int]:
    """The 1-based multiplier map i -> a*i (mod n) expressed on 0-based labels."""
    return [(a * (v + 1) - 1) % n for v in range(n)]


def is_isomorphism_between(mapping, a, b) -> bool:
    image = frozenset(
        tuple(sorted((mapping[x], mapping[y], mapping[z]))) for x, y, z in a.faces
    )
    return image == b.face_set()


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
        assert again.relabeling == tuple(range(t.n))

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
        for k in t1_twists_12():
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


def t1_twists_12():
    from flatland import t1_valid_twists

    return t1_valid_twists(12)


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

    def test_elements_are_sound(self):
        t = fam("T(9,1,2)")
        group = automorphism_group(t)
        face_set = t.face_set()
        for perm in group.elements:
            image = frozenset(
                tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in t.faces
            )
            assert image == face_set

    def test_group_closure_and_inverse(self):
        group = automorphism_group(fam("B(3,3)"))
        elements = set(group.elements)
        for p in group.elements:
            inv = [0] * len(p)
            for i, v in enumerate(p):
                inv[v] = i
            assert tuple(inv) in elements
            for q in group.elements:
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
            assert set(automorphism_group(t).elements) == brute_force_automorphisms(t)

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


def census_classes(ns):
    return [t for n in ns for t in enumerate_degree_regular(n)]


class TestScan:
    def test_idempotent_on_census_classes(self):
        for seed, t in enumerate(census_classes(range(7, 13))):
            form = canonical_form(shuffled(t, seed))
            assert form.code == canonical_form(t).code
            again = canonical_form(build_triangulation(t.n, form.faces))
            assert again.code == form.code
            assert again.relabeling == tuple(range(t.n))

    def test_relabeling_is_the_least_that_realizes_the_code(self):
        for name in ("T(7,1,2)", "B(3,3)", "Q(5,2)", "T(4,4,2)"):
            t = shuffled(fam(name), 3)
            label = canonical_form(t).relabeling
            realizing = {
                tuple(label[p[v]] for v in range(t.n))
                for p in automorphism_group(t).elements
            }
            assert label == min(realizing)

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
