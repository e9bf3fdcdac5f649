import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatland.surface
import flatland.symmetry
from flatland import (
    Disconnected,
    NotAManifold,
    automorphism_group,
    build_triangulation,
    canonical_form,
    degree_profile,
    euler_characteristic,
    find_isomorphism,
    known_catalog,
    manifold_report,
    orientability,
    skeleton_graph,
    surface_type,
)
from flatland.surface import surface_from_invariants
from tests.conftest import TETRAHEDRON, fam, relabel, shuffled

# The 6-vertex real projective plane (the hemi-icosahedron): 10 faces.
RP2 = (6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
           (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)])


class TestBuildTriangulation:
    def test_tetrahedron_is_a_sphere(self, tetrahedron):
        assert euler_characteristic(tetrahedron) == 2
        assert surface_type(tetrahedron).kind == "sphere"
        assert degree_profile(tetrahedron) == ((3, 3, 3, 3), 3)

    def test_seven_vertex_torus(self):
        t = fam("T(7,1,2)")
        assert (t.f0, t.f1, t.f2) == (7, 21, 14)
        assert euler_characteristic(t) == 0
        assert surface_type(t).kind == "torus"

    def test_single_face_is_rejected(self):
        with pytest.raises(NotAManifold, match=r"edge \(0, 1\)"):
            build_triangulation(3, [(0, 1, 2)])

    def test_isolated_vertex_is_rejected(self):
        n, faces = TETRAHEDRON
        with pytest.raises(NotAManifold, match="vertex 4"):
            build_triangulation(5, faces)

    def test_repeated_vertex_in_face_is_rejected(self):
        with pytest.raises(NotAManifold):
            build_triangulation(4, [(0, 1, 1), (0, 1, 2), (0, 2, 3)])

    def test_out_of_range_vertex_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_triangulation(3, [(0, 1, 5)])

    def test_pinched_link_is_rejected(self):
        # Two tetrahedra glued at vertex 0: every edge is fine but lk(0)
        # consists of two disjoint triangles.
        faces = [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
            (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6),
        ]
        with pytest.raises(NotAManifold, match="link of vertex 0"):
            build_triangulation(7, faces)

    def test_disconnected_is_rejected(self):
        faces = [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
            (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7),
        ]
        with pytest.raises(Disconnected):
            build_triangulation(8, faces)

    def test_disconnected_with_a_non_orientable_part(self):
        # The walk that checks orientation also counts the faces it reaches.
        n, rp2 = RP2
        faces = TETRAHEDRON[1] + [tuple(v + 4 for v in f) for f in rp2]
        with pytest.raises(Disconnected, match="complex has 10 unreachable faces"):
            build_triangulation(4 + n, faces)

    def test_round_trip_identity(self):
        t = fam("T(12,1,3)")
        assert build_triangulation(t.n, t.faces) == t

    def test_duplicate_face_is_rejected(self):
        # Listed again in another vertex order: still the same face.
        n, faces = TETRAHEDRON
        with pytest.raises(NotAManifold, match=r"face \(0, 1, 2\) is listed twice"):
            build_triangulation(n, faces + [(2, 0, 1)])

    def test_no_vertices_is_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_triangulation(0, [])


def link_edges(t, v: int) -> set[frozenset[int]]:
    """The edges of the link of v: the faces at v with v removed."""
    return {frozenset(f) - {v} for f in t.faces if v in f}


def cycle_edges(*vertices: int) -> set[frozenset[int]]:
    k = len(vertices)
    return {frozenset((vertices[i], vertices[(i + 1) % k])) for i in range(k)}


class TestLinkCycle:
    def test_cyclic_band_link_formula(self):
        # lk(i) = C_6(i+k, n+i-1, n+i-k-1, n+i-k, i+1, i+k+1) at i=1, n=7,
        # k=2 gives C_6(3, 7, 5, 6, 2, 4) in 1-based labels.
        t = fam("T(7,1,2)")
        assert link_edges(t, 0) == cycle_edges(2, 6, 4, 5, 1, 3)

    def test_tetrahedron_link(self, tetrahedron):
        assert link_edges(tetrahedron, 0) == cycle_edges(1, 2, 3)

    def test_b33_links_are_six_cycles(self):
        t = fam("B(3,3)")
        for v in range(t.n):
            assert len(link_edges(t, v)) == 6

    def test_link_length_equals_degree(self, double_pyramid):
        degrees, _ = degree_profile(double_pyramid)
        for v in range(double_pyramid.n):
            assert len(link_edges(double_pyramid, v)) == degrees[v]


class TestInvariants:
    def test_euler_characteristic_zero_families(self):
        assert euler_characteristic(fam("T(12,1,3)")) == 0
        assert euler_characteristic(fam("Q(5,2)")) == 0

    def test_degree_profile_mixed(self, double_pyramid):
        degrees, regular = degree_profile(double_pyramid)
        assert sorted(degrees) == [3, 3, 4, 4, 4]
        assert regular is None

    def test_degree_profile_regular(self):
        degrees, regular = degree_profile(fam("T(14,1,3)"))
        assert regular == 6 and set(degrees) == {6}

    def test_orientability(self, tetrahedron):
        assert orientability(fam("T(6,2,2)"))
        assert not orientability(fam("B(3,4)"))
        assert orientability(tetrahedron)

    def test_six_vertex_rp2_is_non_orientable_genus_1(self):
        t = build_triangulation(*RP2)
        assert t.f2 == 10 and euler_characteristic(t) == 1
        assert not orientability(t)
        assert str(surface_type(t)) == "non_orientable_genus_1"

    def test_surface_type(self, tetrahedron):
        assert surface_type(fam("T(15,1,5)")).kind == "torus"
        assert surface_type(fam("K(3,4)")).kind == "klein_bottle"
        assert surface_type(tetrahedron).kind == "sphere"

    @pytest.mark.parametrize("euler,orientable,expected", [
        (2, True, "sphere"), (0, True, "torus"), (-2, True, "orientable_genus_2"),
        (1, True, "invalid"), (0, False, "klein_bottle"), (1, False, "non_orientable_genus_1"),
        (3, False, "invalid"),
    ])
    def test_surface_from_invariants(self, euler, orientable, expected):
        assert str(surface_from_invariants(euler, orientable)) == expected

    def test_two_f1_equals_three_f2(self, tetrahedron, double_pyramid):
        # f1 is read off f2, so it is checked against the skeleton's edges.
        catalog = {named.complex for n in range(7, 25) for named in known_catalog(n)}
        for t in (tetrahedron, double_pyramid, build_triangulation(*RP2), *catalog):
            assert 2 * t.f1 == 3 * t.f2
            assert t.f1 == len(skeleton_graph(t).edges)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_orientability_is_relabeling_invariant(self, seed):
        for t in (fam("T(6,2,2)"), fam("B(3,3)"), build_triangulation(*RP2)):
            assert orientability(shuffled(t, seed)) == orientability(t)


class TestFaceAdjacency:
    @pytest.mark.parametrize("name", ["T(7,1,2)", "T(6,2,2)", "T(4,3,1)", "B(3,3)",
                                      "K(3,4)", "Q(5,2)", "Q(5,3)"])
    def test_families(self, name):
        self.check_table(fam(name))

    def test_tetrahedron(self, tetrahedron):
        self.check_table(tetrahedron)

    @staticmethod
    def check_table(t):
        # across[fi][r] = (gi, w): face gi holds the edge of face fi
        # opposite r, w is the third vertex of gi, and the relation is
        # symmetric.
        assert len(t.across) == t.f2
        for fi, face in enumerate(t.faces):
            assert sorted(t.across[fi]) == list(face)
            for r, (gi, w) in t.across[fi].items():
                edge = set(face) - {r}
                assert gi != fi and w not in face
                assert set(t.faces[gi]) == edge | {w}
                assert t.across[gi][w] == (fi, r)

    def test_built_once_per_complex(self, monkeypatch):
        calls = []
        build = flatland.surface._face_adjacency
        monkeypatch.setattr(flatland.surface, "_face_adjacency",
                            lambda faces: calls.append(faces) or build(faces))
        t = build_triangulation(*RP2)
        canonical_form(t)
        automorphism_group(t)
        surface_type(t)
        assert len(calls) == 1

    def test_find_isomorphism_builds_each_skeleton_once(self, monkeypatch):
        calls = []
        skeleton = flatland.symmetry.skeleton_graph
        monkeypatch.setattr(flatland.symmetry, "skeleton_graph",
                            lambda t: calls.append(t) or skeleton(t))
        # A Klein bottle's scans read v0 off the skeletons built for the
        # G_c shapes.
        for name in ("T(12,1,3)", "K(4,6)"):
            calls.clear()
            t = fam(name)
            assert find_isomorphism(t, shuffled(t, 3)).isomorphic
            assert len(calls) == 2


def neg_edges(t) -> set[tuple[int, int]]:
    """The edges of NEG(T), the complement of the 1-skeleton."""
    pairs = {(a, b) for a in range(t.n) for b in range(a + 1, t.n)}
    return pairs - set(skeleton_graph(t).edges)


class TestSkeletonGraph:
    def test_neg_of_t912_is_the_expected_nine_cycle(self):
        # NEG(T_{9,1,2}) = C_9(1, 5, 9, 4, 8, 3, 7, 2, 6) in 1-based labels.
        neg = neg_edges(fam("T(9,1,2)"))
        labels = [1, 5, 9, 4, 8, 3, 7, 2, 6]
        expected = set()
        for i in range(9):
            a, b = labels[i] - 1, labels[(i + 1) % 9] - 1
            expected.add((min(a, b), max(a, b)))
        assert neg == expected

    def test_eg_of_t712_is_complete(self):
        g = skeleton_graph(fam("T(7,1,2)"))
        assert len(g.edges) == 21

    def test_tetrahedron_neg_is_null(self, tetrahedron):
        assert not neg_edges(tetrahedron)

    def test_complementarity(self):
        t = fam("T(9,1,2)")
        eg, neg = skeleton_graph(t), neg_edges(t)
        assert not (set(eg.edges) & neg)
        assert len(eg.edges) + len(neg) == t.n * (t.n - 1) // 2


class TestManifoldReport:
    def test_valid_report(self):
        n, faces = fam("T(7,1,2)").n, fam("T(7,1,2)").faces
        report = manifold_report(n, faces)
        assert report.ok and not report.diagnostics
        assert report.euler == 0 and report.regular_degree == 6
        assert report.surface.kind == "torus"

    def test_invalid_report_never_raises(self):
        report = manifold_report(4, [(0, 1, 2)])
        assert not report.ok and report.diagnostics
        assert report.surface.kind == "invalid"


def test_relabel_round_trip():
    t = fam("B(3,4)")
    perm = list(reversed(range(t.n)))
    back = relabel(relabel(t, perm), perm)
    assert back == t
