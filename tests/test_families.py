import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatland import (
    BadParameters,
    FamilySpec,
    build_triangulation,
    construct_family,
    degree_profile,
    euler_characteristic,
    find_isomorphism,
    known_catalog,
    orientability,
    parse_name,
    surface_type,
)
from flatland import families
from flatland.families import q_grid_faces
from tests.conftest import all_specs_up_to, t1_valid_twists

FACE_COUNT = {
    "T1": lambda n, k: 2 * n,
    "T2": lambda n, k: 4 * n,
    "TM": lambda n, m, k: 2 * m * n,
    "B": lambda m, n: 2 * m * n,
    "K": lambda m, two_n: 2 * m * two_n,
    "Q": lambda q, n: 2 * q * n,
}


# Names that parse_name must refuse: neither L(p,...) nor L_{p,...}.
MALFORMED_NAMES = ["T(12,1,3", "T_{12,1,3", "T_{12,1,3)", "B(3,4", "B(3,4}", "B_3,4",
                   "T(12,,1,3)", "T(12,1,3,)", "T{12,1,3}", "T_(12,1,3)", "T(012,1,3)"]


def spec_strategy():
    t1 = st.integers(7, 25).flatmap(
        lambda n: st.sampled_from(t1_valid_twists(n)).map(
            lambda k: FamilySpec("T1", (n, k))
        )
    )
    t2 = st.tuples(st.integers(4, 12), st.integers(1, 9)).filter(
        lambda p: p[1] <= p[0] - 3
    ).map(lambda p: FamilySpec("T2", p))
    tm = st.tuples(st.integers(3, 7), st.integers(3, 7), st.integers(0, 6)).filter(
        lambda p: p[2] <= p[0] - 1
    ).map(lambda p: FamilySpec("TM", p))
    b = st.tuples(st.integers(3, 7), st.integers(3, 7)).map(
        lambda p: FamilySpec("B", p)
    )
    k = st.tuples(st.integers(3, 7), st.sampled_from([4, 6, 8])).map(
        lambda p: FamilySpec("K", p)
    )
    q = st.tuples(st.sampled_from([5, 7, 9]), st.integers(2, 4)).map(
        lambda p: FamilySpec("Q", p)
    )
    return st.one_of(t1, t2, tm, b, k, q)


class TestConstruction:
    def test_t712(self):
        named = construct_family(parse_name("T(7,1,2)"))
        t = named.complex
        assert named.name == "T_{7,1,2}"
        assert (t.n, t.f2) == (7, 14)
        assert surface_type(t).kind == "torus"
        assert degree_profile(t)[1] == 6

    def test_q52(self):
        t = construct_family(parse_name("Q(5,2)")).complex
        assert (t.n, t.f2) == (10, 20)
        assert surface_type(t).kind == "klein_bottle"

    def test_b33(self):
        t = construct_family(parse_name("B(3,3)")).complex
        assert (t.n, t.f2) == (9, 18)
        assert surface_type(t).kind == "klein_bottle"

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_in_range_specs_build_degree_six_chi_zero(self, spec):
        t = construct_family(spec).complex
        assert t.n == spec.vertex_count
        assert t.f2 == FACE_COUNT[spec.tag](*spec.params)
        assert degree_profile(t)[1] == 6
        assert euler_characteristic(t) == 0
        expected_orientable = spec.tag in ("T1", "T2", "TM")
        assert orientability(t) == expected_orientable

    def test_t1_mirror_twist_gives_identical_faces(self):
        for n in (9, 12, 15):
            for k in t1_valid_twists(n):
                a = construct_family(FamilySpec("T1", (n, k))).complex
                b = construct_family(FamilySpec("T1", (n, n - k - 1))).complex
                assert a.faces == b.faces


class TestParameterRanges:
    def test_t1_excluded_middle_band(self):
        with pytest.raises(BadParameters, match="k in"):
            construct_family(parse_name("T(9,1,4)"))
        with pytest.raises(BadParameters):
            construct_family(parse_name("T(7,1,3)"))

    def test_t1_needs_seven_vertices(self):
        with pytest.raises(BadParameters, match="n >= 7"):
            construct_family(parse_name("T(6,1,2)"))

    def test_t2_twist_range(self):
        with pytest.raises(BadParameters):
            construct_family(parse_name("T(4,2,2)"))

    def test_k_even_parameter(self):
        with pytest.raises(BadParameters, match="even"):
            construct_family(parse_name("K(3,5)"))

    @pytest.mark.parametrize("spec,message", [
        (FamilySpec("T2", (3, 1)), "n >= 4"),
        (FamilySpec("TM", (2, 3, 0)), "n, m >= 3"),
        (FamilySpec("TM", (3, 2, 0)), "n, m >= 3"),
        (FamilySpec("TM", (3, 3, 3)), "0 <= k <= 2"),
        (FamilySpec("B", (2, 3)), "m, n >= 3"),
        (FamilySpec("K", (2, 4)), "m >= 3"),
        (FamilySpec("Q", (5, 1)), "n >= 2"),
        (FamilySpec("T1", (100_001, 3)), "more than 100000 vertices"),
        (FamilySpec("TM", (10**9, 10**9, 0)), "more than 100000 vertices"),
    ])
    def test_out_of_range(self, spec, message):
        with pytest.raises(BadParameters, match=message):
            construct_family(spec)

    def test_unknown_tag(self):
        with pytest.raises(BadParameters, match="unknown family tag"):
            FamilySpec("X", (3, 4))

    def test_q_odd_parameter(self):
        with pytest.raises(BadParameters, match="odd"):
            construct_family(parse_name("Q(6,2)"))
        with pytest.raises(BadParameters):
            construct_family(parse_name("Q(3,2)"))


class TestNameParsing:
    def test_cli_and_display_grammars(self):
        assert parse_name("T(12,1,3)") == FamilySpec("T1", (12, 3))
        assert parse_name("T_{12,1,3}") == FamilySpec("T1", (12, 3))
        assert parse_name("T(6,2,2)") == FamilySpec("T2", (6, 2))
        assert parse_name("T(4,4,2)") == FamilySpec("TM", (4, 4, 2))
        assert parse_name("B(3,4)") == FamilySpec("B", (3, 4))
        assert parse_name("K(3,4)") == FamilySpec("K", (3, 4))
        assert parse_name("Q(7,2)") == FamilySpec("Q", (7, 2))

    def test_whitespace_is_ignored(self):
        assert parse_name(" T( 12, 1,\t3 ) ") == parse_name("T _{12 ,1,3}") == FamilySpec("T1", (12, 3))

    def test_bad_names(self):
        for text in ("X(3,4)", "T12,1,3", ""):
            with pytest.raises(BadParameters, match="cannot parse"):
                parse_name(text)
        with pytest.raises(BadParameters, match="T families need three parameters"):
            parse_name("T(12,1)")
        with pytest.raises(BadParameters, match="B families take two parameters"):
            parse_name("B(3,4,5)")

    @pytest.mark.parametrize("text", MALFORMED_NAMES)
    def test_malformed_brackets_and_separators(self, text):
        # Neither spelling: a bracket left open or mismatched, an empty
        # parameter, or a leading zero.
        with pytest.raises(BadParameters, match="cannot parse family name"):
            parse_name(text)

    def test_every_catalog_name_round_trips(self):
        for n in range(1, 61):
            for named in known_catalog(n):
                spec = named.spec
                cli_spelling = f"{spec.name[0]}({','.join(map(str, spec.written))})"
                assert parse_name(spec.name) == parse_name(cli_spelling) == spec


class TestKnownCatalog:
    def test_n6_empty(self):
        assert known_catalog(6) == []

    def test_no_vertices_refused(self):
        with pytest.raises(ValueError, match="at least 1"):
            known_catalog(0)

    def test_every_spec_in_range(self):
        # The catalog is the specs that `validate` accepts; against the
        # ranges as the paper states them.
        expected = sorted(all_specs_up_to(30))
        for n in range(1, 31):
            specs = [named.spec for named in known_catalog(n)]
            assert specs == [s for s in expected if s.vertex_count == n]

    def test_n7_has_only_the_two_mirror_twists(self):
        names = [x.name for x in known_catalog(7)]
        assert names == ["T_{7,1,2}", "T_{7,1,4}"]

    def test_n12_contents(self):
        names = {x.name for x in known_catalog(12)}
        expected = (
            {f"T_{{12,1,{k}}}" for k in (2, 3, 4, 7, 8, 9)}
            | {f"T_{{6,2,{k}}}" for k in (1, 2, 3)}
            | {f"T_{{4,3,{k}}}" for k in range(4)}
            | {f"T_{{3,4,{k}}}" for k in range(3)}
            | {"B_{3,4}", "B_{4,3}", "K_{3,4}"}
        )
        assert names == expected

    def test_over_the_vertex_cap_refused_up_front(self):
        with pytest.raises(BadParameters, match="at most 100000 vertices, not 1000000000"):
            known_catalog(10**9)

    def test_n10_includes_q52(self):
        assert "Q_{5,2}" in {x.name for x in known_catalog(10)}

    def test_each_candidate_is_validated_once(self, monkeypatch):
        calls = []
        validate = families.validate
        monkeypatch.setattr(families, "validate", lambda spec: calls.append(spec) or validate(spec))
        catalog = known_catalog(24)
        assert len(calls) == len(set(calls)) > len(catalog) > 0

    def test_sorted_by_spec(self):
        specs = [x.spec for x in known_catalog(12)]
        assert specs == sorted(specs)


class TestQBandGridCrossCheck:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_example_formulas_agree_at_n_two(self, m):
        q = 2 * m + 1
        band = construct_family(FamilySpec("Q", (q, 2))).complex
        grid = build_triangulation(2 * q, q_grid_faces(m, 2))
        assert find_isomorphism(band, grid).isomorphic


def test_label_tables():
    named = construct_family(parse_name("T(6,2,1)"))
    assert len(named.label_table) == named.complex.n
    assert named.label_table[0] == "u_1" and named.label_table[6] == "v_1"
    named = construct_family(parse_name("B(3,4)"))
    assert named.label_table[0] == "v_{1,1}"
