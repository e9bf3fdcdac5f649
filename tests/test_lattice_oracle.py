"""The census's classes against the lattice quotients T/L and T/G."""

import math

import pytest

from flatland import (
    FamilySpec,
    automorphism_group,
    build_triangulation,
    canonical_form,
    construct_family,
    degree_profile,
    regularity_flags,
    surface_type,
)
from tests.conftest import census_report
from tests.lattice_oracle import (
    BALL,
    NEAR,
    POINT_GROUP,
    REFLECTIONS,
    aut_order,
    hermite,
    klein_classes,
    klein_faces,
    quotient_faces,
    reduce,
    sublattices,
    torus_classes,
    weakly_regular,
)

# Degree-6 tori on n = 7..48 vertices, up to isomorphism.
TORUS_COUNTS = dict(zip(range(7, 49), map(int, """
    1 1 2 1 1 4 2 2 4 5 2 5 3 6 6 4 3 11 5 5 7 9 4 11 5 11 8 7 8 16
    6 8 10 16 6 15 7 13 14 10 7 24""".split())))

# Degree-6 Klein bottles on n = 7..48 vertices, up to isomorphism; 0 at
# every n not listed.
KLEIN_COUNTS = dict.fromkeys(range(7, 49), 0) | {
    9: 1, 10: 1, 12: 3, 14: 1, 15: 3, 16: 2, 18: 4, 20: 4, 21: 3, 22: 1, 24: 7, 25: 2,
    26: 1, 27: 3, 28: 4, 30: 8, 32: 4, 33: 3, 34: 1, 35: 4, 36: 9, 38: 1, 39: 3, 40: 8,
    42: 8, 44: 4, 45: 7, 46: 1, 48: 11}


def test_oracle_setup():
    assert len(NEAR) == 18 and len(BALL) == 19 and len(POINT_GROUP) == 12
    assert len(REFLECTIONS) == 6
    for lat in sublattices(12):  # other bases of one lattice, one form
        a, b, d = lat
        assert hermite((a, 0), (b, d)) == hermite((a + b, d), (-b, -d)) == lat
        assert hermite((a, 0), (b, d), (a + b, d), (0, 0)) == lat
    assert hermite((2, 1), (-1, 3)) == (7, 2, 1)  # index 7, and (2, 1) has y = 1
    assert hermite((4, 0), (1, 2), (0, 1)) == (1, 0, 1)


def test_torus_counts():
    # Uses no flatland code.
    assert {n: len(torus_classes(n)) for n in TORUS_COUNTS} == TORUS_COUNTS


def test_every_torus_is_weakly_regular():
    # The paper's theorem, checked on the oracle alone: the translations by
    # (1, 0) and (0, 1) map the faces of T/L onto themselves, and they move
    # any vertex to any other.
    for n in TORUS_COUNTS:
        for lat in torus_classes(n):
            a = lat[0]
            faces = set(quotient_faces(lat))
            for dx, dy in ((1, 0), (0, 1)):
                shift = [y * a + x for x, y in (reduce(lat, v % a + dx, v // a + dy)
                                                for v in range(n))]
                assert {tuple(sorted(shift[v] for v in f)) for f in faces} == faces, (lat, dx)


def assert_census_classes(n, kind, quotients):
    """The quotients are of the given surface kind, pairwise non-isomorphic
    (one point-group orbit per class), and exactly the census's classes of
    that kind, by canonical code."""
    assert all(surface_type(t).kind == kind for t in quotients)
    codes = {canonical_form(t).code for t in quotients}
    assert len(codes) == len(quotients)
    assert codes == {item.code for item in census_report(n).items if item.surface.kind == kind}


# The census runs for n >= 13 are `stretch`, as elsewhere.
CENSUS_NS = [n if n < 13 else pytest.param(n, marks=pytest.mark.stretch) for n in range(7, 43)]


@pytest.mark.parametrize("n", CENSUS_NS)
def test_torus_classes_match_the_census(n):
    tori = [build_triangulation(n, quotient_faces(lat)) for lat in torus_classes(n)]
    assert_census_classes(n, "torus", tori)


def test_klein_counts():
    # Uses no flatland code.
    assert {n: len(klein_classes(n)) for n in KLEIN_COUNTS} == KLEIN_COUNTS


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def test_klein_bottle_exists_iff_n_is_composite_and_at_least_9():
    # The paper's theorem, checked on the oracle alone.
    for n in range(1, 49):
        assert bool(klein_classes(n)) == (n >= 9 and not is_prime(n)), n


def test_klein_bottle_on_46_vertices():
    # 46 = 2 * 23 is composite, so the paper needs one; it is weakly regular.
    [key] = klein_classes(46)
    t = build_triangulation(46, klein_faces(key))
    assert surface_type(t).kind == "klein_bottle" and degree_profile(t)[1] == 6
    assert regularity_flags(t, automorphism_group(t))[0]


@pytest.mark.parametrize("n", CENSUS_NS)
def test_klein_classes_match_the_census(n):
    bottles = [build_triangulation(n, klein_faces(key)) for key in klein_classes(n)]
    assert_census_classes(n, "klein_bottle", bottles)


@pytest.mark.stretch
def test_weakly_regular_klein_bottles_are_the_q_band():
    # For 9 <= n <= 72: one weakly regular Klein bottle at each n = 2 mod 4,
    # n >= 10, namely Q_{n/2,2}, and none at any other n.
    for n in range(9, 73):
        codes = []
        for key in klein_classes(n):
            group = automorphism_group(build_triangulation(n, klein_faces(key)))
            if len(group.vertex_orbits) == 1:
                codes.append(group.canonical.code)
        if n % 4 == 2:
            q_band = construct_family(FamilySpec("Q", (n // 2, 2))).complex
            assert codes == [canonical_form(q_band).code], n
        else:
            assert codes == [], n


def test_group_orders_match_the_scan():
    # |Aut| and weak regularity from the normaliser of the deck group,
    # against the scan, for all 407 classes with 7 <= n <= 48.
    for n in range(7, 49):
        quotients = [(lat, quotient_faces(lat)) for lat in torus_classes(n)]
        quotients += [(key, klein_faces(key)) for key in klein_classes(n)]
        for key, faces in quotients:
            group = automorphism_group(build_triangulation(n, faces))
            assert group.order == aut_order(key), key
            assert (len(group.vertex_orbits) == 1) == weakly_regular(key), key


@pytest.mark.stretch
def test_weakly_regular_klein_bottles_by_the_formula():
    # The Q band of the scan-based test above, on the normaliser alone, no
    # complex built: for 9 <= n <= 160, one weakly regular Klein bottle at
    # each n = 2 mod 4 and none at any other n.
    for n in range(9, 161):
        count = sum(map(weakly_regular, klein_classes(n)))
        assert count == (n % 4 == 2), n


def flag_regular_lattices(n: int) -> list:
    """The regular maps {3,6}_(b,0) on n = b^2 vertices and {3,6}_(b,b) on
    n = 3b^2 (Coxeter & Moser 1957, Altshuler 1973), as sublattices: bT,
    and the lattice spanned by (3b, 0) and (2b, b)."""
    b, c = math.isqrt(n), math.isqrt(n // 3)
    return [(b, 0, b)] * (b * b == n) + [(3 * c, 2 * c, c)] * (3 * c * c == n)


def assert_flag_regular_keys(ns):
    # |Aut| = 12n, the number of flags, exactly at the regular torus maps;
    # no Klein bottle has it.
    for n in ns:
        keys = [key for key in torus_classes(n) + klein_classes(n) if aut_order(key) == 12 * n]
        assert keys == flag_regular_lattices(n), n


def test_flag_regular_maps_by_the_formula():
    assert_flag_regular_keys(range(7, 49))


@pytest.mark.stretch
def test_flag_regular_maps_by_the_formula_to_100():
    assert_flag_regular_keys(range(49, 101))


@pytest.mark.parametrize("n", CENSUS_NS)
def test_combinatorially_regular_classes_are_the_regular_maps(n):
    regular = {canonical_form(build_triangulation(n, quotient_faces(lat))).code
               for lat in flag_regular_lattices(n)}
    assert regular == {item.code for item in census_report(n).items
                       if item.combinatorially_regular}
