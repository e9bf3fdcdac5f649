"""The census's torus classes against the lattice quotients T/L."""

import pytest

from flatland import build_triangulation, canonical_form, surface_type
from tests.conftest import census_report
from tests.lattice_oracle import (
    NEAR,
    POINT_GROUP,
    hermite,
    quotient_faces,
    sublattices,
    torus_classes,
)

# Degree-6 tori on n = 7..36 vertices, up to isomorphism (ROADMAP item 1).
TORUS_COUNTS = dict(zip(range(7, 37), map(int, """
    1 1 2 1 1 4 2 2 4 5 2 5 3 6 6 4 3 11 5 5 7 9 4 11 5 11 8 7 8 16""".split())))


def test_oracle_setup():
    assert len(NEAR) == 18 and len(POINT_GROUP) == 12
    for lat in sublattices(12):  # other bases of one lattice, one form
        a, b, d = lat
        assert hermite((a, 0), (b, d)) == hermite((a + b, d), (-b, -d)) == lat
    assert hermite((2, 1), (-1, 3)) == (7, 2, 1)  # index 7, and (2, 1) has y = 1


def test_torus_counts():
    # Uses no flatland code.
    assert {n: len(torus_classes(n)) for n in TORUS_COUNTS} == TORUS_COUNTS


# The census runs for n >= 13 are `stretch`, as elsewhere.
@pytest.mark.parametrize("n", [n if n < 13 else pytest.param(n, marks=pytest.mark.stretch)
                               for n in range(7, 25)])
def test_torus_classes_match_the_census(n):
    tori = [build_triangulation(n, quotient_faces(lat)) for lat in torus_classes(n)]
    assert all(surface_type(t).kind == "torus" for t in tori)
    codes = {canonical_form(t).code for t in tori}
    assert len(codes) == len(tori)  # one point-group orbit per class
    assert codes == {item.code for item in census_report(n).items
                     if item.surface.kind == "torus"}
