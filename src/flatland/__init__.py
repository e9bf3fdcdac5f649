"""Degree-regular triangulations of the torus and the Klein bottle.

Construction of the parametric families, validation of simplicial surfaces,
common-neighbor graph invariants, canonical forms with certified isomorphism
testing and automorphism groups, and an exhaustive census of degree-6
triangulations for small vertex counts.
"""

from .census import (
    CensusItem,
    CensusReport,
    ResourceLimit,
    classify_census,
)
from .families import (
    BadParameters,
    FamilySpec,
    NamedTriangulation,
    construct_family,
    known_catalog,
    parse_name,
)
from .graphs import (
    GraphShape,
    SimpleGraph,
    common_neighbor_graph,
    graph_shape,
)
from .surface import (
    Disconnected,
    KLEIN_BOTTLE,
    ManifoldReport,
    NotAManifold,
    SPHERE,
    SurfaceType,
    TORUS,
    Triangulation,
    build_triangulation,
    degree_profile,
    euler_characteristic,
    manifold_report,
    orientability,
    skeleton_graph,
    surface_type,
)
from .symmetry import (
    CanonicalForm,
    IsomorphismResult,
    SymmetryGroup,
    automorphism_group,
    canonical_form,
    find_isomorphism,
    regularity_flags,
)
from .tri_io import (
    TriFormatError,
    format_tri,
    from_json,
    parse_tri,
    read_tri,
    to_json_dict,
    write_tri,
)

__all__ = [
    "BadParameters",
    "CanonicalForm",
    "CensusItem",
    "CensusReport",
    "Disconnected",
    "FamilySpec",
    "GraphShape",
    "IsomorphismResult",
    "KLEIN_BOTTLE",
    "ManifoldReport",
    "NamedTriangulation",
    "NotAManifold",
    "ResourceLimit",
    "SPHERE",
    "SimpleGraph",
    "SurfaceType",
    "SymmetryGroup",
    "TORUS",
    "TriFormatError",
    "Triangulation",
    "automorphism_group",
    "build_triangulation",
    "canonical_form",
    "classify_census",
    "common_neighbor_graph",
    "construct_family",
    "degree_profile",
    "euler_characteristic",
    "find_isomorphism",
    "format_tri",
    "from_json",
    "graph_shape",
    "known_catalog",
    "manifold_report",
    "orientability",
    "parse_name",
    "parse_tri",
    "read_tri",
    "regularity_flags",
    "skeleton_graph",
    "surface_type",
    "to_json_dict",
    "write_tri",
]
