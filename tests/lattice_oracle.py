"""The degree-6 torus triangulations as lattice quotients: an oracle for the
census that shares no code with its search.

Every degree-6 triangulation of the torus is T/L, where T is the triangular
lattice and L is a sublattice of index n with no nonzero vector within graph
distance 2 of the origin; two of them are isomorphic iff their sublattices
lie in one orbit of the 12-element point group of T (Altshuler, Discrete
Math. 4, 1973; Negami, Discrete Math. 44, 1983).

T is Z^2 with neighbours ±(1, 0), ±(0, 1) and ±(1, 1), so its graph
distance is max(|x|, |y|) when x and y have the same sign and |x| + |y|
otherwise, and its triangles are {v, v + (1, 0), v + (1, 1)} and
{v, v + (0, 1), v + (1, 1)}.  A sublattice is written in Hermite normal
form (a, b, d): the basis (a, 0), (b, d) with ad = n and 0 <= b < a.
Membership in L is exact, so the 18 nonzero points within distance 2 are
checked with no search window.  Standard library only.
"""

from __future__ import annotations

Lattice = tuple[int, int, int]  # Hermite normal form (a, b, d)
Matrix = tuple[tuple[int, int], tuple[int, int]]


def hex_distance(x: int, y: int) -> int:
    return max(abs(x), abs(y)) if x * y >= 0 else abs(x) + abs(y)


# A point within distance 2 has |x|, |y| <= 2.
NEAR = tuple((x, y) for x in range(-2, 3) for y in range(-2, 3) if 0 < hex_distance(x, y) <= 2)


def _closure(generators: list[Matrix]) -> tuple[Matrix, ...]:
    group = {((1, 0), (0, 1))}
    frontier = list(group)
    while frontier:
        m = frontier.pop()
        for g in generators:
            prod = tuple(tuple(sum(g[i][k] * m[k][j] for k in range(2)) for j in range(2))
                         for i in range(2))
            if prod not in group:
                group.add(prod)
                frontier.append(prod)
    return tuple(sorted(group))


# Generated by the rotation (x, y) -> (x - y, x) and the reflection
# (x, y) -> (y, x), both of which preserve the neighbours.
POINT_GROUP = _closure([((1, -1), (1, 0)), ((0, 1), (1, 0))])


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, p, q) with p*a + q*b = g = gcd(a, b) >= 0."""
    if b == 0:
        return abs(a), 1 if a >= 0 else -1, 0
    g, p, q = _egcd(b, a % b)
    return g, q, p - (a // b) * q


def hermite(u: tuple[int, int], v: tuple[int, int]) -> Lattice:
    """The Hermite normal form of the lattice spanned by u and v (full rank):
    d generates its projection to the y axis, (a, 0) its kernel, and (b, d)
    lies in it."""
    (x1, y1), (x2, y2) = u, v
    d, p, q = _egcd(y1, y2)
    a = abs(x1 * y2 - x2 * y1) // d
    return a, (p * x1 + q * x2) % a, d


def sublattices(n: int) -> list[Lattice]:
    """Every sublattice of index n."""
    return [(a, b, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(a)]


def contains(lattice: Lattice, x: int, y: int) -> bool:
    a, b, d = lattice
    return y % d == 0 and (x - y // d * b) % a == 0


def admissible(lattice: Lattice) -> bool:
    """Whether T/L is a degree-6 triangulation: no nonzero vector of L lies
    within distance 2."""
    return not any(contains(lattice, x, y) for x, y in NEAR)


def image(m: Matrix, lattice: Lattice) -> Lattice:
    a, b, d = lattice
    (p, q), (r, s) = m
    return hermite((p * a, r * a), (p * b + q * d, r * b + s * d))


def torus_classes(n: int) -> list[Lattice]:
    """One sublattice per isomorphism class of degree-6 tori on n vertices:
    the least Hermite normal form of each admissible point-group orbit."""
    return sorted({min(image(m, lat) for m in POINT_GROUP)
                   for lat in sublattices(n) if admissible(lat)})


def quotient_faces(lattice: Lattice) -> list[tuple[int, int, int]]:
    """The 2n triangles of T/L on the vertices 0..n-1; (x, y) with
    0 <= x < a and 0 <= y < d is vertex y*a + x."""
    a, b, d = lattice

    def vertex(x: int, y: int) -> int:
        j, y0 = divmod(y, d)
        return y0 * a + (x - j * b) % a

    faces = []
    for y in range(d):
        for x in range(a):
            for (x1, y1), (x2, y2) in (((1, 0), (1, 1)), ((0, 1), (1, 1))):
                faces.append(tuple(sorted((vertex(x, y), vertex(x + x1, y + y1),
                                           vertex(x + x2, y + y2)))))
    return faces
