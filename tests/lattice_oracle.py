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
checked with no search window.

Every degree-6 triangulation of the Klein bottle is T/G, where the group G
is L and its coset gL, L is a sublattice of index 2n whose T/L is a
degree-6 torus, and g is the glide v -> sv + t with s one of the 6 reflections of the point group,
sL = L and st + t in L.  Let M = (s - I)Z^2.  The glides of G move v to
sv + t' with t' in t + L, a move of hex length |(s - I)v + t'|, so every
vertex moves by at least 3 iff the coset t + M + L misses the 19 points
within distance 2 of the origin.  Conjugating G by a translation moves t
by M, so t matters only modulo M + L, and two quotients are isomorphic iff
their keys (L, s, t mod M + L) lie in one orbit of the point group, which
acts as r.(L, s, t) = (rL, rsr^-1, rt).  Standard library only.
"""

from __future__ import annotations

import functools

Lattice = tuple[int, int, int]  # Hermite normal form (a, b, d)
Matrix = tuple[tuple[int, int], tuple[int, int]]
Point = tuple[int, int]
KleinKey = tuple[Lattice, Matrix, Point]  # (L, s, t mod M + L)


def hex_distance(x: int, y: int) -> int:
    return max(abs(x), abs(y)) if x * y >= 0 else abs(x) + abs(y)


# A point within distance 2 has |x|, |y| <= 2.
NEAR = tuple((x, y) for x in range(-2, 3) for y in range(-2, 3) if 0 < hex_distance(x, y) <= 2)
BALL = ((0, 0),) + NEAR  # the 19 points within distance 2 of the origin


def apply(m: Matrix, v: Point) -> Point:
    (p, q), (r, s) = m
    return p * v[0] + q * v[1], r * v[0] + s * v[1]


def _product(m: Matrix, k: Matrix) -> Matrix:
    return tuple(tuple(sum(m[i][j] * k[j][c] for j in range(2)) for c in range(2))
                 for i in range(2))


def _closure(generators: list[Matrix]) -> tuple[Matrix, ...]:
    group = {((1, 0), (0, 1))}
    frontier = list(group)
    while frontier:
        m = frontier.pop()
        for g in generators:
            prod = _product(g, m)
            if prod not in group:
                group.add(prod)
                frontier.append(prod)
    return tuple(sorted(group))


# Generated by the rotation (x, y) -> (x - y, x) and the reflection
# (x, y) -> (y, x), both of which preserve the neighbours.
POINT_GROUP = _closure([((1, -1), (1, 0)), ((0, 1), (1, 0))])
REFLECTIONS = tuple(m for m in POINT_GROUP if m[0][0] * m[1][1] - m[0][1] * m[1][0] == -1)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, p, q) with p*a + q*b = g = gcd(a, b) >= 0."""
    if b == 0:
        return abs(a), 1 if a >= 0 else -1, 0
    g, p, q = _egcd(b, a % b)
    return g, q, p - (a // b) * q


def hermite(*vectors: Point) -> Lattice:
    """The Hermite normal form of the lattice spanned by the vectors (full
    rank): d generates its projection to the y axis, (a, 0) its kernel, and
    (b, d) lies in it.  Each vector is merged into (b, d) by the extended
    gcd of the y entries, and the kernel vector that the merge leaves
    joins a."""
    a, b, d = 0, 0, 0
    for x, y in vectors:
        g, p, q = _egcd(d, y)
        if g == 0:  # both y entries are 0
            a = _egcd(a, x)[0]
            continue
        a = _egcd(a, (y // g) * b - (d // g) * x)[0]
        b, d = p * b + q * x, g
    return a, b % a, d


def sublattices(n: int) -> list[Lattice]:
    """Every sublattice of index n."""
    return [(a, b, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(a)]


def reduce(lattice: Lattice, x: int, y: int) -> Point:
    """The representative of (x, y) modulo L with 0 <= x < a, 0 <= y < d."""
    a, b, d = lattice
    j, y0 = divmod(y, d)
    return (x - j * b) % a, y0


def contains(lattice: Lattice, x: int, y: int) -> bool:
    return reduce(lattice, x, y) == (0, 0)


def admissible(lattice: Lattice) -> bool:
    """Whether T/L is a degree-6 triangulation: no nonzero vector of L lies
    within distance 2."""
    return not any(contains(lattice, x, y) for x, y in NEAR)


@functools.cache
def _admissible_sublattices(n: int) -> tuple[Lattice, ...]:
    """The admissible sublattices of index n, listed once: the class lists
    and the class counts read the same ones."""
    return tuple(lat for lat in sublattices(n) if admissible(lat))


def image(m: Matrix, lattice: Lattice) -> Lattice:
    a, b, d = lattice
    (p, q), (r, s) = m
    return hermite((p * a, r * a), (p * b + q * d, r * b + s * d))


def torus_classes(n: int) -> list[Lattice]:
    """One sublattice per isomorphism class of degree-6 tori on n vertices:
    the least Hermite normal form of each admissible point-group orbit."""
    return sorted({min(image(m, lat) for m in POINT_GROUP) for lat in _admissible_sublattices(n)})


def torus_class_count(n: int) -> int:
    """The number of torus classes on n vertices by Burnside's lemma: the
    mean over the point group of the number of admissible sublattices that
    each element fixes.  No orbit minima."""
    return _orbit_count(sum(image(r, lat) == lat for r in POINT_GROUP
                            for lat in _admissible_sublattices(n)))


def _orbit_count(fixed: int) -> int:
    """Burnside's mean: the fixed points summed over the point group, over
    its order, which must divide them."""
    count, rest = divmod(fixed, len(POINT_GROUP))
    assert rest == 0, fixed
    return count


def quotient_faces(lattice: Lattice) -> list[tuple[int, int, int]]:
    """The 2n triangles of T/L on the vertices 0..n-1; (x, y) with
    0 <= x < a and 0 <= y < d is vertex y*a + x."""
    a, b, d = lattice

    def vertex(x: int, y: int) -> int:
        x0, y0 = reduce(lattice, x, y)
        return y0 * a + x0

    faces = []
    for y in range(d):
        for x in range(a):
            for (x1, y1), (x2, y2) in (((1, 0), (1, 1)), ((0, 1), (1, 1))):
                faces.append(tuple(sorted((vertex(x, y), vertex(x + x1, y + y1),
                                           vertex(x + x2, y + y2)))))
    return faces


def _glide_lattice(s: Matrix, lattice: Lattice) -> Lattice:
    """M + L, where M = (s - I)Z^2 is spanned by the columns of s - I."""
    a, b, d = lattice
    (p, q), (r, u) = s
    return hermite((a, 0), (b, d), (p - 1, r), (q, u - 1))


def _key(r: Matrix, lattice: Lattice, s: Matrix, t: Point) -> KleinKey:
    """The key of the conjugate by r of the group with key (L, s, t)."""
    (p, q), (x, y) = r
    det = p * y - q * x
    r_inverse = ((det * y, -det * q), (-det * x, det * p))
    lat, sigma = image(r, lattice), _product(_product(r, s), r_inverse)
    return lat, sigma, reduce(_glide_lattice(sigma, lat), *apply(r, t))


@functools.cache
def _klein_keys(n: int) -> tuple[KleinKey, ...]:
    """Every valid key (L, s, t mod M + L) of a Klein bottle on n vertices,
    with t reduced modulo M + L, listed once."""
    keys = []
    for lat in _admissible_sublattices(2 * n):
        for s in REFLECTIONS:
            if image(s, lat) != lat:
                continue
            ml = _glide_lattice(s, lat)  # t matters modulo M + L
            for t in ((x, y) for x in range(ml[0]) for y in range(ml[2])):
                sx, sy = apply(s, t)
                if contains(lat, sx + t[0], sy + t[1]) and not any(
                        contains(ml, x - t[0], y - t[1]) for x, y in BALL):
                    keys.append((lat, s, t))
    return tuple(keys)


def klein_classes(n: int) -> list[KleinKey]:
    """One key per isomorphism class of degree-6 Klein bottles on n
    vertices: the least key of each point-group orbit."""
    return sorted({min(_key(r, *key) for r in POINT_GROUP) for key in _klein_keys(n)})


def klein_class_count(n: int) -> int:
    """The number of Klein bottle classes on n vertices by Burnside's lemma,
    over the valid keys as `torus_class_count` is over the sublattices."""
    return _orbit_count(sum(_key(r, *key) == key for key in _klein_keys(n) for r in POINT_GROUP))


def klein_faces(key: KleinKey) -> list[tuple[int, int, int]]:
    """The 2n triangles of T/G on the vertices 0..n-1: the faces of T/L with
    each vertex v and its image gv under the glide merged, numbered in the
    order of the lesser vertex of T/L."""
    lat, s, t = key
    a = lat[0]

    def glide(v: int) -> int:
        x, y = apply(s, (v % a, v // a))
        x0, y0 = reduce(lat, x + t[0], y + t[1])
        return y0 * a + x0

    pair = [min(v, glide(v)) for v in range(a * lat[2])]
    label = {v: i for i, v in enumerate(sorted(set(pair)))}
    return sorted({tuple(sorted(label[pair[v]] for v in face)) for face in quotient_faces(lat)})


def _normaliser(key: Lattice | KleinKey) -> list[tuple[Matrix, Point]]:
    """The normaliser N of the deck group G in the automorphisms of T, the
    maps x -> Rx + u with R in the point group, as the pairs (R, u mod L).
    For a torus G = L, and N is every pair with RL = L.  For a Klein bottle,
    conjugating the glide x -> sx + t by x -> Rx + u gives
    x -> RsR^-1 x + (I - RsR^-1)u + Rt, which lies in G iff Rs = sR and
    (I - s)u = (I - R)t mod L, besides RL = L."""
    torus = isinstance(key[0], int)
    lat = key if torus else key[0]
    points = [(x, y) for x in range(lat[0]) for y in range(lat[2])]  # Z^2 / L
    pairs = []
    for r in POINT_GROUP:
        if image(r, lat) != lat:
            continue
        if torus:
            pairs.extend((r, u) for u in points)
            continue
        _, s, t = key
        if _product(r, s) != _product(s, r):
            continue
        rx, ry = apply(r, t)
        for u in points:
            sx, sy = apply(s, u)
            if contains(lat, u[0] - sx - t[0] + rx, u[1] - sy - t[1] + ry):
                pairs.append((r, u))
    return pairs


def aut_order(key: Lattice | KleinKey) -> int:
    """|Aut(T/G)| = |N/G|: every automorphism of T/G lifts to an element of
    N, and G/L has order 1 (torus) or 2 (Klein bottle)."""
    return len(_normaliser(key)) // (1 if isinstance(key[0], int) else 2)


def weakly_regular(key: Lattice | KleinKey) -> bool:
    """Whether Aut(T/G) is transitive on the vertices: N moves the origin
    to every point of Z^2, that is, its u cover Z^2 / L.  Always so for a
    torus, by the translations."""
    lat = key if isinstance(key[0], int) else key[0]
    return len({u for _, u in _normaliser(key)}) == lat[0] * lat[2]
