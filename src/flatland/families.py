"""Parametric triangulation families of the torus and the Klein bottle.

Torus families: T_{n,1,k} (cyclic), T_{n,2,k} (two cyclic rows), T_{n,m,k}
(an m x n grid with a k-twist).  Klein bottle families: B_{m,n}, K_{m,2n},
Q_{2m+1,n}.  Display labels (1-based, possibly double-subscripted) are
mapped to dense 0-based vertices at construction; the label table keeps the
original names for reports.

T_{n,1,k} and T_{n,2,k} have exactly the faces of the grid formula for
T_{n,m,k} with m = 1 and m = 2 (the rows u and v of T_{n,2,k} are grid rows
1 and 2), so one function builds all three; tags, ranges and labels differ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .surface import Triangulation, build_triangulation


class BadParameters(ValueError):
    """A family parameter violates its range constraint."""


_TAGS = ("T1", "T2", "TM", "B", "K", "Q")


@dataclass(frozen=True, order=True)
class FamilySpec:
    """A family tag plus its integer parameters.

    Tags: T1 -> T_{n,1,k}; T2 -> T_{n,2,k}; TM -> T_{n,m,k} with m >= 3;
    B -> B_{m,n}; K -> K_{m,2n}; Q -> Q_{2m+1,n}.
    """

    tag: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise BadParameters(f"unknown family tag {self.tag!r}")

    @property
    def written(self) -> tuple[int, ...]:
        """The parameters as the name prints them: T_{n,1,k} is (n, 1, k),
        T_{n,2,k} is (n, 2, k), and every other tag writes its params."""
        if self.tag in ("T1", "T2"):
            n, k = self.params
            return n, int(self.tag[1]), k
        return self.params

    @property
    def vertex_count(self) -> int:
        # n.m for T_{n,m,k}, m.n, m.2n and (2m+1).n for B, K and Q.
        return self.written[0] * self.written[1]

    @property
    def name(self) -> str:
        return f"{self.tag[0]}_{{{','.join(map(str, self.written))}}}"


def _from_written(letter: str, written: tuple[int, ...]) -> FamilySpec:
    """The spec named letter_{written}; for T the middle parameter picks
    T1, T2 or TM."""
    if letter != "T":
        return FamilySpec(letter, written)
    n, m, k = written
    return FamilySpec(f"T{m}", (n, k)) if m in (1, 2) else FamilySpec("TM", written)


# The most vertices a family member may have: T_{100000,1,3} takes seconds
# and a few hundred MB to build, and memory grows linearly beyond it.
MAX_FAMILY_VERTICES = 100_000


def validate(spec: FamilySpec) -> None:
    """Raise BadParameters unless the spec lies in its family's range: the
    one statement of the ranges, which also decides the catalog."""
    if spec.vertex_count > MAX_FAMILY_VERTICES:
        raise BadParameters(f"{spec.name} has more than {MAX_FAMILY_VERTICES} vertices")
    tag, p = spec.tag, spec.params
    if tag == "T1":
        n, k = p
        if n < 7:
            raise BadParameters(f"T_{{n,1,k}} needs n >= 7, got n={n}")
        # 2..floor((n-3)/2) or ceil((n+1)/2)..n-3: the middle band, where
        # the face formula degenerates, is excluded.
        ranges = ((2, (n - 3) // 2), ((n + 2) // 2, n - 3))
        if not any(lo <= k <= hi for lo, hi in ranges):
            allowed = " or ".join(f"{lo}..{hi}" for lo, hi in ranges)
            raise BadParameters(f"T_{{{n},1,k}} needs k in {allowed}, got k={k}")
    elif tag == "T2":
        n, k = p
        if n < 4:
            raise BadParameters(f"T_{{n,2,k}} needs n >= 4, got n={n}")
        if not 1 <= k <= n - 3:
            raise BadParameters(f"T_{{{n},2,k}} needs 1 <= k <= {n - 3}, got k={k}")
    elif tag == "TM":
        n, m, k = p
        if n < 3 or m < 3:
            raise BadParameters(f"T_{{n,m,k}} needs n, m >= 3, got n={n}, m={m}")
        if not 0 <= k <= n - 1:
            raise BadParameters(f"T_{{{n},{m},k}} needs 0 <= k <= {n - 1}, got k={k}")
    elif tag == "B":
        m, n = p
        if m < 3 or n < 3:
            raise BadParameters(f"B_{{m,n}} needs m, n >= 3, got m={m}, n={n}")
    elif tag == "K":
        m, two_n = p
        if m < 3:
            raise BadParameters(f"K_{{m,2n}} needs m >= 3, got m={m}")
        if two_n < 4 or two_n % 2 != 0:
            raise BadParameters(
                f"K_{{m,2n}} needs an even second parameter >= 4, got {two_n}"
            )
    elif tag == "Q":
        q, n = p
        if q < 5 or q % 2 != 1:
            raise BadParameters(f"Q_{{2m+1,n}} needs an odd first parameter >= 5, got {q}")
        if n < 2:
            raise BadParameters(f"Q_{{2m+1,n}} needs n >= 2, got n={n}")


@dataclass(frozen=True)
class NamedTriangulation:
    """A constructed family member with its display labels."""

    spec: FamilySpec
    complex: Triangulation
    label_table: tuple[str, ...]  # internal vertex -> display label

    @property
    def name(self) -> str:
        return self.spec.name


def _tm_faces(n: int, m: int, k: int) -> list[tuple[int, int, int]]:
    def u(i: int, j: int) -> int:
        return i * n + j % n

    faces = []
    for i in range(m - 1):
        for j in range(n):
            faces.append((u(i, j), u(i, j + 1), u(i + 1, j + 1)))
            faces.append((u(i, j), u(i + 1, j), u(i + 1, j + 1)))
    for j in range(n):
        faces.append((u(m - 1, j), u(m - 1, j + 1), u(0, j + k + 1)))
        faces.append((u(m - 1, j), u(0, j + k), u(0, j + k + 1)))
    return faces


def _b_faces(m: int, n: int) -> list[tuple[int, int, int]]:
    # Rows are indexed mod n (the first subscript), columns 0..m-1.
    def v(i: int, j: int) -> int:
        return (i % n) * m + j

    faces = []
    for i in range(n):
        for j in range(m - 1):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    for i in range(n):
        faces.append((v(i, m - 1), v(n - i, 0), v(n - 1 - i, 0)))
        faces.append((v(i, m - 1), v(i + 1, m - 1), v(n - 1 - i, 0)))
    return faces


def _k_faces(m: int, two_n: int) -> list[tuple[int, int, int]]:
    n = two_n // 2

    def v(i: int, j: int) -> int:
        return (i % two_n) * m + j

    faces = []
    for i in range(n):
        for j in range(m - 1):
            faces.append((v(i, j), v(i, j + 1), v(i + 1, j)))
            faces.append((v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)))
    for i in range(n):
        faces.append((v(i, m - 1), v(i + 1, m - 1), v(two_n - i, 0)))
        faces.append((v(i + 1, m - 1), v(two_n - i, 0), v(two_n - 1 - i, 0)))
    for i in range(n, two_n):
        for j in range(m - 1):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    for i in range(n, two_n):
        faces.append((v(i, m - 1), v(i + 1, m - 1), v(two_n - 1 - i, 0)))
        faces.append((v(i, m - 1), v(two_n - i, 0), v(two_n - 1 - i, 0)))
    return faces


def _q_band_faces(q: int) -> list[tuple[int, int, int]]:
    # Q_{2m+1,2} on a single cyclic label set 1..4m+2.
    nv = 2 * (q - 1) + 2  # 4m + 2
    m = (q - 1) // 2
    faces = []
    for i in range(nv):
        faces.append((i, (i + 1) % nv, (i + 2) % nv))
        faces.append((i, (i + 2) % nv, (i + 2 * m + 2) % nv))
    return faces


def q_grid_faces(m: int, n: int) -> list[tuple[int, int, int]]:
    """The general Q_{2m+1,n} face list over a (u, v) vertex grid.

    Exposed separately so the n=2 case can be cross-checked against the
    cyclic band construction.
    """

    def u(i: int, j: int) -> int:  # i in 0..m, j mod n
        return i * n + j % n

    def v(i: int, j: int) -> int:  # i in 0..m-1, j mod n
        return (m + 1) * n + i * n + j % n

    faces = []
    for i in range(m):
        for j in range(n):
            faces.append((u(i, j), u(i + 1, j), v(i, j)))
            faces.append((u(i, j + 1), u(i + 1, j + 1), v(i, j)))
    for i in range(m - 1):
        for j in range(n):
            faces.append((v(i, j), v(i + 1, j), u(i + 1, j)))
            faces.append((v(i, j), v(i + 1, j), u(i + 1, j + 1)))
    for j in range(n):
        # Subscripts: u_{m+1,j}, u_{1,n+2-j}, v_{1,n+2-j}, v_{1,n+1-j}, v_{m,j}.
        faces.append((u(m, j), u(0, n - j), v(0, n - j)))
        faces.append((u(m, j + 1), u(0, n - j), v(0, n - 1 - j)))
        faces.append((u(m, j), u(0, n - j), v(m - 1, j)))
        faces.append((u(m, j + 1), u(0, n - j), v(m - 1, j)))
    return faces


def _grid(letter: str, rows: int, cols: int) -> tuple[str, ...]:
    return tuple(f"{letter}_{{{i + 1},{j + 1}}}" for i in range(rows) for j in range(cols))


def _labels(spec: FamilySpec) -> tuple[str, ...]:
    tag, p = spec.tag, spec.params
    if tag == "T1" or (tag == "Q" and p[1] == 2):  # one cyclic label set
        return tuple(str(i + 1) for i in range(spec.vertex_count))
    if tag == "T2":
        return tuple(f"{row}_{i + 1}" for row in "uv" for i in range(p[0]))
    if tag == "TM":
        n, m, _ = p
        return _grid("u", m, n)
    if tag in ("B", "K"):
        return _grid("v", p[1], p[0])  # rows n or 2n, columns m
    m, n = (p[0] - 1) // 2, p[1]
    return _grid("u", m + 1, n) + _grid("v", m, n)


def construct_family(spec: FamilySpec) -> NamedTriangulation:
    """Build a family member from its defining face formula."""
    validate(spec)
    tag, p = spec.tag, spec.params
    if tag[0] == "T":
        faces = _tm_faces(*spec.written)
    elif tag == "B":
        faces = _b_faces(*p)
    elif tag == "K":
        faces = _k_faces(*p)
    else:
        q, n = p
        faces = _q_band_faces(q) if n == 2 else q_grid_faces((q - 1) // 2, n)
    complex_ = build_triangulation(spec.vertex_count, faces)
    return NamedTriangulation(spec, complex_, _labels(spec))


# L(p,...) or L_{p,...}, once all whitespace is removed; no leading zeros.
_PARAMS = r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*"
_NAME_RE = re.compile(rf"([TBKQ])(?:\(({_PARAMS})\)|_\{{({_PARAMS})\}})")


def parse_name(text: str) -> FamilySpec:
    """Parse a family name as it prints, T_{12,1,3}, or in the CLI spelling
    T(12,1,3); whitespace is ignored."""
    m = _NAME_RE.fullmatch("".join(text.split()))
    if not m:
        raise BadParameters(f"cannot parse family name {text!r}")
    letter, params = m.group(1), (m.group(2) or m.group(3)).split(",")
    if max(map(len, params)) > 20:  # an in-range one has at most 6; don't echo it
        raise BadParameters(f"a {letter} family parameter has more than 20 digits; "
                            f"members have at most {MAX_FAMILY_VERTICES} vertices")
    written = tuple(map(int, params))
    if letter == "T" and len(written) != 3:
        raise BadParameters(f"T families need three parameters: {text!r}")
    if letter != "T" and len(written) != 2:
        raise BadParameters(f"{letter} families take two parameters: {text!r}")
    return _from_written(letter, written)


def known_catalog(n: int) -> list[NamedTriangulation]:
    """Every in-range family spec on exactly n vertices, constructed, in
    spec order: of T_{n/m,m,k} for every k < n/m and B, K and Q (m, n/m),
    for each divisor m of n, those that `construct_family` accepts.

    May contain isomorphic duplicates (e.g. T_{n,1,k} vs T_{n,1,n-k-1}).
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if n > MAX_FAMILY_VERTICES:  # every member would fail `validate`
        raise BadParameters(f"family members have at most {MAX_FAMILY_VERTICES} vertices, not {n}")
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    candidates = [_from_written("T", (n // m, m, k)) for m in divisors for k in range(n // m)]
    candidates += [FamilySpec(tag, (m, n // m)) for m in divisors for tag in ("B", "K", "Q")]
    catalog = []
    for spec in sorted(candidates):
        try:
            catalog.append(construct_family(spec))
        except BadParameters:
            continue
    return catalog
