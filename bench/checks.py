"""Output checks that do not rely on the code under test.

Census counts come from the paper (n <= 15) and from the verified census run
recorded in ROADMAP.md (16 <= n <= 26).  Face lists are re-validated here with
a small independent degree-6 checker, and isomorphism certificates are applied
here rather than trusted.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Optional

Face = tuple[int, int, int]

# n -> (total, torus, klein_bottle)
CENSUS_COUNTS: dict[int, tuple[int, int, int]] = {
    7: (1, 1, 0), 8: (1, 1, 0), 9: (3, 2, 1), 10: (2, 1, 1), 11: (1, 1, 0),
    12: (7, 4, 3), 13: (2, 2, 0), 14: (3, 2, 1), 15: (7, 4, 3),
    16: (7, 5, 2), 17: (2, 2, 0), 18: (9, 5, 4), 19: (3, 3, 0), 20: (10, 6, 4),
    21: (9, 6, 3), 22: (5, 4, 1), 23: (3, 3, 0), 24: (18, 11, 7), 25: (7, 5, 2),
    26: (6, 5, 1),
}


class Checks:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def degree6_problem(n: int, faces: Iterable[Iterable[int]]) -> Optional[str]:
    """None if `faces` is a connected closed surface on vertices 0..n-1 in
    which every vertex has degree 6; otherwise a description of the defect."""
    tris = [tuple(sorted(f)) for f in faces]
    if len(tris) != 2 * n or len(set(tris)) != len(tris):
        return f"{len(tris)} faces (distinct: {len(set(tris))}), expected {2 * n}"
    links: list[dict[int, list[int]]] = [{} for _ in range(n)]
    edges: dict[tuple[int, int], int] = {}
    for f in tris:
        if len(f) != 3 or len(set(f)) != 3 or f[0] < 0 or f[2] >= n:
            return f"bad face {f}"
        a, b, c = f
        for e in ((a, b), (a, c), (b, c)):
            edges[e] = edges.get(e, 0) + 1
        for v, p, q in ((a, b, c), (b, a, c), (c, a, b)):
            links[v].setdefault(p, []).append(q)
            links[v].setdefault(q, []).append(p)
    if any(k != 2 for k in edges.values()):
        return "an edge does not lie in exactly two faces"
    for v, link in enumerate(links):
        if len(link) != 6 or any(len(ws) != 2 for ws in link.values()):
            return f"vertex {v} has degree {len(link)} or a broken link"
        start = next(iter(link))
        prev, cur, steps = start, link[start][0], 1
        while cur != start:
            w1, w2 = link[cur]
            prev, cur = cur, (w2 if w1 == prev else w1)
            steps += 1
        if steps != 6:
            return f"link of vertex {v} is not one 6-cycle"
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for w in links[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    if len(seen) != n:
        return "disconnected"
    return None


def orientable(faces: Iterable[Iterable[int]]) -> bool:
    """Whether the faces of a closed surface admit a coherent orientation."""
    tris = [tuple(f) for f in faces]
    by_edge: dict[frozenset, list[int]] = {}
    for i, (a, b, c) in enumerate(tris):
        for e in ((a, b), (b, c), (c, a)):
            by_edge.setdefault(frozenset(e), []).append(i)
    # orient[i] = +1 keeps (a, b, c) as given, -1 reverses it.
    orient = {0: 1}
    todo = [0]
    while todo:
        i = todo.pop()
        a, b, c = tris[i]
        for p, q in ((a, b), (b, c), (c, a)):
            if orient[i] < 0:
                p, q = q, p
            (j,) = [k for k in by_edge[frozenset((p, q))] if k != i]
            x, y, z = tris[j]
            # Coherent neighbours run the shared edge in opposite directions.
            want = -1 if (p, q) in ((x, y), (y, z), (z, x)) else 1
            if j in orient:
                if orient[j] != want:
                    return False
            else:
                orient[j] = want
                todo.append(j)
    return True


def check_census_output(checks: Checks, n: int, rc: int, stdout: str, stderr: str) -> None:
    """Gate one `classify --n N --json` result."""
    if not checks.expect(rc == 0 and not stderr, f"classify n={n}: exit {rc} {stderr.strip()}"):
        return
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        checks.expect(False, f"classify n={n}: bad JSON ({exc})")
        return
    items = report.get("items", [])
    got = (report.get("total"), report.get("torus"), report.get("klein_bottle"))
    checks.expect(report.get("n") == n and got == CENSUS_COUNTS[n] and len(items) == got[0],
                  f"classify n={n}: counts {got} with {len(items)} items, expected {CENSUS_COUNTS[n]}")
    kinds = [item.get("surface") for item in items]
    checks.expect(kinds.count("torus") == got[1] and kinds.count("klein_bottle") == got[2],
                  f"classify n={n}: item surfaces {kinds} disagree with the counts")
    for i, item in enumerate(items):
        faces = item.get("faces", [])
        problem = degree6_problem(n, faces)
        if problem is None and orientable(faces) != (item.get("surface") == "torus"):
            problem = f"orientability disagrees with surface {item.get('surface')}"
        if problem is None and item.get("surface") == "torus" and not item.get("weakly_regular"):
            problem = "torus not reported weakly regular"
        if problem is None and not item.get("families"):
            problem = "no named family matched"
        checks.expect(problem is None, f"classify n={n} item {i}: {problem}")


def apply_mapping(mapping: list[int], faces: Iterable[Face]) -> set[Face]:
    return {tuple(sorted(mapping[v] for v in f)) for f in faces}  # type: ignore[misc]


_SHAPE_PART = re.compile(r"^(\d*)(?:C_(\d+)|K_(\d+)|P_(\d+)|other\((\d+)v,\d+e\))$")


def shape_vertex_count(shape: str) -> Optional[int]:
    """Vertices covered by a printed graph shape such as `2C_12+null_3`."""
    total = 0
    for part in shape.split("+"):
        if part.startswith("null_"):
            total += int(part[5:])
            continue
        m = _SHAPE_PART.match(part)
        if not m:
            return None
        mult = int(m.group(1) or 1)
        total += mult * int(next(g for g in m.groups()[1:] if g))
    return total
