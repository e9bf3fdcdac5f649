"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line into the terminal summary (see
conftest.pytest_terminal_summary).  Census criteria beyond 12 vertices are
marked `stretch`.
"""

import io
import math
import time
from contextlib import contextmanager

import pytest

from flatland import (
    FamilySpec,
    automorphism_group,
    canonical_form,
    classify_census,
    cli,
    construct_family,
    degree_profile,
    euler_characteristic,
    find_isomorphism,
    orientability,
    parse_name,
    regularity_flags,
)
from tests.conftest import (
    DOUBLE_PYRAMID,
    TETRAHEDRON,
    all_specs_up_to,
    brute_force_automorphisms,
    brute_force_isomorphism,
    census_report,
    fam,
    group_elements,
    shuffled,
    t1_valid_twists,
)
from flatland import build_triangulation

RESULTS: list[str] = []


@contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:2d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    RESULTS.append(f"criterion {num:2d} PASS  {title}  [{elapsed:.1f}s]")


FACE_COUNT = {
    "T1": lambda n, k: 2 * n,
    "T2": lambda n, k: 4 * n,
    "TM": lambda n, m, k: 2 * m * n,
    "B": lambda m, n: 2 * m * n,
    "K": lambda m, two_n: 2 * m * two_n,
    "Q": lambda q, n: 2 * q * n,
}


def test_criterion_1_family_validity_sweep():
    with criterion(1, "family validity sweep (all specs with <= 40 vertices)"):
        start = time.perf_counter()
        count = 0
        for spec in all_specs_up_to(40):
            t = construct_family(spec).complex
            assert t.n == spec.vertex_count
            assert t.f2 == FACE_COUNT[spec.tag](*spec.params)
            assert degree_profile(t)[1] == 6
            assert euler_characteristic(t) == 0
            assert orientability(t) == (spec.tag in ("T1", "T2", "TM"))
            count += 1
        assert count >= 200, f"only {count} specs swept"
        assert time.perf_counter() - start < 30


def _iso(x: str, y: str) -> bool:
    return find_isomorphism(fam(x), fam(y)).isomorphic


def _multiplier_is_iso(n: int, a: int, src: int, dst: int) -> bool:
    mapping = [(a * (v + 1) - 1) % n for v in range(n)]
    image = frozenset(
        tuple(sorted((mapping[x], mapping[y], mapping[z])))
        for x, y, z in fam(f"T({n},1,{src})").faces
    )
    return image == frozenset(fam(f"T({n},1,{dst})").faces)


def test_criterion_2_twist_isomorphism_fixtures():
    with criterion(2, "cyclic-twist isomorphism/non-isomorphism fixtures"):
        start = time.perf_counter()
        # (a) mirror twist gives the identical face set
        for n in range(7, 21):
            for k in t1_valid_twists(n):
                a = construct_family(FamilySpec("T1", (n, k))).complex
                b = construct_family(FamilySpec("T1", (n, n - k - 1))).complex
                assert a.faces == b.faces
        # (b) k=2 vs k=3 differ for n >= 12
        for n in range(12, 21):
            r = find_isomorphism(fam(f"T({n},1,2)"), fam(f"T({n},1,3)"))
            assert not r.isomorphic and r.distinguishing_invariant
        # (c) 2, 3, 4 pairwise distinct from n = 20 on (checked at 20..22)
        for n in (20, 21, 22):
            assert not _iso(f"T({n},1,2)", f"T({n},1,4)")
            assert not _iso(f"T({n},1,3)", f"T({n},1,4)")
        # (d)
        assert not _iso("T(12,1,2)", "T(12,1,4)")
        assert not _iso("T(12,1,3)", "T(12,1,4)")
        # (e) with explicit multiplier witnesses
        assert _multiplier_is_iso(13, 4, 2, 4) and _multiplier_is_iso(13, 7, 2, 5)
        assert _iso("T(13,1,2)", "T(13,1,4)") and _iso("T(13,1,2)", "T(13,1,5)")
        # (f)
        for j in (2, 3, 4, 5):
            for k in (2, 3, 4, 5):
                if j != k:
                    assert not _iso(f"T(15,1,{j})", f"T(15,1,{k})")
        # (g)
        assert _multiplier_is_iso(16, 3, 5, 2) and _multiplier_is_iso(16, 3, 4, 3)
        assert _iso("T(16,1,5)", "T(16,1,2)") and _iso("T(16,1,3)", "T(16,1,4)")
        assert not _iso("T(16,1,2)", "T(16,1,6)")
        assert not _iso("T(16,1,6)", "T(16,1,3)")
        # (h)
        for a, src, dst in ((14, 5, 2), (2, 7, 2), (13, 4, 3), (3, 6, 3)):
            assert _multiplier_is_iso(17, a, src, dst)
        assert _iso("T(17,1,5)", "T(17,1,7)") and _iso("T(17,1,4)", "T(17,1,6)")
        # (i) — corrected: i -> 11i (mod 18) is an explicit isomorphism from
        # T(18,1,4) to T(18,1,7), so only {2, 3, 4, 5} are pairwise distinct.
        assert _multiplier_is_iso(18, 5, 6, 5)
        assert _multiplier_is_iso(18, 11, 4, 7)
        ks = (2, 3, 4, 5)
        for j in ks:
            for k in ks:
                if j != k:
                    assert not _iso(f"T(18,1,{j})", f"T(18,1,{k})")
        for k in (2, 3, 5):
            assert not _iso(f"T(18,1,{k})", "T(18,1,7)")
        # (j)
        for a, src, dst in ((3, 5, 3), (15, 4, 3), (6, 2, 6), (9, 2, 8)):
            assert _multiplier_is_iso(19, a, src, dst)
        assert _iso("T(19,1,6)", "T(19,1,8)") and _iso("T(19,1,3)", "T(19,1,5)")
        assert not _iso("T(19,1,2)", "T(19,1,7)")
        assert not _iso("T(19,1,7)", "T(19,1,3)")
        # (k)
        assert _multiplier_is_iso(20, 3, 6, 2) and _multiplier_is_iso(20, 3, 7, 3)
        ks = (2, 3, 4, 5, 8)
        for j in ks:
            for k in ks:
                if j != k:
                    assert not _iso(f"T(20,1,{j})", f"T(20,1,{k})")
        assert time.perf_counter() - start < 60


def test_criterion_3_grid_to_cyclic_reductions():
    with criterion(3, "two-row and grid tori reduce to cyclic tori under gcd conditions"):
        start = time.perf_counter()
        cyclic_codes: dict[int, set] = {}

        def codes_for(n: int) -> set:
            if n not in cyclic_codes:
                cyclic_codes[n] = {
                    canonical_form(fam(f"T({n},1,{j})")).code for j in t1_valid_twists(n)
                }
            return cyclic_codes[n]

        for n in range(4, 13):
            for k in range(1, n - 2):
                if math.gcd(n, k) == 1 or math.gcd(n, k + 2) == 1:
                    code = canonical_form(fam(f"T({n},2,{k})")).code
                    assert code in codes_for(2 * n), f"T({n},2,{k})"
        for n in range(3, 6):
            for m in range(3, 6):
                for k in range(n):
                    if math.gcd(n, k) == 1 or math.gcd(n, k + m) == 1:
                        code = canonical_form(fam(f"T({n},{m},{k})")).code
                        assert code in codes_for(n * m), f"T({n},{m},{k})"
        assert _iso("T(8,2,4)", "T(8,2,2)")
        assert _iso("T(4,4,2)", "T(8,2,2)")
        for i in t1_valid_twists(12):
            assert not _iso("T(6,2,2)", f"T(12,1,{i})")
        for k in t1_valid_twists(16):
            assert not _iso("T(4,4,0)", f"T(16,1,{k})")
        for j in range(1, 6):
            assert not _iso("T(4,4,0)", f"T(8,2,{j})")
        assert time.perf_counter() - start < 60


def test_criterion_4_automorphism_orders():
    with criterion(4, "automorphism group orders"):
        start = time.perf_counter()
        for n in range(9, 16):
            assert automorphism_group(fam(f"T({n},1,2)")).order == 2 * n
        expected = {
            "T(12,1,3)": 24,
            "T(14,1,3)": 28,
            "T(15,1,5)": 30,
            "T(12,1,4)": 48,
            "T(15,1,3)": 60,
            "T(15,1,4)": 60,
            "T(7,1,2)": 42,
            "T(13,1,3)": 78,
        }
        for name, order in expected.items():
            assert automorphism_group(fam(name)).order == order, name
        assert time.perf_counter() - start < 60


def corpus():
    yield build_triangulation(*TETRAHEDRON)
    yield build_triangulation(*DOUBLE_PYRAMID)
    for name in (
        "T(7,1,2)", "T(8,1,2)", "T(9,1,2)", "T(3,3,0)", "T(6,2,2)",
        "T(12,1,4)", "B(3,3)", "B(3,4)", "K(3,4)", "Q(5,2)", "Q(5,3)",
    ):
        yield fam(name)
    for n in (7, 8, 9, 10):
        yield from (item.triangulation for item in census_report(n).items)


def test_criterion_5_flag_divisibility():
    with criterion(5, "|Aut| divides the flag count across the corpus"):
        for t in corpus():
            order = automorphism_group(t).order
            assert (6 * t.f2) % order == 0


def test_criterion_6_brute_force_oracle():
    with criterion(6, "brute-force permutation oracle agreement (n <= 9)"):
        start = time.perf_counter()
        bases = [
            build_triangulation(*TETRAHEDRON),
            build_triangulation(*DOUBLE_PYRAMID),
            fam("T(7,1,2)"),
            fam("T(4,2,1)"),
            fam("T(9,1,2)"),
            fam("T(3,3,0)"),
            fam("B(3,3)"),
        ]
        for t in bases:
            elements = group_elements(automorphism_group(t).generators, t.n)
            assert elements == brute_force_automorphisms(t)
        for seed in range(50):
            base = bases[seed % len(bases)]
            other = shuffled(base, seed)
            elements = group_elements(automorphism_group(other).generators, other.n)
            assert elements == brute_force_automorphisms(other)
            assert find_isomorphism(base, other).isomorphic
            assert brute_force_isomorphism(base, other) is not None
        # a non-isomorphic pair must agree with the exhaustive verdict too
        assert not find_isomorphism(fam("T(9,1,2)"), fam("B(3,3)")).isomorphic
        assert brute_force_isomorphism(fam("T(9,1,2)"), fam("B(3,3)")) is None
        assert time.perf_counter() - start < 600


CENSUS_SPLITS = {7: (1, 0), 8: (1, 0), 9: (2, 1), 10: (1, 1), 11: (1, 0), 12: (4, 3)}
STRETCH_SPLITS = {13: (2, 0), 14: (2, 1), 15: (4, 3)}


def test_criterion_7_census_counts():
    with criterion(7, "census counts for 7 <= n <= 12"):
        start = time.perf_counter()
        for n, (torus, klein) in CENSUS_SPLITS.items():
            report = classify_census(n, jobs=4)
            assert report.total == torus + klein, n
            assert (report.torus_count, report.klein_bottle_count) == (torus, klein), n
        assert time.perf_counter() - start < 900


@pytest.mark.stretch
def test_criterion_7_stretch_census_counts():
    with criterion(7, "stretch census counts for 13 <= n <= 15"):
        start = time.perf_counter()
        for n, (torus, klein) in STRETCH_SPLITS.items():
            report = classify_census(n, jobs=4, budget_seconds=7200)
            assert report.total == torus + klein, n
            assert (report.torus_count, report.klein_bottle_count) == (torus, klein), n
        assert time.perf_counter() - start < 7200


def test_criterion_8_torus_weak_regularity_and_klein_gaps():
    with criterion(8, "every census torus is weakly regular; Klein gaps at prime/small n"):
        for n in range(7, 13):
            report = classify_census(n, jobs=4)
            for item in report.items:
                if item.surface.kind == "torus":
                    assert item.weakly_regular, (n, item.matched_family_names)
            if n in (7, 8, 11):
                assert report.klein_bottle_count == 0, n
            else:
                assert report.klein_bottle_count >= 1, n


@pytest.mark.stretch
def test_criterion_8_stretch_klein_gaps():
    with criterion(8, "stretch: torus regularity and Klein gaps for 13 <= n <= 15"):
        for n in (13, 14, 15):
            report = classify_census(n, jobs=4, budget_seconds=7200)
            for item in report.items:
                if item.surface.kind == "torus":
                    assert item.weakly_regular, n
            if n == 13:
                assert report.klein_bottle_count == 0
            else:
                assert report.klein_bottle_count >= 1, n


WEAKLY_REGULAR_NAMES = (
    [f"T({n},1,2)" for n in range(7, 16)]
    + [f"T({n},1,3)" for n in range(12, 16)]
    + ["T(12,1,4)", "T(15,1,4)", "T(15,1,5)", "T(6,2,2)", "T(3,3,0)", "Q(5,2)", "Q(7,2)"]
)


@pytest.mark.stretch
def test_criterion_9_weakly_regular_census():
    with criterion(9, "exactly 20 weakly regular census items for 7 <= n <= 15"):
        found = set()
        total = 0
        for n in range(7, 16):
            for item in classify_census(n, jobs=4, budget_seconds=7200).items:
                if item.weakly_regular:
                    total += 1
                    found.add(item.code)
        assert total == 20
        expected = {canonical_form(fam(name)).code for name in WEAKLY_REGULAR_NAMES}
        assert found == expected


def _weakly_regular(name: str) -> bool:
    t = fam(name)
    return regularity_flags(t, automorphism_group(t))[0]


def test_criterion_10_klein_bottle_fixtures():
    with criterion(10, "Klein-bottle non-isomorphism and regularity fixtures"):
        start = time.perf_counter()
        for group in (("B(3,4)", "B(4,3)", "K(3,4)"), ("B(3,5)", "B(5,3)", "Q(5,3)")):
            for x in group:
                for y in group:
                    if x != y:
                        assert not _iso(x, y), (x, y)
                assert not _weakly_regular(x), x
        for m in (2, 3, 4, 5):
            assert _weakly_regular(f"Q({2 * m + 1},2)"), m
        for m in (2, 3):
            for n in (3, 4):
                assert not _weakly_regular(f"Q({2 * m + 1},{n})"), (m, n)
        assert time.perf_counter() - start < 60


def test_criterion_11_parallel_determinism():
    with criterion(11, "classify --n 12 is byte-identical across --jobs 1 and 8"):
        outputs = []
        for jobs in ("1", "8"):
            out = io.StringIO()
            code = cli.run(
                ["classify", "--n", "12", "--jobs", jobs, "--json"], out=out
            )
            assert code == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
