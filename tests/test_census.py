import math
import sys
import types

import pytest

from flatland import (
    ResourceLimit,
    census,
    classify_census,
    degree_profile,
    enumerate_degree_regular,
    euler_characteristic,
)
from tests.conftest import reference_branch_faces, reference_target_vertex

EXPECTED_SPLITS = {7: (1, 0), 8: (1, 0), 9: (2, 1), 10: (1, 1), 11: (1, 0), 12: (4, 3)}


def test_small_n_empty():
    for n in range(1, 7):
        assert enumerate_degree_regular(n) == []


@pytest.mark.parametrize("n", sorted(EXPECTED_SPLITS))
def test_counts_and_splits(n):
    report = classify_census(n)
    torus, klein = EXPECTED_SPLITS[n]
    assert report.total == torus + klein
    assert (report.torus_count, report.klein_bottle_count) == (torus, klein)


def test_items_are_valid_degree_six_and_distinct():
    report = classify_census(9)
    codes = {item.code for item in report.items}
    assert len(codes) == report.total
    for item in report.items:
        assert degree_profile(item.triangulation)[1] == 6
        assert euler_characteristic(item.triangulation) == 0


def test_every_item_matches_the_catalog():
    for n in (7, 8, 9, 10):
        for item in classify_census(n).items:
            assert item.matched_family_names


def test_catalog_canonicalised_once_per_distinct_complex(monkeypatch):
    # At n = 12 the 19 catalog members are 16 complexes: T_{12,1,k} and
    # T_{12,1,11-k} share a face list for k = 2, 3, 4.
    catalog, scanned = census.known_catalog(12), []
    monkeypatch.setattr(census, "known_catalog", lambda n: catalog)
    canonical = census.canonical_form
    monkeypatch.setattr(census, "canonical_form", lambda t: scanned.append(t) or canonical(t))
    report = classify_census(12)
    members = {id(named.complex) for named in catalog}
    assert (len(catalog), sum(id(t) in members for t in scanned)) == (19, 16)
    order = [named.name for named in catalog]
    names = [name for item in report.items for name in item.matched_family_names]
    assert sorted(names) == sorted(order)  # every member names its class once
    for item in report.items:
        assert list(item.matched_family_names) == sorted(item.matched_family_names, key=order.index)


def test_classification_n9():
    report = classify_census(9)
    matched = {name for item in report.items for name in item.matched_family_names}
    assert {"T_{9,1,2}", "T_{3,3,0}", "B_{3,3}"} <= matched


def test_torus_items_weakly_regular():
    for n in (7, 8, 9, 10, 11, 12):
        for item in classify_census(n).items:
            if item.surface.kind == "torus":
                assert item.weakly_regular


def test_parallel_matches_serial():
    serial = enumerate_degree_regular(10, jobs=1)
    parallel = enumerate_degree_regular(10, jobs=4)
    assert [t.faces for t in serial] == [t.faces for t in parallel]


def test_time_budget_raises():
    with pytest.raises(ResourceLimit):
        enumerate_degree_regular(12, budget_seconds=0.0)


def test_time_budget_checked_in_small_subtrees():
    # At n = 9 every frontier state has fewer than _CHECK_EVERY nodes.
    with pytest.raises(ResourceLimit):
        enumerate_degree_regular(9, budget_seconds=0.0)


def test_time_budget_checked_when_the_frontier_is_the_whole_tree():
    # At n = 7 the frontier completes the search and leaves no state.
    assert census._frontier(7, 8)[0] == []
    with pytest.raises(ResourceLimit, match="time budget"):
        enumerate_degree_regular(7, budget_seconds=0.0)


def test_time_budget_checked_at_the_root_of_each_state(monkeypatch):
    # A clock that advances one second per reading: the deadline (t = 0.5)
    # passes the check after the frontier (t = 0) and expires at the root
    # of the first state (t = 1), before any task has finished.
    ticks = iter(range(-1, 10**6))
    monkeypatch.setattr(census, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(ResourceLimit) as stop:
        enumerate_degree_regular(9, budget_seconds=1.5)
    assert str(stop.value) == "census search exceeded its time budget (0 nodes, 0/9 states done)"


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def slowed(monkeypatch, clock, name):
    """Make `census.<name>` move the clock 100 s forward on every call."""
    real = getattr(census, name)

    def slow(*args):
        clock.now += 100
        return real(*args)

    monkeypatch.setattr(census, name, slow)


@pytest.mark.parametrize("slow,progress", [
    ("known_catalog", "0/3 classes done"),  # seen at the first catalog member
    ("automorphism_group", "1/3 classes done"),  # seen before the second
])
def test_time_budget_checked_after_the_search(monkeypatch, slow, progress):
    clock = FakeClock()
    monkeypatch.setattr(census, "time", clock)
    slowed(monkeypatch, clock, slow)
    canonical, seen = census.canonical_form, []  # the clock at each canonical form
    monkeypatch.setattr(census, "canonical_form", lambda t: seen.append(clock.now) or canonical(t))
    with pytest.raises(ResourceLimit) as stop:
        classify_census(9, budget_seconds=10)
    assert str(stop.value) == f"census classification exceeded its time budget ({progress})"
    assert max(seen) < 10  # no catalog member is canonicalised past the deadline


def test_time_budget_checked_per_leaf(monkeypatch):
    # The first canonical form of a state moves the clock past the deadline;
    # the next leaf sees it, and the worker raises.
    for state in census._frontier(12, 8)[0]:
        search, leaves = census._LinkSearch(12, list(state), None, None), []
        search.run(leaves)
        if len(leaves) >= 2:
            break
    clock = FakeClock()
    monkeypatch.setattr(census, "time", clock)
    slowed(monkeypatch, clock, "canonical_form")
    with pytest.raises(ResourceLimit) as stop:
        census._search_worker((12, state, 10.0))
    assert str(stop.value) == "census leaf canonicalisation exceeded its time budget"
    assert clock.now == 100  # the search finished and one leaf was canonicalised


def test_deep_search_reaches_a_leaf_without_recursion():
    # At n = 600 a leaf lies 2n - 6 = 1194 faces below the root, deeper than
    # the default recursion limit; a quota stops the search and hands back
    # the branches it did not enter.
    assert sys.getrecursionlimit() < 1194
    search, leaves = census._LinkSearch(600, census._initial_star(), None, 4096), []
    rest = search.run(leaves)
    assert search.nodes == 4096 and rest
    assert [len(faces) for faces in leaves] == [1200]


def test_deep_search_hits_the_time_budget(monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        with pytest.raises(ResourceLimit, match="exceeded its time budget"):
            enumerate_degree_regular(600, budget_seconds=0.5, jobs=jobs)


def test_frontier_returns_states_and_leaves():
    states, leaves = census._frontier(12, 8)
    assert len(states) >= 8 and leaves == []


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("cpus,jobs,workers", [(3, 64, [3]), (3, 2, [2]), (None, 8, [])])
def test_jobs_clamped_to_cpu_count(monkeypatch, cpus, jobs, workers):
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr(census, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
    result = enumerate_degree_regular(10, jobs=jobs)
    assert _RecordingPool.max_workers == workers
    assert [t.faces for t in result] == [t.faces for t in enumerate_degree_regular(10)]


@pytest.mark.parametrize("jobs", [0, -3])
def test_non_positive_jobs_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        enumerate_degree_regular(9, jobs=jobs)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_non_finite_budget_rejected(budget):
    with pytest.raises(ValueError, match="budget"):
        enumerate_degree_regular(9, budget_seconds=budget)


class _CheckedSearch(census._LinkSearch):
    """A link search that compares every node with the plain rule: the
    target found by a scan from vertex 0, and `_face_ok` on every x."""

    def _branch_faces(self):
        assert self.first_open == reference_target_vertex(self)
        faces = super()._branch_faces()
        assert faces == reference_branch_faces(self)
        return faces


@pytest.mark.parametrize("n", range(7, 13))
def test_search_tree_matches_the_plain_rule(n):
    search = _CheckedSearch(n, census._initial_star(), None, None)
    leaves = []
    search.run(leaves)
    assert len(census._canonicalize_leaves(n, leaves)) == sum(EXPECTED_SPLITS[n])
    if n == 12:
        assert (search.nodes, len(leaves)) == (1928, 43)


class _RecordedSearch(census._LinkSearch):
    """A link search that keeps every instance, so that the nodes of all
    the census tasks (and of the frontier probes) can be summed."""

    made: list[census._LinkSearch] = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


@pytest.mark.parametrize("n", range(7, 17))
def test_split_search_counts_every_node_once(monkeypatch, n):
    # Tasks of at most 16 nodes, in waves, against one search of the whole
    # tree: the same nodes (1928 at n = 12, the frontier probes included),
    # the same leaves and the same census.
    whole, whole_leaves = census._LinkSearch(n, census._initial_star(), None, None), []
    assert whole.run(whole_leaves) == []
    monkeypatch.setattr(census, "_SPLIT_NODES", 16)
    monkeypatch.setattr(_RecordedSearch, "made", [])
    monkeypatch.setattr(census, "_LinkSearch", _RecordedSearch)
    canonicalize, split_leaves = census._canonicalize_leaves, []
    monkeypatch.setattr(census, "_canonicalize_leaves",
                        lambda n, leaves, deadline=None:
                        split_leaves.extend(leaves) or canonicalize(n, leaves, deadline))
    got = [t.faces for t in enumerate_degree_regular(n)]
    assert sum(search.nodes for search in _RecordedSearch.made) == whole.nodes
    assert max(search.nodes for search in _RecordedSearch.made) <= 16
    assert sorted(split_leaves) == sorted(whole_leaves)
    classes = canonicalize(n, whole_leaves)
    assert got == [classes[code] for code in sorted(classes)]


# Totals past the paper's range, from the search alone (no independent
# oracle yet): n -> (torus, Klein bottle).  No Klein bottle at prime n.
BEYOND_PAPER_SPLITS = {16: (5, 2), 17: (2, 0), 18: (5, 4), 19: (3, 0), 20: (6, 4)}


@pytest.mark.stretch
@pytest.mark.parametrize("n", sorted(BEYOND_PAPER_SPLITS))
def test_census_beyond_the_paper(n):
    report = classify_census(n, budget_seconds=600)
    torus, klein = BEYOND_PAPER_SPLITS[n]
    assert (report.total, report.torus_count, report.klein_bottle_count) == (
        torus + klein, torus, klein)
    assert all(it.weakly_regular for it in report.items if it.surface.kind == "torus")
