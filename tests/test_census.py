import math
import sys
import types
from collections import Counter

import pytest

from flatland import (
    ResourceLimit,
    Triangulation,
    automorphism_group,
    build_triangulation,
    canonical_form,
    census,
    classify_census,
    degree_profile,
    euler_characteristic,
    known_catalog,
    regularity_flags,
    surface_type,
    symmetry,
)
from tests.conftest import (
    census_report,
    reference_branch_faces,
    reference_first_open,
    reference_labels,
    reference_links,
    reference_prefix,
    reference_prefix_loses,
    reference_rivals,
)
from tests.lattice_oracle import klein_classes, torus_classes

EXPECTED_SPLITS = {7: (1, 0), 8: (1, 0), 9: (2, 1), 10: (1, 1), 11: (1, 0), 12: (4, 3)}


def test_small_n_empty():
    for n in range(1, 7):
        assert classify_census(n).items == ()


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
    monkeypatch.setattr(census, "canonical_form",
                        lambda t, *classes: scanned.append(t) or canonical(t, *classes))
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
    serial = classify_census(10, jobs=1)
    parallel = classify_census(10, jobs=4)
    assert serial == parallel


def test_time_budget_raises():
    with pytest.raises(ResourceLimit):
        classify_census(12, budget_seconds=0.0)


def test_time_budget_checked_in_small_subtrees():
    # At n = 9 every frontier state has fewer than _CHECK_EVERY nodes.
    with pytest.raises(ResourceLimit):
        classify_census(9, budget_seconds=0.0)


def test_time_budget_checked_when_the_frontier_is_the_whole_tree():
    # At n = 7 the frontier completes the search and leaves no state.
    assert census._frontier(7, 8)[0] == []
    with pytest.raises(ResourceLimit, match="time budget"):
        classify_census(7, budget_seconds=0.0)


def test_time_budget_checked_at_the_root_of_each_state(monkeypatch):
    # A clock that advances one second per reading: the deadline is 0.5,
    # and the first reading after it (t = 1) is at the root of the first
    # state, before any task has finished.
    ticks = iter(range(10**6))
    monkeypatch.setattr(census, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(ResourceLimit) as stop:
        classify_census(9, budget_seconds=0.5)
    assert str(stop.value) == "census search exceeded its time budget (0 nodes, 0/9 states done)"


def test_time_budget_stop_names_the_leaf_scan_when_the_frontier_is_the_whole_tree():
    # At n = 7 the frontier probes finish the search, which checks no
    # deadline, so the first check is before the frontier's leaf is scanned.
    with pytest.raises(ResourceLimit) as stop:
        classify_census(7, budget_seconds=-1)
    assert str(stop.value) == ("census leaf canonicalisation exceeded its time budget"
                               " (0 nodes, 0/0 states done)")


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
    ("surface_type", "1/3 classes done"),  # seen before the second
])
def test_time_budget_checked_after_the_search(monkeypatch, slow, progress):
    clock = FakeClock()
    monkeypatch.setattr(census, "time", clock)
    slowed(monkeypatch, clock, slow)
    canonical, seen = census.canonical_form, []  # the clock at each canonical form
    monkeypatch.setattr(census, "canonical_form",
                        lambda t, *classes: seen.append(clock.now) or canonical(t, *classes))
    with pytest.raises(ResourceLimit) as stop:
        classify_census(9, budget_seconds=10)
    assert str(stop.value) == f"census classification exceeded its time budget ({progress})"
    assert all(now < 10 for now in seen)  # no catalog member is canonicalised past the deadline


def test_time_budget_checked_per_leaf(monkeypatch):
    # The first leaf scan of a state moves the clock past the deadline; the
    # next leaf sees it, and the worker raises.
    for state in census._frontier(12, 8)[0]:
        search, leaves = census._LinkSearch(12, list(state), None, None), []
        search.run(leaves)
        if len(leaves) >= 2:
            break
    clock = FakeClock()
    monkeypatch.setattr(census, "time", clock)
    slowed(monkeypatch, clock, "automorphism_group")
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
    # Two CPUs, so that jobs = 2 starts a pool on any machine.
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for jobs in (1, 2):
        with pytest.raises(ResourceLimit, match="exceeded its time budget"):
            classify_census(600, budget_seconds=0.5, jobs=jobs)


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


# cpus: os.cpu_count() on a platform without os.sched_getaffinity, or the
# affinity set, which caps the workers below a larger os.cpu_count().
@pytest.mark.parametrize("cpus,jobs,workers", [
    (3, 64, [3]), (3, 2, [2]), (None, 8, []), ({0}, 2, []), ({0, 1, 2}, 64, [3]),
])
def test_jobs_clamped_to_cpu_count(monkeypatch, cpus, jobs, workers):
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr(census, "ProcessPoolExecutor", _RecordingPool)
    if isinstance(cpus, set):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    else:
        monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
        monkeypatch.delattr(census.os, "sched_getaffinity", raising=False)
    result = classify_census(10, jobs=jobs)
    assert _RecordingPool.max_workers == workers
    assert result == classify_census(10)


@pytest.mark.parametrize("jobs", [0, -3])
def test_non_positive_jobs_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        classify_census(9, jobs=jobs)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_non_finite_budget_rejected(budget):
    with pytest.raises(ValueError, match="budget"):
        classify_census(9, budget_seconds=budget)


class _CheckedSearch(census._LinkSearch):
    """A link search that compares every state with the rule, as the
    oracles in conftest read it from the face list: the prefix test and
    what it keeps, the first open vertex, and the branch faces at the
    target vertex with `_face_ok` on every x.  No node has exactly one
    branch face: a state with one takes it in place."""

    def _visit(self):
        branch = super()._visit()
        assert branch is None or len(branch) != 1
        return branch

    def _search_flag_leads(self):
        leads = super()._search_flag_leads()
        assert leads != reference_prefix_loses(self)
        if leads:
            self._check_ties()
        return leads

    def _check_ties(self):
        # The search flag's traversal holds its prefix, and the ties are
        # exactly the flags it races (the other flags at vertex 0, and those
        # at vertex 1 once vertex 1 is complete) whose prefix agrees with it
        # over their common length.  Each sits at that length, with the
        # labels a traversal from scratch gives after as many crossings, and
        # its vertices listed by label.
        lead = reference_prefix(self.faces, census._SEARCH_FLAG)
        assert self.ties[0][2] == lead
        tied = {}
        for flag in reference_rivals(self):
            key = reference_prefix(self.faces, flag)
            common = min(len(key), len(lead))
            if key[:common] == lead[:common]:
                tied[flag] = common
        assert self.ties_at_1 == (reference_first_open(self) > 1)
        ties = {tuple(inv[:3]): (at, label, inv) for at, label, inv in self.ties[1:]}
        assert len(ties) == len(self.ties) - 1 and ties.keys() == tied.keys()
        for flag, (at, label, inv) in ties.items():
            assert at == tied[flag]
            assert label == reference_labels(self.faces, flag, at)
            assert inv == sorted(label, key=label.get)

    def _branch_faces(self):
        assert self.first_open == reference_first_open(self)
        faces = super()._branch_faces()
        assert faces == reference_branch_faces(self)
        return faces


# Ties live longer at larger n, so the stretch sizes check them further.
@pytest.mark.parametrize("n", [*range(7, 13), *(pytest.param(n, marks=pytest.mark.stretch)
                                                for n in range(13, 17))])
def test_search_tree_matches_the_plain_rule(n):
    search = _CheckedSearch(n, census._initial_star(), None, None)
    leaves = []
    search.run(leaves)
    classes = EXPECTED_SPLITS.get(n) or (len(torus_classes(n)), len(klein_classes(n)))
    assert len(census._canonicalize_leaves(n, leaves)) == sum(classes)
    if n == 12:
        assert (search.nodes, len(leaves), search.pruned) == (174, 7, 26)


class _FailFirstSearch(census._LinkSearch):
    """A link search that records, at each node with a vertex that has 6
    neighbours and an open link, the least such vertex, its open ends and
    the branch faces."""

    def _branch_faces(self):
        faces = super()._branch_faces()
        for w, edges in sorted(reference_links(self.faces).items()):
            degrees = Counter(x for edge in edges for x in edge)
            ends = {x for x, d in degrees.items() if d == 1}
            if len(degrees) == 6 and ends:
                self.checked.append((w, ends, faces))
                break
        return faces


@pytest.mark.parametrize("n", range(7, 13))
def test_branch_closes_a_full_vertex_first(n):
    # Fail-first: a vertex with 6 neighbours and an open link takes no new
    # neighbour, so its faces lie on two of its open ends, and the least
    # such vertex is branched at before any vertex that can still grow.
    search = _FailFirstSearch(n, census._initial_star(), None, None)
    search.checked = []
    search.run([])
    assert search.checked
    for w, ends, faces in search.checked:
        for face in faces:
            assert w in face
            assert len(ends & set(face)) == 2


class _PlainSearch(census._LinkSearch):
    """The link search without folding: every state is a node, and each
    runs the prefix test before it branches."""

    def _visit(self):
        self.nodes += 1
        if not self._search_flag_leads():
            self.pruned += 1
            return []
        return self._branch_faces()


@pytest.mark.parametrize("n", range(7, 17))
def test_forced_faces_keep_the_plain_leaves(n):
    # A face forced on a state, its only branch face, is added in place:
    # that merges chains of single children, so the labelled leaves, and so
    # the census classes, are those of the plain search.
    plain, plain_leaves = _PlainSearch(n, census._initial_star(), None, None), []
    plain.run(plain_leaves)
    folded, folded_leaves = census._LinkSearch(n, census._initial_star(), None, None), []
    folded.run(folded_leaves)
    assert sorted(map(sorted, folded_leaves)) == sorted(map(sorted, plain_leaves))
    assert census._canonicalize_leaves(n, folded_leaves) == census._canonicalize_leaves(n, plain_leaves)
    assert folded.nodes < plain.nodes


# n -> (nodes, leaves, pruned) of the whole search, past the sizes that
# `_CheckedSearch` walks.
WHOLE_SEARCH_SIZES = {18: (973, 9, 122), 24: (1977, 20, 279), 30: (4243, 19, 440),
                      36: (7324, 30, 812), 42: (11174, 26, 1121)}


@pytest.mark.parametrize("n", [n if n < 30 else pytest.param(n, marks=pytest.mark.stretch)
                               for n in sorted(WHOLE_SEARCH_SIZES)])
def test_whole_search_size(n):
    search, found = census._LinkSearch(n, census._initial_star(), None, None), []
    search.run(found)
    assert (search.nodes, len(found), search.pruned) == WHOLE_SEARCH_SIZES[n]


class _UnprunedSearch(census._LinkSearch):
    """The link search without the prefix test: every flag of a class
    gives a leaf."""

    def _search_flag_leads(self):
        return True


def _flags_with_faces(t, *centres):
    """The flags (v, a, b) of a complex at each centre v, each with the
    index of its face."""
    flags = []
    for v in centres:
        for fi in t.stars[v]:
            a, b = (u for u in t.faces[fi] if u != v)
            flags += [((v, a, b), fi), ((v, b, a), fi)]
    return flags


@pytest.mark.parametrize("n", range(7, 17))
def test_prefix_test_keeps_the_leaves_whose_search_flag_leads(n):
    # The prefix test drops a leaf exactly when a flag at vertex 0 or 1 has
    # a smaller key than the search flag, by `symmetry._traverse` on the
    # complex the leaf builds, and the leaves keep their order.
    unpruned, all_leaves = _UnprunedSearch(n, census._initial_star(), None, None), []
    unpruned.run(all_leaves)
    search, leaves = census._LinkSearch(n, census._initial_star(), None, None), []
    search.run(leaves)

    def leads(faces):
        t = build_triangulation(n, faces)
        keys = {flag: symmetry._traverse(t, flag, fi, None)[0]
                for flag, fi in _flags_with_faces(t, 0, 1)}
        assert len(keys) == 24
        return keys[census._SEARCH_FLAG] == min(keys.values())

    assert leaves == [faces for faces in all_leaves if leads(faces)]
    assert unpruned.pruned == 0 and search.nodes < unpruned.nodes


@pytest.mark.parametrize("n", [12, 18])
def test_resume_is_the_scans_traversal(n):
    # Over a complete leaf, `_resume` carries the search flag's traversal to
    # its end, with no stop edge, and gives the key and labels that
    # `symmetry._traverse` gives on the complex the leaf builds.  The leaves
    # are those of the search without the prefix test, which hold the whole
    # search's.
    leaves = []
    _UnprunedSearch(n, census._initial_star(), None, None).run(leaves)
    assert len(leaves) == {12: 43, 18: 69}[n]  # 12n/|Aut| per class
    for faces in leaves:
        lk = census._LinkSearch(n, list(faces), None, None).lk
        stop, _, key, _, label = census._resume(lk, census._start(lk, census._SEARCH_FLAG))[:5]
        t = build_triangulation(n, faces)
        found = symmetry._traverse(t, census._SEARCH_FLAG, t.face_index[census._SEARCH_FLAG], None)
        assert stop is None
        assert (key, [label[v] for v in range(n)]) == found


@pytest.mark.parametrize("n", range(7, 17))
def test_one_leaf_kept_per_class(n):
    # The search without the prefix test gives each class once per flag
    # orbit, 12n/|Aut| leaves.  Each leaf alone gives its class, with the
    # canonical faces and the regularity flags of its class's canonical
    # complex, so merging all of them by code keeps one entry per class.
    leaves = []
    _UnprunedSearch(n, census._initial_star(), None, None).run(leaves)
    forms = [canonical_form(build_triangulation(n, faces)) for faces in leaves]
    per_class = Counter(form.code for form in forms)
    classes = census._canonicalize_leaves(n, leaves)
    assert classes.keys() == per_class.keys()
    for faces, form in zip(leaves, forms):
        assert census._canonicalize_leaves(n, [faces]) == {form.code: classes[form.code]}
    for code, (faces, flags) in classes.items():
        t = Triangulation(n, faces)
        group = automorphism_group(t)
        assert faces == canonical_form(t).faces
        assert per_class[code] * group.order == 12 * n
        assert flags == regularity_flags(t, group)


class _RecordedSearch(census._LinkSearch):
    """A link search that keeps every instance, so that the nodes of all
    the census tasks (and of the frontier probes) can be summed."""

    made: list[census._LinkSearch] = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


@pytest.mark.parametrize("n", range(7, 17))
def test_split_search_counts_every_node_once(monkeypatch, n):
    # A frontier of 64 states, one task each, against one search of the
    # whole tree: the same nodes (174 at n = 12, the frontier probes
    # included), the same leaves and the same census.
    whole, whole_leaves = census._LinkSearch(n, census._initial_star(), None, None), []
    assert whole.run(whole_leaves) == []
    states = census._frontier(n, 64)[0]
    monkeypatch.setattr(census, "_FRONTIER_TARGET", 64)
    monkeypatch.setattr(_RecordedSearch, "made", [])
    monkeypatch.setattr(census, "_LinkSearch", _RecordedSearch)
    canonicalize, split_leaves = census._canonicalize_leaves, []
    monkeypatch.setattr(census, "_canonicalize_leaves",
                        lambda n, leaves, deadline=None:
                        split_leaves.extend(leaves) or canonicalize(n, leaves, deadline))
    got = census._enumerate_with_codes(n, None, 1)
    probes = [search for search in _RecordedSearch.made if search.quota == 1]
    assert [search.nodes for search in probes] == [1] * len(probes)
    assert len(_RecordedSearch.made) == len(probes) + len(states)
    assert sum(search.nodes for search in _RecordedSearch.made) == whole.nodes
    assert sorted(split_leaves) == sorted(whole_leaves)
    classes = canonicalize(n, whole_leaves)
    assert [(code, t.faces, flags) for code, t, flags in got] == [
        (code, *classes[code]) for code in sorted(classes)]
    for _, t, flags in got:
        assert flags == regularity_flags(t, automorphism_group(t))


def _breadth_first_frontier(n, target):
    """`_frontier` from the node visit alone: pop the first state, visit
    it, and queue its leaf or its children."""
    states, leaves = [tuple(census._initial_star())], []
    while states and len(states) < target:
        probe = census._LinkSearch(n, list(states.pop(0)), None, None)
        branch = probe._visit()
        faces = tuple(probe.faces)
        if branch is None:
            leaves.append(faces)
        else:
            states += [faces + (face,) for face in branch]
    return states, leaves


@pytest.mark.parametrize("target", [1, 8, 64])
@pytest.mark.parametrize("n", range(7, 17))
def test_frontier_is_the_breadth_first_expansion(n, target):
    # The states and leaves, in order: the search's hand-back after one
    # node is that node's children.
    assert census._frontier(n, target) == _breadth_first_frontier(n, target)


def test_no_class_scanned_twice(monkeypatch):
    # At n = 12 the prefix test leaves one leaf per class, and each leaf is
    # scanned once; that scan also gives its class's group.  The other
    # scans are of the 16 distinct complexes among the 19 catalog members,
    # and all but one Klein bottle stop after the flags at v0, where the
    # code is already a class's.
    leaf_scans, catalog_scans, finished = [], [], []
    group, canonical = census.automorphism_group, census.canonical_form
    monkeypatch.setattr(census, "automorphism_group", lambda t: leaf_scans.append(t) or group(t))
    monkeypatch.setattr(census, "canonical_form",
                        lambda t, classes: catalog_scans.append(t) or canonical(t, classes))

    class Recorded(symmetry._Scanner):
        def second_phase(self):
            finished.append(self.t)
            super().second_phase()

    monkeypatch.setattr(symmetry, "_Scanner", Recorded)
    report = classify_census(12)
    assert finished[:7] == leaf_scans
    assert [surface_type(t).kind for t in finished[7:]] == ["klein_bottle"]
    assert len(leaf_scans) == report.total == 7
    assert len({canonical(t).code for t in leaf_scans}) == 7
    assert len(catalog_scans) == 16
    assert set(catalog_scans) == {named.complex for named in known_catalog(12)}


# n -> the `_traverse` calls of the whole census.
CENSUS_TRAVERSALS = {12: 373, 18: 492, 24: 930}


@pytest.mark.parametrize("n", sorted(CENSUS_TRAVERSALS))
def test_census_traversals_are_pinned(monkeypatch, n):
    # The whole census's canonical scans, leaves and catalog: the
    # benchmark's traced passes rely on this count being the same in each.
    traverse, calls = symmetry._traverse, []
    monkeypatch.setattr(symmetry, "_traverse", lambda *a: calls.append(a) or traverse(*a))
    classify_census(n)
    assert len(calls) == CENSUS_TRAVERSALS[n]


# Totals past the paper's range, n -> (torus, Klein bottle), from the
# lattice oracle, which shares no code with the search; its classes are
# also checked one by one (tests/test_lattice_oracle.py).  They also check
# the prefix test, which would lose a class without an error, and the merge
# of the leaves by canonical code, which would join two classes with one
# code.
BEYOND_PAPER_SPLITS = {n: (len(torus_classes(n)), len(klein_classes(n))) for n in range(16, 43)}


@pytest.mark.stretch
@pytest.mark.parametrize("n", sorted(BEYOND_PAPER_SPLITS))
def test_census_beyond_the_paper(n):
    report = census_report(n)
    torus, klein = BEYOND_PAPER_SPLITS[n]
    assert (report.total, report.torus_count, report.klein_bottle_count) == (
        torus + klein, torus, klein)
    assert all(it.weakly_regular for it in report.items if it.surface.kind == "torus")
