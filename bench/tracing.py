"""In-memory span tracing of flatland's layers, applied from outside the package.

The tracer replaces module-level bindings (for example `census.canonical_form`
or `symmetry._traverse`) with wrappers that record one span per call:
``[name, start, end, parent, run_id, value]``.  `parent` is the index of the
enclosing span (-1 for a root), `run_id` numbers the root spans, and `value`
is an optional size noted by an annotator (leaves canonicalised, catalog
members built, ...).  Every binding is restored by `restore()`; the package's
source is never touched.

A span's name is ``<layer>.<function>`` where the layer is the flatland module
that defines the function, so a layer's self time is the sum over its spans of
duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

Span = list  # [name, start, end, parent, run_id, value]

LAYERS = ("cli", "census", "symmetry", "surface", "families", "graphs", "tri_io")


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


def _len_states(args: tuple, result: Any) -> int:  # _frontier -> (states, leaves)
    return len(result[0])


def _len_leaves(args: tuple, result: Any) -> int:  # _canonicalize_leaves(n, leaves)
    return len(args[1])


# Module-level bindings wrapped for a traced run: (module, attribute, annotator).
# They are the names `cli` and `census` call across a layer boundary, plus the
# per-start traversal and the invariant/topology calls inside `symmetry`.
BINDINGS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "run", None),
    ("cli", "construct_family", None),
    ("cli", "parse_name", None),
    ("cli", "common_neighbor_graph", None),
    ("cli", "graph_shape", None),
    ("cli", "build_triangulation", None),
    ("cli", "manifold_report", None),
    ("cli", "skeleton_graph", None),
    ("cli", "automorphism_group", None),
    ("cli", "find_isomorphism", None),
    ("cli", "regularity_flags", None),
    ("tri_io", "read_tri", None),
    ("tri_io", "write_tri", None),
    ("tri_io", "format_tri", None),
    ("tri_io", "to_json_dict", None),
    ("census", "classify_census", None),
    ("census", "_enumerate_with_codes", _len_result),
    ("census", "_search_worker", None),
    ("census", "_canonicalize_leaves", _len_leaves),
    ("census", "_frontier", _len_states),
    ("census", "known_catalog", _len_result),
    ("census", "build_triangulation", None),
    ("census", "surface_type", None),
    ("census", "automorphism_group", None),
    ("census", "canonical_form", None),
    ("census", "regularity_flags", None),
    ("symmetry", "_traverse", None),
    ("symmetry", "canonical_form", None),
    ("symmetry", "automorphism_group", None),
    ("symmetry", "common_neighbor_graph", None),
    ("symmetry", "graph_shape", None),
    ("symmetry", "orientability", None),
    ("symmetry", "skeleton_graph", None),
    ("families", "build_triangulation", None),
)


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans from wrapped bindings; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.objects: list[tuple[int, Any]] = []  # (run_id, instance)
        self.run_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop recorded spans and instances; bindings stay wrapped."""
        self.spans.clear()
        self.objects.clear()
        self.run_id = -1
        self._stack.clear()

    # -- span recording ----------------------------------------------------

    def begin(self, name: str) -> Span:
        stack = self._stack
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            self.run_id += 1
        span = [name, 0.0, 0.0, parent, self.run_id, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    # -- binding replacement -------------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attr: str,
             value_of: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Record a span around every call made through `owner.attr`."""
        fn = getattr(owner, attr)
        name = span_name(fn)
        begin, end = self.begin, self.end

        # functools.wraps keeps __module__/__qualname__, so a wrapped worker
        # function still pickles by reference for the process pool.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    span[5] = value_of(args, result)
                return result
            finally:
                end(span)

        self._replace(owner, attr, traced)

    def record_instances(self, owner: Any, attr: str) -> None:
        """Keep every object built through `owner.attr`, tagged by run id."""
        cls = getattr(owner, attr)
        objects = self.objects

        def build(*args, **kwargs):
            obj = cls(*args, **kwargs)
            objects.append((self.run_id, obj))
            return obj

        self._replace(owner, attr, build)

    def wrap_context(self, owner: Any, attr: str, name: str) -> None:
        """Record a span over each `with owner.attr(...)` block."""
        base = getattr(owner, attr)
        tracer = self

        class Traced(base):
            def __enter__(self):
                self._bench_span = tracer.begin(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._bench_span)

        self._replace(owner, attr, Traced)

    def install(self, modules: dict[str, Any]) -> list[str]:
        """Wrap every flatland binding the benchmark traces; returns the
        bindings that no longer exist and so were skipped."""
        missing = []
        for mod, attr, value_of in BINDINGS:
            if hasattr(modules[mod], attr):
                self.wrap(modules[mod], attr, value_of)
            else:
                missing.append(f"{mod}.{attr}")
        census = modules["census"]
        if hasattr(census, "_LinkSearch"):
            self.record_instances(census, "_LinkSearch")
        else:
            missing.append("census._LinkSearch")
        if hasattr(census, "ProcessPoolExecutor"):
            self.wrap_context(census, "ProcessPoolExecutor", "census.pool")
        else:
            missing.append("census.ProcessPoolExecutor")
        return missing

    def saved(self) -> list[tuple[Any, str, Any]]:
        return list(self._saved)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer: every layer in LAYERS, plus any other
    module a traced function turned out to live in."""
    out = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        layer = s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def root_time(spans: list[Span]) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def inclusive(spans: list[Span], name: str) -> float:
    """Total duration of the spans called `name` (they never nest)."""
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s[0] == name)
