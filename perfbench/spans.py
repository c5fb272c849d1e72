"""In-memory span tracing of graphbell's layers, from outside the package.

``Tracer.install`` replaces the names that callers look up (module
attributes such as ``graphbell.lhv.operator_bound`` or
``graphbell.bounds.bridges``) with wrappers that record one span per call:
name, start, end and the index of the enclosing span. ``Tracer.uninstall``
puts the original functions back. Per-term helpers such as ``apply_pauli``
and ``evaluate_term`` are deliberately left unwrapped to keep the overhead
small.

Wrappers also tally the exact counts the benchmark checks for determinism:
assignments searched, terms built, computed table and dense-array bytes,
and exact solves made by the composer.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute) -> span name. Each entry is a name some caller looks
# up at call time: the benchmark itself calls the ``graphbell`` package
# attributes; the package's own modules call the others.
WRAPPED = {
    ("graphbell", "classical_bound"): "lhv.classical_bound",
    ("graphbell", "bridge_compose_bound"): "bounds.bridge_compose_bound",
    ("graphbell", "check_stabilized"): "oracle.check_stabilized",
    ("graphbell", "quantum_bell_value"): "oracle.quantum_bell_value",
    ("graphbell", "schmidt_profile"): "oracle.schmidt_profile",
    ("graphbell", "projector_identity_residual"): "oracle.projector_identity_residual",
    ("graphbell.lhv", "operator_bound"): "lhv.operator_bound",
    ("graphbell.lhv", "bell_terms"): "stabilizer.bell_terms",
    ("graphbell.lhv", "connected_components"): "graph.connected_components",
    ("graphbell.lhv", "induced_subgraph"): "graph.induced_subgraph",
    ("graphbell.bounds", "classical_bound"): "lhv.classical_bound",
    ("graphbell.bounds", "bridges"): "graph.bridges",
    ("graphbell.bounds", "induced_subgraph"): "graph.induced_subgraph",
    ("graphbell.oracle", "statevector"): "oracle.statevector",
    ("graphbell.oracle", "bell_terms"): "stabilizer.bell_terms",
}

LAYER_NAMES = sorted(set(WRAPPED.values()))

# bytes per int32 cell of the transform table and per complex128 amplitude
_TABLE_CELL_BYTES = 4
_COMPLEX_BYTES = 16

# names whose first argument is a whole graph that the timed part solves
_GRAPH_ENTRY = {"lhv.classical_bound", "bounds.bridge_compose_bound", "oracle.statevector"}


class Tracer:
    """Spans and exact counts of one traced pass, kept in memory."""

    def __init__(self, warmup_graph=None):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.warmup_graph = warmup_graph
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for (module_name, attr), span_name in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._count(name, args, result, span[3])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, args, result, parent: int) -> None:
        counts = self.counts
        if name in _GRAPH_ENTRY and self.warmup_graph is not None and args[0] == self.warmup_graph:
            counts["warmup_resolves"] += 1
        if name == "lhv.operator_bound":
            space = result[2]
            counts["assignments_searched"] += space
            counts["table_bytes_computed"] += space * _TABLE_CELL_BYTES
        elif name == "stabilizer.bell_terms":
            counts["terms_built"] += len(result)
        elif name == "lhv.classical_bound" and self._has_ancestor(
            parent, lambda n: n == "bounds.bridge_compose_bound"
        ):
            counts["exact_solves"] += 1
        elif name == "oracle.statevector":
            counts["dense_bytes_computed"] += _COMPLEX_BYTES << args[0].n
        elif name == "oracle.projector_identity_residual":
            # one dense Pauli matrix per stabilizer term, their running sum,
            # the projector and the difference: (2^n + 3) matrices of 4^n cells
            size = 1 << args[0].n
            counts["dense_bytes_computed"] += (size + 3) * size * size * _COMPLEX_BYTES

    def _has_ancestor(self, index: int, test) -> bool:
        """True iff the span at ``index`` or one enclosing it has a name passing ``test``."""
        while index >= 0:
            if test(self.spans[index][0]):
                return True
            index = self.spans[index][3]
        return False

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {n: {"calls": 0, "self_s": 0.0} for n in LAYER_NAMES}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - inner
        return out

    def cover_s(self, prefix: str) -> float:
        """Time covered by spans named ``prefix*`` that have no such ancestor."""
        def matches(name: str) -> bool:
            return name.startswith(prefix)

        return sum(end - start for name, start, end, parent in self.spans
                   if matches(name) and not self._has_ancestor(parent, matches))
