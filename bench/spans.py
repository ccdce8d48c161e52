"""Span recording for the traced benchmark run, from outside the package.

`Tracer.patched` swaps module attributes of the package for timing wrappers
and restores them afterwards. Each call through a wrapper records one span:
name, start, end, parent span, operation id (one per grid cell or query) and
phase (one per set-up repetition or timed round). Spans stay in memory until
the run ends. A wrapped name that no longer exists is listed in
`Tracer.absent` instead of failing the run.
"""

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.absent: set[str] = set()
        self.op = -1
        self.op_method: dict[int, int] = {}
        self._phase = -1
        # one entry per span, in call order; columns as compact arrays
        self._cols = {
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "op": array("q"),
            "phase": array("i"),
        }
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_phase(self, label: str) -> None:
        self._phase = len(self.phases)
        self.phases.append(label)

    def set_op(self, op: int, method: int | None = None) -> None:
        self.op = op
        if method is not None:
            self.op_method[op] = method

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        cols, stack, clock = self._cols, self._stack, time.perf_counter
        names, starts, ends = cols["name"], cols["start"], cols["end"]
        parents, ops, phases = cols["parent"], cols["op"], cols["phase"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            phases.append(self._phase)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Route calls to each (module name, attribute, span name) through a wrapper."""
        saved = []
        try:
            for module_name, attr, span_name in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans recorded so far as columns."""
        return {key: np.array(col) for key, col in self._cols.items()}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), phases=np.array(self.phases), **self.arrays()
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap one another (their union counts once) and may reach
    outside their parent (only the part inside the parent counts).
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    s_list, e_list, p_list = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = p_list[i]
        if p != current:
            current, reach = p, s_list[p]
        lo = max(s_list[i], reach)
        hi = min(e_list[i], e_list[p])
        if hi > lo:
            out[p] -= hi - lo
        reach = max(reach, hi)
    return out


def phase_table(tracer: Tracer) -> dict[tuple[str, str], dict]:
    """Per (phase, span name): call count, inclusive total and self time.

    Also splits totals and self times by the method of each span's operation,
    under keys "total.m<method>" and "self.m<method>".
    """
    cols = tracer.arrays()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    dur = cols["end"] - cols["start"]
    n_names = len(tracer.names)
    key = cols["phase"].astype(np.int64) * n_names + cols["name"]
    method = np.array([tracer.op_method.get(op, 0) for op in cols["op"].tolist()], dtype=np.int64)
    table: dict[tuple[str, str], dict] = {}
    for k in np.unique(key).tolist():
        mask = key == k
        entry = {"count": int(mask.sum()), "total": float(dur[mask].sum()), "self": float(own[mask].sum())}
        for m in np.unique(method[mask]).tolist():
            if m:
                split = mask & (method == m)
                entry[f"total.m{m}"] = float(dur[split].sum())
                entry[f"self.m{m}"] = float(own[split].sum())
        table[(tracer.phases[k // n_names], tracer.names[k % n_names])] = entry
    return table
