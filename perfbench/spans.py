"""Benchmark-side span tracing around the simulator's layer boundaries.

The traced run patches public methods of each layer (and the module
functions the layers call each other through) with thin wrappers that
record a span: name, parent span, request id, start and end.  Spans stay
in memory in flat arrays while the workload runs; self time — a span's
duration minus the part its child spans cover — is computed from them
afterwards, and the whole list can be written out as numpy columns.

Nothing here changes what the wrapped code computes: each wrapper calls
the original with the same arguments and returns its result.  Spans are
kept by the process that records them, so work inside pool workers (which
inherit the wrappers when forked) never reaches the parent's span list;
its command profile still comes home through ``repro.parallel``'s
profiler fold.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Request id stamped on every span opened from now on.
        self.request = -1
        #: Counts taken at the boundaries (e.g. fused ACT commands).
        self.counts: dict[str, int] = {}
        #: Returns the host's cumulative ACT+REF count; stage spans
        #: record its delta in :attr:`span_cmds`.
        self.cmd_probe = None
        self.span_cmds: dict[str, int] = {}
        #: ``(ParallelRun, wall seconds)`` of each traced ``run_units``.
        self.parallel_runs: list = []

    def __len__(self) -> int:
        return len(self._start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._request.append(self.request)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name: str, count_cmds: bool = False,
              on_result=None):
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer.cmd_probe() if count_cmds else 0
            index = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if count_cmds:
                    tracer.span_cmds[name] = (tracer.span_cmds.get(name, 0)
                                              + tracer.cmd_probe() - before)
            if on_result is not None:
                on_result(args, result,
                          tracer._end[index] - tracer._start[index])
            return result

        return traced

    def patch(self, cls: type, attr: str, name: str, **options) -> None:
        """Trace method (or property getter) *attr* defined on *cls*."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement = property(self._wrap(original.fget, name,
                                              **options))
        else:
            replacement = self._wrap(original, name, **options)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr: str, name: str,
                       **options) -> None:
        """Trace module function *attr* and every loaded ``repro``
        module's ``from ... import`` alias of it."""
        original = getattr(module, attr)
        replacement = self._wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, replacement)
                self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child spans)."""
        covered = [0.0] * len(self)
        start, end, parent = self._start, self._end, self._parent
        for index in range(len(self)):
            up = parent[index]
            if up >= 0:
                covered[up] += end[index] - start[index]
        totals: dict[str, float] = {}
        for index in range(len(self)):
            name = self.names[self._name[index]]
            own = end[index] - start[index] - covered[index]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for nid in self._name:
            name = self.names[nid]
            totals[name] = totals.get(name, 0) + 1
        return totals

    def inclusive(self, name: str, outside: str | None = None) -> float:
        """Summed duration of *name* spans not nested in another *name*
        span, nor (when given) in any *outside* span."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        stop = {nid}
        if outside is not None and outside in self._name_ids:
            stop.add(self._name_ids[outside])
        total = 0.0
        for index in range(len(self)):
            if self._name[index] != nid:
                continue
            up = self._parent[index]
            while up >= 0 and self._name[up] not in stop:
                up = self._parent[up]
            if up < 0:
                total += self._end[index] - self._start[index]
        return total

    def write(self, path) -> None:
        """Write every span as flat numpy columns (``.npz``): ``name``
        (an index into ``names``), ``parent`` (-1 at a root),
        ``request``, ``start`` and ``end`` (``perf_counter`` seconds)."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.asarray(self._name),
                 parent=np.asarray(self._parent),
                 request=np.asarray(self._request),
                 start=np.asarray(self._start), end=np.asarray(self._end))
