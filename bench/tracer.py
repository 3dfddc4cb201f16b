"""In-memory spans around calls into the package's layers.

The tracer replaces chosen functions and methods with wrappers that record a
span per call: name, start, end, parent span and job id.  Spans are kept in
flat typed arrays (about 36 bytes each) so that a traced run of several
hundred thousand cycles stays small, and are written out only at the end.
A layer's self time is its spans' durations minus the part covered by their
child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job_labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts: bool = False) -> None:
        """Record a ``name`` span around every call of ``owner.attr`` made
        inside a job.  With ``counts`` the call's integer result is kept as
        the span's value."""
        original = getattr(owner, attr, None)
        if original is None:
            print(f"warning: {owner!r} has no {attr}; layer {name} is not traced", file=sys.stderr)
            return
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job < 0:
                return original(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts:
                tracer.value[idx] = result
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_job(self, label: str, fn, *args):
        """Call ``fn(*args)`` as one job, under a root span named ``job``."""
        self._job = len(self.job_labels)
        self.job_labels.append(label)
        idx = self._open(self._name_id("job"))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._job = -1

    def layer_totals(self):
        """Per (span name, job label): self seconds, call count, value sum."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += durations[i]
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        values: dict = defaultdict(int)
        for i, d in enumerate(durations):
            key = (self.names[self.name[i]], self.job_labels[self.job[i]])
            self_s[key] += d - covered[i]
            calls[key] += 1
            values[key] += self.value[i]
        return self_s, calls, values

    def write(self, path) -> None:
        """Write every span as gzip CSV, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as f:
            f.write("span,name,start_s,end_s,parent,job,job_label,value\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.job[i]},"
                    f"{self.job_labels[self.job[i]]},{self.value[i]}\n"
                )
