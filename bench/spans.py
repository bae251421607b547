"""In-memory spans recorded around the benchmark's calls into the package.

A span is (name, start, end, parent); spans live in a list until the run
ends and are written out in one piece.  Self time is a span's duration
minus the durations of its direct children, which never overlap because
every call is made from one thread in sequence.
"""

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans when enabled; a no-op context otherwise."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []

    def span(self, name):
        if not self.enabled:
            return nullcontext()
        return self._record(name)

    @contextmanager
    def _record(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Self time of every span, in recording order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def durations(self, name):
        """Durations of all spans called ``name``."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def tree_self_sum(self, root):
        """Sum of self times over the span ``root`` and all its descendants."""
        own = self.self_times()
        member = [False] * len(self.spans)
        member[root] = True
        total = own[root]
        for i in range(root + 1, len(self.spans)):
            parent = self.spans[i][3]
            if parent is not None and member[parent]:
                member[i] = True
                total += own[i]
        return total

    def write(self, path):
        own = self.self_times()
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "self": o}
            for (n, s, e, p), o in zip(self.spans, own)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
