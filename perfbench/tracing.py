"""In-memory spans around calls into packing_sim layers.

A ``Tracer`` replaces module-level names that one layer calls another
through (for example ``packing_sim.harness.run_simulation``) with
wrappers that record a span per call: name, start, end, the enclosing
span and the pass ("request") it belongs to.  Spans stay in memory until
``write`` dumps them as JSON lines at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # Each span: [id, parent id or -1, name, start, end, request,
        # exception raised or None]
        self.spans = []
        self.request = 0
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               time.perf_counter(), None, self.request, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[6] = exc
            raise
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, on_result=None):
        """Route ``module.attr`` through a span named ``name``."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            out = self.call(name, orig, *args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def unwrap_all(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def select(self, requests):
        requests = set(requests)
        return [s for s in self.spans if s[5] in requests]

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, req, exc in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": t0,
                    "end": t1, "request": req,
                    "error": None if exc is None else type(exc).__name__,
                }) + "\n")


def totals(spans):
    """Per span name: (total duration, total self time, call count).

    Self time is a span's duration minus the time its direct children
    cover; children never overlap because calls are single-threaded.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        d = s[4] - s[3]
        row = out[s[2]]
        row[0] += d
        row[1] += d - child_time[s[0]]
        row[2] += 1
    return out
