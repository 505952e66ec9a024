"""Per-layer spans for the traced mode, recorded from outside the program.

``Tracer.wrap(key, fn)`` returns a function that times each call of ``fn``
as a span named ``key``. Spans nest per thread; a span's self time is its
duration minus the durations of the spans it encloses. A call made inside a
span of the same key is part of that span and is not counted again, so a
``map_stacked`` that calls ``grad_conjugate`` counts as one mirror-map call.
With ``parent`` set, only calls made directly inside a span of that key are
recorded; the others run untimed. That keeps the hot per-evaluation layers
(maps, gradients, the lifted Laplacian) apart from the same functions called
by the reference oracle or the diagnostics.

Times are CPU seconds of the calling thread (``time.thread_time``): the
time a layer kept the thread busy. Wall time would also count the waits for
the interpreter lock while a sweep's other thread runs, which roughly doubles
every span of a two-thread sweep. Counts and times are kept in memory, one
table per thread, and merged by ``totals()`` when the process ends.
"""

from __future__ import annotations

import threading
from time import thread_time


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def wrap(self, key: str, fn, parent: str | None = None):
        def traced(*args, **kwargs):
            stack, table = self._state()
            top = stack[-1][0] if stack else None
            if top == key or (parent is not None and top != parent):
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]

        return traced

    def totals(self) -> dict:
        """{key: [calls, total CPU seconds, self CPU seconds]} over every thread."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, own) in table.items():
                row = out.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return out
