"""Span tracer that instruments craftfaces from outside the package.

``Tracer.installed(targets)`` replaces each target function with a wrapper
that records one span per call: (name, start, end, parent). A function is
replaced in every craftfaces module that holds it by name, because
``from .x import f`` binds ``f`` at import time; methods are replaced on
their class. Everything is restored when the context exits, so untraced
runs in the same process execute the original code.

Times are corrected for the tracer's own cost: the bookkeeping done in a
wrapper (and any digest it computes) is accumulated in ``overhead`` and
subtracted from the busy time of every span that encloses it. A span's
self time is its busy time minus the busy time of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import zlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def array_digest(a) -> tuple:
    """Cheap content digest of an array: shape plus two 32-bit checksums."""
    buf = memoryview(np.ascontiguousarray(a, dtype=np.float64)).cast("B")
    return (np.shape(a), zlib.crc32(buf), zlib.adler32(buf))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.digests: defaultdict = defaultdict(set)
        self.overhead = 0.0
        self._stack: list[list] = []  # [span id, children's busy time, overhead at entry]

    def wrap(self, name: str, fn, digest=None):
        """Return ``fn`` wrapped to record a span called ``name``. ``digest``,
        if given, maps the call's arguments to a hashable input digest."""
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            stack = tr._stack
            sid = len(tr.names)
            tr.names.append(name)
            tr.parents.append(stack[-1][0] if stack else -1)
            tr.starts.append(0.0)
            tr.ends.append(0.0)
            if digest is not None:
                tr.digests[name].add(digest(*args, **kwargs))
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tr.overhead += t0 - entered
            frame[2] = tr.overhead
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                busy = (t1 - t0) - (tr.overhead - frame[2])
                tr.starts[sid] = t0
                tr.ends[sid] = t1
                tr.calls[name] += 1
                tr.busy[name] += busy
                tr.self_time[name] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy
                tr.overhead += perf_counter() - t1

        return traced

    @contextlib.contextmanager
    def installed(self, functions, methods):
        """Patch the targets for the duration of the block.

        ``functions``: (module, attribute, span name, digest or None);
        ``methods``: (class, method, span name).
        """
        undo = []
        try:
            for module, attr, span, digest in functions:
                original = getattr(module, attr)
                wrapped = self.wrap(span, original, digest)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "craftfaces"]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
            for cls, attr, span in methods:
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(span, original))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # --- queries over the recorded spans -------------------------------

    def count_with_parent(self, name: str, parent: str) -> int:
        """Spans called ``name`` whose innermost traced caller is ``parent``."""
        names = self.names
        return sum(
            1 for n, p in zip(names, self.parents) if n == name and p >= 0 and names[p] == parent
        )

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        names, parents = self.names, self.parents
        total = 0
        for sid, n in enumerate(names):
            if n != name:
                continue
            p = parents[sid]
            while p >= 0 and names[p] != ancestor:
                p = parents[p]
            total += p >= 0
        return total

    def unique_ratio(self, name: str) -> float:
        """Distinct input digests per call; 0.0 when ``name`` was never called."""
        return len(self.digests[name]) / self.calls[name] if self.calls[name] else 0.0

    def write_spans(self, path) -> None:
        """CSV of every span, times in seconds from the first span's start."""
        origin = min(self.starts) if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for sid, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{sid},{n},{p},{s - origin:.9f},{e - origin:.9f}\n")
