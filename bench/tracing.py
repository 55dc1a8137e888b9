"""In-memory spans recorded around calls into the package's modules.

A span has a name, a start, an end and the index of the span that was open
when it started (its parent, -1 for none).  Spans are kept in flat arrays
so that a traced run of a few hundred thousand calls stays small, and are
written out once, when the run ends.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values = {}
        self.counts = {}
        self._stack = [-1]
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        nid, idx = self._id(name), len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, value=None):
        """Replace owner.attr by a function that records a span per call;
        value(result), if given, is kept under the span name."""
        fn = getattr(owner, attr)
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        values = self.values.setdefault(name, []) if value else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if values is not None:
                values.append(value(result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def count(self, owner, attr, key):
        """Replace owner.attr by a function that only counts its calls."""
        fn = getattr(owner, attr)
        cell = self.counts.setdefault(key, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, fn))

    def installed(self):
        """Number of wraps and counts in place, for restore(keep)."""
        return len(self._restore)

    def restore(self, keep=0):
        """Undo the wraps and counts made after the first keep, newest first."""
        while len(self._restore) > keep:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def _arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start),
            np.array(self.end),
        )

    def durations(self, name):
        """Durations in seconds of every span with this name."""
        if name not in self._ids:
            return np.empty(0)
        names, _, start, end = self._arrays()
        mask = names == self._ids[name]
        return end[mask] - start[mask]

    def minus_children(self, name, children):
        """Durations of the spans called name, each less the durations of
        its direct children whose names are in children."""
        if name not in self._ids:
            return np.empty(0)
        names, parent, start, end = self._arrays()
        own = np.flatnonzero(names == self._ids[name])
        rest = end[own] - start[own]
        child_ids = [self._ids[c] for c in children if c in self._ids]
        kids = np.flatnonzero(np.isin(names, child_ids) & (parent >= 0))
        if len(kids):
            slot = np.searchsorted(own, parent[kids])
            hit = (slot < len(own)) & (own[np.minimum(slot, len(own) - 1)] == parent[kids])
            np.subtract.at(rest, slot[hit], end[kids[hit]] - start[kids[hit]])
        return rest

    def count_under(self, name, ancestor):
        """Number of spans called name that ancestor (a name) encloses."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        target = self._ids[ancestor]
        found = 0
        for idx in np.flatnonzero(self._arrays()[0] == self._ids[name]):
            idx = self.parent[idx]
            while idx >= 0 and self.name[idx] != target:
                idx = self.parent[idx]
            found += idx >= 0
        return found

    def write(self, path):
        names, parent, start, end = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=names,
            parent=parent,
            start=start,
            end=end,
        )
