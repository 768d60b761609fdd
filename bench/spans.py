"""In-memory span tracer that wraps public cylrsk functions from the outside.

Each traced call records a span: name, start, end and parent span.  Spans
live in flat arrays while the run goes on and are turned into per-name call
counts, self times and total times when it ends.  Nothing inside ``src/`` is
changed on disk; the wrappers are put into the loaded modules and taken out
again by ``uninstall``.
"""

import functools
import gzip
import json
import sys
import time
from array import array


def _cylrsk_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "cylrsk" or n.startswith("cylrsk."))
    ]


class Tracer:
    """Wraps ``layer.name`` targets; a class target traces its constructor."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors = {}
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name):
        nid = self._name_id(span_name)
        layer = span_name.split(".")[0]
        names, name, parent = self.names, self.name, self.parent
        start, end, stack, errors = self.start, self.end, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            p = stack[-1]
            name.append(nid)
            parent.append(p)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                if p < 0 or names[name[p]].split(".")[0] != layer:
                    errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _patch(self, container, key, new, is_item):
        old = container[key] if is_item else container.__dict__[key]
        self._patches.append((container, key, old, is_item))
        if is_item:
            container[key] = new
        else:
            setattr(container, key, new)

    def install(self):
        """Wrap every target where it is defined and wherever it was imported by name."""
        modules = _cylrsk_modules()
        by_name = {m.__name__: m for m in modules}
        for target in self.targets:
            mod_name, attr = target.rsplit(".", 1)
            orig = vars(by_name["cylrsk." + mod_name])[attr]
            if isinstance(orig, type):
                init = vars(orig)["__init__"]
                self._patch(orig, "__init__", self._wrap(init, target), False)
                continue
            wrapper = self._wrap(orig, target)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper, False)
                    elif type(value) is dict:  # dispatch tables such as ROUTES
                        for k, v in list(value.items()):
                            if v is orig:
                                self._patch(value, k, wrapper, True)

    def uninstall(self):
        """Put every original back, last patch first."""
        while self._patches:
            container, key, old, is_item = self._patches.pop()
            if is_item:
                container[key] = old
            else:
                setattr(container, key, old)

    def summary(self, total_names=()):
        """Per span name: calls, self seconds, and (for total_names) total seconds.

        A total counts only outermost spans of a name, so recursion is not
        counted twice.
        """
        return summarize(
            self.names, self.name, self.parent, self.start, self.end, total_names
        )

    def write(self, path):
        """Write the spans, gzipped: a JSON header line, then the four arrays."""
        header = {"names": self.names, "count": len(self.start), "arrays": FIELDS}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                getattr(self, field).tofile(fh)


FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def read(path):
    """Load a file written by Tracer.write: (names, {field: array})."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    arrays, offset = {}, 0
    for field, code in FIELDS:
        arr = array(code)
        size = arr.itemsize * header["count"]
        arr.frombytes(body[offset:offset + size])
        arrays[field] = arr
        offset += size
    return header["names"], arrays


def self_times(parent, start, end):
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in order of start time, as the tracer records them.
    Children are clipped to their parent and overlaps between children are
    counted once.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = {}  # parent -> end of the children's union so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    for i in range(n):
        covered[i] = end[i] - start[i] - covered[i]
    return covered


def summarize(names, name, parent, start, end, total_names=()):
    selfs = self_times(parent, start, end)
    out = {nm: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for nm in names}
    want_total = {names.index(t) for t in total_names if t in names}
    for i, nid in enumerate(name):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if nid in want_total:
            p = parent[i]
            while p >= 0 and name[p] != nid:
                p = parent[p]
            if p < 0:
                row["total_s"] += end[i] - start[i]
    return out
