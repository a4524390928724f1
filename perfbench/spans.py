"""In-memory spans recorded around calls into gridpriv's modules.

A span has a name, start, end, parent span and op id. Spans are kept in a
list and written out once, when the run ends. The untraced run uses a
disabled tracer, whose spans cost one generator frame and record nothing.
"""

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.op = None  # id shared by the spans of one op
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        """Record one span; attrs (counts, sizes) may be added to the yielded dict."""
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(rec, result, args) may annotate the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None and self.enabled:
                after(rec, result, args)
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace (owner, attr, name[, after]) callables with traced ones,
        restoring the originals on exit. Class-level attributes that are
        classmethods stay classmethods."""
        saved = []
        try:
            for owner, attr, name, *after in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, *after))
                else:
                    new = self.wrap(name, raw, *after)
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def children(self, span):
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span):
        """Span duration minus the part of it its child spans cover."""
        covered, edge = 0.0, span["start"]
        for c in sorted(self.children(span), key=lambda s: s["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        return span["end"] - span["start"] - covered

    def named(self, name, ops=None):
        return [s for s in self.spans if s["name"] == name and (ops is None or s["op"] in ops)]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
