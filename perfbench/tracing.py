"""In-memory spans around the public functions each layer calls.

A span has an id, the id of the span open when it began (its parent), a
layer name, and start and end times in nanoseconds.  Spans are kept in flat
arrays while the pass runs and written out once it has ended.  Each
layer's self time is the length of its spans minus the part their child
spans cover; a stack of open spans accumulates it as spans close, so no
second pass over the spans is needed.

Wrappers are installed at the names the caller looks up, for example
`unitfrac.sweep.relative_gcds`.  A name that a later version of the package
no longer has is skipped, and its metrics read zero.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.layers: list = []
        self._index: dict = {}
        self.self_ns: list = []
        self.calls: list = []
        self.counts: dict = {}
        self.parent = array("q")
        self.layer_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []

    def layer(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.layers)
            self.layers.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return idx

    def begin(self, layer: int) -> None:
        stack = self._stack
        sid = len(self.start)
        self.parent.append(stack[-1][3] if stack else -1)
        self.layer_of.append(layer)
        self.end.append(0)
        now = _clock()
        self.start.append(now)
        stack.append([layer, now, 0, sid])

    def finish(self) -> None:
        now = _clock()
        stack = self._stack
        layer, started, child, sid = stack.pop()
        elapsed = now - started
        self.end[sid] = now
        self.self_ns[layer] += elapsed - child
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += elapsed

    @contextmanager
    def span(self, name: str):
        self.begin(self.layer(name))
        try:
            yield
        finally:
            self.finish()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_s(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.self_ns[idx] / 1e9

    def calls_of(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def write(self, path: str) -> None:
        """One span a line: id, parent id, layer, start and end in ns from
        the first span's start."""
        origin = self.start[0] if len(self.start) else 0
        layers = self.layers
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tlayer\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                out.write("%d\t%d\t%s\t%d\t%d\n" % (
                    sid, self.parent[sid], layers[self.layer_of[sid]],
                    self.start[sid] - origin, self.end[sid] - origin))

    # -- wrappers --------------------------------------------------------

    def traced(self, fn, name: str, on_result=None):
        """fn wrapped in a span of layer `name`."""
        layer = self.layer(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a traced version, if it is there."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        setattr(owner, attr, self.traced(fn, name, on_result))

    def wrap_stream(self, owner, attr: str, name: str) -> None:
        """Trace each step of the generator that owner.attr returns."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        layer = self.layer(name)
        begin, finish = self.begin, self.finish

        def steps(gen):
            while True:
                begin(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    finish()
                    return
                except BaseException:
                    finish()
                    raise
                finish()
                yield item

        def wrapper(*args, **kwargs):
            begin(layer)
            try:
                gen = iter(fn(*args, **kwargs))
            finally:
                finish()
            return steps(gen)

        setattr(owner, attr, wrapper)

    def wrap_factory(self, owner, attr: str, name: str) -> None:
        """owner.attr returns a function; trace the calls of what it returns."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        made: dict = {}

        def wrapper(*args, **kwargs):
            product = fn(*args, **kwargs)
            if product not in made:
                made[product] = self.traced(product, name)
            return made[product]

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of a method or a property getter, without a span."""
        member = owner.__dict__.get(attr) if isinstance(owner, type) else None
        counts = self.counts
        counts.setdefault(name, 0)
        if isinstance(member, property):
            fget = member.fget

            def getter(obj):
                counts[name] += 1
                return fget(obj)

            setattr(owner, attr, property(getter, member.fset, member.fdel,
                                          member.__doc__))
            return
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
