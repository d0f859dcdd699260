"""In-memory span tracer that wraps functions at their module bindings.

A span is (name, start, end, parent).  ``Tracer.install`` replaces every
binding of each target function in the ``ejalg`` package's module
namespaces (the defining module and every module that imported it by
name), so calls made through any of those names are recorded; callers
that look a name up at call time, which is every call site in
``ejalg``, go through the wrapper.  ``Tracer.restore`` puts every
original object back.

The tracer assumes one thread: spans nest through a single stack.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

WRAPPED_MARK = "__bench_traced__"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _label_id(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self._label_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for fn.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result)`` sees each normal return.  Both run inside the
        span, so their cost lands in its self time.
        """
        lid = self._label_id(name)
        label, parent, start, end = self.label, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            label.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        setattr(traced, WRAPPED_MARK, True)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        idx = len(self.start)
        self.label.append(self._label_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    # -- installing and restoring ---------------------------------------------

    def install(self, package: str, targets, hooks=None) -> int:
        """Wrap each ``(module, function)`` target at all of its bindings.

        Returns the number of bindings replaced.  A target that does not
        exist raises, so a renamed function cannot silently drop out.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        hooks = hooks or {}
        by_id = {}
        for mod_name, fn_name in targets:
            fn = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            before, after = hooks.get(name, (None, None))
            by_id[id(fn)] = (fn, self.wrap(name, fn, before, after))
        for mod in package_modules(package):
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return len(self._patched)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reading spans --------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the part of it its children cover."""
        n = len(self.start)
        covered = array("d", [0.0]) * n
        reach = array("d", [float("-inf")]) * n  # end of the children seen so far
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            lo = max(self.start[i], reach[p])
            if self.end[i] > lo:
                covered[p] += self.end[i] - lo
                reach[p] = self.end[i]
        return array("d", (self.end[i] - self.start[i] - covered[i] for i in range(n)))

    def totals(self) -> dict[str, dict]:
        """name -> {calls, self_s} over every recorded span."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.labels}
        for i, s in enumerate(self.self_times()):
            row = out[self.labels[self.label[i]]]
            row["calls"] += 1
            row["self_s"] += s
        return out

    def durations(self, name: str) -> list[float]:
        lid = self._label_ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.start)) if self.label[i] == lid]

    def root_coverage(self, windows) -> float:
        """Seconds of the given (start, end) windows that root spans cover."""
        roots = sorted((self.start[i], self.end[i]) for i in range(len(self.start)) if self.parent[i] < 0)
        total = 0.0
        for w0, w1 in windows:
            reach = w0
            for s, e in roots:
                lo, hi = max(s, reach), min(e, w1)
                if hi > lo:
                    total += hi - lo
                    reach = hi
        return total


def package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == package or name.startswith(package + "."))]


def leftover_wrappers(package: str) -> list[str]:
    """Bindings in the package that still hold a traced wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in package_modules(package)
        for attr, val in list(vars(mod).items())
        if getattr(val, WRAPPED_MARK, False)
    ]
