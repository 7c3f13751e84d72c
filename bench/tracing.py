"""Span tracer that wraps a package's public functions from the outside.

The library has no instrumentation of its own, so the traced run replaces
each public function of the layer modules (and every copy of it that
another module imported by name) with a wrapper that records a span:
(name, start_ns, end_ns, parent). Spans live in memory and are written out
once, at the end. `restore` puts every original object back; the self-test
checks that it does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Records spans for the public functions of `layers` while installed.

    `layers` maps a short layer name ("dynamics") to its module. Public
    functions defined in a layer module are traced as "<layer>.<name>", and
    classes defined there with their own (non-dataclass) `__init__` are
    traced as "<layer>.<Class>". `hooks` maps a span name to a callable
    `hook(tracer, args, kwargs, result)` that runs after the span closes and
    records counts with `count`, `maximum` and `values`.
    """

    def __init__(self, package: str, layers: dict, hooks: dict | None = None):
        self.package = package
        self.layers = layers
        self.hooks = hooks or {}
        self.spans: list = []          # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.values: dict = {}
        self._stack: list[int] = []
        self._patched: list = []       # (owner, attribute, original)

    # -- counters used by hooks --------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == self.package or name.startswith(self.package + "."))]
        try:
            for layer, module in self.layers.items():
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrapped = self._wrap(f"{layer}.{attr}", obj)
                        for owner in owners:
                            for name, value in list(vars(owner).items()):
                                if value is obj:
                                    self._patch(owner, name, wrapped)
                    elif (inspect.isclass(obj) and "__init__" in vars(obj)
                          and not dataclasses.is_dataclass(obj)):
                        self._patch(obj, "__init__", self._wrap(f"{layer}.{attr}", vars(obj)["__init__"]))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself around the block."""
        idx = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter_ns())

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: int, end: int) -> None:
        self._stack.pop()
        name, _, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, clock())
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def summary(self, roots: dict) -> dict:
        """Per span name: busy seconds, self seconds, calls and per-call durations.

        `roots` maps a root span name (a span the benchmark opened with
        `span`) to the divisor for spans under it, so that totals come out
        per repetition. Spans under roots not listed are ignored.
        """
        n = len(self.spans)
        dur = np.fromiter((s[2] - s[1] for s in self.spans), dtype=np.int64, count=n)
        child = np.zeros(n, dtype=np.int64)
        root = np.empty(n, dtype=np.int64)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                root[i] = root[parent]
            else:
                root[i] = i
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": Counter(), "durations_ns": []})
        for i, (name, _, _, _) in enumerate(self.spans):
            divisor = roots.get(self.spans[root[i]][0])
            if divisor is None or root[i] == i:
                continue
            entry = out[name]
            entry["s"] += dur[i] / divisor
            entry["self_s"] += (dur[i] - child[i]) / divisor
            entry["calls"][divisor] += 1
            entry["durations_ns"].append(int(dur[i]))
        for entry in out.values():
            entry["s"] /= 1e9
            entry["self_s"] /= 1e9
            entry["calls"] = sum(n / divisor for divisor, n in entry["calls"].items())
        return dict(out)

    def write(self, path) -> None:
        """Write every span as CSV: id,name,start_ns,end_ns,parent."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def tail_percentile(durations_ns) -> tuple[float, float]:
    """(p, value in us) for the highest percentile with at least 10 calls beyond it.

    With fewer than 20 calls no percentile above the median has 10 calls
    beyond it, and the median is returned.
    """
    d = np.asarray(durations_ns, dtype=np.float64) / 1e3
    if d.size == 0:
        return 50.0, 0.0
    p = 100.0 * (1.0 - 10.0 / d.size) if d.size >= 20 else 50.0
    return p, float(np.percentile(d, p))
