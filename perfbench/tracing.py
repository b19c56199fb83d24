"""In-process span tracing of the cybordism layers, installed from outside.

:class:`Tracer.install` rebinds every public function name in every
``cybordism.*`` module namespace that holds it (module globals are looked
up at call time, so intra-module calls such as ``valuation -> is_prime``
are caught) and wraps ``TruncatedPolynomial.__mul__``.  A call to a
generator function is timed on each ``next()``, so the time spent
producing items counts to the generator's layer and the consumer's time
does not.

Each call is a span with a name, start, end, parent and job id.  The
layer of a span is the module that defines the function.  Self time is a
span's duration minus the time its child spans cover, accumulated per
layer as the spans close.  Spans at depth < ``KEEP_DEPTH`` are kept in
memory and written out by :meth:`Tracer.dump`; deeper ones (millions of
``valuation`` calls) are only counted, which keeps memory flat.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "generators", "partitions", "numthy", "cohomology", "toricdata")
RING_MUL = "cohomology.ring_mul"
# spans this shallow (the job, and the first layer call under it) are kept
KEEP_DEPTH = 2


class Tracer:
    def __init__(self):
        self.job = 0
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [child_time, span_id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.max_terms = 0
        self.spans: list[tuple] = []
        self._next_id = 0

    # -- span bookkeeping -------------------------------------------------

    def _span(self, fn, name: str, layer: str, args, kwargs):
        stack = self.stack
        self._next_id += 1
        span_id = self._next_id
        parent = stack[-1][1] if stack else None
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            self.self_s[layer] += elapsed - frame[0]
            self.inclusive_s[name] += elapsed
            self.calls[name] += 1
            if stack:
                stack[-1][0] += elapsed
            if len(stack) < KEEP_DEPTH:
                self.spans.append((self.job, span_id, parent, name, start, end))

    def _wrap(self, fn, name: str, layer: str):
        span = self._span
        if inspect.isgeneratorfunction(fn):

            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                step = inner.__next__
                try:
                    while True:
                        try:
                            item = span(step, name, layer, (), {})
                        except StopIteration:
                            return
                        self.calls[name + ".yielded"] += 1
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        def wrapper(*args, **kwargs):
            return span(fn, name, layer, args, kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}", layer)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        poly = importlib.import_module(f"{package.__name__}.cohomology").TruncatedPolynomial
        mul = poly.__mul__
        span = self._span

        def ring_mul(a, b):
            out = span(mul, RING_MUL, "cohomology", (a, b), {})
            if len(out.terms) > self.max_terms:
                self.max_terms = len(out.terms)
            return out

        for attr in ("__mul__", "__rmul__"):
            self._saved.append((poly, attr, vars(poly)[attr]))
            setattr(poly, attr, ring_mul)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for job, span_id, parent, name, start, end in self.spans:
                record = {"job": job, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")
