"""Outside-in span tracer for the traced benchmark run.

``Tracer.install`` replaces public baxterlab functions, in memory, with
wrappers that record one span per call: id, parent id, name, start, end,
the id of the CLI request being served and the thread.  Every binding site
is wrapped, not only the defining module: ``series`` does ``from .rules
import next_level``, so ``series.next_level`` is replaced as well as
``rules.next_level``.  ``Tracer.restore`` puts every original back.

Parent stacks are thread-local because ``checks.run_suite`` calls the
layers from a thread pool.  A span opened on a thread with an empty stack
has no parent.  Spans stay in memory; ``dump`` writes them at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    request: int | None
    thread: int


# observe(tracer, args, kwargs, result) runs after the span has ended.
Observer = Callable[["Tracer", tuple, dict, object], None]


class Target(NamedTuple):
    name: str
    owner: str  # dotted module path, or module path + ":" + class name
    attr: str
    observe: Observer | None = None


def _resolve(owner: str) -> object:
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


def binding_sites(fn: object, package: str = "baxterlab") -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded package that holds ``fn``."""
    sites = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                sites.append((mod, attr))
    return sites


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.records: dict[str, list] = defaultdict(list)
        self.lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, name, t0, t1, tracer.request,
                                  threading.get_ident()))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            owner = _resolve(target.owner)
            original = vars(owner)[target.attr]
            wrapper = self._wrap(target.name, original, target.observe)
            sites = [(owner, target.attr)]
            sites += [s for s in binding_sites(original) if s[0] is not owner]
            for site, attr in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    def add(self, counter: str, value: float) -> None:
        with self.lock:
            self.counters[counter] += value

    def maximum(self, counter: str, value: float) -> None:
        with self.lock:
            self.counters[counter] = max(self.counters[counter], value)

    def record(self, key: str, item: object) -> None:
        with self.lock:
            self.records[key].append(item)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread, nested and one after another,
    so their durations add up to the covered part.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.t1 - s.t0
    return {s.sid: (s.t1 - s.t0) - covered[s.sid] for s in spans}
