"""In-memory span tracer that wraps layer boundaries from outside the program.

Spans (name, start, end, parent, attributes) are kept in a list and written
out once the run ends.  Boundaries are wrapped where they are *defined* --
the class whose ``__dict__`` holds the method, or the module that holds the
function -- never on instances: streaming checkpoints pickle instances, and
the engines route work with identity tests such as
``type(proc).arrivals is BernoulliArrivals.arrivals``.  Wrapping in the
defining class keeps every such identity unchanged, and
:meth:`Tracer.check_identities` proves it after the wrappers are in.

A boundary called once per slot (the fabric arbiter's ``match``) is a
*leaf*: it records no span per call, only a call count and a time total
charged to the enclosing span, so its parent's self time still excludes it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        #: (parent span id, leaf name) -> [calls, seconds]
        self.leaves: Dict[Tuple[Optional[int], str], List[float]] = {}
        #: (attribute, classes, identity pattern before wrapping)
        self._identity_sets: List[Tuple[str, List[type], Any]] = []
        #: Values an ``attrs`` hook keeps for after the run.
        self.captured: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def open(self, name: str, **attrs: Any) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "start": _clock(),
                           "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "attrs": attrs})
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = _clock()
        if self._stack.pop() != sid:
            raise RuntimeError(
                f"span {self.spans[sid]['name']} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        sid = self.open(name, **attrs)
        try:
            yield sid
        finally:
            self.close(sid)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: str, *,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is the class that defines ``attr`` (or a module).
        ``attrs(bound_arguments, result)`` returns extra span attributes.
        """
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn) if attrs is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[sid]["attrs"].update(
                    attrs(bound.arguments, result))
            return result

        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_leaf(self, owner: Any, attr: str, name: str) -> None:
        """Count and time every call of ``owner.attr`` without a span."""
        raw = vars(owner)[attr]
        leaves = self.leaves
        stack = self._stack

        @functools.wraps(raw)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = _clock()
            try:
                return raw(*args, **kwargs)
            finally:
                key = (stack[-1] if stack else None, name)
                total = leaves.get(key)
                if total is None:
                    total = leaves[key] = [0, 0.0]
                total[0] += 1
                total[1] += _clock() - started

        setattr(owner, attr, wrapper)

    def wrap_defining(self, classes: Iterable[type], attr: str, name: str,
                      *, leaf: bool = False, **kwargs: Any) -> None:
        """Wrap ``attr`` once in every class of ``classes`` (and their
        bases) that defines it, as a span or (``leaf``) a counted leaf.

        The attribute identities among ``classes`` are remembered so
        :meth:`check_identities` can show the wrappers rerouted nothing.
        """
        classes = list(classes)
        owners = []
        for cls in classes:
            for base in cls.__mro__:
                if attr in vars(base) and base not in owners:
                    owners.append(base)
        self._identity_sets.append(
            (attr, classes, _identity_pattern(classes, attr)))
        for owner in owners:
            if leaf:
                self.wrap_leaf(owner, attr, name)
            else:
                self.wrap(owner, attr, name, **kwargs)

    def check_identities(self) -> List[str]:
        """Attribute-identity relations that the wrappers changed (empty
        when every ``A.attr is B.attr`` test answers as before)."""
        problems = []
        for attr, classes, before in self._identity_sets:
            if _identity_pattern(classes, attr) != before:
                problems.append(f"wrapping {attr!r} changed which classes "
                                "share one implementation")
        return problems

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def descendants(self, root: int) -> List[Dict[str, Any]]:
        """Spans under ``root`` (not including it), in start order."""
        inside = {root}
        out = []
        for span in self.spans[root + 1:]:
            if span["parent"] in inside:
                inside.add(span["id"])
                out.append(span)
        return out

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children and
        leaves cover."""
        times = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                times[span["parent"]] -= span["end"] - span["start"]
        for (parent, _name), (_calls, seconds) in self.leaves.items():
            if parent is not None:
                times[parent] -= seconds
        return times

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "leaves": [{"parent": p, "name": n, "calls": c,
                                   "seconds": t}
                                  for (p, n), (c, t) in self.leaves.items()]},
                      handle)


def _identity_pattern(classes: List[type], attr: str) -> List[List[bool]]:
    resolved = [getattr(cls, attr, None) for cls in classes]
    return [[a is b for b in resolved] for a in resolved]


def subclasses(root: type) -> List[type]:
    """``root`` and every class derived from it that is loaded now."""
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out
