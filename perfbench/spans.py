"""In-memory span recording around functions patched from outside.

The traced benchmark run measures each layer without editing the
program: :class:`Patcher` swaps a span-recording wrapper in for every
binding of a target function or method — the defining module, every
``repro.*`` module that imported the name, module-level registries
(dicts) holding it, and class attributes — and puts the originals back
on exit.

A span is ``(name, start, end, parent, ctx, ok)``: ``parent`` is the
index of the enclosing span (``-1`` at top level), ``ctx`` the trial or
request id it ran under, and ``ok`` whether the call returned rather
than raised.  Spans stay in memory until :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, Optional[str], bool]

NAME, START, END, PARENT, CTX, OK = range(6)


class SpanRecorder:
    """Collects spans from the wrappers of one traced run (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._ctx: List[Optional[str]] = [None]

    def wrap(
        self,
        fn: Callable,
        name: str,
        ctx_of: Optional[Callable[[tuple, dict], str]] = None,
    ) -> Callable:
        """A wrapper of *fn* that records one span per call."""
        spans = self.spans
        stack = self._stack
        ctxs = self._ctx
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            ctx = ctx_of(args, kwargs) if ctx_of is not None else ctxs[-1]
            stack.append(index)
            ctxs.append(ctx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                ctxs.pop()
                spans[index] = (name, start, end, parent, ctx, ok)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def finished(self) -> List[Span]:
        """All spans; raises if a wrapped call is still open."""
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("span recorder read while a span is open")
        return list(self.spans)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, span in enumerate(self.finished()):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "ctx": span[CTX],
                            "ok": span[OK],
                        }
                    )
                    + "\n"
                )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``owner`` is a module name (``"repro.core.channel"``) or a class
    path (``"repro.core.ledger:CapacityLedger"``); ``attr`` the function
    or method name; ``span`` the span name recorded for each call.
    """

    owner: str
    attr: str
    span: str
    ctx_of: Optional[Callable[[tuple, dict], str]] = None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


#: Only the program's own modules are patched.
PACKAGE = "repro"


class Patcher:
    """Context manager that installs span wrappers and restores them.

    Function targets are replaced wherever the original object is bound
    at module level in a ``repro`` module, including values of
    module-level dicts; method targets are replaced on the class
    (static methods stay static).
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        #: (container, key, original) — container is a dict or a class.
        self._undo: List[Tuple[object, str, object]] = []

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def __enter__(self) -> "Patcher":
        try:
            for target in self.targets:
                owner = _resolve(target.owner)
                if isinstance(owner, type):
                    self._patch_method(owner, target)
                else:
                    self._patch_function(owner, target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _patch_method(self, cls: type, target: Target) -> None:
        raw = cls.__dict__[target.attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(
                self.recorder.wrap(raw.__func__, target.span, target.ctx_of)
            )
        else:
            wrapped = self.recorder.wrap(raw, target.span, target.ctx_of)
        self._undo.append((cls, target.attr, raw))
        setattr(cls, target.attr, wrapped)

    def _patch_function(self, module, target: Target) -> None:
        original = getattr(module, target.attr)
        wrapped = self.recorder.wrap(original, target.span, target.ctx_of)
        for candidate in self._modules():
            namespace = vars(candidate)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapped
                elif type(value) is dict:
                    for inner_key, inner in list(value.items()):
                        if inner is original:
                            self._undo.append((value, inner_key, original))
                            value[inner_key] = wrapped

    def restore(self) -> None:
        """Put every original binding back (idempotent)."""
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def leftovers(self) -> List[str]:
        """Bindings that still hold a span wrapper (must be empty)."""
        found = []
        for module in self._modules():
            for key, value in vars(module).items():
                if getattr(value, "__wrapped_by_perfbench__", False):
                    found.append(f"{module.__name__}.{key}")
                elif type(value) is dict:
                    for inner_key, inner in value.items():
                        if getattr(inner, "__wrapped_by_perfbench__", False):
                            found.append(
                                f"{module.__name__}.{key}[{inner_key!r}]"
                            )
                elif isinstance(value, type):
                    for attr, raw in vars(value).items():
                        func = getattr(raw, "__func__", raw)
                        if getattr(func, "__wrapped_by_perfbench__", False):
                            found.append(f"{module.__name__}.{key}.{attr}")
        return found
