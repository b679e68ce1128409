"""Per-layer wall-clock attribution, installed from outside ``src/``.

The tracer wraps each layer's public boundaries (see
:data:`benchmarks.harness.definitions.LAYERS`) and keeps, per layer, the
calls that crossed into it, its self time and the exceptions that left
it.  Self time is a wrapper's duration minus the time spent in nested
wrapped calls, so the self times of one op telescope exactly to the
time its outermost wrapped calls took.  A call into the layer already
innermost on the stack goes straight through untimed: it is that
layer's own work, and timing it would only add overhead.

Wrappers are installed by object identity.  A class method is replaced
on its class; a module function is replaced on every loaded ``repro``
module attribute that *is* the original, so ``from x import f`` aliases
are wrapped too.  :meth:`Tracer.uninstall` restores every original and
:meth:`Tracer.leaks` proves none is left behind.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

WRAPPED_ATTR = "__harness_original__"


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _unwrap_raw(raw: object) -> object:
    """The plain function behind a staticmethod/classmethod, else *raw*."""
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__
    return raw


class Tracer:
    """Boundary wrappers plus the per-layer tallies they feed."""

    def __init__(self, layers: Sequence[str],
                 clock: Callable[[], float] = time.perf_counter,
                 span_ops: int = 0) -> None:
        self.layers = list(layers)
        self.clock = clock
        n = len(self.layers)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        #: Wrappers time only while active (the harness's timed region);
        #: otherwise they pass straight through.
        self.active = False
        #: Index of the op being timed; tags every recorded span.
        self.op = -1
        #: Spans are kept for ops below this index (a serve-burst op
        #: crosses ~6000 boundaries, so a whole run would not fit a
        #: readable trace); the tallies always cover every op.
        self.span_ops = span_ops
        # Spans as parallel arrays: a warm op crosses hundreds of
        # boundaries, so per-span objects would dominate memory.
        self.span_id = array("q")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, object] = {}

    # -- wrapping --------------------------------------------------------

    def wrap(self, layer: int, fn: Callable) -> Callable:
        """A timing wrapper around *fn* attributed to layer index *layer*."""
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(f"cannot time lazy boundary {fn!r}")
        tracer = self
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][3] if stack else -1
            frame = [layer, 0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2]
                calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                if tracer.op < tracer.span_ops:
                    tracer._record(span_id, layer, start, end, parent)

        setattr(wrapper, WRAPPED_ATTR, fn)
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _record(self, span_id: int, layer: int, start: float, end: float,
                parent: int) -> None:
        self.span_id.append(span_id)
        self.span_layer.append(layer)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op)

    def record_op(self, start: float, end: float) -> None:
        """Keep the op's own span (layer index -1) for the trace file."""
        if self.op < self.span_ops:
            self._record(-1, -1, start, end, -1)

    # -- installation ----------------------------------------------------

    def install(self, boundaries: Sequence[Tuple[str, str, str]]) -> int:
        """Wrap every ``(layer, module, qualname)`` boundary; returns the
        number of attributes patched."""
        index = {name: i for i, name in enumerate(self.layers)}
        for layer_name, module_name, qualname in boundaries:
            layer = index[layer_name]
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                wrapped = self.wrap(layer, _unwrap_raw(raw))
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(wrapped)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original)
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._patches.append((mod, name, original))
        return len(self._patches)

    def _is_wrapper(self, value: object) -> bool:
        return id(_unwrap_raw(value)) in self._wrappers

    def uninstall(self) -> None:
        """Restore every original, including aliases bound after install
        (a module imported while tracing that copied a wrapper)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for owner, attr, value in self._installed():
            original = getattr(_unwrap_raw(value), WRAPPED_ATTR)
            if isinstance(value, (staticmethod, classmethod)):
                original = type(value)(original)
            setattr(owner, attr, original)

    def _installed(self) -> Iterator[Tuple[object, str, object]]:
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if self._is_wrapper(value):
                    yield mod, name, value
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    for attr, raw in list(vars(value).items()):
                        if self._is_wrapper(raw):
                            yield value, attr, raw

    def leaks(self) -> List[str]:
        """Every wrapper still reachable from a loaded ``repro`` module."""
        return sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                       for owner, attr, _ in self._installed()})

    # -- results ---------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, int]]:
        """layer -> (calls, self seconds, errors)."""
        return {name: (self.calls[i], self.self_s[i], self.errors[i])
                for i, name in enumerate(self.layers)}

    def write_chrome_trace(self, path: str, workload: str) -> int:
        """Write the kept spans as a Chrome trace; returns the span count."""
        n = len(self.span_start)
        origin = min(self.span_start) if n else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": f"harness {workload}"}}]
        for i in range(n):
            layer = self.span_layer[i]
            name = self.layers[layer] if layer >= 0 else "op"
            events.append({
                "name": name, "cat": "op" if layer < 0 else "layer",
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round((self.span_start[i] - origin) * 1e6, 3),
                "dur": round((self.span_end[i] - self.span_start[i]) * 1e6, 3),
                "args": {"op": self.span_op[i], "id": self.span_id[i],
                         "parent": self.span_parent[i]},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return n
