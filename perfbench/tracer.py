"""Spans around calls into a package's public functions, kept in memory.

The tracer wraps, from outside the package, every public function of every
module (on the defining module, on each module that imported the name at
top level, in module-level dispatch dicts) and every public method of every
public class.  A wrapped call records a span: name, start, end, parent span
and job id.  Self time is a span's duration minus the time its child spans
cover.  Functions named in ``count_only`` are too small and too frequent to
time without distorting the run; they only count calls, and their time stays
in the caller's self time.

``install()`` patches, ``uninstall()`` restores the originals, so the same
process can run traced and untraced passes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict
from enum import Enum

# operator methods that are part of a class's public API
_OPERATORS = ("__add__", "__sub__", "__neg__")


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _OPERATORS


class Tracer:
    """Call counts, self and total times, extra counters and raw spans."""

    def __init__(self, package: str, count_only=(), hooks=None,
                 clock=time.perf_counter):
        self.package = package
        self.count_only = frozenset(count_only)
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.job = 0
        self.record = True     # keep raw spans; aggregates are always kept
        self.spans = []        # (id, name, start, end, parent id, job)
        self._stack = []       # frames of the open spans, innermost last
        self._next_id = 0
        self._depth = Counter()
        self._patches = []     # (owner, key, original, is_dict)
        self.names = set()     # every wrapped name
        self.calls = Counter()
        self.counters = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)

    # -- aggregates --------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh aggregation window; raw spans are kept."""
        # cleared in place: the counting wrappers hold a reference to calls
        self.calls.clear()
        self.counters.clear()
        self.self_s.clear()
        self.total_s.clear()

    def layer_self_s(self, layers) -> dict:
        """Self time summed over each layer's timed functions."""
        out = {layer: 0.0 for layer in layers}
        for name, s in self.self_s.items():
            layer = self.layer_of(name, layers)
            if layer is not None:
                out[layer] += s
        return out

    @staticmethod
    def layer_of(name: str, layers):
        best = None
        for layer in layers:
            if name.startswith(layer + ".") and (best is None
                                                 or len(layer) > len(best)):
                best = layer
        return best

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        self.names.add(name)
        if name in self.count_only:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            pre = hook.before(tracer) if hook is not None else None
            frame = tracer._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(frame)
            if hook is not None:
                hook.after(tracer, name, args, kwargs, result, pre)
            return result
        return timed

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, such as one job of a pass."""
        frame = self._start(name)
        try:
            yield
        finally:
            self._finish(frame)

    def _start(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        # [id, name, parent, time covered by children, start]
        frame = [self._next_id, name, parent, 0.0, 0.0]
        self._next_id += 1
        self._depth[name] += 1
        self._stack.append(frame)
        frame[4] = self.clock()
        return frame

    def _finish(self, frame: list) -> None:
        end = self.clock()
        span_id, name, parent, children, start = frame
        self._stack.pop()
        self._depth[name] -= 1
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        if self.record:
            self.spans.append((span_id, name, start, end, parent, self.job))
        self.calls[name] += 1
        self.self_s[name] += dur - children
        if self._depth[name] == 0:   # recursion: count the outer span once
            self.total_s[name] += dur

    # -- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items())
                if isinstance(m, types.ModuleType)
                and (n == self.package or n.startswith(prefix))]

    def _layer(self, module_name: str) -> str:
        if module_name == self.package:
            return module_name
        return module_name[len(self.package) + 1:]

    def install(self, also=()) -> None:
        """Wrap every public function and method of the package.

        ``also`` lists modules outside the package, such as the caller's
        own, whose top-level imports of package functions are redirected
        to the wrappers too.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrapped = {}   # id(original function) -> wrapper
        for mod in modules:
            layer = self._layer(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if not _public(attr):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                    wrapped[id(obj)] = w
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (BaseException, Enum))):
                    self._wrap_class(layer, obj)
        for mod in modules + list(also):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, obj, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._patch(obj, key, val, wrapped[id(val)],
                                        is_dict=True)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._patch(cls, attr, raw, new)

    def _patch(self, owner, key, original, wrapper, is_dict=False) -> None:
        if is_dict:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original, is_dict))

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent, job."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


class Hook:
    """Extra counters read from a traced call's arguments and result."""

    def before(self, tracer: Tracer):
        return None

    def after(self, tracer: Tracer, name, args, kwargs, result, pre) -> None:
        raise NotImplementedError


class ArgHook(Hook):
    """Adds ``fn(args, kwargs, result)`` to counter ``<name>.<key>``."""

    def __init__(self, key: str, fn):
        self.key = key
        self.fn = fn

    def after(self, tracer, name, args, kwargs, result, pre) -> None:
        tracer.counters[f"{name}.{self.key}"] += self.fn(args, kwargs, result)


class CallsDuringHook(Hook):
    """Counts calls of ``inner`` made while the hooked call runs, and hands
    them with the result to ``fn``, which returns counter increments."""

    def __init__(self, inner: str, fn):
        self.inner = inner
        self.fn = fn

    def before(self, tracer):
        return tracer.calls[self.inner]

    def after(self, tracer, name, args, kwargs, result, pre) -> None:
        inner_calls = tracer.calls[self.inner] - pre
        for key, val in self.fn(result, inner_calls).items():
            tracer.counters[f"{name}.{key}"] += val
