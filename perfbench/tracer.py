"""Span tracer that wraps finbundles' public functions from outside.

No file of the program changes.  ``Tracer.install`` replaces every public
function (no leading underscore) of the layer modules by a wrapper:

* in its defining module,
* in every finbundles module that imported it by name (``suites``
  imports ``enumerate_torsors``, ``categories`` imports ``pullback``, ...)
  and in module-level dicts such as ``cli.COMMANDS``,
* and, for the public methods of ``FinFn`` and of the three category
  classes, on the class itself.

Each call records a span (function, start, end, parent span) in flat
in-memory arrays.  A generator records one span per resumption and
counts the items it yields.  ``Tracer.metrics`` folds the spans into call
counts and self times at the end of the run; self time is a span's
duration minus the time covered by its child spans, so time spent in
code that is not wrapped is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from array import array

LAYERS = ("finset", "algebra", "categories", "torsor", "adjunction", "suites", "cli")

# Classes whose public methods are wrapped, per layer.  Methods of the
# other classes are small accessors (Product.index, ActionObject.apply,
# UnionFind.find, ...) that would cost more to trace than they run.
CLASSES = {"finset": ("FinFn",),
           "categories": ("SliceCategory", "ActionCategory", "SliceOverCategory")}

# Public functions of the layer modules that are deliberately not wrapped.
EXCLUDED = {
    "cli.main": "the child calls it directly and times it as the workload",
}


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str, str]] = []  # (layer, qualname, attr) per function id
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.yielded: list[int] = []
        self.span_fid = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.stack = [-1]
        self.originals: dict[str, object] = {}
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, attr: str, fn):
        fid = len(self.keys)
        self.keys.append((layer, qualname, attr))
        self.calls.append(0)
        self.raised.append(0)
        self.yielded.append(0)
        self.originals[layer + "." + qualname] = fn
        calls, raised, yielded, stack = self.calls, self.raised, self.yielded, self.stack
        fids, starts, ends, parents = (self.span_fid, self.span_start,
                                       self.span_end, self.span_parent)
        clock = time.perf_counter_ns

        def open_span() -> int:
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i: int) -> None:
            ends[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                calls[fid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = open_span()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            raised[fid] += 1
                            raise
                        finally:
                            close_span(i)
                        yielded[fid] += 1
                        yield item
                finally:
                    it.close()
        else:
            def wrapper(*args, **kwargs):
                calls[fid] += 1
                i = open_span()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raised[fid] += 1
                    raise
                finally:
                    close_span(i)

        functools.update_wrapper(wrapper, fn)
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def install(self) -> None:
        mods = {layer: importlib.import_module("finbundles." + layer) for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not _is_function(obj)
                        or obj.__module__ != mod.__name__
                        or layer + "." + attr in EXCLUDED):
                    continue
                self._wrap(layer, attr, attr, obj)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    qualname = cls_name + "." + attr
                    if isinstance(raw, staticmethod):
                        setattr(cls, attr, staticmethod(
                            self._wrap(layer, qualname, attr, raw.__func__)))
                    elif isinstance(raw, types.FunctionType):
                        setattr(cls, attr, self._wrap(layer, qualname, attr, raw))
        for mod in [importlib.import_module("finbundles"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if self._wrapped(obj) is not None:
                    setattr(mod, attr, self._wrapped(obj))
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if self._wrapped(v) is not None:
                            obj[k] = self._wrapped(v)

    def _wrapped(self, obj):
        entry = self._wrappers.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    def coverage_problems(self) -> list[str]:
        """Public functions and class methods of the layer modules that
        are reachable unwrapped, and exclusions that name nothing."""
        problems = []
        listed = set(EXCLUDED)
        wrappers = {id(w) for _, w in self._wrappers.values()}
        for layer in LAYERS:
            mod = importlib.import_module("finbundles." + layer)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not _is_function(obj)
                        or not obj.__module__.startswith("finbundles.")):
                    continue
                key = obj.__module__.rpartition(".")[2] + "." + attr
                if key in EXCLUDED:
                    listed.discard(key)
                elif id(obj) not in wrappers:
                    problems.append("unwrapped: %s (seen in %s)" % (key, layer))
            for cls_name in CLASSES.get(layer, ()):
                for attr, raw in vars(getattr(mod, cls_name)).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                            and layer + "." + cls_name + "." + attr not in self.originals):
                        problems.append("unwrapped: %s.%s.%s" % (layer, cls_name, attr))
        problems.extend("excluded name not found: " + key for key in sorted(listed))
        return problems

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def metrics(self) -> dict:
        """Per-function and per-layer call counts, self times and yields,
        keyed ``<layer>.<attr>`` with class methods of one layer merged
        (``categories.product`` sums the three category classes)."""
        n = len(self.span_start)
        starts, ends, parents, fids = (self.span_start, self.span_end,
                                       self.span_parent, self.span_fid)
        child_ns = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        self_ns = [0] * len(self.keys)
        spans = [0] * len(self.keys)
        for i in range(n):
            self_ns[fids[i]] += ends[i] - starts[i] - child_ns[i]
            spans[fids[i]] += 1
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for fid, (layer, qualname, attr) in enumerate(self.keys):
            for key in (layer + "." + attr, layer):
                add(key + ".calls", self.calls[fid])
                add(key + ".self_s", self_ns[fid] / 1e9)
            add(layer + "." + attr + ".spans", spans[fid])
            add(layer + "." + attr + ".raised", self.raised[fid])
            add(layer + "." + attr + ".yielded", self.yielded[fid])
        return out
