"""In-memory span tracer that wraps the public functions of smallq's layers.

A span is (id, parent id, name, start, end). Spans live in flat arrays while
the traced program runs and are summarised (or written out) afterwards. The
tracer is single-threaded, like the program it wraps.

Two kinds of wrapper:

* span wrappers record a span per call; a layer's self time is the summed
  duration of its spans minus the part of each span covered by its child
  spans;
* count-only wrappers increment a counter and record no span, for hot
  scalar methods (``CycloElem.__bool__`` alone runs millions of times).
  Their time is charged to the nearest enclosing span.

``install`` replaces every wrapped function wherever a module of the package
holds it, so names imported with ``from .repcore import composition_factors``
are traced too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

ROOT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []             # name id -> "layer.Qualified.name"
        self.layers = []            # name id -> layer
        self._name_ids = {}
        self.parent = array("q")    # span id -> parent span id (ROOT at top)
        self.name = array("l")      # span id -> name id
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()    # 1 when no ancestor span has the same name
        self._active = []           # name id -> open spans of that name
        self._stack = [ROOT]
        self.counts = {}            # name -> calls, for count-only wrappers
        self.probes = {}            # probe name -> value (see ``probe_max``)

    # -- recording ---------------------------------------------------------

    def name_id(self, name, layer):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            self._active.append(0)
        return nid

    def open(self, nid):
        sid = len(self.name)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid):
        self.end[sid] = self.clock()
        self._stack.pop()
        self._active[self.name[sid]] -= 1

    def span_wrapper(self, fn, name, layer):
        nid = self.name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def probe_max(self, key, value):
        if value > self.probes.get(key, 0):
            self.probes[key] = value

    def probe_add(self, key, value):
        self.probes[key] = self.probes.get(key, 0) + value

    # -- summaries ---------------------------------------------------------

    def __len__(self):
        return len(self.name)

    def self_times(self):
        """Per span: duration minus the union of its children's intervals,
        clipped to the span."""
        n = len(self.name)
        children = [[] for _ in range(n)]
        for sid in range(n):
            p = self.parent[sid]
            if p != ROOT:
                children[p].append(sid)
        out = [0.0] * n
        for sid in range(n):
            lo, hi = self.start[sid], self.end[sid]
            covered, cur_lo, cur_hi = 0.0, None, None
            for c in sorted(children[sid], key=self.start.__getitem__):
                a, b = max(self.start[c], lo), min(self.end[c], hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (hi - lo) - covered
        return out

    def summary(self):
        """Aggregates by name and by layer.

        ``by_name[name]`` holds ``calls``, ``self_s`` and ``incl_s`` (summed
        over outermost spans of that name, so recursion is not counted twice);
        ``by_layer[layer]`` holds ``self_s``; ``root_s`` is the summed
        duration of top-level spans.
        """
        selfs = self.self_times()
        by_name = {}
        by_layer = {}
        root_s = 0.0
        for sid, st in enumerate(selfs):
            nid = self.name[sid]
            name, layer = self.names[nid], self.layers[nid]
            d = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            d["calls"] += 1
            d["self_s"] += st
            dur = self.end[sid] - self.start[sid]
            if self.outer[sid]:
                d["incl_s"] += dur
            by_layer[layer] = by_layer.get(layer, 0.0) + st
            if self.parent[sid] == ROOT:
                root_s += dur
        for name, calls in self.counts.items():
            by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            by_name[name]["calls"] += calls
        return {"by_name": by_name, "by_layer": by_layer, "root_s": root_s}

    def write_spans(self, fh):
        """One tab-separated line per span: id, parent, name, start, end."""
        for sid in range(len(self.name)):
            fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}"
                     f"\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")


# ---------------------------------------------------------------------------
# wrapping a package
# ---------------------------------------------------------------------------

def _is_plain_function(obj):
    return isinstance(obj, types.FunctionType) or isinstance(
        obj, functools._lru_cache_wrapper)


def public_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    defined in ``module`` and each public method of its classes."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if _is_plain_function(obj):
            out.append((attr, module, attr, obj))
        elif isinstance(obj, type):
            for mattr, mobj in sorted(vars(obj).items()):
                if not mattr.startswith("_") and isinstance(mobj, types.FunctionType):
                    out.append((f"{attr}.{mattr}", obj, mattr, mobj))
    return out


def install(tracer, package, layer_of, count_only=(), dunders=(), probes=None):
    """Wrap ``package``'s layers in place; returns the list of wrapped names.

    ``layer_of`` maps a module's short name to its layer. Functions named in
    ``count_only`` (as "module.Qualified.name") get count-only wrappers, as do
    the ``dunders`` (same naming, e.g. "scalars.CycloElem.__bool__"); an
    alias of a dunder in its class body is charged to the same counter.
    Generator functions are counted, since a span would only time their
    creation. ``probes`` maps a qualified name to ``fn(tracer, args,
    result)``, run after each call that returns.
    """
    probes = probes or {}
    modules = {short: sys.modules[f"{package}.{short}"] for short in layer_of}
    replaced = {}
    wrapped = []
    for short, module in modules.items():
        layer = layer_of[short]
        for qual, owner, attr, fn in public_callables(module):
            name = f"{short}.{qual}"
            if name in count_only or inspect.isgeneratorfunction(fn):
                new = tracer.count_wrapper(fn, name)
            else:
                new = tracer.span_wrapper(fn, name, layer)
            if name in probes:
                new = _with_probe(new, tracer, probes[name])
            setattr(owner, attr, new)
            replaced[id(fn)] = new
            wrapped.append(name)
    for name in dunders:
        short, cls_name, attr = name.split(".")
        cls = getattr(modules[short], cls_name)
        fn = vars(cls)[attr]
        new = tracer.count_wrapper(fn, name)
        for alias, obj in list(vars(cls).items()):
            if obj is fn:           # ``__rmul__ = __mul__`` shares the counter
                setattr(cls, alias, new)
        wrapped.append(name)
    # rebind names imported by value into other modules of the package
    for module in list(sys.modules.values()):
        mod_name = getattr(module, "__name__", None) or ""
        if not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            new = replaced.get(id(obj))
            if new is not None and new is not obj:
                setattr(module, attr, new)
    return wrapped


def _with_probe(fn, tracer, probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        probe(tracer, args, result)
        return result
    return wrapper
