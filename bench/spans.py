"""Spans around the program's layers, installed from outside the program.

Every public function of a layer module, and every method written in the
source of a public class there, is replaced by a wrapper that records a span
(layer, name, start, end, parent, job, vertex count).  The wrapper is put in
place at every module binding that refers to the original, because modules
import each other's functions by name (`from .spectra import in_direct_sum`).
Private helpers stay unwrapped, so their time counts toward the public
function of their layer that called them.  Spans stay in memory until the
pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "spectra", "constructions", "reduction", "search", "characterize", "cli")

# span fields
LAYER, NAME, START, END, PARENT, JOB, SIZE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            values = getattr(args[0], "values", None) if args else None
            size = len(values) if isinstance(values, tuple) else 0
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.job, size]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def install(self, package: str) -> None:
        """Wrap the layers of `package` in place."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, module, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])

    def _wrap_methods(self, layer, module, cls) -> None:
        for attr, member in list(vars(cls).items()):
            fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
            dunder = attr.startswith("__") and attr.endswith("__")
            # dataclass-generated methods are compiled from strings, not the module source
            if (not inspect.isfunction(fn) or (attr.startswith("_") and not dunder)
                    or fn.__code__.co_filename != module.__file__):
                continue
            wrapped = self.wrap(layer, f"{cls.__name__}.{attr}", fn)
            setattr(cls, attr, wrapped if fn is member else type(member)(wrapped))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("layer,name,start,end,parent,job,size\n")
            for s in self.spans:
                fh.write(",".join(map(str, s)) + "\n")


def summarize(spans: list[list]) -> dict:
    """Self time per layer, entries into each layer and entry time by vertex count.

    Self time is a span's duration minus the durations of its direct children.
    An entry is a span whose parent belongs to another layer (or is absent).
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    entries = defaultdict(int)
    entry_s_by_size = defaultdict(float)
    entries_by_size = defaultdict(int)
    for k, s in enumerate(spans):
        dur = s[END] - s[START]
        self_s[s[LAYER]] += dur - child[k]
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != s[LAYER]:
            entries[s[LAYER]] += 1
            if s[SIZE]:
                entry_s_by_size[(s[LAYER], s[SIZE])] += dur
                entries_by_size[(s[LAYER], s[SIZE])] += 1
    return {
        "self_s": self_s,
        "entries": dict(entries),
        "ms_per_entry": {f"{layer}.{size}": 1000 * t / entries_by_size[(layer, size)]
                         for (layer, size), t in entry_s_by_size.items()},
    }
