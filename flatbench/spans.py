"""Spans around the public functions of flatsem, recorded from outside.

``Tracer.install`` replaces every public function of each flatsem module, and
``Lexicon.embed``, with a wrapper that records one span per call: name,
start, end, parent span, plus a size for the calls whose cost depends on one
(tokens for ``analyze`` / ``decode``, selector cells for ``select``, rows for
``load_tsv``).  A function is wrapped under every name it is looked up by --
``decoder.analyze`` as well as ``encoder.analyze``, ``flatsem.decode`` as
well as ``decoder.decode`` -- and calls inside a module go through its own
globals, so ``seq.shift_right`` calling ``select`` is seen too.  Every span
of one function carries the name of its defining module.

Spans are kept in flat arrays while a round lasts and written out at its
end.  The wrappers live in the tracing process only; the program's files are
not touched.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

MODULES = ("seq", "lexicon", "encoder", "decoder", "logical_form", "grammar",
           "oracle", "coverage", "fuzz", "cli")
METHODS = (("lexicon", "Lexicon", "embed"),)


# Sizes of the calls whose cost depends on one; ``result`` is None when the
# call raised.
def _tokens_arg(args: tuple, kwargs: dict, result: Any) -> int:
    tokens = args[0] if args else kwargs.get("tokens", kwargs.get("sentence"))
    return len(tokens.split()) if isinstance(tokens, str) else len(tokens)


SIZES: dict[str, Callable[[tuple, dict, Any], int]] = {
    "seq.select": lambda a, k, r: 0 if r is None else len(r) * len(r),
    "encoder.analyze": _tokens_arg,
    "decoder.decode": _tokens_arg,
    "cli.load_tsv": lambda a, k, r: 0 if r is None else len(r),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack = [-1]
        self._active: list[int] = []
        self.enabled = False

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self.name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        size = SIZES.get(name)
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active
        names, parents, starts, ends, sizes, nested = (
            self.name, self.parent, self.start, self.end, self.size, self.nested)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(active[nid] > 0)
            sizes.append(0)
            ends.append(0)
            starts.append(clock())
            stack.append(i)
            active[nid] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[i] = clock()
                stack.pop()
                active[nid] -= 1
                if size is not None:
                    sizes[i] = size(args, kwargs, result)

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap each public function of flatsem's modules wherever the
        package or one of its modules binds it."""
        modules = {m: importlib.import_module(f"flatsem.{m}") for m in MODULES}
        namespaces = [importlib.import_module("flatsem"), *modules.values()]
        wrapped: dict[int, Callable] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, attr, wrapped[id(obj)])
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, method, self.wrap(f"{short}.{method}", cls.__dict__[method]))

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: a header with the names,
        then one ``[name, parent, start_ns, end_ns, size]`` list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self)}) + "\n")
            for i in range(len(self)):
                fh.write(f"[{self.name[i]},{self.parent[i]},{self.start[i]},"
                         f"{self.end[i]},{self.size[i]}]\n")


def self_times(parent: Iterable[int], start: Iterable[int], end: Iterable[int]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and overlapping children count
    once, so the result never goes below zero.
    """
    start, end = list(start), list(end)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0, lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


class Summary:
    """Per-name totals over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer.names)
        self.calls = [0] * n
        self.ns = [0] * n  # outermost spans only, so recursion counts once
        self.self_ns = [0] * n
        self.size = [0] * n
        own = self_times(tracer.parent, tracer.start, tracer.end)
        for i in range(len(tracer)):
            k = tracer.name[i]
            self.calls[k] += 1
            self.self_ns[k] += own[i]
            self.size[k] += tracer.size[i]
            if not tracer.nested[i]:
                self.ns[k] += tracer.end[i] - tracer.start[i]

    def _k(self, name: str) -> Optional[int]:
        return self.tracer.name_ids.get(name)

    def count(self, name: str) -> int:
        k = self._k(name)
        return 0 if k is None else self.calls[k]

    def ms(self, name: str) -> float:
        k = self._k(name)
        return 0.0 if k is None else self.ns[k] / 1e6

    def self_ms(self, name: str) -> float:
        k = self._k(name)
        return 0.0 if k is None else self.self_ns[k] / 1e6

    def total_size(self, name: str) -> int:
        k = self._k(name)
        return 0 if k is None else self.size[k]

    def spans_of(self, name: str) -> list[int]:
        k = self._k(name)
        return [] if k is None else [i for i in range(len(self.tracer)) if self.tracer.name[i] == k]

    def under(self, ancestor: str) -> list[bool]:
        """For each span, whether it runs inside a span named ``ancestor``."""
        k = self._k(ancestor)
        t = self.tracer
        inside = [False] * len(t)
        if k is None:
            return inside
        for i in range(len(t)):
            p = t.parent[i]
            inside[i] = t.name[i] == k or (p >= 0 and inside[p])
        return inside
