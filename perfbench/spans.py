"""Spans and counters recorded from outside splinephase.

The program is not edited.  Wrappers replace the public functions of each
layer as bound in the module that calls them (``frames.exact_rank`` is the
collocation layer's rank as the frames layer sees it), record one span per
call and leave the behaviour untouched.  Spans live in flat arrays and are
written out when the run ends.  A span's self time is its duration minus
the time its direct child spans cover; a layer's self time is the sum over
its spans.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

# (module, name bound in that module, span name).  The layer is the span
# name's prefix.  The B-spline evaluator is called once per matrix entry and
# is only observed through its cache counters.
BINDINGS = [
    ("splinephase.cli", "is_local_sampling", "sequences.certify"),
    ("splinephase.cli", "is_almost_phaseless", "sequences.certify"),
    ("splinephase.cli", "is_local_phaseless", "sequences.certify"),
    ("splinephase.cli", "is_global_phaseless", "sequences.global"),
    ("splinephase.retrieval", "is_local_phaseless", "sequences.certify"),
    ("splinephase.sequences", "count", "sequences.count"),
    ("splinephase.cli", "reconstruct", "retrieval.reconstruct"),
    ("splinephase.cli", "partition_oracle", "retrieval.oracle"),
    ("splinephase.cli", "build_counterexample", "retrieval.counterexample"),
    ("splinephase.retrieval", "null_space", "collocation.null_space"),
    ("splinephase.frames", "null_space", "collocation.null_space"),
    ("splinephase.frames", "exact_rank", "collocation.exact_rank"),
    ("splinephase.frames", "to_matrix", "collocation.build"),
    ("splinephase.cli", "is_almost_phase_retrievable", "frames.almost_pr"),
    ("splinephase.jsonio", "loads", "jsonio.decode"),
    ("splinephase.jsonio", "decode_point_input", "jsonio.decode"),
    ("splinephase.jsonio", "decode_sample_set", "jsonio.decode"),
    ("splinephase.jsonio", "decode_unsigned_samples", "jsonio.decode"),
    ("splinephase.jsonio", "decode_matrix", "jsonio.decode"),
    ("splinephase.jsonio", "encode_certificate", "jsonio.encode"),
    ("splinephase.jsonio", "encode_recovery", "jsonio.encode"),
    ("splinephase.jsonio", "encode_counterexample", "jsonio.encode"),
    ("splinephase.jsonio", "dumps", "jsonio.encode"),
]

LAYERS = ("cli", "jsonio", "sequences", "collocation", "retrieval", "frames")

# Caches read through ``cache_info()``.  A cache a later version removes
# reports None.
CACHES = {
    "bspline.cache": ("splinephase.bspline", "_bspline_value"),
    "retrieval.support_cache": ("splinephase.retrieval", "_support_analysis"),
    "retrieval.vanishing_cache": ("splinephase.retrieval", "_vanishing_basis"),
}


def cache_infos() -> Dict[str, Optional[tuple]]:
    """Current (hits, misses, entries) of each cache, or None where it is gone."""
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
        out[name] = None if info is None else tuple(info()[i] for i in (0, 1, 3))
    return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request = -1
        self.solutions_returned = 0
        self._saved: List[tuple] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self.stack[-1])
            self.request_of.append(self.request)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = t0
                self.stack.pop()

        return traced

    def install(self) -> None:
        """Patch every binding that exists; a missing one records no spans."""
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            fn = self._counting_solutions(original) if name == "retrieval.reconstruct" else original
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _counting_solutions(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.solutions_returned += len(result.solutions)
            return result

        return counted

    def summary(self, request_sizes: Sequence[Dict[str, int]]):
        """Per-name calls and inclusive time, per-layer self time, size buckets.

        A span nested directly in one of the same name (a decoder calling
        another) counts once, with the outer span's time.
        """
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls: Dict[str, int] = defaultdict(int)
        inclusive: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        by_size: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            name = self.names[self.name_of[i]]
            layer = name.split(".")[0]
            own = dur[i] - covered[i]
            self_s[layer] += own
            p = self.parent[i]
            if p < 0 or self.name_of[p] != self.name_of[i]:
                calls[name] += 1
                inclusive[name] += dur[i]
            for key, size in request_sizes[self.request_of[i]].items():
                if key.startswith(layer + "."):
                    by_size[key][size] += own
        requests: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for sizes in request_sizes:
            for key, size in sizes.items():
                requests[key][size] += 1
        buckets = {
            key: {
                str(size): {
                    "requests": requests[key][size],
                    "self_s": by_size[key][size],
                    "mean_self_ms": 1000 * by_size[key][size] / requests[key][size],
                }
                for size in sorted(requests[key])
            }
            for key in sorted(requests)
        }
        return calls, inclusive, self_s, buckets

    def write(self, path) -> None:
        """One line per span: index, name, request, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\trequest\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                handle.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    i, self.names[self.name_of[i]], self.request_of[i], self.parent[i], self.start[i], self.end[i]))
