"""Span tracing installed from outside the program.

A ``Tracer`` replaces each public function of the depthlab modules, in every
module namespace (and module-level dict) that binds it, with a wrapper that
records one span per call: name, start, end and parent span.  Spans are kept
in flat in-memory arrays and written out once, when the op has finished.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType

import numpy as np

# Modules whose public functions are wrapped; span names use the short name.
TRACED_MODULES = (
    "depthlab.distributions",
    "depthlab.mixing",
    "depthlab.exact_depth",
    "depthlab.trees",
    "depthlab.montecarlo",
    "depthlab.cli",
)

# Module-level lru_caches read after each op: metric name -> (module, attribute).
CACHES = {
    "cache.record_matrix": ("depthlab.exact_depth", "_record_matrix_pow2"),
    "cache.ln_table": ("depthlab.exact_depth", "_ln_table"),
    "cache.harmonic": ("depthlab.distributions", "_harmonic_cached"),
    "cache.brute_depth_counts": ("depthlab.exact_depth", "_brute_depth_counts"),
    "cache.hypergeom_cdf": ("depthlab.montecarlo", "_hypergeom_cdf"),
}


class Tracer:
    """Records nested spans of one process into flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -------------------------------------------------------------- install

    def install(self) -> int:
        """Wrap every public function and classmethod; return how many."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for mod_name in TRACED_MODULES:
            mod = sys.modules[mod_name]
            short = mod_name.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, classmethod):
                            new = classmethod(self.wrap(f"{short}.{name}.{attr}", raw.__func__))
                            setattr(obj, attr, new)
                            self._patches.append(("attr", obj, attr, raw))
        namespaces = [
            m for k, m in sorted(sys.modules.items())
            if isinstance(m, ModuleType) and (k == "depthlab" or k.startswith("depthlab."))
        ]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, name, hit[1])
                    self._patches.append(("attr", ns, name, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
                            self._patches.append(("item", obj, key, value))
        return len(wrappers)

    def uninstall(self) -> None:
        for kind, target, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    # -------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        a = self.arrays()
        return self_times(self.names, a["name_id"], a["parent"], a["start"], a["end"])


def self_times(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time and self time (total minus direct children).

    Spans of one thread nest, so the part of a span covered by its children is
    the sum of their durations.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - covered[: dur.size]
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
        if calls[i]
    }


def cache_counters(caches: dict = CACHES) -> dict[str, dict]:
    """hits/misses of each named lru_cache; a cache that is gone is 'absent'."""
    out: dict[str, dict] = {}
    for metric, (mod_name, attr) in caches.items():
        info = getattr(getattr(sys.modules.get(mod_name), attr, None), "cache_info", None)
        if not callable(info):
            out[metric] = {"status": "absent"}
            continue
        ci = info()
        out[metric] = {"status": "present", "hits": ci.hits, "misses": ci.misses}
    return out
