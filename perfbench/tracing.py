"""The traced run's instruments, installed from the benchmark's own files.

* :class:`Spans` records a span around each call the benchmark makes
  into a layer (workload generation, simulator construction, the run,
  the sweep).  Spans stay in memory until the benchmark writes its
  report at the end.
* :class:`LayerProfile` runs a callable under ``cProfile`` and splits
  the profiled time into per-layer *self* time: every function's own
  time is charged to the package that defines it, and a C builtin's
  time is charged to the packages of its callers, pro rata.  The layer
  self times therefore sum to the profiled total.  It also counts calls
  across the public boundaries between layers.
* :func:`useful_snoops` counts the ``cares_about`` tests made by
  ``SnoopingCache.snoop`` that come back true, by wrapping the public
  method for the duration of the run; nothing under ``src/`` changes.
"""

from __future__ import annotations

import cProfile
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers are the packages under ``src/repro``.  ``core`` (the paper's
#: lock protocol) belongs to ``protocols``; every other repro package
#: or module (``common``, ``memory``, ``api``, ...) is ``misc``; code
#: outside repro (the standard library, the interpreter) is ``other``.
LAYERS = ("sim", "bus", "cache", "protocols", "processor",
          "directory_backend", "analysis", "verify", "obs", "workloads",
          "misc", "other")
_PACKAGE_LAYER = {"core": "protocols"}
#: Labels ``cProfile`` gives C functions.
_BUILTIN = "~"


class Spans:
    """Nested named time intervals, kept in memory."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_s": time.perf_counter() - self.origin,
                  "end_s": None, **fields}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_s"] = time.perf_counter() - self.origin

    def self_times(self) -> dict[str, float]:
        """Each span name's duration minus what its child spans cover."""
        own = defaultdict(float)
        for record in self.records:
            duration = record["end_s"] - record["start_s"]
            own[record["name"]] += duration
            if record["parent"] is not None:
                own[self.records[record["parent"]]["name"]] -= duration
        return dict(own)


class LayerProfile:
    """One ``cProfile`` run, viewed as layers and the calls between them."""

    def __init__(self, repro_dir: str, charge: dict | None = None) -> None:
        self._repro_prefix = os.path.abspath(repro_dir) + os.sep
        #: Function label -> layer.  Seeded with benchmark functions that
        #: stand in for a layer's own code (the counting wrapper).
        self._layers: dict[tuple, str] = dict(charge or {})
        #: ``cProfile`` label -> (calls, total calls, self s, cumulative s,
        #: {caller label: (total calls, calls, self s, cumulative s)}).
        self.stats: dict = {}
        self.seconds = 0.0

    def run(self, fn, *args, **kwargs):
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profile.disable()
            self.seconds = time.perf_counter() - start
            profile.create_stats()
            self.stats = profile.stats

    def layer(self, func: tuple) -> str:
        """The layer a profiled function belongs to (``other`` for
        builtins; see :meth:`self_times` for how their time is charged)."""
        found = self._layers.get(func)
        if found is None:
            found = "other"
            if func[0] != _BUILTIN:
                path = os.path.abspath(func[0])
                if path.startswith(self._repro_prefix):
                    package = path[len(self._repro_prefix):].split(os.sep)
                    name = package[0] if len(package) > 1 else ""
                    name = _PACKAGE_LAYER.get(name, name)
                    found = name if name in LAYERS else "misc"
            self._layers[func] = found
        return found

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer; the values sum to :meth:`total`."""
        times = dict.fromkeys(LAYERS, 0.0)
        for func, (_, _, tt, _, callers) in self.stats.items():
            if func[0] != _BUILTIN:
                times[self.layer(func)] += tt
                continue
            base = sum(values[2] for values in callers.values())
            if base <= 0.0:
                times["other"] += tt
                continue
            for caller, values in callers.items():
                times[self.layer(caller)] += tt * values[2] / base
        return times

    def total(self) -> float:
        return sum(entry[2] for entry in self.stats.values())

    def _calls_from(self, entry, caller) -> int:
        if caller is None:
            return entry[1]
        return sum(values[0] for source, values in entry[4].items()
                   if caller(self.layer(source), source[2]))

    def calls(self, callee, caller=None) -> int:
        """Calls to functions matching ``callee(layer, name)`` made by
        functions matching ``caller(layer, name)`` (any, when ``None``)."""
        return sum(self._calls_from(entry, caller)
                   for func, entry in self.stats.items()
                   if func[0] != _BUILTIN and callee(self.layer(func), func[2]))

    def calls_to(self, labels: set, caller=None) -> int:
        """Calls to the exact functions ``labels`` (``cProfile`` labels)."""
        return sum(self._calls_from(self.stats[func], caller)
                   for func in labels if func in self.stats)


def label(function) -> tuple:
    """The ``cProfile`` label of a Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class SnoopCounter:
    """``cares_about`` tests made by ``SnoopingCache.snoop`` that came
    back true."""

    def __init__(self) -> None:
        self.useful = 0


@contextmanager
def useful_snoops(cache_cls):
    """Count, while the block runs, the ``cares_about`` tests that
    ``cache_cls.snoop`` makes and how many come back true.  Yields the
    counter and the wrapper's profile label (charged to ``cache``)."""
    original = cache_cls.__dict__["cares_about"]
    snoop_code = cache_cls.snoop.__code__
    counter = SnoopCounter()
    getframe = sys._getframe

    def cares_about(self, block):
        result = original(self, block)
        if result and getframe(1).f_code is snoop_code:
            counter.useful += 1
        return result

    cache_cls.cares_about = cares_about
    try:
        yield counter, label(cares_about)
    finally:
        cache_cls.cares_about = original
