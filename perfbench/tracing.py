"""In-memory span tracing of tpsfem layers, installed from outside the package.

Each target is a name that tpsfem code looks up when it makes the call: a
module global such as ``tpsfem.driver.select_alpha``, or a class attribute
such as ``TriMesh.locate``.  ``Tracer.installed()`` replaces every target
with a wrapper and puts each original object back on exit, also when the
traced code raises.  A wrapper records one span (name, start, end, parent)
in flat arrays and may bump counters; the spans stay in memory until
``Tracer.save`` writes them out.
"""

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One name to wrap.

    ``owner`` is the dotted path of a module, a class or a module reached
    through an attribute (``tpsfem.solver.spla``).  ``span`` is None for a
    target that only counts.  ``observe(tracer, args, kwargs, result)`` runs
    after each call that returned.
    """
    owner: str
    attr: str
    span: str = None
    observe: object = None


def _observe_locate_dataset(tr, args, kwargs, result):
    tr.add("assembly.locate_dataset.points", len(args[1]))
    tr.add("assembly.locate_dataset.dropped", result.n_dropped)


def _observe_system_build(tr, args, kwargs, result):
    tr.peak("solver.unknowns_max", args[0].n_unknowns)


def _observe_splu(tr, args, kwargs, result):
    tr.add("solver.factorize.count")
    if tr.inside("gcv.select_alpha"):
        tr.add("gcv.factorizations")


def _observe_minres(tr, args, kwargs, result):
    tr.add("solver.minres_fallbacks")


def _observe_select_alpha(tr, args, kwargs, result):
    from tpsfem.gcv import GcvConfig
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or GcvConfig()
    if result in (cfg.alpha_grid[0], cfg.alpha_grid[-1]):
        tr.add("gcv.edge_picks")


def _observe_auxiliary_indicator(tr, args, kwargs, result):
    if result == 0.0:
        tr.add("indicators.auxiliary_zeros")


def _observe_refine_wave(tr, args, kwargs, result):
    tr.add("mesh.nodes_created", len(result))


#: Every wrapped name.  The indicator functions are wrapped both where the
#: driver looks them up (incremental refresh) and where the field builders
#: do (the full field of each iteration), so their counts cover every call.
TARGETS = (
    Target("tpsfem.driver", "select_alpha", "gcv.select_alpha",
           _observe_select_alpha),
    Target("tpsfem.driver", "recovery_field", "indicators.recovery_field"),
    Target("tpsfem.driver", "auxiliary_field", "indicators.auxiliary_field"),
    Target("tpsfem.driver", "locate_by_tri", "indicators.locate_by_tri"),
    Target("tpsfem.driver", "recovery_indicator",
           "indicators.recovery_indicator"),
    Target("tpsfem.indicators", "recovery_indicator",
           "indicators.recovery_indicator"),
    Target("tpsfem.driver", "auxiliary_indicator",
           "indicators.auxiliary_indicator", _observe_auxiliary_indicator),
    Target("tpsfem.indicators", "auxiliary_indicator",
           "indicators.auxiliary_indicator", _observe_auxiliary_indicator),
    Target("tpsfem.driver", "trim_to_irregular", "mesh.trim"),
    Target("tpsfem.driver", "sample", "tps.boundary_fit"),
    Target("tpsfem.driver", "select_alpha_tps", "tps.boundary_fit"),
    Target("tpsfem.driver", "fit_tps", "tps.boundary_fit"),
    Target("tpsfem.driver", "new_boundary_node_values",
           "boundary.new_node_values"),
    Target("tpsfem.assembly", "locate_dataset", "assembly.locate_dataset",
           _observe_locate_dataset),
    Target("tpsfem.gcv", "gcv_score", "gcv.score"),
    Target("tpsfem.gcv", "influence_trace", "gcv.influence_trace"),
    Target("tpsfem.mesh.TriMesh", "locate", "mesh.locate"),
    Target("tpsfem.mesh.TriMesh", "refine_wave", "mesh.refine_wave",
           _observe_refine_wave),
    Target("tpsfem.assembly.FemSystem", "build", "assembly.fem_build"),
    Target("tpsfem.solver.SaddleSystem", "__init__", "solver.system_build",
           _observe_system_build),
    Target("tpsfem.solver.SaddleSystem", "factorize", "solver.factorize"),
    Target("tpsfem.solver.SaddleSystem", "solve_raw", "solver.solve"),
    Target("tpsfem.solver.spla", "splu", None, _observe_splu),
    Target("tpsfem.solver.spla", "minres", None, _observe_minres),
)


def resolve(path):
    """Import a dotted path that names a module, a class or an attribute."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(f"cannot import {path}")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = Counter()
        self.missing = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name):
        """Open a span under the innermost open span; returns its index."""
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index):
        self.end[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close in reverse order of opening")

    @contextlib.contextmanager
    def span(self, name):
        """Record the block as one span; yields the span's index."""
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    def duration(self, index):
        return self.end[index] - self.start[index]

    def add(self, key, amount=1):
        self.counters[key] += amount

    def peak(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def inside(self, name):
        """True when a span of this name is open."""
        wanted = self._ids.get(name)
        return wanted is not None and any(self.name[i] == wanted
                                          for i in self._stack)

    # -- installing wrappers --------------------------------------------

    def _wrap(self, fn, target):
        span, observe = target.span, target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                index = self.begin(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.finish(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block.

        A target whose owner or attribute no longer exists is skipped and
        listed in ``self.missing``.
        """
        saved = []
        try:
            for target in targets:
                try:
                    owner = resolve(target.owner)
                except (ImportError, AttributeError):
                    owner = None
                original = vars(owner).get(target.attr) if owner else None
                if original is None:
                    self.missing.append(f"{target.owner}.{target.attr}")
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(original.__func__, target))
                else:
                    wrapped = self._wrap(original, target)
                saved.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children.

        Calls run on one thread, so children of a span never overlap and
        their summed durations are the part of the parent they cover.
        """
        if self._stack:
            raise RuntimeError("spans are still open")
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=self.parent.typecode)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def totals(self):
        """Map span name -> (calls, summed self time in seconds)."""
        name = np.frombuffer(self.name, dtype=self.name.typecode)
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self.self_times(),
                             minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        """Write every span as parallel arrays to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=self.name.typecode),
            parent=np.frombuffer(self.parent, dtype=self.parent.typecode),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))


#: The benchmark's own span around ``tpsfem.driver.run``; every other span
#: of a traced fit nests inside it.
ROOT_SPAN = "driver.run"

SPANS = (ROOT_SPAN,) + tuple(dict.fromkeys(t.span for t in TARGETS if t.span))


def layer_metrics(tracer):
    """Per-layer values of one traced fit, keyed by metric name.

    Every span name gets a ``.self_s`` entry, so these sum to the duration
    of the root span.
    """
    totals = tracer.totals()
    count = tracer.counters

    def calls(span):
        return totals.get(span, (0, 0.0))[0]

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {f"{span}.self_s": totals.get(span, (0, 0.0))[1] for span in SPANS}
    out.update({
        "mesh.locate.calls": calls("mesh.locate"),
        "mesh.nodes_created": count["mesh.nodes_created"],
        "assembly.locate_dataset.calls": calls("assembly.locate_dataset"),
        "assembly.locate_dataset.points":
            count["assembly.locate_dataset.points"],
        "assembly.locate_dataset.dropped":
            count["assembly.locate_dataset.dropped"],
        "assembly.fem_build.calls": calls("assembly.fem_build"),
        "solver.system_build.calls": calls("solver.system_build"),
        "solver.factorize.count": count["solver.factorize.count"],
        "solver.solve.count": calls("solver.solve"),
        "solver.minres_fallbacks": count["solver.minres_fallbacks"],
        "solver.unknowns_max": count["solver.unknowns_max"],
        "gcv.score_evals": calls("gcv.score"),
        "gcv.factorizations_per_fit": share(count["gcv.factorizations"],
                                            calls("gcv.select_alpha")),
        "gcv.edge_picks": count["gcv.edge_picks"],
        "indicators.recovery_indicator.calls":
            calls("indicators.recovery_indicator"),
        "indicators.auxiliary_indicator.calls":
            calls("indicators.auxiliary_indicator"),
        "indicators.auxiliary_zero_share":
            share(count["indicators.auxiliary_zeros"],
                  calls("indicators.auxiliary_indicator")),
        "boundary.new_node_values.calls": calls("boundary.new_node_values"),
        "trace.spans": len(tracer.start),
        "trace.missing_targets": len(tracer.missing),
    })
    return out
