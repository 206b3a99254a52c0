"""Iterative adaptive refinement of the smoothing surface.

Each outer iteration computes indicator values, then marks and bisects edges
until the node count doubles, re-selects the smoothing parameter by GCV and
re-fits.  The loop stops on an optional RMSE tolerance, on stagnation (RMSE
improved by less than a set fraction for a number of consecutive
iterations) or at the iteration cap.  New interior node values warm-start as
the mean of the bisected edge's endpoints; new boundary node values follow
the configured boundary strategy.
"""

import logging
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .assembly import FemSystem
from .boundary import (BoundaryStrategy, BoundaryValues,
                       constant_boundary_values, initial_boundary_values,
                       new_boundary_node_values)
from .data import DataSet
from .exceptions import EmptyField, ZeroInterior
from .gcv import GcvConfig, select_alpha
# auxiliary_indicator is not called here; it stays importable under this
# module's name for the benchmark's tracer (perfbench/tracing.py)
from .indicators import (auxiliary_field, auxiliary_indicator,
                         auxiliary_indicators, locate_by_tri, mark,
                         raise_to_base_edges, recovery_field,
                         recovery_indicator)
from .mesh import build_square_mesh, mesh_polygon, trim_to_irregular
from .solver import SaddleSystem, Smoother, max_abs_residual, rmse
from .tps import SamplePlan, fit_tps, sample, select_alpha_tps

logger = logging.getLogger("tpsfem")

NEAR_BOUNDARY_RADIUS = 0.005


@dataclass
class RunConfig:
    """Settings of one smoothing run."""
    domain: str = "square"            # square | irregular | polygon
    refine: str = "adaptive"          # uniform | adaptive
    indicator: str = "recovery"       # recovery | auxiliary
    boundary: str = "average"         # tps | average | constant
    alpha: object = "auto"            # "auto" or a positive float
    max_iters: int = None             # defaults per domain/refinement
    rmse_tolerance: float = None
    stagnation_ratio: float = 0.10
    stagnation_iters: int = 2         # 0 disables the stagnation stop
    seed: int = 0
    trim_level: int = 2
    tps_samples: int = 300
    gcv: GcvConfig = None
    gamma: float = 0.5
    constant_value: float = 0.0
    polygon: list = None

    def resolved_max_iters(self):
        if self.max_iters is not None:
            return self.max_iters
        if self.domain == "square":
            return 8 if self.refine == "adaptive" else 10
        return 7 if self.refine == "adaptive" else 8

    def to_dict(self):
        out = asdict(self)
        if self.gcv is not None:
            out["gcv"] = {"alpha_grid": list(map(float, self.gcv.alpha_grid)),
                          "probes": self.gcv.probes,
                          "refine_iters": self.gcv.refine_iters}
        if self.polygon is not None:
            out["polygon"] = [np.asarray(l).tolist() for l in self.polygon]
        return out


@dataclass
class IterationRecord:
    """Per-iteration metrics (node counts are strictly increasing)."""
    iteration: int
    nodes: int
    alpha: float
    rmse: float
    max_residual: float
    solve_seconds: float
    near_boundary_ratio: float
    marked_edges: int
    refined_edges: int

    def to_dict(self):
        return asdict(self)


def _seed_for(seed, tag):
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def initial_mesh(data, cfg):
    if cfg.domain == "square":
        return build_square_mesh(0)
    if cfg.domain == "irregular":
        return trim_to_irregular(build_square_mesh(cfg.trim_level), data)
    if cfg.domain == "polygon":
        if cfg.polygon is None:
            raise ValueError("polygon domain requires cfg.polygon loops")
        return mesh_polygon(cfg.polygon, refine_level=cfg.trim_level)
    raise ValueError(f"unknown domain {cfg.domain!r}")


class _NodeValues:
    """Grow-able per-node arrays of the four fields plus the w proxy."""

    NAMES = ("c", "g1", "g2", "w", "w_proxy")

    def __init__(self, n):
        self.arrays = {name: np.zeros(n) for name in self.NAMES}

    def set_boundary(self, bv):
        for name in ("c", "g1", "g2", "w"):
            self.arrays[name][bv.nodes] = getattr(bv, name)
        self.arrays["w_proxy"][bv.nodes] = (0.0 if bv.w_proxy is None
                                            else bv.w_proxy)

    def set_from_smoother(self, s):
        for name in ("c", "g1", "g2", "w"):
            self.arrays[name] = np.array(getattr(s, name), dtype=float)

    def extend(self, mesh, events, strategy, alpha):
        """Add the nodes created by ``events``, filled in creation order
        because a node's parents may be earlier nodes of the same wave.

        The arrays are replaced, never written in place, so a view handed
        out earlier keeps its values.
        """
        grow = np.zeros(mesh.n_nodes - len(self.arrays["c"]))
        self.arrays = {name: np.concatenate([v, grow])
                       for name, v in self.arrays.items()}
        for ev in events:
            if ev.boundary:
                new = new_boundary_node_values(
                    strategy, mesh, ev.node, (ev.parent_a, ev.parent_b),
                    self.arrays, alpha=alpha)
            else:
                new = [0.5 * (v[ev.parent_a] + v[ev.parent_b])
                       for v in self.arrays.values()]
            for v, value in zip(self.arrays.values(), new):
                v[ev.node] = value

    def boundary_values(self, mesh):
        nodes = np.asarray(mesh.boundary_nodes(), dtype=int)
        return BoundaryValues(nodes=nodes, **{name: v[nodes] for name, v
                                              in self.arrays.items()})

    def view(self, mesh, alpha):
        return Smoother(mesh=mesh, alpha=alpha, c=self.arrays["c"],
                        g1=self.arrays["g1"], g2=self.arrays["g2"],
                        w=self.arrays["w"])


def _make_strategy(cfg, data, seed):
    """Fit the boundary spline and build the refinement strategy."""
    if cfg.boundary == "constant":
        return BoundaryStrategy(kind="constant",
                                constant_value=cfg.constant_value), None
    count = min(cfg.tps_samples, len(data))
    if count < 10:
        count = len(data)
    samp = sample(data, SamplePlan("quadtree", count=count), seed=seed)
    alpha_tps = select_alpha_tps(samp)
    tps = fit_tps(samp, alpha_tps)
    kind = "tps_approximation" if cfg.boundary == "tps" else "nodal_average"
    return BoundaryStrategy(kind=kind, tps=tps), tps


def _indicator_field(kind, smoother, data, alpha, by_tri):
    if kind == "recovery":
        return recovery_field(smoother)
    return auxiliary_field(smoother, data, alpha, by_tri)


def _refresh_field(field, kind, mesh, smoother, data, alpha, by_tri,
                   new_tri_floor):
    """Drop dead edges and compute values for edges new to the field."""
    for eid in [e for e in field.values if e not in mesh.edges]:
        del field.values[eid]
    if kind == "recovery":
        ids = mesh.tri_table.ids
        ids = ids[ids >= new_tri_floor]
        raise_to_base_edges(field.values, mesh, ids,
                            recovery_indicator(smoother, ids))
    else:
        new = [e for e in mesh.refinable_edges() if e not in field.values]
        etas = auxiliary_indicators(smoother, data, new, alpha, by_tri)
        field.values.update(zip(new, etas.tolist()))


def run(data, cfg=None):
    """Full smoothing pipeline on an (already normalised) data set.

    Returns
    -------
    (Smoother, list of IterationRecord)
    """
    cfg = cfg or RunConfig()
    gcv_cfg = cfg.gcv or GcvConfig()
    mesh = initial_mesh(data, cfg)
    strategy, tps = _make_strategy(cfg, data, _seed_for(cfg.seed, 0))

    values = _NodeValues(mesh.n_nodes)
    if strategy.kind == "constant":
        bv0 = constant_boundary_values(mesh, cfg.constant_value)
    else:
        bv0 = initial_boundary_values(mesh, tps, alpha=1.0)
    values.set_boundary(bv0)

    records = []
    stagnant = 0
    stop = None
    max_iters = cfg.resolved_max_iters()

    def fit(iteration, marked, refined):
        bv = values.boundary_values(mesh)
        fem = FemSystem.build(mesh, data, bv=bv)
        if isinstance(cfg.alpha, (int, float)):
            alpha = float(cfg.alpha)
        else:
            alpha = select_alpha(fem, data, gcv_cfg,
                                 seed=_seed_for(cfg.seed, 100 + iteration))
        s = SaddleSystem(fem, alpha).solve()
        values.set_from_smoother(s)
        try:
            ratio = mesh.near_boundary_ratio(NEAR_BOUNDARY_RADIUS)
        except ZeroInterior:
            ratio = float("nan")
        records.append(IterationRecord(
            iteration=iteration, nodes=mesh.n_nodes, alpha=alpha,
            rmse=rmse(s, data, fem.located),
            max_residual=max_abs_residual(s, data, fem.located),
            solve_seconds=s.info["solve_seconds"],
            near_boundary_ratio=ratio,
            marked_edges=marked, refined_edges=refined))
        return s, fem

    smoother, fem = fit(0, 0, 0)

    for k in range(1, max_iters + 1):
        prev_nodes = mesh.n_nodes
        marked_total = 0
        if cfg.refine == "uniform":
            events = mesh.uniform_refine()
            values.extend(mesh, events, strategy, smoother.alpha)
            refined_total = len(events)
        else:
            field, floor, refined_total = None, None, 0
            while mesh.n_nodes < 2 * prev_nodes:
                # the field is brought up to date only before a wave reads
                # it; after the last wave comes the fit
                by_tri = (locate_by_tri(mesh, data)
                          if cfg.indicator == "auxiliary" else None)
                if field is None:
                    field = _indicator_field(cfg.indicator, smoother, data,
                                             smoother.alpha, by_tri)
                else:
                    _refresh_field(field, cfg.indicator, mesh,
                                   values.view(mesh, smoother.alpha), data,
                                   smoother.alpha, by_tri, floor)
                try:
                    marked = mark(field, cfg.gamma)
                except EmptyField:
                    logger.warning("iteration %d: empty indicator field", k)
                    break
                floor = mesh._next_tri
                events = mesh.refine_wave(marked)
                if not events:
                    logger.warning("iteration %d: marked edges produced no "
                                   "refinement", k)
                    break
                values.extend(mesh, events, strategy, smoother.alpha)
                marked_total += len(marked)
                refined_total += len(events)
            if refined_total == 0:
                stop = "no_refinement"
                break
        smoother, fem = fit(k, marked_total, refined_total)

        if cfg.rmse_tolerance is not None and records[-1].rmse <= cfg.rmse_tolerance:
            stop = "tolerance"
            break
        # floor the comparison so exact fits register as stagnant
        prev = max(records[-2].rmse, 1e-14)
        cur = max(records[-1].rmse, 1e-14)
        improvement = (prev - cur) / prev
        stagnant = stagnant + 1 if improvement < cfg.stagnation_ratio else 0
        if cfg.stagnation_iters and stagnant >= cfg.stagnation_iters:
            stop = "stagnation"
            break
    smoother.info["stop_reason"] = stop or "max_iters"
    smoother.info["dropped_points"] = fem.located.n_dropped
    return smoother, records
