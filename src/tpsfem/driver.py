"""Iterative adaptive refinement of the smoothing surface.

Each outer iteration computes indicator values, then marks and bisects edges
until the node count doubles, re-selects the smoothing parameter by GCV and
re-fits.  The loop stops on an optional RMSE tolerance, on stagnation (RMSE
improved by less than a set fraction for a number of consecutive
iterations) or at the iteration cap.

The nodes of each refinement wave get their values in one step.  The
boundary strategy fixes the rows of the wave's new boundary nodes with one
batched call (``new_boundary_node_values``); every other new node then
warm-starts as the mean of its bisected edge's endpoints
(``mesh.fill_new_nodes``), the rule the auxiliary patch problems use too.

Every fit is the solve of one ``SaddleSystem``, the only one built on its
FemSystem.  A GCV search rescales its selection's system from candidate to
candidate and hands over the fit of the winning candidate's solution
(``gcv.Selection.fit``), so the selected alpha is not factorised again; a
given alpha gets a system of its own.

The data are located at most once per mesh state.  Trimming hands its
location to the first fit, and the first auxiliary wave of an iteration
groups the fit's location by triangle; only a refined mesh is located
again.
"""

import logging
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from .assembly import FemSystem, Located, locate_dataset
from .boundary import (BoundaryStrategy, BoundaryValues,
                       constant_boundary_values, initial_boundary_values,
                       new_boundary_node_values)
from .exceptions import EmptyField, ZeroInterior
from .gcv import GcvConfig, select_alpha
# auxiliary_indicator, recovery_indicator and select_alpha_tps are not
# called here; the tracer of perfbench/ wraps them
from .indicators import (auxiliary_field, auxiliary_indicator, locate_by_tri,
                         mark, recovery_field, recovery_indicator)
from .mesh import (build_square_mesh, fill_new_nodes, mesh_polygon,
                   trim_to_irregular)
from .solver import SaddleSystem, Smoother, max_abs_residual, rmse
from .tps import SamplePlan, fit_tps, sample, select_alpha_tps

logger = logging.getLogger("tpsfem")

NEAR_BOUNDARY_RADIUS = 0.005

#: the accepted values of the RunConfig fields that name a choice
CHOICES = {"domain": ("square", "irregular", "polygon"),
           "refine": ("uniform", "adaptive"),
           "indicator": ("recovery", "auxiliary"),
           "boundary": ("tps", "average", "constant")}


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

    def __post_init__(self):
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        for name in ("max_iters", "stagnation_iters"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be at least 0, got {value!r}")
        for name in ("stagnation_ratio", "rmse_tolerance"):
            value = getattr(self, name)
            if value is not None and np.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        if not self.tps_samples >= 10:
            raise ValueError(f"tps_samples must be at least 10, "
                             f"got {self.tps_samples!r}")
        if self.alpha != "auto" and not (isinstance(self.alpha, numbers.Real)
                                         and 0.0 < self.alpha < np.inf):
            raise ValueError("alpha must be 'auto' or positive and finite, "
                             f"got {self.alpha!r}")

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
    """The first mesh of a run and the data's ``Located`` on it, which
    trimming carries over from its own location; None for the domains made
    without locating the data."""
    if cfg.domain == "square":
        return build_square_mesh(0), None
    if cfg.domain == "irregular":
        mesh, rows, bary = trim_to_irregular(
            build_square_mesh(cfg.trim_level), data)
        return mesh, Located.from_rows(rows, bary)
    if cfg.polygon is None:
        raise ValueError("polygon domain requires cfg.polygon loops")
    return mesh_polygon(cfg.polygon, refine_level=cfg.trim_level), None


class _NodeValues:
    """One row c, g1, g2, w, w_proxy per mesh node, starting from the
    boundary values ``bv`` of the initial mesh.

    The table is replaced, never written in place, so a view handed out
    earlier keeps its values.
    """

    def __init__(self, mesh, bv):
        self.table = np.zeros((mesh.n_nodes, 5))
        self.table[bv.nodes] = np.column_stack([bv.c, bv.g1, bv.g2, bv.w,
                                                bv.w_proxy])

    def set_from_smoother(self, s):
        self.table = np.column_stack([s.c, s.g1, s.g2, s.w, self.table[:, 4]])

    def extend(self, mesh, events, strategy, alpha):
        """Add the nodes of one refinement wave, its ``events``: the rows
        the boundary strategy fixes, then the mean of the parents for every
        other new node."""
        old = len(self.table)
        table = np.zeros((mesh.n_nodes, 5))
        table[:old] = self.table
        known = np.arange(mesh.n_nodes) < old
        nodes = old + np.flatnonzero(mesh.node_boundary[old:])
        fixed = new_boundary_node_values(strategy, mesh, nodes, alpha)
        if fixed is not None:
            table[nodes] = fixed
            known[nodes] = True
        fill_new_nodes(table, events, known)
        self.table = table

    def boundary_values(self, mesh):
        nodes = mesh.boundary_nodes()
        return BoundaryValues(nodes, *self.table[nodes].T)

    def view(self, mesh, alpha):
        c, g1, g2, w = self.table[:, :4].T
        return Smoother(mesh=mesh, alpha=alpha, c=c, g1=g1, g2=g2, w=w)


def _make_strategy(cfg, data, seed):
    """Fit the boundary spline and build the refinement strategy."""
    if cfg.boundary == "constant":
        return BoundaryStrategy(kind="constant",
                                constant_value=cfg.constant_value), None
    count = min(cfg.tps_samples, len(data))
    samp = sample(data, SamplePlan("quadtree", count=count), seed=seed)
    tps = fit_tps(samp, "auto")
    kind = "tps_approximation" if cfg.boundary == "tps" else "nodal_average"
    return BoundaryStrategy(kind=kind, tps=tps), tps


def run(data, cfg=None):
    """Full smoothing pipeline on an (already normalised) data set.

    Returns
    -------
    (Smoother, list of IterationRecord)
    """
    cfg = cfg or RunConfig()
    gcv_cfg = cfg.gcv or GcvConfig()
    mesh, located = initial_mesh(data, cfg)
    strategy, tps = _make_strategy(cfg, data, _seed_for(cfg.seed, 0))

    if strategy.kind == "constant":
        bv0 = constant_boundary_values(mesh, cfg.constant_value)
    else:
        bv0 = initial_boundary_values(mesh, tps, alpha=1.0)
    values = _NodeValues(mesh, bv0)

    records = []
    stagnant = 0
    stop = None
    max_iters = cfg.resolved_max_iters()

    def fit(iteration, marked, refined, located):
        bv = values.boundary_values(mesh)
        fem = FemSystem.build(mesh, data, bv=bv, located=located)
        if cfg.alpha == "auto":
            selection = select_alpha(fem, cfg=gcv_cfg,
                                     seed=_seed_for(cfg.seed, 100 + iteration))
            alpha, s = float(selection), selection.fit
        else:
            alpha = float(cfg.alpha)
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

    smoother, fem = fit(0, 0, 0, located)

    for k in range(1, max_iters + 1):
        prev_nodes = mesh.n_nodes
        marked_total = 0
        # the data's location on the current mesh, None once a wave has
        # changed it: each mesh state is located at most once
        located = fem.located
        if cfg.refine == "uniform":
            events = mesh.uniform_refine()
            located = None
            values.extend(mesh, events, strategy, smoother.alpha)
            refined_total = len(events)
        else:
            field, floor, refined_total = None, 0, 0
            while mesh.n_nodes < 2 * prev_nodes:
                # the field is brought up to date only before a wave reads
                # it; after the last wave comes the fit
                view = values.view(mesh, smoother.alpha)
                if cfg.indicator == "recovery":
                    field = recovery_field(view, field, floor)
                else:
                    if located is None:
                        located = locate_dataset(mesh, data)
                    field = auxiliary_field(view, data, smoother.alpha,
                                            locate_by_tri(mesh, located),
                                            field)
                try:
                    marked = mark(field, cfg.gamma)
                except EmptyField:
                    logger.warning("iteration %d: empty indicator field", k)
                    break
                floor = int(mesh.tri_table.ids[-1]) + 1  # of the new ids
                events = mesh.refine_wave(marked)
                if not len(events):
                    logger.warning("iteration %d: marked edges produced no "
                                   "refinement", k)
                    break
                located = None
                values.extend(mesh, events, strategy, smoother.alpha)
                marked_total += len(marked)
                refined_total += len(events)
            if refined_total == 0:
                stop = "no_refinement"
                break
        smoother, fem = fit(k, marked_total, refined_total, located)

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
    smoother.info["tps_alpha"] = None if tps is None else tps.alpha_tps
    return smoother, records
