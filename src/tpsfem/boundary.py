"""Dirichlet boundary values and their initialisation during refinement.

Boundary values of the surface coefficients c, the gradient fields g1, g2
and the multiplier w are prescribed at every boundary node.  For real data
they are approximated by a thin plate spline fitted to a small subsample.
During refinement the boundary strategy fixes the rows of a wave's new
boundary nodes in one batched step: "tps_approximation" evaluates the same
spline at all of them at once, "constant" gives every one the constant row,
and "nodal_average" fixes none, so that they take the mean of the bisected
boundary edge's endpoints like every other new node.  Averaging keeps the
boundary trace of the surface piecewise linear and avoids spurious
refinement near boundaries.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class BoundaryStrategy:
    """How to produce Dirichlet values for new boundary nodes.

    kind is one of "tps_approximation", "nodal_average" or "constant".
    Both TPS strategies keep a fitted TpsModel; nodal_average still uses it
    for the initial mesh, then averages afterwards.
    """
    kind: str = "nodal_average"
    constant_value: float = 0.0
    tps: object = None

    def __post_init__(self):
        if self.kind not in ("tps_approximation", "nodal_average", "constant"):
            raise ValueError(f"unknown boundary strategy {self.kind!r}")
        if self.kind == "tps_approximation" and self.tps is None:
            raise ValueError("tps_approximation requires a fitted TpsModel")


@dataclass
class BoundaryValues:
    """Per-boundary-node Dirichlet data.

    ``nodes`` are the boundary node ids in increasing order and the value
    arrays are parallel to it.  When ``w_proxy`` is set, the multiplier value
    is derived as w = -alpha * w_proxy at system build time so that w stays
    consistent with the current smoothing parameter.
    """
    nodes: np.ndarray
    c: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    w: np.ndarray
    w_proxy: np.ndarray = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=int)
        for name in ("c", "g1", "g2", "w"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != self.nodes.shape:
                raise ValueError(f"boundary array {name} has wrong length")
            setattr(self, name, v)

    def w_at(self, alpha):
        if self.w_proxy is not None:
            return -alpha * np.asarray(self.w_proxy, dtype=float)
        return self.w


def _spline_rows(tps, pts, alpha):
    """(k, 5) rows c, g1, g2, w, w_proxy of a fitted TPS at (k, 2) points:
    c = t(x), (g1, g2) = grad t(x) and w = -alpha * laplacian_proxy(x),
    all three from one distance matrix (``TpsModel.eval_all``)."""
    value, grad, proxy = tps.eval_all(pts)
    return np.column_stack([value, grad, -alpha * proxy, proxy])


def initial_boundary_values(mesh, tps, alpha):
    """Evaluate a fitted TPS at all boundary nodes (see ``_spline_rows``)."""
    nodes = np.asarray(mesh.boundary_nodes(), dtype=int)
    return BoundaryValues(nodes, *_spline_rows(tps, mesh.points[nodes],
                                               alpha).T)


def boundary_values_from_callables(mesh, value_fn, grad_fn, laplacian_fn, alpha):
    """Boundary values from a known model function and its derivatives."""
    nodes = np.asarray(mesh.boundary_nodes(), dtype=int)
    pts = mesh.points[nodes]
    c = np.asarray(value_fn(pts[:, 0], pts[:, 1]), dtype=float)
    g1, g2 = grad_fn(pts[:, 0], pts[:, 1])
    lap = np.asarray(laplacian_fn(pts[:, 0], pts[:, 1]), dtype=float)
    return BoundaryValues(nodes=nodes, c=c,
                          g1=np.asarray(g1, dtype=float) * np.ones(len(nodes)),
                          g2=np.asarray(g2, dtype=float) * np.ones(len(nodes)),
                          w=-alpha * lap, w_proxy=lap)


def constant_boundary_values(mesh, value):
    """Legacy behaviour: constant c, zero gradients and multiplier."""
    nodes = np.asarray(mesh.boundary_nodes(), dtype=int)
    zeros = np.zeros(len(nodes))
    return BoundaryValues(nodes=nodes, c=np.full(len(nodes), float(value)),
                          g1=zeros.copy(), g2=zeros.copy(), w=zeros.copy(),
                          w_proxy=zeros.copy())


def new_boundary_node_values(strategy, mesh, nodes, alpha):
    """(k, 5) rows c, g1, g2, w, w_proxy that ``strategy`` fixes for the
    boundary nodes ``nodes`` made by one refinement wave, or None.

    "tps_approximation" evaluates the spline at all the nodes in one batch
    (``_spline_rows``, w from the current ``alpha``), "constant" gives each
    node the constant row, and "nodal_average" fixes none: its boundary
    nodes take the mean of their parents like every other new node
    (``mesh.fill_new_nodes``).
    """
    if strategy.kind == "nodal_average":
        return None
    if strategy.kind == "constant":
        return np.tile([strategy.constant_value, 0.0, 0.0, 0.0, 0.0],
                       (len(nodes), 1))
    return _spline_rows(strategy.tps, mesh.points[nodes], alpha)
