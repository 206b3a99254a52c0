"""Smoothing parameter selection by generalised cross validation.

The score is V(alpha) = n * ||y - yhat||^2 / (n - tr(Infl))^2 where yhat are
the fitted values at the data points and Infl is the influence matrix
d(yhat)/dy.  The trace is the Hutchinson mean of z^T Infl z over probe
vectors z, each costing one extra solve on the already-factorised system.
The probes are Rademacher vectors; with at least n probes they are the
canonical basis scaled by sqrt(n), for which the mean is the exact trace.
Probe vectors are drawn once per selection and shared across all candidate
alphas so the score is a smooth deterministic function of alpha.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SaddleSystem, predicted_values

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class GcvConfig:
    """Grid and refinement settings for alpha selection."""
    alpha_grid: np.ndarray = field(
        default_factory=lambda: np.geomspace(1e-10, 1.0, 21))
    probes: int = 10
    refine_iters: int = 8

    def __post_init__(self):
        grid = np.asarray(self.alpha_grid, dtype=float)
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("alpha_grid must be positive and increasing")
        self.alpha_grid = grid


def _probe_matrix(n, probes, rng):
    """Columns are trace probe vectors (``rng`` is unused with probes >= n)."""
    if probes >= n:
        return math.sqrt(n) * np.eye(n)
    return rng.choice([-1.0, 1.0], size=(n, probes))


def _data_rhs(fem, z):
    """Assemble (1/n) sum b(x_i) z_i for an arbitrary per-point vector z."""
    loc = fem.located
    d = np.zeros(fem.mesh.n_nodes)
    np.add.at(d, loc.tri_nodes.ravel(),
              (loc.bary * z[:, None] / loc.n_used).ravel())
    return d


def influence_trace(system, probe_matrix=None):
    """Hutchinson mean of z^T Infl z over the columns z of ``probe_matrix``.

    With ``probe_matrix`` None the scaled canonical basis is used, which
    gives the exact trace.
    """
    fem = system.fem
    loc = fem.located
    if probe_matrix is None:
        probe_matrix = _probe_matrix(loc.n_used, loc.n_used, None)
    vals = []
    for k in range(probe_matrix.shape[1]):
        z = probe_matrix[:, k]
        c = system.solve_data_rhs(_data_rhs(fem, z))
        yz = np.einsum("ij,ij->i", loc.bary, c[loc.tri_nodes])
        vals.append(float(z @ yz))
    return float(np.mean(vals))


def gcv_score(fem, alpha, data, probes=10, seed=0, probe_matrix=None):
    """GCV score of one candidate alpha.

    Returns +inf when the estimated trace reaches the number of data points
    (degenerate denominator).
    """
    loc = fem.located
    n = loc.n_used
    if probe_matrix is None:
        probe_matrix = _probe_matrix(n, probes, np.random.default_rng(seed))
    system = SaddleSystem(fem, alpha)
    s = system.solve()
    y = np.asarray(data.y, dtype=float)[loc.indices]
    misfit = float(np.sum((predicted_values(s, loc) - y) ** 2))
    tr = influence_trace(system, probe_matrix)
    if tr >= n:
        return float("inf")
    return n * misfit / (n - tr) ** 2


def select_alpha(fem, data, cfg=None, seed=0):
    """Coarse grid scan plus golden-section refinement on log(alpha).

    Candidate scores share one set of probe vectors.  Ties resolve to the
    smallest alpha; if refinement never improves on the grid the grid
    minimiser is returned.
    """
    cfg = cfg or GcvConfig()
    loc = fem.located
    rng = np.random.default_rng(seed)
    probe_matrix = _probe_matrix(loc.n_used, cfg.probes, rng)
    cache = {}

    def score(alpha):
        if alpha not in cache:
            cache[alpha] = gcv_score(fem, alpha, data,
                                     probe_matrix=probe_matrix)
        return cache[alpha]

    grid = cfg.alpha_grid
    values = [score(a) for a in grid]
    j = int(np.argmin(values))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    a, b = math.log(lo), math.log(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = score(math.exp(x1)), score(math.exp(x2))
    for _ in range(max(cfg.refine_iters, 0)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = score(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = score(math.exp(x2))
    best = min(cache.items(), key=lambda kv: (kv[1], kv[0]))
    return float(best[0])
