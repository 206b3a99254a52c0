"""Smoothing parameter selection by generalised cross validation.

The score is V(alpha) = n * ||y - yhat||^2 / (n - tr(Infl))^2 where yhat = Bc
are the fitted values at the data points (B is the points-by-nodes basis
matrix) and Infl is the influence matrix d(yhat)/dy.  The trace is the
Hutchinson mean of z^T Infl z over the columns z of a probe matrix Z; all
probes are solved together as one block right-hand side on the
already-factorised system.  The probes are Rademacher vectors; with at
least n probes they are the canonical basis scaled by sqrt(n), for which
the mean is the exact trace.
Probe vectors are drawn once per selection and shared across all candidate
alphas so the score is a smooth deterministic function of alpha.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SaddleSystem

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


def influence_trace(system, probe_matrix=None):
    """Hutchinson mean of z^T Infl z over the columns z of ``probe_matrix``.

    With ``probe_matrix`` None the scaled canonical basis is used, which
    gives the exact trace.  The probe right-hand sides are B_I^T Z / n in
    the c rows, with zero Dirichlet data, where B_I holds the basis columns
    of the interior nodes; their solutions C_I give the probe values B_I C_I.
    """
    loc = system.fem.located
    n = loc.n_used
    if probe_matrix is None:
        probe_matrix = _probe_matrix(n, n, None)
    B = system.fem.eliminated.interior_basis
    rhs = np.zeros((system.n_unknowns, probe_matrix.shape[1]))
    rhs[0::4] = B.T @ probe_matrix / n
    x, _ = system.solve_raw(rhs)
    return float(np.mean(np.sum(probe_matrix * (B @ x[0::4]), axis=0)))


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
    c = system.scatter(system.solve_raw()[0])["c"]
    y = np.asarray(data.y, dtype=float)[loc.indices]
    misfit = float(np.sum((loc.basis @ c - y) ** 2))
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
