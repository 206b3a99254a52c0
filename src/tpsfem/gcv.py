"""Smoothing parameter selection by generalised cross validation.

The score is V(alpha) = n * ||y - yhat||^2 / (n - tr(Infl))^2 where yhat = Bc
are the fitted values at the data points (B is the points-by-nodes basis
matrix) and Infl is the influence matrix d(yhat)/dy.  The trace is the
Hutchinson mean of z^T Infl z over the columns z of a probe matrix Z; the
data and all probes of a candidate are one block right-hand side on one
factorisation.  The probes are Rademacher vectors; with at least n probes
they are the canonical basis scaled by sqrt(n), for which the mean is the
exact trace.  Probes are drawn once per selection and shared across all
candidate alphas, so the score is a smooth deterministic function of alpha;
a golden-section search on log(alpha) between the grid's ends minimises it.

Everything that does not depend on alpha is built once: the saddle system
at alpha = 1 and its static node order once per FemSystem (see ``solver``),
and the probe block W = B_I^T Z / n once per selection (``probe_block``).
A candidate then costs one rescaled copy of the matrix, one static-pivot
factorisation and one block solve, and its trace is n * mean(sum(W * C_I))
over the probe solutions C_I, with no sparse product.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SaddleSystem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class GcvConfig:
    """Search settings: only the ends of ``alpha_grid`` are read, and they
    bound the search; ``refine_iters`` is the number of golden steps."""
    alpha_grid: np.ndarray = field(
        default_factory=lambda: np.geomspace(1e-10, 1.0, 21))
    probes: int = 10
    refine_iters: int = 12

    def __post_init__(self):
        grid = np.asarray(self.alpha_grid, dtype=float)
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("alpha_grid must be positive and increasing")
        if self.probes < 1 or self.refine_iters < 0:
            raise ValueError("probes must be >= 1 and refine_iters >= 0")
        self.alpha_grid = grid


def _probe_matrix(n, probes, rng):
    """Columns are trace probe vectors (``rng`` is unused with probes >= n)."""
    if probes >= n:
        return math.sqrt(n) * np.eye(n)
    return rng.choice([-1.0, 1.0], size=(n, probes))


def probe_block(fem, probe_matrix):
    """W = B_I^T Z / n for the probe matrix Z (B_I: the basis columns of the
    interior nodes), the probe columns of a GCV block solve."""
    loc = fem.located
    B = loc.basis[:, fem.mesh.interior_nodes()]
    return B.T @ probe_matrix / loc.n_used


def _block_solve(system, W):
    """Data solution and Hutchinson mean from one block solve.

    The probe columns are the block W (``probe_block``) in the c rows with
    zero Dirichlet data; with their solutions C_I, z^T B_I c = n (w . c)
    gives the mean of z^T B_I C_I without a sparse product."""
    rhs = np.zeros((system.n_unknowns, 1 + W.shape[1]))
    rhs[:, 0] = system.rhs
    rhs[0::4, 1:] = W
    x, _ = system.solve_raw(rhs)
    tr = system.fem.located.n_used * np.mean(np.sum(W * x[0::4, 1:], axis=0))
    return x[:, 0], float(tr)


def influence_trace(system, probe_matrix=None):
    """Hutchinson mean of z^T Infl z over the columns z of ``probe_matrix``;
    None means the scaled canonical basis, which gives the exact trace."""
    if probe_matrix is None:
        n = system.fem.located.n_used
        probe_matrix = _probe_matrix(n, n, None)
    return _block_solve(system, probe_block(system.fem, probe_matrix))[1]


def gcv_score(fem, alpha, data, W):
    """GCV score of one candidate alpha for the probe block W; +inf when
    the estimated trace reaches the number of data points."""
    loc = fem.located
    n = loc.n_used
    system = SaddleSystem(fem, alpha)
    x, tr = _block_solve(system, W)
    y = np.asarray(data.y, dtype=float)[loc.indices]
    misfit = float(np.sum((loc.basis @ system.scatter(x)["c"] - y) ** 2))
    if tr >= n:
        return float("inf")
    return n * misfit / (n - tr) ** 2


def select_alpha(fem, data, cfg=None, seed=0):
    """Golden-section search on log(alpha) between the grid's ends.

    It takes ``cfg.refine_iters + 2`` scores, plus one for a grid end the
    search never moved away from, so that an edge pick is the end exactly.
    Ties resolve to the smallest alpha.
    """
    cfg = cfg or GcvConfig()
    rng = np.random.default_rng(seed)
    W = probe_block(fem, _probe_matrix(fem.located.n_used, cfg.probes, rng))
    cache = {}

    def score(alpha):
        if alpha not in cache:
            cache[alpha] = gcv_score(fem, alpha, data, W)
        return cache[alpha]

    lo, hi = cfg.alpha_grid[0], cfg.alpha_grid[-1]
    a, b = math.log(lo), math.log(hi)
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2 = score(math.exp(x1)), score(math.exp(x2))
    for _ in range(cfg.refine_iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = score(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = score(math.exp(x2))
    for end, kept in ((lo, a), (hi, b)):
        if kept == math.log(end):
            score(end)
    return float(min(cache, key=lambda alpha: (cache[alpha], alpha)))
