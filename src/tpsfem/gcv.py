"""Smoothing parameter selection by generalised cross validation.

The score is V(alpha) = n * ||y - yhat||^2 / (n - tr(Infl))^2 where yhat = Bc
are the fitted values at the data points (B_kp = b_p(x_k), the basis values
at the points, which enter only as the points' barycentric coordinates in
their triangles; B is never formed) and Infl is the influence matrix
d(yhat)/dy.  The trace is the Hutchinson mean of z^T Infl z over the
columns z of a probe matrix Z; the data and all probes of a candidate are
one block right-hand side on one factorisation.  The probes are Rademacher vectors; with at least n probes
they are the canonical basis scaled by sqrt(n), for which the mean is the
exact trace.  Probes are drawn once per selection and shared across all
candidate alphas, so the score is a smooth deterministic function of alpha;
a golden-section search on log(alpha) between the grid's ends minimises it.

Everything that does not depend on alpha is built once per selection:
one ``solver.SaddleSystem``, with its static node order, whose right-hand
side holds the data column and the probe columns W = B_I^T Z / n.  A
candidate rescales that system in place and solves it once
(``gcv_score``): one static-pivot factorisation and one block solve under
the solver's contract, with the matrix, the right-hand side and the data
solution bitwise those of a fresh ``SaddleSystem`` at alpha.  Its trace is
n * mean(sum(W * C_I)) over the probe solutions C_I, with no sparse
product.  Its misfit comes from node-space sums,
||Bc - y||^2 = n c^T A c - 2 n c^T d + y^T y, as the
FemSystem's A and d are the sums over the points of b_p b_q / n and b_p y /
n (``assembly.assemble_A_d``) and y^T y is stored with them, so no score
touches the data points; it agrees with the pointwise misfit to rounding,
not bitwise, and rounding below 0 is clamped to 0.

``select_alpha`` returns a ``Selection``: the chosen alpha as a float,
with the evaluated (alpha, score) pairs, the grid end it picked, if any,
and the fit, which ``SaddleSystem.fitted`` makes from the winning
candidate's data solution (``solver.Solution``) without factorising
again.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SaddleSystem
from .tps import checked_alpha_grid

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class GcvConfig:
    """Search settings: only the ends of ``alpha_grid`` are read, and they
    bound the search; ``refine_iters`` is the number of golden steps.  The
    grid must be finite, positive and strictly increasing (ValueError)."""
    alpha_grid: np.ndarray = field(
        default_factory=lambda: np.geomspace(1e-10, 1.0, 21))
    probes: int = 10
    refine_iters: int = 12

    def __post_init__(self):
        grid = checked_alpha_grid(self.alpha_grid)
        if self.probes < 1 or self.refine_iters < 0:
            raise ValueError("probes must be >= 1 and refine_iters >= 0")
        self.alpha_grid = grid


def _probe_matrix(n, probes, rng):
    """Columns are trace probe vectors (``rng`` is unused with probes >= n)."""
    if probes >= n:
        return math.sqrt(n) * np.eye(n)
    return rng.choice([-1.0, 1.0], size=(n, probes))


def influence_trace(system, probe_matrix=None):
    """Hutchinson mean of z^T Infl z over the columns z of ``probe_matrix``;
    None means the scaled canonical basis, which gives the exact trace.

    The probe columns W = B_I^T Z / n in the c rows with zero Dirichlet
    data are solved on the factorisation of ``system``; with their
    solutions C_I, z^T B_I c = n (w . c) gives the mean of z^T B_I C_I
    without a sparse product.  Only tests call it: it stays here because
    the tracer of ``perfbench/`` wraps it, and it moves to the test
    oracles with the benchmark change that drops that target."""
    n = system.fem.located.n_used
    if probe_matrix is None:
        probe_matrix = _probe_matrix(n, n, None)
    W = system.probe_columns(probe_matrix)
    rhs = np.zeros((system.n_unknowns, W.shape[1]))
    rhs[0::4] = W
    x, _ = system.solve_raw(rhs)
    return float(n * np.mean(np.sum(W * x[0::4], axis=0)))


def misfit(fem, c):
    """||Bc - y||^2 of the nodal values ``c`` at the located data, from
    node-space sums: n c^T A c - 2 n c^T d + y^T y, clamped at 0, which
    rounding can undershoot when the data are fitted exactly."""
    n = fem.located.n_used
    return max(n * float(c @ (fem.A @ c) - 2.0 * (c @ fem.d)) + fem.yy, 0.0)


def gcv_score(system, alpha):
    """GCV score at ``alpha`` of a ``SaddleSystem`` with probe columns;
    +inf when the estimated trace reaches the number of data points.

    The system is rescaled to alpha and solved once, which under the
    solver's contract (SingularSystem, NonConvergence) gives the data
    solution, kept as ``system.solution``, and the probe solutions C_I
    together; the trace is n * mean(sum(W * C_I)) and the misfit is
    ``misfit`` of the fitted nodal c.
    """
    system.rescale(alpha)
    x, _ = system.solve_raw()
    fem = system.fem
    n = fem.located.n_used
    tr = float(n * np.mean(np.sum(system.W * x[0::4, 1:], axis=0)))
    if tr >= n:
        return float("inf")
    c = np.empty(fem.mesh.n_nodes)
    c[system.interior] = x[0::4, 0]
    c[system.boundary] = system.bv.c
    return n * misfit(fem, c) / (n - tr) ** 2


class Selection(float):
    """The alpha a GCV search chose, as a float, and what the search found.

    ``scores`` holds the evaluated (alpha, score) pairs by ascending alpha;
    ``edge`` is the grid end the search picked, or None; ``fit`` is the
    ``solver.Smoother`` at alpha, made by ``SaddleSystem.fitted`` from the
    winning candidate's data ``solver.Solution``.  Frozen.
    """
    __slots__ = ("scores", "edge", "fit")

    def __new__(cls, alpha, scores, edge, fit):
        self = super().__new__(cls, alpha)
        for name, value in zip(cls.__slots__, (scores, edge, fit)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a Selection is frozen")

    def __delattr__(self, name):
        raise AttributeError("a Selection is frozen")


def select_alpha(fem, cfg=None, seed=0):
    """Golden-section search on log(alpha) between the grid's ends; returns
    a ``Selection``.

    It takes ``cfg.refine_iters + 2`` scores, plus one for a grid end the
    search never moved away from, so that an edge pick is the end exactly.
    Ties resolve to the smallest alpha.  The data solution of each
    candidate that scores best so far is kept, and the winner's becomes
    the fit.  The data enter through the FemSystem's d and y^T y.
    """
    cfg = cfg or GcvConfig()
    rng = np.random.default_rng(seed)
    system = SaddleSystem(fem, cfg.alpha_grid[-1], _probe_matrix(
        fem.located.n_used, cfg.probes, rng))
    cache, winner = {}, None

    def rank(alpha):
        return cache[alpha], alpha

    def score(alpha):
        nonlocal winner
        if alpha not in cache:
            cache[alpha] = gcv_score(system, alpha)
            if min(cache, key=rank) == alpha:
                winner = system.solution
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
    alpha = float(min(cache, key=rank))
    edge = next((float(end) for end in (lo, hi) if alpha == end), None)
    return Selection(alpha, tuple(sorted(cache.items())), edge,
                     system.fitted(winner, alpha))
