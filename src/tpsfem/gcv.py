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
and a workspace once per selection (``probe_block``, a ``ProbeBlock``).
The workspace holds the probe block W = B_I^T Z / n, the static-order
block right-hand side with W in its probe columns, its own copies of the
interior matrix and of K_IB, the boundary values and the fitted-value
vector.  A candidate rescales the aL values of those copies in place and
costs one static-pivot factorisation and one block solve under the
solver's contract (``solver.static_factor``, ``solver.static_solve``); it
builds no SaddleSystem, no sparse matrix and no nodal field.  Its trace is
n * mean(sum(W * C_I)) over the probe solutions C_I, with no sparse
product.  Its matrix, right-hand side and data solution are bitwise those
of a ``SaddleSystem`` at alpha.  Its misfit comes from node-space sums,
||Bc - y||^2 = n c^T A c - 2 n c^T d + y^T y, as A = B^T B / n and
d = B^T y / n are the FemSystem's and y^T y is stored with them, so no
score touches the data points; it agrees with the basis misfit to
rounding, not bitwise, and rounding below 0 is clamped to 0.

``select_alpha`` returns a ``Selection``: the chosen alpha as a float,
with the evaluated (alpha, score) pairs, the grid end it picked, if any,
and the winning candidate's data solution (``solver.Solution``), from
which ``solver.fitted`` makes the fit without factorising again.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .solver import Solution, static_factor, static_solve
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


def _probe_columns(located, interior, probe_matrix):
    """W = B_I^T Z / n: the rows ``interior`` of B^T Z, whose sums run over
    the points in the same order as those of the sliced basis."""
    return (located.basis.T @ probe_matrix)[interior] / located.n_used


class ProbeBlock:
    """The workspace of the GCV scores of one selection on one FemSystem.

    Everything a candidate alpha does not change is made here once: the
    probe block W = B_I^T Z / n of the probe matrix Z (B_I: the basis
    columns of the interior nodes); the static-order block right-hand side
    with W in the c rows of its probe columns; copies of the interior
    matrix and of K_IB at alpha = 1; the boundary values x_B; and the
    fitted-value vector with the boundary values of c in place.
    ``rescale`` sets the aL values and the data column to one alpha;
    ``last`` is the ``Solution`` of the data column of the last candidate.
    """

    def __init__(self, fem, probe_matrix):
        loc, unit = fem.located, fem.eliminated
        self.n = loc.n_used
        self.W = _probe_columns(loc, unit.interior, probe_matrix)
        rows, cols, matrix, aL = unit.ordered
        self.matrix = matrix.copy()
        self.ib = unit.ib.copy()
        # (values, positions, values at alpha = 1) of the aL entries
        self._alpha_entries = ((self.matrix.data, aL, matrix.data[aL]),
                               (self.ib.data, unit.ib_alpha,
                                unit.ib.data[unit.ib_alpha]))
        self.bv = unit.bv
        self.x_b = np.concatenate([unit.bv.c, unit.bv.g1, unit.bv.g2,
                                   unit.bv.w_at(1.0)])
        self.d = fem.d[unit.interior]
        self.rows = rows
        self.block = np.zeros((len(rows), 1 + self.W.shape[1]))
        self.block[:, 1:][np.argsort(rows)[0::4]] = self.W
        self.cols = cols
        # static position of the c column of each interior node
        self.c_at = np.argsort(cols)[0::4]
        self.interior = unit.interior
        self.c = np.zeros(fem.mesh.n_nodes)
        self.c[unit.boundary] = unit.bv.c
        self.last = None

    def rescale(self, alpha):
        """Set the aL values of the matrix and of K_IB to ``alpha`` times
        their values at 1, the products ``EliminatedSystem`` forms, and the
        data column of the block to d - K_IB x_B at ``alpha``."""
        for values, entries, unit in self._alpha_entries:
            values[entries] = unit * alpha
        self.x_b[3 * len(self.bv.nodes):] = self.bv.w_at(alpha)
        rhs = -(self.ib @ self.x_b)
        rhs[0::4] += self.d
        self.block[:, 0] = rhs[self.rows]


def probe_block(fem, probe_matrix):
    """The ``ProbeBlock`` of the GCV scores of ``fem`` for the probe matrix
    Z, made once per selection."""
    return ProbeBlock(fem, probe_matrix)


def influence_trace(system, probe_matrix=None):
    """Hutchinson mean of z^T Infl z over the columns z of ``probe_matrix``;
    None means the scaled canonical basis, which gives the exact trace.

    The probe columns are W = B_I^T Z / n in the c rows with zero Dirichlet
    data, on the factorisation of ``system``; with their solutions C_I,
    z^T B_I c = n (w . c) gives the mean of z^T B_I C_I without a sparse
    product."""
    fem = system.fem
    n = fem.located.n_used
    if probe_matrix is None:
        probe_matrix = _probe_matrix(n, n, None)
    W = _probe_columns(fem.located, system.interior, probe_matrix)
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


def gcv_score(fem, alpha, data, block):
    """GCV score of one candidate alpha on the ``probe_block`` workspace
    ``block``; +inf when the estimated trace reaches the number of data
    points.

    One static-pivot factorisation and one block solve under the solver's
    contract (SingularSystem, NonConvergence) give the data solution and the
    probe solutions C_I together; the trace is n * mean(sum(W * C_I)) and
    the misfit is ``misfit`` of the fitted c.  The matrix, the right-hand
    side and the data solution are bitwise those of a ``SaddleSystem`` at
    alpha; the data solution is kept as ``block.last``.  ``data`` is not
    read: y enters through the FemSystem's d and y^T y.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    n = block.n
    block.rescale(alpha)
    t0 = time.perf_counter()
    lu = static_factor(block.matrix)
    sol, r = static_solve(lu, block.matrix, block.block)
    seconds = time.perf_counter() - t0
    x = np.empty(len(sol))
    x[block.cols] = sol[:, 0]
    block.last = Solution(x, float(r[0]), seconds)
    c = sol[block.c_at]
    tr = float(n * np.mean(np.sum(block.W * c[:, 1:], axis=0)))
    if tr >= n:
        return float("inf")
    block.c[block.interior] = c[:, 0]
    return n * misfit(fem, block.c) / (n - tr) ** 2


class Selection(float):
    """The alpha a GCV search chose, as a float, and what the search found.

    ``scores`` holds the evaluated (alpha, score) pairs by ascending alpha;
    ``edge`` is the grid end the search picked, or None; ``solution`` is
    the winning candidate's data ``solver.Solution``, which
    ``solver.fitted`` turns into the fit.  Frozen.
    """
    __slots__ = ("scores", "edge", "solution")

    def __new__(cls, alpha, scores, edge, solution):
        self = super().__new__(cls, alpha)
        for name, value in zip(cls.__slots__, (scores, edge, solution)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a Selection is frozen")

    def __delattr__(self, name):
        raise AttributeError("a Selection is frozen")


def select_alpha(fem, data, cfg=None, seed=0):
    """Golden-section search on log(alpha) between the grid's ends; returns
    a ``Selection``.

    It takes ``cfg.refine_iters + 2`` scores, plus one for a grid end the
    search never moved away from, so that an edge pick is the end exactly.
    Ties resolve to the smallest alpha.  The data solution of each
    candidate that scores best so far is kept, so the winner's is at hand.
    """
    cfg = cfg or GcvConfig()
    rng = np.random.default_rng(seed)
    block = probe_block(fem, _probe_matrix(fem.located.n_used, cfg.probes,
                                           rng))
    cache, winner = {}, None

    def rank(alpha):
        return cache[alpha], alpha

    def score(alpha):
        nonlocal winner
        if alpha not in cache:
            cache[alpha] = gcv_score(fem, alpha, data, block)
            if min(cache, key=rank) == alpha:
                winner = block.last
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
    return Selection(alpha, tuple(sorted(cache.items())), edge, winner)
