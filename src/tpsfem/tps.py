"""Dense thin plate spline fits on small subsamples.

The spline is the radial kernel r^2 log(r) plus an affine part with the
usual moment side constraints.  Besides value and gradient kernels, a
"Laplacian proxy" kernel -log(r) - 4 is evaluated for initialising the
Lagrange multiplier at boundary nodes; it is kept exactly in this form (it
is not the analytic Laplacian of r^2 log r, whose radial profile differs).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .exceptions import DegenerateGeometry, InsufficientData

#: radius floor for the log in the Laplacian proxy kernel
R_CLAMP = 1e-12


def kernel_value(r):
    """TPS kernel r^2 log(r), continuous limit 0 at r = 0."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0, r * r * np.log(r), 0.0)


def _grad_factor(r):
    """(2 log r + 1), zeroed at r = 0 where the gradient kernel vanishes."""
    with np.errstate(divide="ignore"):
        return np.where(r > 0, 2.0 * np.log(r) + 1.0, 0.0)


def _distances(a, b):
    """Euclidean distances between the rows of (k, 2) ``a`` and (m, 2) ``b``,
    shape (k, m), summed per coordinate without a (k, m, 2) temporary."""
    d0 = a[:, None, 0] - b[None, :, 0]
    d1 = a[:, None, 1] - b[None, :, 1]
    return np.sqrt(d0 * d0 + d1 * d1)


def kernel_laplacian_proxy(r):
    """Multiplier-row kernel -log(r) - 4 with r clamped away from zero."""
    r = np.maximum(np.asarray(r, dtype=float), R_CLAMP)
    return -np.log(r) - 4.0


@dataclass
class TpsModel:
    """Fitted thin plate spline: centers, kernel weights and affine part."""
    centers: np.ndarray
    weights: np.ndarray
    affine: np.ndarray  # (a0, a1, a2)
    alpha_tps: float

    def eval(self, pts):
        """Spline values at (k, 2) points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = _distances(pts, self.centers)
        base = self.affine[0] + pts @ self.affine[1:]
        return base + kernel_value(r) @ self.weights

    def eval_grad(self, pts):
        """Spline gradients at (k, 2) points, shape (k, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        diff = pts[:, None, :] - self.centers[None, :, :]
        r = _distances(pts, self.centers)
        fac = _grad_factor(r) * self.weights[None, :]
        grad = np.einsum("kc,kcd->kd", fac, diff)
        return grad + self.affine[1:][None, :]

    def eval_laplacian_proxy(self, pts):
        """Weighted multiplier-row kernel sums (no affine contribution)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = _distances(pts, self.centers)
        return kernel_laplacian_proxy(r) @ self.weights


def _spline_system(sample):
    """Points x, values y, kernel matrix K = r^2 log(r) and affine block
    P = [1, x1, x2] of a spline fit to ``sample``."""
    x = np.asarray(sample.x, dtype=float)
    y = np.asarray(sample.y, dtype=float)
    n = len(y)
    if n < 3:
        raise DegenerateGeometry("need at least 3 sample points")
    P = np.column_stack([np.ones(n), x])
    if np.linalg.matrix_rank(P) < 3:
        raise DegenerateGeometry("sample points are collinear")
    return x, y, kernel_value(_distances(x, x)), P


def fit_tps(sample, alpha_tps=0.0):
    """Fit a smoothing TPS to a (small) data set.

    Solves the dense symmetric system
        [K + n*alpha*I  P] [w]   [y]
        [P^T            0] [a] = [0]
    with P = [1, x1, x2], which enforces the zero-moment side constraints on
    the kernel weights.
    """
    x, y, K, P = _spline_system(sample)
    n = len(y)
    M = np.block([[K + n * alpha_tps * np.eye(n), P],
                  [P.T, np.zeros((3, 3))]])
    sol = scipy.linalg.solve(M, np.concatenate([y, np.zeros(3)]))
    return TpsModel(centers=x.copy(), weights=sol[:n], affine=sol[n:],
                    alpha_tps=float(alpha_tps))


def _gcv_scores(sample, grid):
    """GCV score n*|y - yhat|^2 / (n - tr H)^2 of the spline at each alpha.

    The three Householder reflectors of P = QR are applied to K from both
    sides, so Q^T K Q costs O(n^2) and the complete Q is never formed; its
    trailing (n-3) block is Z^T K Z and the tail of Q^T y is Z^T y, with Z
    the last n-3 columns of Q (the GCVPACK form of Bates, Lindstrom, Wahba &
    Yandell 1987).
    """
    _, y, K, P = _spline_system(sample)
    n = len(y)
    (qr, tau), _ = scipy.linalg.qr(P, mode="raw")
    QtK = lapack.dormqr("L", "T", qr, tau, K, n)[0]
    QtKQ = lapack.dormqr("R", "N", qr, tau, QtK, n)[0]
    Qty = lapack.dormqr("L", "T", qr, tau, y[:, None], 1)[0][:, 0]
    lam, U = np.linalg.eigh(QtKQ[3:, 3:])
    b = U.T @ Qty[3:]
    s = n * grid[:, None] / (lam + n * grid[:, None])
    dof = s.sum(axis=1)  # n - tr H
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dof > 0, n * np.sum((s * b) ** 2, axis=1) / dof ** 2,
                        np.inf)


def select_alpha_tps(sample, alpha_grid=None):
    """Spline smoothing parameter by GCV with the exact trace.

    With Z an orthonormal basis of the null space of P^T (the kernel weights
    are w = Z g) and Z^T K Z = U diag(lam) U^T, each alpha has
    s = n*alpha / (lam + n*alpha), n - tr H = sum(s) and
    |y - yhat|^2 = sum((s * U^T Z^T y)^2) (Craven & Wahba 1979), so one
    eigendecomposition scores the whole grid.  Z^T K Z comes from applying
    the Householder reflectors of P's QR factorisation to K, as in GCVPACK
    (Bates, Lindstrom, Wahba & Yandell 1987); the eigendecomposition is the
    only O(n^3) step.  Returns the first alpha of least score; a candidate
    with n - tr H <= 0 scores +inf, so n = 3 gives ``grid[0]``.
    """
    grid = (np.geomspace(1e-9, 1e-1, 17) if alpha_grid is None
            else np.asarray(alpha_grid, dtype=float))
    return float(grid[np.argmin(_gcv_scores(sample, grid))])


# -- subsampling ----------------------------------------------------------------


@dataclass
class SamplePlan:
    """How to draw the spline subsample from the full data set.

    ``band`` is the inner rectangle (xmin, xmax, ymin, ymax) excluded by the
    boundary-band strategy: only points outside it are candidates.
    """
    strategy: str = "quadtree"
    count: int = 300
    band: tuple = None

    def __post_init__(self):
        if self.strategy not in ("random", "quadtree", "quadtree_boundary_band"):
            raise ValueError(f"unknown sampling strategy {self.strategy!r}")
        if self.strategy == "quadtree_boundary_band" and self.band is None:
            raise ValueError("boundary-band sampling needs the inner rectangle")


def _quadtree_leaves(x, cap):
    """Subdivide the bounding box until every leaf holds <= cap points.

    Returns leaves as (depth, creation_order, point_indices) so callers can
    process the largest cells first in a deterministic order.
    """
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    leaves = []
    counter = [0]

    def split(idx, lo, hi, depth):
        order = counter[0]
        counter[0] += 1
        if len(idx) <= cap or depth > 40:
            leaves.append((depth, order, idx))
            return
        mid = 0.5 * (lo + hi)
        right = x[idx, 0] > mid[0]
        top = x[idx, 1] > mid[1]
        quads = [idx[~right & ~top], idx[right & ~top],
                 idx[~right & top], idx[right & top]]
        corners = [(lo, mid),
                   (np.array([mid[0], lo[1]]), np.array([hi[0], mid[1]])),
                   (np.array([lo[0], mid[1]]), np.array([mid[0], hi[1]])),
                   (mid, hi)]
        for q, (qlo, qhi) in zip(quads, corners):
            if len(q):
                split(q, qlo, qhi, depth + 1)

    split(np.arange(len(x)), lo, lo + span, 0)
    leaves.sort(key=lambda t: (t[0], t[1]))
    return leaves


def sample(data, plan, seed=0):
    """Draw a subsample per the plan; deterministic under the seed."""
    x = np.asarray(data.x, dtype=float)
    n = len(x)
    if plan.count > n:
        raise InsufficientData(f"requested {plan.count} of {n} points")
    rng = np.random.default_rng(seed)
    if plan.strategy == "random":
        idx = np.sort(rng.choice(n, size=plan.count, replace=False))
        return data.subset(idx)
    if plan.strategy == "quadtree_boundary_band":
        xmin, xmax, ymin, ymax = plan.band
        inside = ((x[:, 0] > xmin) & (x[:, 0] < xmax)
                  & (x[:, 1] > ymin) & (x[:, 1] < ymax))
        candidates = np.flatnonzero(~inside)
        if len(candidates) < plan.count:
            raise InsufficientData("not enough points outside the band")
    else:
        candidates = np.arange(n)
    cap = max(1, math.ceil(4.0 * n / plan.count))
    leaves = []
    for depth, order, idx in _quadtree_leaves(x[candidates], cap):
        leaves.append((depth, order, candidates[idx]))
    chosen = []
    taken = np.zeros(n, dtype=bool)
    # one random pick per leaf, largest cells first, cycling until filled
    while len(chosen) < plan.count:
        progress = False
        for depth, order, idx in leaves:
            if len(chosen) >= plan.count:
                break
            avail = idx[~taken[idx]]
            if len(avail) == 0:
                continue
            pick = int(avail[rng.integers(len(avail))])
            taken[pick] = True
            chosen.append(pick)
            progress = True
        if not progress:
            raise InsufficientData("sampling exhausted candidate points")
    return data.subset(np.sort(np.asarray(chosen)))
