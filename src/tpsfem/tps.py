"""Dense thin plate spline fits on small subsamples.

The spline is the radial kernel r^2 log(r) plus an affine part with the
usual moment side constraints.  Fit and smoothing-parameter selection both
work in the null space of the side constraints (m = n - 3 unknowns).  GCV
reduces the projected kernel to tridiagonal form once, its only O(m^3)
step, and scores each candidate alpha in O(m): the trace of its influence
matrix comes from the forward and backward LDL^T pivots of the shifted
tridiagonal (Meurant 1992), so no eigenvalue is computed.
``fit_tps(sample, "auto")`` selects and fits from that one reduction: the
winning candidate's tridiagonal solve is carried back to the null space in
O(m^2), with no factorisation.  A fit at a given alpha costs one m x m
Cholesky factorisation.  Either fit holds one n x n buffer: the kernel is
built into it in blocks of rows, and every later step works in its memory.
Besides value and gradient kernels, a "Laplacian proxy"
kernel -log(r) - 4 is evaluated for initialising the Lagrange multiplier at
boundary nodes; it is kept exactly in this form (it is not the analytic
Laplacian of r^2 log r, whose radial profile differs).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .exceptions import DegenerateGeometry, InsufficientData
from .mesh import _grouped

#: radius floor for the log in the Laplacian proxy kernel
R_CLAMP = 1e-12

#: the smoothing parameters GCV chooses from, unless a grid is given
ALPHA_TPS_GRID = np.geomspace(1e-9, 1e-1, 17)

#: kernel entries formed per block of rows of the n x n kernel matrix
KERNEL_BLOCK = 2 ** 14

#: columns moved per step when a block is packed to the front of its memory
PACK_COLUMNS = 64


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

    def _radii(self, pts):
        """(k, 2) float points and their (k, c) distances to the centers."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts, _distances(pts, self.centers)

    def _value(self, pts, r):
        base = self.affine[0] + pts @ self.affine[1:]
        return base + kernel_value(r) @ self.weights

    def _grad(self, pts, r):
        diff = pts[:, None, :] - self.centers[None, :, :]
        fac = _grad_factor(r) * self.weights[None, :]
        grad = np.einsum("kc,kcd->kd", fac, diff)
        return grad + self.affine[1:][None, :]

    def eval(self, pts):
        """Spline values at (k, 2) points."""
        return self._value(*self._radii(pts))

    def eval_grad(self, pts):
        """Spline gradients at (k, 2) points, shape (k, 2)."""
        return self._grad(*self._radii(pts))

    def eval_laplacian_proxy(self, pts):
        """Weighted multiplier-row kernel sums (no affine contribution)."""
        return kernel_laplacian_proxy(self._radii(pts)[1]) @ self.weights

    def eval_all(self, pts):
        """``eval``, ``eval_grad`` and ``eval_laplacian_proxy`` at (k, 2)
        points, bitwise, from one distance matrix."""
        pts, r = self._radii(pts)
        return (self._value(pts, r), self._grad(pts, r),
                kernel_laplacian_proxy(r) @ self.weights)


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
    # kernel_value(_distances(x, x)) in blocks of rows, so that the only
    # n x n buffer is K; each block is the lower triangle and is mirrored
    # above the diagonal, since d(i, j) and d(j, i) are the same floats
    K = np.empty((n, n))
    rows = max(1, KERNEL_BLOCK // n)
    for i in range(0, n, rows):
        end = min(i + rows, n)
        K[i:end, :end] = kernel_value(_distances(x[i:end], x[:end]))
        K[:i, i:end] = K[i:end, :i].T
    return x, y, K, P


def _reflected_system(sample):
    """The spline system seen through the Householder reflectors of P = QR.

    Returns the points x, values y, the raw QR factors (qr, tau) of
    P = [1, x1, x2] (R is the upper triangle of ``qr[:3]``), Q^T K Q and
    Q^T y.  The three reflectors are applied to K from both sides with
    ``dormqr``, so this costs O(n^2) and the complete Q is never formed.
    With Z the last n-3 columns of Q, an orthonormal basis of the null space
    of P^T, the trailing (n-3) block of Q^T K Q is Z^T K Z and the tail of
    Q^T y is Z^T y: the GCVPACK form of Bates, Lindstrom, Wahba & Yandell
    (1987).  Q^T K Q is Fortran-ordered and takes the memory of K.
    """
    x, y, K, P = _spline_system(sample)
    n = len(y)
    (qr, tau), _ = scipy.linalg.qr(P, mode="raw")
    # K is exactly symmetric, so K.T, its Fortran-ordered view, is K: both
    # passes overwrite it in place rather than copy it
    QtK = lapack.dormqr("L", "T", qr, tau, K.T, n, overwrite_c=1)[0]
    QtKQ = lapack.dormqr("R", "N", qr, tau, QtK, n, overwrite_c=1)[0]
    Qty = lapack.dormqr("L", "T", qr, tau, y[:, None], 1)[0][:, 0]
    return x, y, qr, tau, QtKQ, Qty


def _pack_front(memory, block):
    """Copy ``block``, a Fortran-ordered view into the 1-D ``memory``, into
    the front of ``memory`` as a Fortran-ordered array, and return that.

    The columns move in steps of ``PACK_COLUMNS``, first to last, so numpy
    copies at most one step's columns to a temporary where a step overlaps
    its own source.  This is safe when the front copy of each column ends
    before the next column's source starts, as it does for Z^T K Z, the
    trailing block of Q^T K Q, and for the reflectors, the block below the
    first row of the reduced Z^T K Z.
    """
    rows, cols = block.shape
    out = memory[:rows * cols].reshape(rows, cols, order="F")
    for j in range(0, cols, PACK_COLUMNS):
        out[:, j:j + PACK_COLUMNS] = block[:, j:j + PACK_COLUMNS]
    return out


def _coincident_points(x):
    """Index pairs (i, j), i < j, of sample points with equal coordinates,
    each later point paired with the first point at its position."""
    _, first, inverse = np.unique(x, axis=0, return_index=True,
                                  return_inverse=True)
    later = np.flatnonzero(first[inverse] != np.arange(len(x)))
    return [(int(first[inverse[j]]), int(j)) for j in later]


@dataclass
class _Tridiagonal:
    """Z^T K Z = Q_T T Q_T^T, m = n - 3 square, with T tridiagonal.

    One Householder tridiagonalisation (``dsytrd``) is the only O(m^3) step.
    ``d`` and ``e`` are the diagonal and subdiagonal of T and ``z`` =
    Q_T^T Z^T y.  No eigenvalue of T is computed: ``gcv_scores`` takes the
    trace of each candidate's influence matrix from LDL^T pivots of T.  The
    lower reflectors of ``dsytrd`` (``reflectors``, ``tau``) form a
    QR-style set on rows 1..m-1, so ``dormqr`` applies Q_T or Q_T^T to a
    vector in O(m^2).  For m <= 1, Z^T K Z is already tridiagonal and Q_T is
    the identity.
    """
    reflectors: np.ndarray
    tau: np.ndarray
    d: np.ndarray
    e: np.ndarray
    z: np.ndarray

    @classmethod
    def reduce(cls, QtKQ, Qty):
        """The reduction of the null-space blocks of ``_reflected_system``.

        It overwrites ``QtKQ``: Z^T K Z is packed into the first m*m
        entries of its Fortran-ordered memory and reduced there, and the
        reflectors are then packed into the first (m-1)^2, so that LAPACK
        gets them contiguous and copies none of them (``_pack_front``).
        """
        m = len(Qty) - 3
        z = Qty[3:].copy()
        if m <= 1:  # the dgtsv wrapper rejects m < 2
            d = np.diag(QtKQ)[3:]
            return cls(None, None, d, np.zeros(0), z)
        # the wrapper's default lwork would force the unblocked reduction
        lwork = int(lapack.dsytrd_lwork(m, lower=1)[0])
        memory = np.ravel(QtKQ, order="F")
        c = _pack_front(memory, QtKQ[3:, 3:])
        c, d, e, tau, _ = lapack.dsytrd(c, lower=1, lwork=lwork,
                                        overwrite_a=1)
        reflectors = _pack_front(memory, c[1:, :-1])
        z[1:] = lapack.dormqr("L", "T", reflectors, tau, z[1:, None],
                              m - 1)[0][:, 0]
        return cls(reflectors, tau, d, e, z)

    def solve(self, sigma):
        """u = (T + sigma*I)^-1 z, one O(m) tridiagonal solve."""
        if len(self.d) <= 1:
            return self.z / (self.d + sigma)
        return lapack.dgtsv(self.e, self.d + sigma, self.e,
                            self.z[:, None])[3][:, 0]

    def to_null_space(self, u):
        """g = Q_T u, the null-space coordinates of a solution of ``solve``."""
        g = u.copy()
        if len(g) > 1:
            g[1:] = lapack.dormqr("L", "N", self.reflectors, self.tau,
                                  u[1:, None], len(g) - 1)[0][:, 0]
        return g

    def residual_dof(self, sigma):
        """n - tr H = sigma * trace((T + sigma*I)^-1), or None when T +
        sigma*I is not positive definite.

        The i-th diagonal entry of the inverse of a positive definite
        tridiagonal A is 1 / (p_i + q_i - a_ii), with p the pivots of
        A = L D L^T from the top and q those from the bottom (Meurant 1992),
        so two ``dpttrf`` calls give the trace in O(m).
        """
        a = self.d + sigma
        if len(a) <= 1:  # the dpttrf wrapper rejects m < 2
            return sigma * np.sum(1.0 / a) if np.all(a > 0) else None
        down, _, fail_down = lapack.dpttrf(a, self.e)
        up, _, fail_up = lapack.dpttrf(a[::-1], self.e[::-1])
        if fail_down or fail_up:
            return None
        return sigma * np.sum(1.0 / (down + up[::-1] - a))

    def gcv_scores(self, grid):
        """GCV score n*|y - yhat|^2 / (n - tr H)^2 at each alpha of ``grid``.

        n - tr H comes from ``residual_dof(n*alpha)`` and |y - yhat|^2 =
        (n*alpha)^2 |u|^2 with u from ``solve(n*alpha)``.  A candidate whose
        T + n*alpha*I is not positive definite, or with n - tr H <= 0 (m =
        0), scores +inf.
        """
        n = len(self.z) + 3
        scores = np.full(len(grid), np.inf)
        for k, sigma in enumerate(n * np.asarray(grid, dtype=float)):
            dof = self.residual_dof(sigma)
            if dof is not None and dof > 0:
                u = self.solve(sigma)
                scores[k] = n * sigma ** 2 * (u @ u) / dof ** 2
        return scores


def fit_tps(sample, alpha_tps=0.0):
    """Fit a smoothing TPS to a (small) data set.

    Solves the symmetric system
        [K + n*alpha*I  P] [w]   [y]
        [P^T            0] [a] = [0]
    with P = [1, x1, x2], which enforces the zero-moment side constraints on
    the kernel weights, in its null-space form: w = Z g with
    (Z^T K Z + n*alpha*I) g = Z^T y, and R a = Q1^T y - Q1^T K Z g for
    P = Q1 R (see ``_reflected_system``).  Past the O(n^2) reflected system:

    - a given alpha costs one (n-3)-square Cholesky factorisation of
      Z^T K Z + n*alpha*I, formed and factorised in the memory of Q^T K Q;
      it is positive definite for distinct points.
      Interpolation (alpha = 0) through coincident points has no unique
      solution and raises ``DegenerateGeometry``.
    - ``alpha_tps="auto"`` picks alpha as ``select_alpha_tps`` does, from
      the same scores, and fits at it from the same reduction: one O(m^3)
      tridiagonalisation of Z^T K Z (m = n - 3), O(m) per candidate, and an
      O(m^2) back-transform g = Q_T u of the winner's tridiagonal solve u.
      The chosen alpha is the model's ``alpha_tps``.

    Any other ``alpha_tps`` than "auto" or a finite value >= 0 raises
    ValueError.
    """
    auto = isinstance(alpha_tps, str) and alpha_tps == "auto"
    if not auto and not (isinstance(alpha_tps, numbers.Real)
                         and 0 <= alpha_tps < np.inf):
        raise ValueError("alpha_tps must be 'auto' or finite and >= 0, "
                         f"got {alpha_tps!r}")
    x, y, qr, tau, QtKQ, Qty = _reflected_system(sample)
    n = len(y)
    # Q1^T K Z, copied before the steps below overwrite QtKQ.  Four rows are
    # copied so that the leading dimension stays above 3: OpenBLAS sums a
    # 3-row block of leading dimension 3 in another order, and the product
    # below would then differ from that of QtKQ[:3, 3:] in the last bit.
    QtKZ = QtKQ[:4, 3:].copy(order="F")[:3]
    if auto:
        tri = _Tridiagonal.reduce(QtKQ, Qty)
        k = np.argmin(tri.gcv_scores(ALPHA_TPS_GRID))
        alpha_tps = ALPHA_TPS_GRID[k]
        g = tri.to_null_space(tri.solve(n * alpha_tps))
    else:
        if alpha_tps == 0.0:
            pairs = _coincident_points(x)
            if pairs:
                raise DegenerateGeometry(
                    f"cannot interpolate: {len(pairs)} sample points "
                    f"coincide with earlier ones, index pairs {pairs[:5]}")
        # packed as ``_Tridiagonal.reduce`` packs Z^T K Z
        C = _pack_front(np.ravel(QtKQ, order="F"), QtKQ[3:, 3:])
        C.flat[::len(C) + 1] += n * alpha_tps
        g = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(C, overwrite_a=True), Qty[3:])
    w = lapack.dormqr("L", "N", qr, tau,
                      np.concatenate([np.zeros(3), g])[:, None], 1)[0][:, 0]
    a = scipy.linalg.solve_triangular(qr[:3], Qty[:3] - QtKZ @ g)
    return TpsModel(centers=x.copy(), weights=w, affine=a,
                    alpha_tps=float(alpha_tps))


def _gcv_scores(sample, grid):
    """GCV score of the spline at each alpha of ``grid``: one reflected
    system and one ``_Tridiagonal`` reduction, then O(m) per candidate."""
    _, _, _, _, QtKQ, Qty = _reflected_system(sample)
    return _Tridiagonal.reduce(QtKQ, Qty).gcv_scores(grid)


def select_alpha_tps(sample, alpha_grid=None):
    """Spline smoothing parameter by GCV with the exact trace.

    With Z an orthonormal basis of the null space of P^T (the kernel weights
    are w = Z g), the trace and residual of each alpha follow from Z^T K Z +
    n*alpha*I (Craven & Wahba 1979).  ``_gcv_scores`` reduces Z^T K Z, m =
    n - 3 square, to tridiagonal form T once, the only O(m^3) step of the
    selection; each candidate then costs O(m), the trace from the LDL^T
    pivots of T + n*alpha*I and the residual from one tridiagonal solve, so
    a wider grid is cheap.  Returns the first alpha of least score
    (``ALPHA_TPS_GRID`` by default); a candidate with n - tr H <= 0 scores
    +inf, so n = 3 gives ``grid[0]``.  A given grid must be finite,
    positive and strictly increasing, else ValueError.
    ``fit_tps(sample, "auto")`` selects from the same scores and fits too.
    """
    grid = (ALPHA_TPS_GRID if alpha_grid is None
            else checked_alpha_grid(alpha_grid))
    return float(grid[np.argmin(_gcv_scores(sample, grid))])


def checked_alpha_grid(alpha_grid):
    """``alpha_grid`` as a float array; ValueError unless it is a non-empty
    1-D grid, finite, positive and strictly increasing."""
    grid = np.asarray(alpha_grid, dtype=float)
    if (grid.ndim != 1 or not len(grid) or not np.all(np.isfinite(grid))
            or not np.all(grid > 0) or np.any(np.diff(grid) <= 0)):
        raise ValueError("alpha_grid must be finite, positive and strictly "
                         f"increasing, got {alpha_grid!r}")
    return grid


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
    """Subdivide the bounding box of ``x`` until every leaf holds <= cap
    points or lies at depth 41.

    A cell splits at its midpoint into the quadrants q = [x1 > mid1] + 2
    [x2 > mid2]; an empty quadrant makes no cell.  The cells are built one
    depth at a time, in parent order and then quadrant order.  Returns
    ``(members, start)``: the points of leaf g, ascending, are
    ``members[start[g]:start[g + 1]]``; the leaves come by depth, the
    shallowest (largest) first, and within a depth in the order of their
    quadrant paths.
    """
    xs, ys = np.array(x.T, order="C")
    lo = np.array([xs.min(), ys.min()])
    span = np.maximum(np.array([xs.max(), ys.max()]) - lo, 1e-300)
    # the cells of one depth, in order, with corners (clo[c], chi[c]); the
    # points not yet in a leaf, ascending, with their cells and coordinates
    clo, chi = lo[None, :], (lo + span)[None, :]
    idx, cell = np.arange(len(x)), np.zeros(len(x), dtype=np.int64)
    leaf_of = np.empty(len(x), dtype=np.int64)
    leaves = 0
    for depth in range(42):
        count = np.bincount(cell, minlength=len(clo))
        leaf = (count <= cap) | (depth > 40)
        if leaf.any():
            done = leaf[cell]
            leaf_of[idx[done]] = leaves + np.cumsum(leaf)[cell[done]] - 1
            leaves += np.count_nonzero(leaf)
            keep = ~done
            idx, cell, xs, ys = idx[keep], cell[keep], xs[keep], ys[keep]
            if not len(idx):
                break
        mid = 0.5 * (clo + chi)
        key = 4 * cell + (xs > mid[cell, 0]) + 2 * (ys > mid[cell, 1])
        present = np.bincount(key, minlength=4 * len(clo)) > 0
        cell = np.cumsum(present)[key] - 1
        child = np.flatnonzero(present)
        parent, right, top = child // 4, child % 2 == 1, child % 4 >= 2
        clo = np.column_stack([np.where(right, mid[parent, 0], clo[parent, 0]),
                               np.where(top, mid[parent, 1], clo[parent, 1])])
        chi = np.column_stack([np.where(right, chi[parent, 0], mid[parent, 0]),
                               np.where(top, chi[parent, 1], mid[parent, 1])])
    return _grouped(leaf_of, leaves)


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
    members, start = _quadtree_leaves(x[candidates], cap)
    members, start = candidates[members], start[:-1]
    taken = np.zeros(n, dtype=bool)
    left = plan.count
    # one random pick per leaf, largest cells first, cycling until filled;
    # a pass draws its picks at once, the stream of one draw per leaf
    while left > 0:
        avail = ~taken[members]
        counts = np.add.reduceat(avail, start)
        open_leaves = np.flatnonzero(counts)[:left]
        if len(open_leaves) == 0:
            raise InsufficientData("sampling exhausted candidate points")
        first = np.cumsum(counts) - counts  # each leaf's first available
        ranks = first[open_leaves] + rng.integers(0, counts[open_leaves])
        taken[members[np.flatnonzero(avail)[ranks]]] = True
        left -= len(open_leaves)
    return data.subset(np.flatnonzero(taken))
