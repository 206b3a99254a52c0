"""Global TPS and compactly supported RBF baselines.

Control points snap to a uniform rectangular grid (grid nodes whose nearest
data point is further than a third of the grid spacing are skipped).  The
CSRBF kernels vanish beyond the support radius rho, giving sparse
collocation systems; the support radius is chosen so each center covers a
fixed number of data points.

The neighbour searches here use ``scipy.spatial.cKDTree``, imported on first
use by ``_kdtree``: ``scipy.spatial`` loads ``scipy.special`` and
``scipy.constants`` too, about 0.1 s of start-up and 7 MiB of memory, and
the TPSFEM fit never calls these baselines.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .data import DataSet
from .exceptions import NoControlPoints, SingularSystem
from .tps import checked_alpha_grid, fit_tps


def _kdtree(points):
    """A ``cKDTree`` of the points; ``scipy.spatial`` loads on first call."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


def buhmann_kernel(r):
    """Buhmann's compactly supported kernel on [0, 1]."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m = (r >= 0) & (r < 1)
    rm = r[m]
    log_term = np.zeros_like(rm)
    pos = rm > 0
    log_term[pos] = 2.0 * rm[pos] ** 2 * np.log(rm[pos])
    out[m] = (1.0 / 15.0 + (19.0 / 6.0) * rm ** 2 - (16.0 / 3.0) * rm ** 3
              + 3.0 * rm ** 4 - (16.0 / 15.0) * rm ** 5 + (1.0 / 6.0) * rm ** 6
              + log_term)
    return out


def wendland_kernel(r):
    """Wendland's C2 kernel (1-r)^4 (4r+1) on [0, 1]."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m = (r >= 0) & (r <= 1)
    rm = r[m]
    out[m] = (1.0 - rm) ** 4 * (4.0 * rm + 1.0)
    return out


KERNELS = {"buhmann": buhmann_kernel, "wendland": wendland_kernel}


@dataclass
class ControlPointPlan:
    """Uniform grid spacing and the derived snap tolerance (spacing / 3)."""
    grid_h: float

    def __post_init__(self):
        if self.grid_h <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def snap_tolerance(self):
        return self.grid_h / 3.0


def snap_control_points(data, plan):
    """Data points nearest to grid nodes (within the snap tolerance).

    Returns the indices into ``data`` of the selected control points,
    deduplicated.  Grid nodes with no data point within spacing/3 are
    skipped.
    """
    x = np.asarray(data.x, dtype=float)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    h = plan.grid_h
    gx = np.arange(lo[0], hi[0] + 0.5 * h, h)
    gy = np.arange(lo[1], hi[1] + 0.5 * h, h)
    nodes = np.column_stack([np.repeat(gx, len(gy)), np.tile(gy, len(gx))])
    d, idx = _kdtree(x).query(nodes, k=1,
                              distance_upper_bound=plan.snap_tolerance)
    hits = idx[np.isfinite(d)]
    unique = np.unique(hits)
    if len(unique) == 0:
        raise NoControlPoints("no data point lies within h/3 of a grid node")
    return unique


def choose_rho(centers, data, k_cover):
    """Support radius: median distance to the k-th nearest data point."""
    if k_cover < 1:
        raise ValueError("k_cover must be >= 1")
    x = np.asarray(data.x, dtype=float)
    centers = np.asarray(centers, dtype=float)
    k = min(k_cover, len(x))
    d, _ = _kdtree(x).query(centers, k=k)
    d = np.atleast_2d(d)
    rho = float(np.median(d[:, -1]))
    if rho <= 0.0:
        # degenerate (centers coincide with data): smallest positive distance
        dd, _ = _kdtree(x).query(centers, k=min(len(x), k_cover + 1))
        positive = dd[dd > 0]
        if len(positive) == 0:
            raise ValueError("all center-data distances are zero")
        rho = float(positive.min())
    return rho


@dataclass
class CsrbfModel:
    """Fitted compactly supported RBF collocation model; ``solve_seconds``
    cover the GCV search of alpha, when there is one, and the fit."""
    kernel: str
    centers: np.ndarray
    rho: float
    weights: np.ndarray
    alpha_rbf: float
    nonzeros: int
    solve_seconds: float

    def eval(self, pts):
        """Model values at the points: the kernel sum over every centre
        within the support radius (0 outside every support)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # the ndarray output keeps zero distances: a point on a centre
        pairs = _kdtree(pts).sparse_distance_matrix(
            _kdtree(self.centers), self.rho, output_type="ndarray")
        phi = KERNELS[self.kernel](pairs["v"] / self.rho)
        terms = phi * self.weights[pairs["j"]]
        return np.bincount(pairs["i"], terms, minlength=len(pts))


def _csrbf_matrix(centers, rho, kernel):
    tree = _kdtree(centers)
    pairs = tree.query_pairs(rho, output_type="ndarray")
    n = len(centers)
    phi = KERNELS[kernel]
    if len(pairs):
        r = np.linalg.norm(centers[pairs[:, 0]] - centers[pairs[:, 1]],
                           axis=1) / rho
        vals = phi(r)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
        data = np.concatenate([vals, vals, np.full(n, phi(np.zeros(1))[0])])
    else:
        rows = cols = np.arange(n)
        data = np.full(n, phi(np.zeros(1))[0])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()


def _csrbf_gcv(K, y, alphas, probes, seed):
    """Stochastic-trace GCV for the ridge collocation system."""
    n = len(y)
    rng = np.random.default_rng(seed)
    Z = rng.choice([-1.0, 1.0], size=(n, min(probes, n)))
    best_alpha, best_v = None, np.inf
    eye = sp.identity(n, format="csc")
    for alpha in alphas:
        lu = spla.splu(K + n * alpha * eye)
        w = lu.solve(y)
        yhat = K @ w
        tr = float(np.mean(np.sum(Z * (K @ lu.solve(Z)), axis=0)))
        if tr >= n:
            continue
        v = n * float(np.sum((y - yhat) ** 2)) / (n - tr) ** 2
        if v < best_v:
            best_v, best_alpha = v, float(alpha)
    return best_alpha if best_alpha is not None else float(alphas[0])


def _checked_inputs(data, control_idx, plan, alpha):
    """``control_idx``, else the points ``plan`` snaps; ``alpha`` checked."""
    if alpha != "gcv" and not 0 <= float(alpha) < np.inf:
        raise ValueError(f"alpha must be 'gcv' or finite and >= 0: {alpha}")
    if control_idx is not None:
        return control_idx
    if plan is None:
        raise ValueError("need control_idx or a ControlPointPlan")
    return snap_control_points(data, plan)


def fit_csrbf(data, kernel, rho, control_idx=None, plan=None, alpha="gcv",
              alpha_grid=None, probes=10, seed=0):
    """Ridge collocation of a CSRBF at snapped control points.

    The value collocated at each center is the response of the snapped data
    point; the system (K + n*alpha*I) w = y is sparse with pattern limited
    to center pairs within the support radius.  ``alpha="gcv"`` picks alpha
    from ``alpha_grid``, which must be finite, positive and strictly
    increasing (ValueError).  The model's ``solve_seconds`` cover the GCV
    search, when there is one, and the fit, as ``fit_global_tps`` times its
    selection and fit.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    control_idx = _checked_inputs(data, control_idx, plan, alpha)
    grid = (np.geomspace(1e-10, 1e-2, 9) if alpha_grid is None
            else checked_alpha_grid(alpha_grid))
    centers = np.asarray(data.x, dtype=float)[control_idx]
    y = np.asarray(data.y, dtype=float)[control_idx]
    K = _csrbf_matrix(centers, rho, kernel)
    n = len(centers)
    t0 = time.perf_counter()
    if alpha == "gcv":
        alpha = _csrbf_gcv(K, y, grid, probes, seed)
    alpha = float(alpha)
    system = K + n * alpha * sp.identity(n, format="csc")
    try:
        w = spla.splu(system).solve(y)
    except RuntimeError as err:
        raise SingularSystem(f"CSRBF system factorisation failed: {err}") from err
    seconds = time.perf_counter() - t0
    return CsrbfModel(kernel=kernel, centers=centers, rho=rho, weights=w,
                      alpha_rbf=alpha, nonzeros=int(system.nnz),
                      solve_seconds=seconds)


def fit_global_tps(data, control_idx=None, plan=None, alpha="gcv"):
    """Dense TPS on the snapped control points (100% dense system).

    ``alpha="gcv"`` selects alpha and fits from one reduction,
    ``fit_tps(subset, "auto")``.  Returns the model and the seconds of that
    ``fit_tps`` call: with "gcv" they cover the selection and the fit, with
    a given alpha the fit alone, as ``fit_csrbf``'s ``solve_seconds`` do.
    """
    control_idx = _checked_inputs(data, control_idx, plan, alpha)
    subset = DataSet(np.asarray(data.x, dtype=float)[control_idx],
                     np.asarray(data.y, dtype=float)[control_idx])
    t0 = time.perf_counter()
    model = fit_tps(subset, "auto" if alpha == "gcv" else float(alpha))
    seconds = time.perf_counter() - t0
    return model, seconds


def report_sparsity(model):
    """(nonzeros, nonzero ratio vs the dense kernel block)."""
    if isinstance(model, CsrbfModel):
        n = len(model.centers)
        return model.nonzeros, model.nonzeros / float(n * n)
    n = len(model.centers)  # dense TPS kernel block
    return n * n, 1.0


def baseline_metrics(model, data):
    """RMSE and MAX of a fitted baseline over all data points."""
    pred = model.eval(data.x)
    resid = pred - np.asarray(data.y, dtype=float)
    return float(np.sqrt(np.mean(resid ** 2))), float(np.abs(resid).max())
