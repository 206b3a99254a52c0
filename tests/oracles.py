"""Independent slow oracles used only by the test suite."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.spatial import cKDTree

from tpsfem.assembly import FemSystem
from tpsfem.boundary import BoundaryValues
from tpsfem.data import DataSet
from tpsfem.exceptions import (EmptyField, EmptyResult, InsufficientData,
                               NotRefinable, SingularSystem)
from tpsfem.indicators import (_members, auxiliary_indicators,
                               recovery_indicator)
from tpsfem.mesh import (BARY_TOL, SUB_TRIANGLES, TriMesh, _bary, _grouped,
                         bisect_once)
from tpsfem.solver import FIELDS, SaddleSystem, saddle_blocks
from tpsfem.tps import (ALPHA_TPS_GRID, R_CLAMP, TpsModel, _reflected_system,
                        _spline_system, _Tridiagonal)

# 7-point Gauss rule on the reference triangle, exact to degree 5
_GP = np.array([
    [1 / 3, 1 / 3],
    [0.0597158717897698, 0.4701420641051151],
    [0.4701420641051151, 0.0597158717897698],
    [0.4701420641051151, 0.4701420641051151],
    [0.7974269853530873, 0.1012865073234563],
    [0.1012865073234563, 0.7974269853530873],
    [0.1012865073234563, 0.1012865073234563],
])
_GW = np.array([0.225,
                0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
                0.1259391805448271, 0.1259391805448271, 0.1259391805448271])


def tri_area(points):
    """Unsigned area of the triangle given by three points."""
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in points)
    return 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                     - (p1[1] - p0[1]) * (p2[0] - p0[0]))


def tri_quad(points, fn):
    """Integrate ``fn(x, y)`` over the triangle given by three points."""
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in points)
    area = tri_area(points)
    total = 0.0
    for (l1, l2), w in zip(_GP, _GW):
        x = p0 + l1 * (p1 - p0) + l2 * (p2 - p0)
        total += w * fn(x[0], x[1])
    return total * 2 * area * 0.5


def linear_basis(points):
    """Callables (b_0, b_1, b_2) and their gradients on one triangle."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    fns, grads = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        a = x[j] * y[k] - x[k] * y[j]
        b = y[j] - y[k]
        c = x[k] - x[j]
        fns.append(lambda xx, yy, a=a, b=b, c=c: (a + b * xx + c * yy) / area2)
        grads.append(np.array([b, c]) / area2)
    return fns, grads


def tri_gradient(points, values):
    """Constant gradient of the linear interpolant of three vertex values."""
    _, grads = linear_basis(points)
    return sum(v * g for v, g in zip(values, grads))


def tri_items(mesh):
    """(id, (a, b, v)) of every triangle of a TriMesh, in ascending id."""
    tab = mesh.tri_table
    return list(zip(tab.ids.tolist(), map(tuple, tab.verts.tolist())))


def dense_L(mesh):
    """Stiffness matrix by per-triangle quadrature of gradient products."""
    n = mesh.n_nodes
    L = np.zeros((n, n))
    pts = mesh.points
    for t, tri in tri_items(mesh):
        coords = pts[list(tri)]
        _, grads = linear_basis(coords)
        for i in range(3):
            for j in range(3):
                val = tri_quad(coords, lambda x, y, i=i, j=j:
                               grads[i] @ grads[j])
                L[tri[i], tri[j]] += val
    return L


def dense_G(mesh, axis):
    """Gradient matrix by per-triangle quadrature of b_p * d_j b_q."""
    n = mesh.n_nodes
    G = np.zeros((n, n))
    pts = mesh.points
    for t, tri in tri_items(mesh):
        coords = pts[list(tri)]
        fns, grads = linear_basis(coords)
        for i in range(3):
            for j in range(3):
                val = tri_quad(coords, lambda x, y, i=i, j=j:
                               fns[i](x, y) * grads[j][axis - 1])
                G[tri[i], tri[j]] += val
    return G


def coo_summed(verts, elem, n):
    """Sum (m, 3, 3) element matrices over their vertex triples ``verts``
    into an (n, n) CSR matrix by a COO to CSR build: the assembly of
    ``assemble_L`` and ``assemble_G`` before the node-pair pattern."""
    rows = np.repeat(verts, 3, axis=1).ravel()
    cols = np.tile(verts, (1, 3)).ravel()
    M = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M.sum_duplicates()
    return M


def located_ids(mesh, points):
    """``mesh.locate`` with the triangle ids in place of their rows of
    ``mesh.tri_table`` (-1 outside)."""
    rows, bary = mesh.locate(points)
    return np.where(rows >= 0, mesh.tri_table.ids[rows], -1), bary


def dense_basis(mesh, data):
    """Basis values b(x_i) of the points inside the mesh, one dense row per
    point in data order, from the per-triangle linear basis functions."""
    rows = []
    tris = dict(tri_items(mesh))
    ids, _ = located_ids(mesh, data.x)
    for i, p in enumerate(np.asarray(data.x, dtype=float)):
        t = ids[i]
        if t == -1:
            continue
        nodes = list(tris[t])
        fns, _ = linear_basis(mesh.points[nodes])
        b = np.zeros(mesh.n_nodes)
        b[nodes] = [fn(p[0], p[1]) for fn in fns]
        rows.append(b)
    return np.array(rows).reshape(-1, mesh.n_nodes)


def dense_A_d(mesh, data):
    """Data projection sum(b b^T)/n and sum(b y)/n from dense basis rows."""
    ids, _ = located_ids(mesh, data.x)
    B = dense_basis(mesh, data)
    y = np.asarray(data.y, dtype=float)[ids >= 0]
    return B.T @ B / len(B), B.T @ y / len(B)


def consistent_mass_recovered_gradients(mesh, c):
    """Consistent-mass L2 projection of the piecewise constant gradient."""
    n = mesh.n_nodes
    M = np.zeros((n, n))
    rhs = np.zeros((n, 2))
    for t, tri in tri_items(mesh):
        nodes = list(tri)
        coords = mesh.points[nodes]
        a = tri_area(coords)
        g = tri_gradient(coords, c[nodes])
        local = (a / 12.0) * (np.ones((3, 3)) + np.eye(3))
        M[np.ix_(nodes, nodes)] += local
        for i in nodes:
            rhs[i] += (a / 3.0) * g
    return np.linalg.solve(M, rhs)


def lumped_mass_recovery_indicators(mesh, c):
    """Recovery indicators of the triangles in id order, one node and one
    triangle at a time: lumped-mass nodal gradients, then the squared
    difference to each triangle's gradient integrated by quadrature."""
    pts = mesh.points
    area, grad = {}, {}
    for t, tri in tri_items(mesh):
        nodes = list(tri)
        area[t] = tri_area(pts[nodes])
        grad[t] = tri_gradient(pts[nodes], c[nodes])

    node_tris = {}
    for t, tri in tri_items(mesh):
        for n in tri:
            node_tris.setdefault(n, []).append(t)

    def recovered(n):
        ts = node_tris[n]
        return (sum(area[t] / 3.0 * grad[t] for t in ts)
                / sum(area[t] / 3.0 for t in ts))

    out = []
    for t, tri in tri_items(mesh):
        nodes = list(tri)
        fns, _ = linear_basis(pts[nodes])
        d = [recovered(n) - grad[t] for n in nodes]
        out.append(np.sqrt(tri_quad(pts[nodes], lambda x, y: sum(
            sum(di[k] * f(x, y) for di, f in zip(d, fns)) ** 2
            for k in range(2)))))
    return np.array(out)


def _interleaved(nodes, n):
    """Indices into K of the FIELDS of ``nodes``, node by node."""
    return (nodes[:, None] + n * np.arange(len(FIELDS))).ravel()


def rebuilt_saddle_system(fem, alpha, bv=None):
    """(matrix, rhs) of the eliminated saddle system built from scratch at
    ``alpha``: one bmat of the blocks, then interior rows, interior and
    boundary columns, with the explicit zeros dropped from the matrix."""
    bv = fem.bv if bv is None else bv
    n = fem.mesh.n_nodes
    order = np.argsort(bv.nodes)
    interior = fem.mesh.interior_nodes()
    boundary = np.asarray(bv.nodes, dtype=int)[order]
    bvals = {"c": bv.c[order], "g1": bv.g1[order], "g2": bv.g2[order],
             "w": bv.w_at(alpha)[order]}
    K = sp.bmat(saddle_blocks(fem.A, fem.L, fem.G1, fem.G2, alpha),
                format="csr")
    rows = K[_interleaved(interior, n)]
    matrix = rows[:, _interleaved(interior, n)].tocsc()
    matrix.eliminate_zeros()
    x_b = np.column_stack([bvals[name] for name in FIELDS]).ravel()
    rhs = -(rows[:, _interleaved(boundary, n)] @ x_b)
    rhs[0::4] += fem.d[interior]
    return matrix, rhs


def pivoted_saddle_solve(fem, alpha, bv=None):
    """Interleaved solution of the rebuilt saddle system, factorised by
    SuperLU with threshold partial pivoting in its own column order: the
    solver's factorisation before it ordered the system once per mesh and
    pivoted statically."""
    matrix, rhs = rebuilt_saddle_system(fem, alpha, bv)
    return spla.splu(matrix).solve(rhs)


def dense_saddle_solve(fem, alpha, bv):
    """Dense LU reference solve of the eliminated four-block saddle system."""
    mesh = fem.mesh
    interior = np.array([n for n in range(mesh.n_nodes)
                         if not mesh.node_boundary[n]])
    boundary = np.array([n for n in range(mesh.n_nodes)
                         if mesh.node_boundary[n]])
    A = fem.A.toarray()
    L = fem.L.toarray()
    G1 = fem.G1.toarray()
    G2 = fem.G2.toarray()
    ii = np.ix_(interior, interior)
    ib = np.ix_(interior, boundary)
    z = np.zeros_like(A[ii])
    M = np.block([
        [A[ii], z, z, L[ii]],
        [z, alpha * L[ii], z, -G1.T[ii]],
        [z, z, alpha * L[ii], -G2.T[ii]],
        [L[ii], -G1[ii], -G2[ii], z],
    ])
    cb, g1b, g2b, wb = bv.c, bv.g1, bv.g2, bv.w
    if bv.w_proxy is not None:
        wb = -alpha * bv.w_proxy
    r1 = fem.d[interior] - (A[ib] @ cb + L[ib] @ wb)
    r2 = -(alpha * L[ib] @ g1b - G1.T[ib] @ wb)
    r3 = -(alpha * L[ib] @ g2b - G2.T[ib] @ wb)
    r4 = -(L[ib] @ cb - G1[ib] @ g1b - G2[ib] @ g2b)
    rhs = np.concatenate([r1, r2, r3, r4])
    x = np.linalg.solve(M, rhs)
    m = len(interior)
    full = {}
    for pos, name in enumerate(("c", "g1", "g2", "w")):
        v = np.zeros(mesh.n_nodes)
        v[interior] = x[pos * m:(pos + 1) * m]
        v[boundary] = {"c": cb, "g1": g1b, "g2": g2b, "w": wb}[name]
        full[name] = v
    return full


def dense_influence_matrix(fem, alpha, bv, data):
    """Influence matrix dy_hat/dy by dense solves against canonical vectors."""
    B = dense_basis(fem.mesh, data)
    k = len(B)
    infl = np.zeros((k, k))
    import copy
    for j in range(k):
        fem_j = copy.copy(fem)
        fem_j.d = B[j] / k
        zero_bv = copy.copy(bv)
        zero_bv.c = np.zeros_like(bv.c)
        zero_bv.g1 = np.zeros_like(bv.g1)
        zero_bv.g2 = np.zeros_like(bv.g2)
        zero_bv.w = np.zeros_like(bv.w)
        zero_bv.w_proxy = None
        sol = dense_saddle_solve(fem_j, alpha, zero_bv)
        infl[:, j] = B @ sol["c"]
    return infl


def saddle_gcv_score(fem, alpha, data, W):
    """``gcv.gcv_score`` through a ``SaddleSystem`` at alpha: the data and
    the probe block W in the c rows solved as one block by ``solve_raw``,
    and the misfit of the nodal c from the node-space sums
    n c^T A c - 2 n c^T d + y^T y, clamped at 0
    (``test_properties.py::test_node_space_misfit_matches_basis_misfit``
    bounds it against ||Bc - y||^2)."""
    system = SaddleSystem(fem, alpha)
    rhs = np.zeros((system.n_unknowns, 1 + W.shape[1]))
    rhs[:, 0] = system.rhs
    rhs[0::4, 1:] = W
    x, _ = system.solve_raw(rhs)
    n = fem.located.n_used
    tr = float(n * np.mean(np.sum(W * x[0::4, 1:], axis=0)))
    c = np.zeros(fem.mesh.n_nodes)
    c[system.interior] = x[0::4, 0]
    c[system.boundary] = system.bvals["c"]
    misfit = max(n * float(c @ (fem.A @ c) - 2.0 * (c @ fem.d)) + fem.yy,
                 0.0)
    if tr >= n:
        return float("inf")
    return n * misfit / (n - tr) ** 2


def masked_kernel_value(r):
    """TPS kernel r^2 log(r) evaluated only where r > 0, zero elsewhere."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mask = r > 0
    rm = r[mask]
    out[mask] = rm * rm * np.log(rm)
    return out


def summed_radii(a, b):
    """Differences (k, m, 2) and distances (k, m) between the rows of ``a``
    and ``b``, the squares summed over the last axis of the differences."""
    diff = a[:, None, :] - b[None, :, :]
    return diff, np.sqrt(np.sum(diff ** 2, axis=2))


def radii_tps_evals(model, pts):
    """Value, gradient and Laplacian-proxy sums of a ``TpsModel`` at (k, 2)
    points, from ``summed_radii`` and ``masked_kernel_value``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    diff, r = summed_radii(pts, model.centers)
    value = (model.affine[0] + pts @ model.affine[1:]
             + masked_kernel_value(r) @ model.weights)
    fac = np.zeros_like(r)
    fac[r > 0] = 2.0 * np.log(r[r > 0]) + 1.0
    grad = (np.einsum("kc,kcd->kd", fac * model.weights[None, :], diff)
            + model.affine[1:][None, :])
    proxy = (-np.log(np.maximum(r, R_CLAMP)) - 4.0) @ model.weights
    return value, grad, proxy


def complete_q_tps_gcv_scores(x, y, grid):
    """Spline GCV scores with Z^T K Z formed from the complete Q of qr(P).

    Z is the last n-3 columns of Q; the projection is two dense products.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    P = np.column_stack([np.ones(n), x])
    K = masked_kernel_value(summed_radii(x, x)[1])
    Z = np.linalg.qr(P, mode="complete")[0][:, 3:]
    lam, U = np.linalg.eigh(Z.T @ K @ Z)
    b = U.T @ (Z.T @ y)
    s = n * grid[:, None] / (lam + n * grid[:, None])
    dof = s.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dof > 0, n * np.sum((s * b) ** 2, axis=1) / dof ** 2,
                        np.inf)


def dense_tps_fit(x, y, alpha):
    """Smoothing spline from one general dense solve of the bordered system

        [K + n*alpha*I  P] [w]   [y]
        [P^T            0] [a] = [0],   P = [1, x1, x2].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    P = np.column_stack([np.ones(n), x])
    K = masked_kernel_value(summed_radii(x, x)[1])
    M = np.block([[K + n * alpha * np.eye(n), P],
                  [P.T, np.zeros((3, 3))]])
    sol = scipy.linalg.solve(M, np.concatenate([y, np.zeros(3)]))
    return TpsModel(centers=x.copy(), weights=sol[:n], affine=sol[n:],
                    alpha_tps=float(alpha))


def eigenvalue_residual_dof(tri, sigma):
    """n - tr H = sum(sigma / (lam + sigma)) of a ``_Tridiagonal`` with m
    >= 2, from the eigenvalues lam of T (``dsterf``, no eigenvectors)."""
    lam = lapack.dsterf(tri.d, tri.e)[0]
    return np.sum(sigma / (lam + sigma))


def eigenvalue_gcv_scores(tri, grid):
    """``_Tridiagonal.gcv_scores`` with n - tr H from ``dsterf``'s
    eigenvalues of T: a candidate with n - tr H <= 0 scores +inf."""
    n = len(tri.z) + 3
    scores = np.full(len(grid), np.inf)
    for k, sigma in enumerate(n * np.asarray(grid, dtype=float)):
        dof = eigenvalue_residual_dof(tri, sigma)
        if dof > 0:
            u = tri.solve(sigma)
            scores[k] = n * sigma ** 2 * (u @ u) / dof ** 2
    return scores


def copying_auto_tps_fit(sample):
    """``fit_tps(sample, "auto")`` with LAPACK working on copies: Q^T K Q
    from two out-of-place ``dormqr`` passes, ``dsytrd`` of its strided
    trailing block, and the reflectors left as the strided lower block of
    ``dsytrd``'s output.  Returns (weights, affine, alpha); needs n >= 5."""
    x, y, K, P = _spline_system(sample)
    n = len(y)
    m = n - 3
    (qr, tau), _ = scipy.linalg.qr(P, mode="raw")
    QtK = lapack.dormqr("L", "T", qr, tau, K, n)[0]
    QtKQ = lapack.dormqr("R", "N", qr, tau, QtK, n)[0]
    Qty = lapack.dormqr("L", "T", qr, tau, y[:, None], 1)[0][:, 0]
    lwork = int(lapack.dsytrd_lwork(m, lower=1)[0])
    c, d, e, t, _ = lapack.dsytrd(QtKQ[3:, 3:], lower=1, lwork=lwork)
    z = Qty[3:].copy()
    z[1:] = lapack.dormqr("L", "T", c[1:, :-1], t, z[1:, None], m - 1)[0][:, 0]
    tri = _Tridiagonal(c[1:, :-1], t, d, e, z)
    alpha = ALPHA_TPS_GRID[np.argmin(tri.gcv_scores(ALPHA_TPS_GRID))]
    g = tri.to_null_space(tri.solve(n * alpha))
    w = lapack.dormqr("L", "N", qr, tau,
                      np.concatenate([np.zeros(3), g])[:, None], 1)[0][:, 0]
    a = scipy.linalg.solve_triangular(qr[:3], Qty[:3] - QtKQ[:3, 3:] @ g)
    return w, a, float(alpha)


def copying_given_alpha_tps_fit(sample, alpha):
    """``fit_tps(sample, alpha)`` with Z^T K Z + n*alpha*I formed as a new
    matrix beside Q^T K Q and factorised on a copy.  Returns (weights,
    affine)."""
    x, y, qr, tau, QtKQ, Qty = _reflected_system(sample)
    n = len(y)
    C = QtKQ[3:, 3:] + n * alpha * np.eye(n - 3)
    g = scipy.linalg.cho_solve(scipy.linalg.cho_factor(C), Qty[3:])
    w = lapack.dormqr("L", "N", qr, tau,
                      np.concatenate([np.zeros(3), g])[:, None], 1)[0][:, 0]
    a = scipy.linalg.solve_triangular(qr[:3], Qty[:3] - QtKQ[:3, 3:] @ g)
    return w, a


def one_call_interpolate(mesh, values, points):
    """``solver.interpolate`` with every point located in one call."""
    rows, bary = mesh.locate(points)
    inside = rows >= 0
    out = np.full(len(rows), np.nan)
    out[inside] = np.einsum("ij,ij->i", bary[inside],
                            np.asarray(values)[mesh.tri_table.verts[
                                rows[inside]]])
    return out


def recursive_quadtree_leaves(x, cap):
    """Subdivide the bounding box until every leaf holds <= cap points, by
    depth-first recursion with boolean masks at every cell.

    Returns leaves as (depth, creation_order, point_indices), sorted by
    depth, then creation order.
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


def loop_sample(data, plan, seed=0):
    """``tps.sample`` of the quadtree strategies with one scalar draw per
    leaf: each pass visits the leaves largest first and picks one untaken
    point of each, until the plan's count is reached."""
    x = np.asarray(data.x, dtype=float)
    n = len(x)
    if plan.count > n:
        raise InsufficientData(f"requested {plan.count} of {n} points")
    rng = np.random.default_rng(seed)
    if plan.strategy == "quadtree_boundary_band":
        xmin, xmax, ymin, ymax = plan.band
        inside = ((x[:, 0] > xmin) & (x[:, 0] < xmax)
                  & (x[:, 1] > ymin) & (x[:, 1] < ymax))
        candidates = np.flatnonzero(~inside)
        if len(candidates) < plan.count:
            raise InsufficientData("not enough points outside the band")
    else:
        candidates = np.arange(n)
    cap = max(1, int(np.ceil(4.0 * n / plan.count)))
    leaves = [candidates[idx]
              for _, _, idx in recursive_quadtree_leaves(x[candidates], cap)]
    chosen = []
    taken = np.zeros(n, dtype=bool)
    while len(chosen) < plan.count:
        progress = False
        for idx in leaves:
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


def dense_tps_gcv_scores(x, y, grid):
    """GCV scores of the smoothing spline, one dense LU per candidate alpha.

    The influence matrix is formed column by column from n identity
    right-hand sides and its trace read off; a candidate with tr H >= n
    scores +inf.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    P = np.column_stack([np.ones(n), x])
    K = masked_kernel_value(summed_radii(x, x)[1])
    KP = np.hstack([K, P])
    scores = []
    for alpha in grid:
        M = np.zeros((n + 3, n + 3))
        M[:n, :n] = K + n * alpha * np.eye(n)
        M[:n, n:] = P
        M[n:, :n] = P.T
        lu = scipy.linalg.lu_factor(M)
        rhs = np.zeros((n + 3, n + 1))
        rhs[:n, 0] = y
        rhs[:n, 1:] = np.eye(n)
        sol = scipy.linalg.lu_solve(lu, rhs)
        yhat = KP @ sol[:, 0]
        tr = float(np.trace(KP @ sol[:, 1:]))
        scores.append(n * float(np.sum((y - yhat) ** 2)) / (n - tr) ** 2
                      if tr < n else np.inf)
    return np.array(scores)


def dense_csrbf_gcv_scores(centers, y, rho, phi, grid, probes, seed):
    """GCV scores of the CSRBF ridge collocation, one dense solve per alpha.

    The trace is estimated with the same Rademacher probe draw as
    ``tpsfem.rbf``; a candidate with a trace estimate >= n scores +inf.
    """
    centers = np.asarray(centers, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Z = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, min(probes, n)))
    K = phi(np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
            / rho)
    scores = []
    for alpha in grid:
        M = K + n * alpha * np.eye(n)
        yhat = K @ np.linalg.solve(M, y)
        tr = np.mean([z @ K @ np.linalg.solve(M, z) for z in Z.T])
        scores.append(n * float(np.sum((y - yhat) ** 2)) / (n - tr) ** 2
                      if tr < n else np.inf)
    return np.array(scores)


class RefMesh:
    """Reference newest-node bisection on dicts, one edge at a time.

    ``xs``, ``ys`` and ``node_boundary`` are lists with one entry per node;
    ``tris`` maps triangle id -> (a, b, v), counter-clockwise with the
    newest node v last; ``edges`` maps edge id -> (a, b), a < b; and
    ``edge_tris`` maps edge id -> the incident triangle ids.  Triangles are
    added one at a time, each taking the next triangle id and giving its
    sides (a, b), (b, v), (v, a) the next edge ids where they are new.
    ``bisect`` splits one base edge after recursing through the base edges
    that block it; ``TriMesh`` must reproduce it exactly.
    """

    def __init__(self, points, rows):
        self.xs = [float(p[0]) for p in points]
        self.ys = [float(p[1]) for p in points]
        self.tris, self.edges, self.edge_tris, self._key = {}, {}, {}, {}
        self._next_tri = self._next_edge = 0
        for a, b, v in rows:
            self._add_tri(int(a), int(b), int(v))
        self.node_boundary = [False] * len(self.xs)
        for eid, ts in self.edge_tris.items():
            if len(ts) == 1:
                for n in self.edges[eid]:
                    self.node_boundary[n] = True

    @classmethod
    def of(cls, mesh):
        """The reference copy of a TriMesh whose triangle ids are 0, 1, ...
        and whose edge ids follow first appearance, as a new mesh's do."""
        return cls(mesh.points.tolist(), mesh.tri_table.verts.tolist())

    def edge_id(self, a, b):
        return self._key.get((a, b) if a < b else (b, a))

    def base_edge_of(self, t):
        a, b, _ = self.tris[t]
        return self.edge_id(a, b)

    def refinable_edges(self):
        """Ids of the base edges, ascending."""
        return sorted({self.base_edge_of(t) for t in self.tris})

    def _add_tri(self, a, b, v):
        tid = self._next_tri
        self._next_tri += 1
        self.tris[tid] = (a, b, v)
        for u, w in ((a, b), (b, v), (v, a)):
            key = (u, w) if u < w else (w, u)
            if key not in self._key:
                self._key[key] = self._next_edge
                self.edges[self._next_edge] = key
                self.edge_tris[self._next_edge] = []
                self._next_edge += 1
            self.edge_tris[self._key[key]].append(tid)

    def bisect(self, edge_id):
        """Split the base edge ``edge_id`` after the base edges blocking it.

        Returns one (node, parent_a, parent_b, boundary) tuple per node
        created; raises NotRefinable for an id that is not a base edge of
        the mesh and on a recursion that does not end.
        """
        if edge_id not in self.edges:
            raise NotRefinable(f"edge {edge_id} is not an edge of the mesh")
        if all(self.base_edge_of(t) != edge_id
               for t in self.edge_tris[edge_id]):
            raise NotRefinable(f"edge {edge_id} is not a base edge")
        created, stack = [], [edge_id]
        budget = 8 * len(self.tris) + 64
        while stack:
            budget -= 1
            if budget < 0:
                raise NotRefinable("base-edge recursion does not terminate")
            eid = stack[-1]
            if eid not in self.edges:  # consumed by earlier recursion
                stack.pop()
                continue
            blockers = [self.base_edge_of(t) for t in self.edge_tris[eid]
                        if self.base_edge_of(t) != eid]
            if blockers:
                stack.extend(blockers)
                continue
            stack.pop()
            created.append(self._split(eid))
        return created

    def _split(self, eid):
        a, b = self.edges.pop(eid)
        del self._key[(a, b)]
        incident = [(t, self.tris.pop(t)) for t in self.edge_tris.pop(eid)]
        for t, tri in incident:
            for u, w in zip(tri, tri[1:] + tri[:1]):
                other = self.edge_id(u, w)
                if other is not None:
                    self.edge_tris[other].remove(t)
        mid = len(self.xs)
        self.xs.append(0.5 * (self.xs[a] + self.xs[b]))
        self.ys.append(0.5 * (self.ys[a] + self.ys[b]))
        self.node_boundary.append(len(incident) == 1)
        for _, (p, q, v) in incident:
            self._add_tri(v, p, mid)
            self._add_tri(q, v, mid)
        return (mid, a, b, len(incident) == 1)

    def uniform_refine(self):
        """Bisect the base edge of every triangle alive at the start, in
        ascending id."""
        created = []
        for t in sorted(self.tris):
            if t in self.tris:
                created += self.bisect(self.base_edge_of(t))
        return created

    def refine_wave(self, marked):
        """Bisect the marked edges in ascending id, skipping the ones an
        earlier recursion split."""
        created = []
        for eid in sorted(marked):
            if eid in self.edges:
                created += self.bisect(eid)
        return created


def copy_submesh(mesh, tri_ids):
    """The RefMesh of the triangles ``tri_ids`` of the TriMesh ``mesh``,
    built one node and one triangle at a time: its nodes in ascending source
    id, then its triangles in ascending source id, newest-node labels kept
    and boundary flags recomputed."""
    tab = mesh.tri_table
    rows = dict(zip(tab.ids.tolist(), tab.verts.tolist()))
    tri_ids = sorted(tri_ids)
    own = sorted({n for t in tri_ids for n in rows[t]})
    index = {n: i for i, n in enumerate(own)}
    return RefMesh(mesh.points[own].tolist(),
                   [[index[n] for n in rows[t]] for t in tri_ids])


def assert_same_mesh(mesh, ref):
    """The TriMesh ``mesh`` holds exactly the state of the RefMesh ``ref``:
    node coordinates and boundary flags, triangle ids and rows, edge ids,
    end nodes and incident triangles."""
    tab, et = mesh.tri_table, mesh.edge_table
    assert mesh.points.tolist() == [[x, y] for x, y in zip(ref.xs, ref.ys)]
    assert mesh.node_boundary.tolist() == ref.node_boundary
    assert tab.ids.tolist() == sorted(ref.tris)
    assert tab.verts.tolist() == [list(ref.tris[t]) for t in sorted(ref.tris)]
    assert et.ids.tolist() == sorted(ref.edges)
    assert et.nodes.tolist() == [list(ref.edges[e]) for e in sorted(ref.edges)]
    assert et.tris.tolist() == [(ref.edge_tris[e] + [-1])[:2]
                                for e in sorted(ref.edges)]


def patch_auxiliary_indicator(s, data, edge_id, alpha, located_by_tri):
    """Auxiliary indicator of one edge from its own sparse local problem.

    The patch (the edge's incident triangles and their edge-neighbours) is
    copied and uniformly refined once; the local smoothing problem gets its
    own FemSystem (with its own point location), SaddleSystem and sparse
    factorisation, and the squared gradient difference is integrated over
    the refined triangles whose centroid an incident triangle of the
    unrefined copy holds.  ``located_by_tri`` maps triangle id -> indices
    of the data inside it.
    """
    mesh = s.mesh
    tab, et = mesh.tri_table, mesh.edge_table
    tris = dict(tri_items(mesh))
    incident = {e: [t for t in ts if t >= 0]
                for e, ts in zip(et.ids.tolist(), et.tris.tolist())}
    sides = dict(zip(tab.ids.tolist(), tab.edges.tolist()))
    seed = incident[edge_id]
    patch = set(seed)
    for t in seed:
        for eid in sides[t]:
            patch.update(incident[eid])
    pt_idx = [i for t in patch for i in located_by_tri.get(t, ())]
    if not pt_idx:
        return 0.0
    patch_tris = sorted(patch)
    patch_nodes = sorted({n for t in patch_tris for n in tris[t]})
    index = {n: i for i, n in enumerate(patch_nodes)}
    copy = lambda: TriMesh.from_arrays(
        mesh.points[patch_nodes],
        [[index[n] for n in tris[t]] for t in patch_tris],
        [2] * len(patch_tris))
    local, coarse = copy(), copy()
    vals = {name: getattr(s, name)[patch_nodes]
            for name in ("c", "g1", "g2", "w")}
    for _, a, b in local.uniform_refine().tolist():
        for name in vals:
            vals[name] = np.append(vals[name],
                                   0.5 * (vals[name][a] + vals[name][b]))
    bnodes = np.asarray(local.boundary_nodes(), dtype=int)
    bv = BoundaryValues(nodes=bnodes, **{name: v[bnodes]
                                         for name, v in vals.items()})
    ldata = DataSet(np.asarray(data.x, dtype=float)[pt_idx],
                    np.asarray(data.y, dtype=float)[pt_idx])
    fem = FemSystem.build(local, ldata, bv=bv)
    try:
        shat = SaddleSystem(fem, alpha).solve()
    except SingularSystem:
        # no interior unknowns: the local surface is the global one
        return 0.0
    tab = local.tri_table
    centroid = np.column_stack([tab.x.mean(axis=1), tab.y.mean(axis=1)])
    within = located_ids(coarse, centroid)[0]
    rows = np.flatnonzero([patch_tris[t] in seed for t in within.tolist()])
    diff = tab.gradients(shat.c - vals["c"])[rows]
    return float(np.sqrt(np.sum(tab.area[rows] * np.sum(diff ** 2, axis=1))))



# -- the indicator field as edge-keyed dicts ------------------------------------


def located_dict(mesh, data):
    """Map triangle id -> ascending indices of the data points inside it,
    from one ``mesh.locate``."""
    ids, _ = located_ids(mesh, data.x)
    out = {}
    for i, t in enumerate(ids.tolist()):
        if t >= 0:
            out.setdefault(t, []).append(i)
    return {t: np.array(p) for t, p in out.items()}


def raise_to_base_edges(values, mesh, tri_ids, etas):
    """Raise ``values[base edge of t]`` to at least ``eta`` for every pair."""
    tab = mesh.tri_table
    for eid, eta in zip(tab.edges[tab.rows(tri_ids), 0].tolist(),
                        etas.tolist()):
        values[eid] = max(values.get(eid, 0.0), eta)


def dict_field(kind, s, data, alpha, located_by_tri):
    """The indicator field of ``kind`` on a fresh mesh, as a dict edge id ->
    value; the per-edge values come from the package's batch functions."""
    if kind == "recovery":
        values = {}
        ids = s.mesh.tri_table.ids
        raise_to_base_edges(values, s.mesh, ids, recovery_indicator(s, ids))
        return values
    edges = s.mesh.refinable_edges()
    etas = auxiliary_indicators(s, data, edges, alpha, located_by_tri)
    return dict(zip(edges.tolist(), etas.tolist()))


def refresh_dict_field(values, kind, s, data, alpha, located_by_tri,
                       new_tri_floor):
    """Bring the dict field ``values`` up to date after a refinement wave
    whose first new triangle id is ``new_tri_floor``: drop dead edges, and
    raise (recovery) or compute (auxiliary) the values of the edges the wave
    touched."""
    mesh = s.mesh
    for eid in np.setdiff1d(list(values), mesh.edge_table.ids).tolist():
        del values[eid]
    if kind == "recovery":
        ids = mesh.tri_table.ids
        ids = ids[ids >= new_tri_floor]
        raise_to_base_edges(values, mesh, ids, recovery_indicator(s, ids))
    else:
        new = np.setdiff1d(mesh.refinable_edges(), list(values))
        etas = auxiliary_indicators(s, data, new, alpha, located_by_tri)
        values.update(zip(new.tolist(), etas.tolist()))


def dict_mark(values, fraction_cap):
    """Maximum marking of the dict field ``values``, as a set of edge ids."""
    if not values:
        raise EmptyField("indicator field has no entries")
    thr = fraction_cap * max(values.values())
    return {eid for eid, eta in values.items() if eta >= thr}


def pair_bary(tab, rows, points):
    """Barycentric coordinates of ``points[k]`` in the triangle of row
    ``rows[k]``, each pair forming its six differences and its determinant
    from the vertex coordinates."""
    x0, y0 = tab.x[rows, 0], tab.y[rows, 0]
    v0x, v0y = tab.x[rows, 1] - x0, tab.y[rows, 1] - y0
    v1x, v1y = tab.x[rows, 2] - x0, tab.y[rows, 2] - y0
    v2x, v2y = points[:, 0] - x0, points[:, 1] - y0
    den = v0x * v1y - v0y * v1x
    out = np.empty((len(den), 3))
    np.divide(v2x * v1y - v2y * v1x, den, out=out[:, 1])
    np.divide(v0x * v2y - v0y * v2x, den, out=out[:, 2])
    out[:, 0] = 1.0 - out[:, 1] - out[:, 2]
    return out


def padded_containing_rows(tab, origin, within, points):
    """Row of ``tab`` holding each point among the rows whose ``origin`` is
    the point's ``within`` triangle, and its barycentric coordinates there:
    every point is tested against a padded row of candidates, and the first
    with the largest smallest barycentric coordinate wins."""
    order = np.argsort(origin, kind="stable")
    count = np.bincount(origin)
    start = np.cumsum(count) - count
    k = np.arange(count.max())
    valid = k < count[within][:, None]
    cand = order[start[within][:, None] + np.where(valid, k, 0)]
    bary = pair_bary(tab, cand.ravel(), np.repeat(points, len(k), axis=0))
    bary = bary.reshape(len(points), len(k), 3)
    pick = np.where(valid, bary.min(axis=2), -np.inf).argmax(axis=1)
    hit = np.arange(len(points))
    return cand[hit, pick], bary[hit, pick]


def containing_rows(tab, origin, within, points):
    """Row of ``tab`` holding each point among the rows whose ``origin`` is
    the point's ``within`` triangle, and its barycentric coordinates there:
    the descendant where the point's smallest barycentric coordinate is
    largest holds it, the first such one on a tie.  The per-(point,
    patch) placement of the auxiliary patches before their data entered
    through sub-triangle moments."""
    cand, at = _members(_grouped(origin, origin.max() + 1), within)
    lam = _bary(tab.frame.take(cand, axis=1), points[at, 0], points[at, 1])
    low = np.minimum(np.minimum(lam[0], lam[1]), lam[2])
    first = np.searchsorted(at, np.arange(len(points)))
    best = np.flatnonzero(low == np.maximum.reduceat(low, first)[at])
    pick = best[np.searchsorted(at[best], np.arange(len(points)))]
    return cand[pick], np.column_stack([l[pick] for l in lam])


def six_frame_moments(points, verts, at, xy, y):
    """``mesh.bisection_moments`` with the coordinates of every point in
    each of the six sub-triangles from a ``_bary`` on the sub-triangle's
    own frame of vertex coordinates, the midpoints as 0.5 * (p + q); the
    kernel before the exact bisection maps."""
    a, b, v = points[verts].transpose(1, 2, 0)
    corners = np.stack([a, b, v, 0.5 * (a + b), 0.5 * (v + a), 0.5 * (b + v)])
    i, j, k = SUB_TRIANGLES.T
    v0, v1 = corners[j] - corners[i], corners[k] - corners[i]
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    frames = np.concatenate([corners[i], v0, v1, den[:, None]], axis=1)
    px, py = np.ascontiguousarray(xy.T)
    lam = np.stack([_bary(f, px, py) for f in frames.take(at, axis=2)])
    low = lam.min(axis=1)
    # the level of each point: upper picks slot 3 over 0, right the second
    # child of the pick over the first
    upper = low[3] > low[0]
    right = np.where(upper, low[5] > low[4], low[2] > low[1])
    cell = len(SUB_TRIANGLES) * np.concatenate([at, at]) + np.concatenate(
        [3 * upper, 3 * upper + 1 + right])
    lam = np.concatenate([np.where(upper, lam[3], lam[0]),
                          np.where(upper, np.where(right, lam[5], lam[4]),
                                   np.where(right, lam[2], lam[1]))], axis=1)
    y = np.concatenate([y, y])
    size = len(SUB_TRIANGLES) * len(verts)
    columns = [np.bincount(cell, minlength=size).astype(float)]
    columns += [np.bincount(cell, lam[p] * lam[q], minlength=size)
                for p, q in zip(*np.triu_indices(3))]
    columns += [np.bincount(cell, l * y, minlength=size) for l in lam]
    return np.stack(columns, axis=1).reshape(len(verts), len(SUB_TRIANGLES),
                                             -1)


def point_patch_data(s, data, patches, located_by_tri):
    """(A, d, counts) of ``indicators.patch_system`` from one basis row per
    (point, patch) pair: every point of a patch triangle is placed among
    its triangle's refined descendants by ``containing_rows``, and A =
    BᵀB and d = Bᵀy are scaled by 1 / (points in the patch), ``counts``."""
    src = s.mesh.tri_table
    patch, col = np.nonzero(patches >= 0)
    tris = src.rows(patches[patch, col])
    keys, verts = np.unique(patch[:, None] * s.mesh.n_nodes + src.verts[tris],
                            return_inverse=True)
    nodes = keys % s.mesh.n_nodes
    children, origin, _, final, parents = bisect_once(verts.reshape(-1, 3),
                                                      len(nodes))
    children, origin = children[final], origin[final]
    pts = s.mesh.points[nodes]
    pts = np.vstack([pts, 0.5 * (pts[parents[:, 0]] + pts[parents[:, 1]])])
    tab = TriMesh.from_arrays(pts, children, np.full(len(children), 2)
                              ).tri_table
    point, within = _members(located_by_tri, tris)
    rows, bary = containing_rows(tab, origin, within,
                                 np.asarray(data.x, dtype=float)[point])
    n, k = len(pts), len(point)
    B = sp.csr_matrix((bary.ravel(), tab.verts[rows].ravel(),
                       np.arange(0, 3 * k + 1, 3)), shape=(k, n))
    node_patch = np.zeros(n, dtype=np.int64)
    node_patch[tab.verts] = patch[origin][:, None]
    counts = np.bincount(patch[within], minlength=len(patches))
    weight = 1.0 / counts[node_patch]
    A = (sp.diags(weight) @ (B.T @ B)).tocsr()
    d = weight * (B.T @ np.asarray(data.y, dtype=float)[point])
    return A, d, counts


def locator_bins(mesh, ng):
    """``(xmin, ymin, sx, sy, start, rows)``: the bounding box of the nodes
    cut into ng x ng bins, and the rows, ascending, of the triangles whose
    bounding boxes overlap bin g in ``rows[start[g]:start[g + 1]]``."""
    tab = mesh.tri_table
    xmin, ymin = mesh.points.min(axis=0)
    xmax, ymax = mesh.points.max(axis=0)
    sx = (xmax - xmin) / ng or 1.0
    sy = (ymax - ymin) / ng or 1.0
    i0 = np.clip(((tab.x.min(axis=1) - xmin) / sx).astype(int), 0, ng - 1)
    i1 = np.clip(((tab.x.max(axis=1) - xmin) / sx).astype(int), 0, ng - 1)
    j0 = np.clip(((tab.y.min(axis=1) - ymin) / sy).astype(int), 0, ng - 1)
    j1 = np.clip(((tab.y.max(axis=1) - ymin) / sy).astype(int), 0, ng - 1)
    listed = [[] for _ in range(ng * ng)]
    for r in range(len(tab.ids)):
        for i in range(i0[r], i1[r] + 1):
            for j in range(j0[r], j1[r] + 1):
                listed[i * ng + j].append(r)
    start = np.cumsum([0] + [len(b) for b in listed])
    rows = np.array([r for b in listed for r in b], dtype=np.int64)
    return xmin, ymin, sx, sy, start, rows


def binned_locate(mesh, points):
    """``located_ids`` on sqrt(2m) + 1 bins a side, with one (k, 3)
    barycentric table per pass and its row minimum as the hit test."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    tab = mesh.tri_table
    ng = int(np.clip(np.sqrt(2 * len(tab.ids)) + 1, 1, 1024))
    xmin, ymin, sx, sy, start, bin_rows = locator_bins(mesh, ng)
    xmax, ymax = mesh.points.max(axis=0)
    x, y = p[:, 0], p[:, 1]
    pad = 1e-12
    q = np.flatnonzero((x >= xmin - pad) & (x <= xmax + pad)
                       & (y >= ymin - pad) & (y <= ymax + pad))
    b = (np.clip(((x[q] - xmin) / sx).astype(int), 0, ng - 1) * ng
         + np.clip(((y[q] - ymin) / sy).astype(int), 0, ng - 1))
    first = start[b]
    count = start[b + 1] - first
    ids = np.full(len(p), -1, dtype=np.int64)
    out = np.full((len(p), 3), np.nan)
    k = 0
    live = count > 0
    while live.any():
        q, first, count = q[live], first[live], count[live]
        rows = bin_rows[first + k]
        with np.errstate(divide="ignore", invalid="ignore"):
            bary = pair_bary(tab, rows, p[q])
        hit = bary.min(axis=1) >= -BARY_TOL
        ids[q[hit]] = tab.ids[rows[hit]]
        out[q[hit]] = bary[hit]
        k += 1
        live = ~hit & (count > k)
    return ids, out


def kdtree_near_boundary_ratio(mesh, radius):
    """``TriMesh.near_boundary_ratio`` from a k-d tree of the boundary
    nodes: the share of interior nodes whose nearest boundary node lies
    closer than ``radius``."""
    interior = mesh.points[~mesh.node_boundary]
    d, _ = cKDTree(mesh.points[mesh.node_boundary]).query(interior, k=1)
    return float(np.count_nonzero(d < radius)) / len(interior)


def csrbf_eval_loop(model, pts, phi):
    """CSRBF model values one point at a time: the kernel ``phi`` summed
    over the centres ``query_ball_point`` finds within the support."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tree = cKDTree(model.centers)
    out = np.zeros(len(pts))
    for i, p in enumerate(pts):
        idx = tree.query_ball_point(p, model.rho)
        if not idx:
            continue
        r = np.linalg.norm(model.centers[idx] - p, axis=1) / model.rho
        out[i] = phi(r) @ model.weights[idx]
    return out


def per_node_boundary_values(strategy, mesh, new_node, neighbors,
                             node_values, alpha=1.0):
    """Dirichlet values (c, g1, g2, w, w_proxy) of one boundary node made by
    bisection: three one-point spline evaluations for "tps_approximation",
    the constant row for "constant", and the mean of the two endpoints
    ``neighbors`` of the bisected edge in ``node_values`` otherwise."""
    if strategy.kind == "constant":
        return strategy.constant_value, 0.0, 0.0, 0.0, 0.0
    if strategy.kind == "tps_approximation":
        p = mesh.points[[new_node]]
        c = float(strategy.tps.eval(p)[0])
        g = strategy.tps.eval_grad(p)[0]
        proxy = float(strategy.tps.eval_laplacian_proxy(p)[0])
        return c, float(g[0]), float(g[1]), -alpha * proxy, proxy
    a, b = neighbors
    return tuple(0.5 * (node_values[k][a] + node_values[k][b])
                 for k in ("c", "g1", "g2", "w", "w_proxy"))


def per_event_extend(arrays, mesh, events, strategy, alpha):
    """Arrays "c", "g1", "g2", "w", "w_proxy" grown by the nodes of one
    refinement wave, filled event by event in creation order from its
    [node, parent_a, parent_b] rows ``events``: boundary nodes by
    ``per_node_boundary_values``, the others as the mean of their
    parents."""
    grow = np.zeros(mesh.n_nodes - len(arrays["c"]))
    arrays = {name: np.concatenate([v, grow]) for name, v in arrays.items()}
    for node, a, b in events.tolist():
        if mesh.node_boundary[node]:
            new = per_node_boundary_values(strategy, mesh, node, (a, b),
                                           arrays, alpha=alpha)
        else:
            new = [0.5 * (v[a] + v[b]) for v in arrays.values()]
        for v, value in zip(arrays.values(), new):
            v[node] = value
    return arrays


# -- trimming on triangle-id sets -----------------------------------------------


def tri_neighbors(mesh):
    """Map triangle id -> ascending ids of the triangles across its sides."""
    tab, et = mesh.tri_table, mesh.edge_table
    pair = et.tris[et.rows(tab.edges)]
    other = np.sort(np.where(pair[..., 0] == tab.ids[:, None], pair[..., 1],
                             pair[..., 0]), axis=1)
    return {t: [u for u in row if u >= 0]
            for t, row in zip(tab.ids.tolist(), other.tolist())}


def components_of(neighbors, tri_set):
    """Edge-connected components of ``tri_set``, largest first, then by
    lowest id."""
    comps, seen = [], set()
    for t in sorted(tri_set):
        if t not in seen:
            comp, queue = {t}, [t]
            while queue:
                for v in neighbors[queue.pop()]:
                    if v in tri_set and v not in comp:
                        comp.add(v)
                        queue.append(v)
            seen |= comp
            comps.append(comp)
    return sorted(comps, key=lambda c: (-len(c), min(c)))


def connect_components(mesh, bearing):
    """The components of the id set ``bearing`` joined up: from the
    largest, a breadth-first search through all triangles runs until it
    reaches another component, which joins with the path to it, until none
    is left."""
    neighbors = tri_neighbors(mesh)
    retained, *pending = components_of(neighbors, bearing)
    while pending:
        parent = {t: None for t in retained}
        frontier, hit = sorted(retained), None
        while frontier and hit is None:
            nxt = []
            for u, v in [(u, v) for u in frontier for v in neighbors[u]]:
                if v not in parent:
                    parent[v] = u
                    hit = next((i for i, comp in enumerate(pending)
                                if v in comp), None)
                    if hit is not None:
                        break
                    nxt.append(v)
            frontier = nxt
        if hit is None:
            raise EmptyResult("disconnected data components cannot be bridged")
        while v not in retained:
            retained.add(v)
            v = parent[v]
        retained |= pending.pop(hit)
    return retained


def trimmed_ids(mesh, points):
    """Ids of the triangles ``trim_to_irregular`` keeps for the data
    ``points``, from the id sets above."""
    ids, _ = located_ids(mesh, points)
    bearing = set(ids[ids >= 0].tolist())
    if not bearing:
        raise EmptyResult("no triangle contains a data point")
    return connect_components(mesh, bearing)


def point_in_polygon(p, loop):
    """Even-odd ray-casting containment test of one point for one loop."""
    x, y = float(p[0]), float(p[1])
    inside = False
    n = len(loop)
    for i in range(n):
        x0, y0 = loop[i]
        x1, y1 = loop[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < xc:
                inside = not inside
    return inside


def in_polygon_domain(p, loops):
    """True if inside the outer loop and outside every hole loop."""
    if not point_in_polygon(p, loops[0]):
        return False
    return not any(point_in_polygon(p, hole) for hole in loops[1:])


def polygon_triangles_loop(mesh, loops):
    """Ids of the triangles whose centroid lies in the polygon domain,
    testing one centroid at a time."""
    pts = mesh.points
    keep = set()
    for t, (a, b, v) in tri_items(mesh):
        centroid = (pts[a] + pts[b] + pts[v]) / 3.0
        if in_polygon_domain(centroid, loops):
            keep.add(t)
    return keep
