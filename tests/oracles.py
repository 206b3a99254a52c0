"""Independent slow oracles used only by the test suite."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.spatial import cKDTree

from tpsfem.assembly import FemSystem
from tpsfem.boundary import BoundaryValues
from tpsfem.data import DataSet
from tpsfem.exceptions import NotRefinable, SingularSystem
from tpsfem.mesh import TriMesh
from tpsfem.solver import FIELDS, SaddleSystem, _interleaved, saddle_blocks
from tpsfem.tps import R_CLAMP

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


def dense_basis(mesh, data):
    """Basis values b(x_i) of the points inside the mesh, one dense row per
    point in data order, from the per-triangle linear basis functions."""
    rows = []
    tris = dict(tri_items(mesh))
    ids, _ = mesh.locate(data.x)
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
    ids, _ = mesh.locate(data.x)
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
    for ev in local.uniform_refine():
        for name in vals:
            vals[name] = np.append(
                vals[name],
                0.5 * (vals[name][ev.parent_a] + vals[name][ev.parent_b]))
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
    within = coarse.locate(centroid)[0]
    rows = np.flatnonzero([patch_tris[t] in seed for t in within.tolist()])
    diff = tab.gradients(shat.c - vals["c"])[rows]
    return float(np.sqrt(np.sum(tab.area[rows] * np.sum(diff ** 2, axis=1))))


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
    refinement wave, filled event by event in creation order: boundary nodes
    by ``per_node_boundary_values``, the others as the mean of their
    parents."""
    grow = np.zeros(mesh.n_nodes - len(arrays["c"]))
    arrays = {name: np.concatenate([v, grow]) for name, v in arrays.items()}
    for ev in events:
        if ev.boundary:
            new = per_node_boundary_values(
                strategy, mesh, ev.node, (ev.parent_a, ev.parent_b), arrays,
                alpha=alpha)
        else:
            new = [0.5 * (v[ev.parent_a] + v[ev.parent_b])
                   for v in arrays.values()]
        for v, value in zip(arrays.values(), new):
            v[ev.node] = value
    return arrays


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
