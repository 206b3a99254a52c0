"""Finite element assembly over piecewise linear triangular elements.

All element integrals are evaluated in closed form: on a triangle of area T
the basis gradients are constant and ``integral(b_p) = T / 3``, so the
stiffness, gradient and data-projection matrices are exact.

The stiffness, gradient and data-projection matrices share one sparsity
pattern, that of the node pairs of the triangles.  The mesh holds it with
its other derived tables (``TriMesh.node_pairs``), so each matrix is one
``np.bincount`` of its (m, 3, 3) element matrices onto that pattern.

The data enter only through per-triangle moments (``mesh.cell_moments``):
the point count, the sums of the products l_i l_j and of l_i y of the
barycentric coordinates l of the points in each triangle.  ``data_term``
turns them into A and d, for the fit (``assemble_A_d``, each point
weighted 1/k) and for the auxiliary patch problems
(``indicators.patch_system``, each point weighted by one over the points of
its patch); no step builds a matrix with one row per data point.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import DegenerateTriangle, NoDataInDomain, OutsideTriangle
from .mesh import cell_moments

AREA_TOL = 1e-14
#: the ``mesh.cell_moments`` column of the product l_i l_j, by (i, j)
PAIR_MOMENT = 1 + np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _check_areas(tab):
    """Raise DegenerateTriangle when a triangle of the table is a sliver."""
    if np.any(tab.area < AREA_TOL):
        bad = tab.ids[tab.area < AREA_TOL]
        raise DegenerateTriangle(f"triangles {bad[:5].tolist()} have area < {AREA_TOL}")


def basis_eval(mesh, tri_id, p):
    """Barycentric basis values and gradients of triangle ``tri_id`` at ``p``.

    Returns
    -------
    (values, grads)
        ``values`` is the length-3 array of basis values (summing to 1) and
        ``grads`` the 2x3 table of constant basis gradients.
    """
    tab = mesh.tri_table
    r = tab.rows(tri_id)
    bary = tab.bary([r], np.asarray(p, dtype=float).reshape(1, 2))[0]
    if bary.min() < -1e-12:
        raise OutsideTriangle(f"point {p} outside triangle {tri_id}")
    return bary, np.vstack([tab.gx[r], tab.gy[r]])


def _pattern_sum(mesh, elem):
    """Sum the (m, 3, 3) element matrices of the triangles of ``mesh``, row
    by row of its ``tri_table``, into an (n, n) CSR matrix on the mesh's
    node-pair pattern.  Its index arrays are the pattern's own, read-only,
    so an in-place restructure raises ValueError; restructure a copy."""
    indptr, indices, at = mesh.node_pairs
    data = np.bincount(at.ravel(), elem.ravel(), minlength=len(indices))
    return sp.csr_matrix((data, indices, indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def assemble_L(mesh):
    """Stiffness matrix L_pq = integral of grad(b_p) . grad(b_q)."""
    tab = mesh.tri_table
    _check_areas(tab)
    gx, gy = tab.gx, tab.gy
    # element matrix: T * (gx gxᵀ + gy gyᵀ)
    elem = tab.area[:, None, None] * (gx[:, :, None] * gx[:, None, :]
                                      + gy[:, :, None] * gy[:, None, :])
    return _pattern_sum(mesh, elem)


def assemble_G(mesh, j):
    """Gradient matrix (G_j)_pq = integral of b_p * d(b_q)/dx_j."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    tab = mesh.tri_table
    _check_areas(tab)
    g = tab.gx if j == 1 else tab.gy
    # integral(b_p) = T/3, d_j b_q constant: element entry (p, q) = T/3 * g_q
    elem = (tab.area[:, None] / 3.0)[:, :, None] * np.ones((1, 3, 1)) * g[:, None, :]
    return _pattern_sum(mesh, elem)


def data_term(mesh, moments, weight):
    """A and d of data given by their ``mesh.cell_moments`` in the triangles
    of ``mesh``, one row per ``tri_table`` row.

    The products l_i l_j are summed onto the node-pair pattern as an
    element matrix, and the l_i y onto the vertices; then row p of both is
    multiplied by ``weight[p]``.  The sums at (p, q) and (q, p) run over
    the same terms in the same order, so A is exactly symmetric where the
    weights of p and q agree.  Explicit zeros, the pairs that no point
    reaches, are dropped.
    """
    A = _pattern_sum(mesh, moments[:, PAIR_MOMENT])
    A.data *= weight[np.repeat(np.arange(mesh.n_nodes), np.diff(A.indptr))]
    # the index arrays are the mesh's own pattern: drop zeros from a copy
    A = A.copy()
    A.eliminate_zeros()
    d = weight * np.bincount(mesh.tri_table.verts.ravel(),
                             moments[:, 7:].ravel(), minlength=mesh.n_nodes)
    return A, d


@dataclass
class Located:
    """Data points resolved to one mesh state: what ``TriMesh.locate``
    returns for the points inside the mesh.

    Attributes
    ----------
    indices : (k,) ndarray
        Indices into the data arrays of the points found inside the mesh.
    rows : (k,) ndarray
        The ``tri_table`` row of the triangle holding each of those points,
        the lowest id among those that hold it (``TriMesh.locate``).  They
        group the points by triangle (``indicators.locate_by_tri``), so a
        mesh state is located once.  Rows are valid only for the mesh
        state the points were located on: a refinement renumbers them.
    bary : (k, 3) ndarray
        The barycentric coordinates of each point in its triangle, which
        are its basis values at the triangle's vertices.  The data enter
        the fit only through these: the moments of ``data_term`` and the
        fitted values (``solver.predicted_values``).
    n_dropped : int
        Number of points outside the mesh (excluded from fits and metrics).
    """
    indices: np.ndarray
    rows: np.ndarray
    bary: np.ndarray
    n_dropped: int

    @property
    def n_used(self):
        return len(self.indices)

    @classmethod
    def from_rows(cls, rows, bary):
        """The record of one ``mesh.locate`` result: the ``tri_table`` row of
        each data point, -1 outside the mesh, and its (k, 3) barycentric
        coordinates there."""
        idx = np.flatnonzero(rows >= 0)
        return cls(idx, rows[idx], bary[idx], len(rows) - len(idx))


def locate_dataset(mesh, data):
    """Locate every data point; points outside the mesh are dropped."""
    return Located.from_rows(*mesh.locate(data.x))


def assemble_A_d(mesh, data, located=None):
    """Data projection matrix A_pq = sum_i b_p(x_i) b_q(x_i) / k and vector
    d_p = sum_i b_p(x_i) y_i / k, from the moments of the points in their
    triangles (``data_term``).

    ``k`` counts the points actually located in the mesh; points outside are
    dropped (their count is reported on the Located record).
    """
    if located is None:
        located = locate_dataset(mesh, data)
    k = located.n_used
    if k == 0:
        raise NoDataInDomain("no data point lies inside the mesh")
    y = np.asarray(data.y, dtype=float)[located.indices]
    moments = cell_moments(located.rows, located.bary.T, y, mesh.n_tris)
    return data_term(mesh, moments, np.full(mesh.n_nodes, 1.0 / k))


@dataclass
class FemSystem:
    """Assembled matrices of the smoothing problem on one mesh.

    ``bv`` holds the Dirichlet boundary values, read when a
    ``solver.SaddleSystem`` is built on the system (their eliminated
    contributions become its right-hand side).  ``yy`` is y^T y over the
    located data values, which with A and d gives the data misfit of any
    nodal values (``gcv.misfit``).
    """
    mesh: object
    A: sp.csr_matrix
    d: np.ndarray
    L: sp.csr_matrix
    G1: sp.csr_matrix
    G2: sp.csr_matrix
    located: Located
    bv: object = None
    yy: float = None

    @classmethod
    def build(cls, mesh, data, bv=None, located=None):
        """The system of ``data`` on ``mesh``.  ``located`` is the data's
        ``Located`` on this mesh when the caller holds it already, as a run
        does after trimming; otherwise the data are located here."""
        if located is None:
            located = locate_dataset(mesh, data)
        A, d = assemble_A_d(mesh, data, located)
        y = np.asarray(data.y, dtype=float)[located.indices]
        return cls(mesh=mesh, A=A, d=d, L=assemble_L(mesh),
                   G1=assemble_G(mesh, 1), G2=assemble_G(mesh, 2),
                   located=located, bv=bv, yy=float(y @ y))
