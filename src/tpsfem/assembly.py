"""Finite element assembly over piecewise linear triangular elements.

All element integrals are evaluated in closed form: on a triangle of area T
the basis gradients are constant and ``integral(b_p) = T / 3``, so the
stiffness, gradient and data-projection matrices are exact.

The stiffness and gradient matrices share one sparsity pattern, that of
the node pairs of the triangles.  The mesh holds it with its other derived
tables (``TriMesh.node_pairs``), so each matrix is one ``np.bincount`` of
its (m, 3, 3) element matrices onto that pattern.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .exceptions import DegenerateTriangle, NoDataInDomain, OutsideTriangle
from .solver import EliminatedSystem

AREA_TOL = 1e-14


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
    node-pair pattern."""
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


@dataclass
class Located:
    """Data points resolved to the mesh, as the rows of the basis matrix.

    Attributes
    ----------
    indices : (k,) ndarray
        Indices into the data arrays of the points found inside the mesh.
    rows : (k,) ndarray
        The ``tri_table`` row of the triangle holding each of those points,
        the lowest id among those that hold it (``TriMesh.locate``).  They
        group the points by triangle (``indicators.locate_by_tri``), so a
        mesh state is located once.
    basis : (k, n_nodes) csr_matrix
        Row i holds the basis values b(x_i) of point ``indices[i]``: its
        barycentric coordinates at the vertices of its triangle.  The data
        enter the fit only through this matrix: ``A = BᵀB / k``,
        ``d = Bᵀy / k`` and the fitted values ``B c``.
    n_dropped : int
        Number of points outside the mesh (excluded from fits and metrics).
    """
    indices: np.ndarray
    rows: np.ndarray
    basis: sp.csr_matrix
    n_dropped: int

    @property
    def n_used(self):
        return self.basis.shape[0]

    @classmethod
    def from_rows(cls, mesh, rows, bary):
        """The record of one ``mesh.locate`` result: the ``tri_table`` row of
        each data point, -1 outside the mesh, and its (k, 3) barycentric
        coordinates there."""
        idx = np.flatnonzero(rows >= 0)
        tab, k = mesh.tri_table, len(idx)
        B = sp.csr_matrix((bary[idx].ravel(), tab.verts[rows[idx]].ravel(),
                           np.arange(0, 3 * k + 1, 3)),
                          shape=(k, mesh.n_nodes))
        return cls(idx, rows[idx], B, len(rows) - k)


def locate_dataset(mesh, data):
    """Locate every data point; points outside the mesh are dropped."""
    return Located.from_rows(mesh, *mesh.locate(data.x))


def assemble_A_d(mesh, data, located=None):
    """Data projection matrix A = BᵀB / k and vector d = Bᵀy / k.

    ``k`` counts the points actually located in the mesh; points outside are
    dropped (their count is reported on the Located record).
    """
    if located is None:
        located = locate_dataset(mesh, data)
    k = located.n_used
    if k == 0:
        raise NoDataInDomain("no data point lies inside the mesh")
    B = located.basis
    y = np.asarray(data.y, dtype=float)[located.indices]
    # BᵀB adds the terms of A_pq and A_qp in the same point order, so A is
    # exactly symmetric
    A = (B.T @ B).tocsr() / k
    return A, B.T @ y / k


@dataclass
class FemSystem:
    """Assembled matrices of the smoothing problem on one mesh.

    ``bv`` holds the Dirichlet boundary values, read once, at the first
    solve, when the saddle system is built (their eliminated contributions
    become the right-hand side).  ``yy`` is y^T y over the located data
    values, which with A and d gives the data misfit of any nodal values
    (``gcv.misfit``).
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

    @cached_property
    def eliminated(self):
        """The saddle system at alpha = 1 with the boundary eliminated,
        built on first use; every SaddleSystem of this FemSystem rescales
        its own copies of it."""
        return EliminatedSystem(self)
