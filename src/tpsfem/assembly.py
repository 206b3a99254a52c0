"""Finite element assembly over piecewise linear triangular elements.

All element integrals are evaluated in closed form: on a triangle of area T
the basis gradients are constant and ``integral(b_p) = T / 3``, so the
stiffness, gradient and data-projection matrices are exact.
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


def element_L(tab):
    """(m, 3, 3) element stiffness matrices T (gx gxᵀ + gy gyᵀ) of a TriTable."""
    _check_areas(tab)
    gx, gy = tab.gx, tab.gy
    return tab.area[:, None, None] * (gx[:, :, None] * gx[:, None, :]
                                      + gy[:, :, None] * gy[:, None, :])


def element_G(tab, j):
    """(m, 3, 3) element gradient matrices of a TriTable for axis ``j``.

    integral(b_p) = T/3 and d_j b_q is constant, so entry (p, q) = T/3 * g_q.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    _check_areas(tab)
    g = tab.gx if j == 1 else tab.gy
    return (tab.area[:, None] / 3.0)[:, :, None] * np.ones((1, 3, 1)) * g[:, None, :]


def assemble_elements(verts, elem, n):
    """Sum (m, 3, 3) element matrices over their vertex triples ``verts``
    into an (n, n) CSR matrix."""
    rows = np.repeat(verts, 3, axis=1).ravel()
    cols = np.tile(verts, (1, 3)).ravel()
    M = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M.sum_duplicates()
    return M


def assemble_L(mesh):
    """Stiffness matrix L_pq = integral of grad(b_p) . grad(b_q)."""
    tab = mesh.tri_table
    return assemble_elements(tab.verts, element_L(tab), mesh.n_nodes)


def assemble_G(mesh, j):
    """Gradient matrix (G_j)_pq = integral of b_p * d(b_q)/dx_j."""
    tab = mesh.tri_table
    return assemble_elements(tab.verts, element_G(tab, j), mesh.n_nodes)


@dataclass
class Located:
    """Data points resolved to the mesh, as the rows of the basis matrix.

    Attributes
    ----------
    indices : (k,) ndarray
        Indices into the data arrays of the points found inside the mesh.
    basis : (k, n_nodes) csr_matrix
        Row i holds the basis values b(x_i) of point ``indices[i]``: its
        barycentric coordinates at the vertices of its triangle.  The data
        enter the fit only through this matrix: ``A = BᵀB / k``,
        ``d = Bᵀy / k`` and the fitted values ``B c``.
    n_dropped : int
        Number of points outside the mesh (excluded from fits and metrics).
    """
    indices: np.ndarray
    basis: sp.csr_matrix
    n_dropped: int

    @property
    def n_used(self):
        return self.basis.shape[0]


def locate_dataset(mesh, data):
    """Locate every data point; points outside the mesh are dropped."""
    ids, bary = mesh.locate(data.x)
    idx = np.flatnonzero(ids >= 0)
    tab = mesh.tri_table
    k = len(idx)
    B = sp.csr_matrix((bary[idx].ravel(), tab.verts[tab.rows(ids[idx])].ravel(),
                       np.arange(0, 3 * k + 1, 3)), shape=(k, mesh.n_nodes))
    return Located(idx, B, len(data) - k)


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

    ``bv`` holds the Dirichlet boundary values used when the saddle system is
    built (their eliminated contributions become the right-hand side).
    """
    mesh: object
    A: sp.csr_matrix
    d: np.ndarray
    L: sp.csr_matrix
    G1: sp.csr_matrix
    G2: sp.csr_matrix
    located: Located
    bv: object = None

    @classmethod
    def build(cls, mesh, data, bv=None):
        located = locate_dataset(mesh, data)
        A, d = assemble_A_d(mesh, data, located)
        return cls(mesh=mesh, A=A, d=d, L=assemble_L(mesh),
                   G1=assemble_G(mesh, 1), G2=assemble_G(mesh, 2),
                   located=located, bv=bv)

    @cached_property
    def eliminated(self):
        """The saddle system at alpha = 1 with the boundary eliminated,
        built on first use; every SaddleSystem of this FemSystem rescales it."""
        return EliminatedSystem(self)
