"""Four-block saddle point system for the smoothing coefficients.

The minimisation of the data-misfit plus gradient-energy objective under the
weak gradient constraint leads to the symmetric indefinite system K x = b
over all nodes,

    [ A    0    0    L  ] [c ]   [d]
    [ 0   aL    0  -G1^T] [g1] = [0]
    [ 0    0   aL  -G2^T] [g2]   [0]
    [ L  -G1  -G2    0  ] [w ]   [0]

This block layout is written down once, in ``saddle_blocks``.  The Dirichlet
values of the boundary nodes are eliminated generically: the interior rows
and columns of K form the matrix, and the boundary columns times the
boundary values move to the right-hand side.  Unknowns are ordered in
interleaved per-node blocks [c g1 g2 w] for factorisation locality.

Only the two aL blocks depend on alpha, so the eliminated system is built
once per FemSystem at alpha = 1 (``EliminatedSystem``) and each alpha is a
copy of its values with the aL entries multiplied by alpha.  That product
is the one a build at alpha would form, so the matrix, its sparsity pattern
and every solution are bitwise those of a build from scratch.  The one
solve is a sparse direct factorisation, SingularSystem if it fails, and one
residual check, NonConvergence if a column misses RESIDUAL_TOL.
"""

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import (DimensionMismatch, NonConvergence, OutsideDomain,
                         SingularSystem)

RESIDUAL_TOL = 1e-9
#: the unknowns of one node, in block and in interleaving order
FIELDS = ("c", "g1", "g2", "w")
#: the fields whose diagonal blocks ``saddle_blocks`` multiplies by alpha
ALPHA_FIELDS = ("g1", "g2")


def _interleaved(nodes, n):
    """Indices into K of the FIELDS of ``nodes``, node by node."""
    return (nodes[:, None] + n * np.arange(len(FIELDS))).ravel()


def saddle_blocks(A, L, G1, G2, alpha):
    """The 4x4 block layout of K, rows and columns in FIELDS order, for
    ``sp.bmat``; None marks a zero block."""
    return [[A, None, None, L],
            [None, alpha * L, None, -G1.T],
            [None, None, alpha * L, -G2.T],
            [L, -G1, -G2, None]]


def _alpha_entries(M):
    """Positions in ``M.data`` of the entries of the alpha-scaled blocks,
    for ``M`` with interleaved rows and columns."""
    coo = M.tocoo()
    f = coo.row % len(FIELDS)
    scaled = np.isin(f, [FIELDS.index(name) for name in ALPHA_FIELDS])
    return np.flatnonzero(scaled & (f == coo.col % len(FIELDS)))


def _scaled(M, entries, alpha):
    """Copy of compressed ``M`` with the values at ``entries`` times alpha;
    the index arrays are shared with ``M``."""
    data = M.data.copy()
    data[entries] *= alpha
    return type(M)((data, M.indices, M.indptr), shape=M.shape)


class EliminatedSystem:
    """The eliminated saddle system of one FemSystem at alpha = 1.

    Built once per FemSystem (``FemSystem.eliminated``).  It holds the
    interior and boundary node sets, the interior matrix (CSC, explicit
    zeros dropped), its boundary columns K_IB (CSR) and the interior basis
    columns B_I of the located data.  ``at(alpha)`` rescales the two aL
    blocks; no boundary values are stored, so any set can be eliminated.
    """

    def __init__(self, fem):
        n = fem.mesh.n_nodes
        self.interior = fem.mesh.interior_nodes()
        self.boundary = fem.mesh.boundary_nodes()
        self.interior.flags.writeable = False
        self.boundary.flags.writeable = False
        K = sp.bmat(saddle_blocks(fem.A, fem.L, fem.G1, fem.G2, 1.0),
                    format="csr")
        rows = K[_interleaved(self.interior, n)]
        # bmat keeps the explicit zeros of its blocks; dropping them keeps
        # the sparsity pattern, and with it SuperLU's ordering, minimal.
        # A positive alpha keeps nonzero entries nonzero, so the pattern
        # serves every alpha.
        self._matrix = rows[:, _interleaved(self.interior, n)].tocsc()
        self._matrix.eliminate_zeros()
        self._matrix_alpha = _alpha_entries(self._matrix)
        self._ib = rows[:, _interleaved(self.boundary, n)]
        self._ib_alpha = _alpha_entries(self._ib)
        self._located = fem.located

    @cached_property
    def interior_basis(self):
        """B_I: the basis matrix columns of the interior nodes."""
        return self._located.basis[:, self.interior]

    def at(self, alpha):
        """Interior matrix and boundary columns K_IB at ``alpha``.

        alpha * (1.0 * L_ij) is the product a build at alpha forms, so both
        are bitwise those of building K at alpha and slicing it.
        """
        return (_scaled(self._matrix, self._matrix_alpha, alpha),
                _scaled(self._ib, self._ib_alpha, alpha))


@dataclass
class Smoother:
    """Solved smoothing surface over one mesh.

    The coefficient vectors include the imposed Dirichlet values at boundary
    nodes.  The surface value at a point is the linear interpolation of c;
    the gradient surrogate interpolates the auxiliary fields g1 and g2.
    ``info`` holds the solve's time, size, factorisation count and achieved
    relative residual.
    """
    mesh: object
    c: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    w: np.ndarray
    alpha: float
    info: dict = field(default_factory=dict)


class SaddleSystem:
    """Eliminated saddle system at one alpha, with a reusable factorisation.

    The matrix is the FemSystem's ``EliminatedSystem`` (built once at
    alpha = 1) rescaled to ``alpha``; the right-hand side is d in the c rows
    minus K_IB x_B for the boundary values ``bv`` (default ``fem.bv``).
    ``factorizations`` counts the direct factorisations; ``residual`` is the
    largest max-norm relative residual of the last solve.  alpha must be
    positive and finite.
    """

    def __init__(self, fem, alpha, bv=None):
        if bv is None:
            bv = fem.bv
        if bv is None:
            raise DimensionMismatch("no boundary values supplied")
        mesh = fem.mesh
        n = mesh.n_nodes
        for name in ("A", "L", "G1", "G2"):
            mat = getattr(fem, name)
            if mat.shape != (n, n):
                raise DimensionMismatch(f"{name} has shape {mat.shape}, "
                                        f"mesh has {n} nodes")
        if len(fem.d) != n:
            raise DimensionMismatch("d length does not match node count")
        if not 0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        order = np.argsort(bv.nodes)
        if not np.array_equal(np.sort(bv.nodes), mesh.boundary_nodes()):
            raise DimensionMismatch("boundary values do not cover the "
                                    "boundary node set")
        unit = fem.eliminated
        self.fem = fem
        self.alpha = alpha
        self.interior = unit.interior
        self.boundary = unit.boundary
        if len(self.interior) == 0:
            raise SingularSystem("mesh has no interior nodes")
        self.bvals = {"c": bv.c[order], "g1": bv.g1[order],
                      "g2": bv.g2[order], "w": bv.w_at(alpha)[order]}

        self.matrix, K_IB = unit.at(alpha)
        x_b = np.column_stack([self.bvals[name] for name in FIELDS]).ravel()
        self.rhs = -(K_IB @ x_b)
        self.rhs[0::4] += fem.d[self.interior]
        self._lu = None
        self.factorizations = 0
        self.residual = None

    @property
    def n_unknowns(self):
        return self.matrix.shape[0]

    def factorize(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix)
            except RuntimeError as err:
                raise SingularSystem(f"direct factorisation failed: {err}") from err
            self.factorizations += 1
        return self._lu

    def solve_raw(self, rhs=None):
        """Solve for one right-hand side or an (m, p) block of them.

        Raises NonConvergence unless every column reaches a max-norm
        relative residual within RESIDUAL_TOL; a NaN residual is a miss.
        """
        b = self.rhs if rhs is None else rhs
        t0 = time.perf_counter()
        cols = b.reshape(len(b), -1)
        x = self.factorize().solve(cols)
        scale = np.abs(cols).max(axis=0)
        r = np.abs(self.matrix @ x - cols).max(axis=0)
        worst = (r / np.where(scale > 0, scale, 1.0)).max(initial=0.0)
        if not worst <= RESIDUAL_TOL:
            raise NonConvergence(
                "direct solve missed the residual target",
                diagnostics={"residual": float(worst),
                             "unknowns": self.n_unknowns})
        self.residual = float(worst)
        return x.reshape(b.shape), time.perf_counter() - t0

    def scatter(self, x):
        """Spread interior solution blocks into full nodal vectors."""
        mesh = self.fem.mesh
        out = {}
        for pos, name in enumerate(FIELDS):
            v = np.zeros(mesh.n_nodes)
            v[self.interior] = x[pos::4]
            v[self.boundary] = self.bvals[name]
            out[name] = v
        return out

    def solve(self):
        x, seconds = self.solve_raw()
        fields = self.scatter(x)
        s = Smoother(mesh=self.fem.mesh, alpha=self.alpha, info={
            "solve_seconds": seconds,
            "unknowns": self.n_unknowns,
            "nnz": int(self.matrix.nnz),
            "factorizations": self.factorizations,
            "residual": self.residual,
        }, **fields)
        s.info["constraint_residual"] = constraint_residual(s, self.fem)
        return s


def constraint_residual(s, fem):
    """Max-norm of the weak gradient constraint over interior rows."""
    r = fem.L @ s.c - fem.G1 @ s.g1 - fem.G2 @ s.g2
    r = r[~np.asarray(s.mesh.node_boundary, dtype=bool)]
    return float(np.abs(r).max()) if len(r) else 0.0


# -- evaluation ----------------------------------------------------------------


def interpolate(mesh, values, points):
    """Piecewise linear interpolation of nodal values at many points.

    Points outside the mesh yield NaN.
    """
    ids, bary = mesh.locate(points)
    inside = ids >= 0
    tab = mesh.tri_table
    out = np.full(len(ids), np.nan)
    out[inside] = np.einsum("ij,ij->i", bary[inside],
                            np.asarray(values)[tab.verts[tab.rows(ids[inside])]])
    return out


def _point_values(s, p, names):
    """Interpolated nodal fields ``names`` of ``s`` at one point."""
    ids, bary = s.mesh.locate([p])
    if ids[0] < 0:
        raise OutsideDomain(f"point {p} is outside the mesh")
    tab = s.mesh.tri_table
    nodes = tab.verts[tab.rows(ids[0])]
    return tuple(float(bary[0] @ getattr(s, name)[nodes]) for name in names)


def evaluate(s, p):
    """Surface value at one point."""
    return _point_values(s, p, ("c",))[0]


def evaluate_grad(s, p):
    """Gradient surrogate (interpolated auxiliary fields) at one point."""
    return _point_values(s, p, ("g1", "g2"))


def predicted_values(s, located):
    """Surface values at located data points."""
    return located.basis @ s.c


def _residuals(s, data, located):
    """Fitted minus observed values at the data points inside the mesh."""
    from .assembly import locate_dataset
    if located is None:
        located = locate_dataset(s.mesh, data)
    return predicted_values(s, located) - np.asarray(data.y)[located.indices]


def rmse(s, data, located=None):
    """Root mean square residual over data points inside the mesh."""
    r = _residuals(s, data, located)
    return float(np.sqrt(np.mean(r ** 2))) if len(r) else float("nan")


def max_abs_residual(s, data, located=None):
    """Largest absolute residual over data points inside the mesh."""
    r = _residuals(s, data, located)
    return float(np.abs(r).max()) if len(r) else float("nan")
