"""Four-block saddle point system for the smoothing coefficients.

The minimisation of the data-misfit plus gradient-energy objective under the
weak gradient constraint leads to the symmetric indefinite system K x = b
over all nodes,

    [ A    0    0    L  ] [c ]   [d]
    [ 0   aL    0  -G1^T] [g1] = [0]
    [ 0    0   aL  -G2^T] [g2]   [0]
    [ L  -G1  -G2    0  ] [w ]   [0]

This block layout is written down once, as the sign and transpose table
``SADDLE_LAYOUT``; ``saddle_blocks`` builds the blocks from it.  The Dirichlet
values of the boundary nodes are eliminated generically: the interior rows
and columns of K form the matrix, and the boundary columns K_IB times the
boundary values move to the right-hand side.  Right-hand sides and
solutions are ordered in interleaved per-node blocks [c g1 g2 w].

Only the two aL blocks depend on alpha, so the eliminated system is built
once per FemSystem at alpha = 1 (``EliminatedSystem``), straight from the
compressed arrays of A, L, G1 and G2, and each alpha is a copy of its
values with the aL entries multiplied by alpha.  That product is the one a
build at alpha would form, so the matrix values and the right-hand side are
bitwise those of a build from scratch.  The FemSystem's boundary values are
read, checked and sorted by node with it, once.  A GCV search rescales one
copy in place from candidate to candidate (``gcv.ProbeBlock``), with the
same products.

The interior matrix is held in a static order, found once per FemSystem.
The nodes follow SuperLU's minimum-degree order of the interior node graph
(the pattern of all four blocks).  Each node keeps its four columns
[c g1 g2 w] and has its c and w rows swapped, so that the diagonal reads
L_ii, aL_ii, aL_ii, L_ii: positive at every node, also where A_ii = 0
because no data point lies near it.  Every alpha is then factorised in
that order with static pivoting (``STATIC_PIVOTING``): SuperLU orders
nothing per call, takes each diagonal pivot as it is and keeps its
supernodes unrelaxed, which took 18-42% off a factorisation between 196
and 33992 unknowns, at the same pivots and fill.  The zero-pivot
rule is SuperLU's own: with a pivot threshold of 0, a diagonal that is
exactly zero when its turn comes is replaced by the largest entry of its
column, and only a column with no nonzero entry left, which means the
matrix is singular, fails; ``factorize`` raises SingularSystem, as for
any failed factorisation.  No second, threshold-pivoted factorisation is
tried: the one solve is direct, mapped through the two permutations, and
one max-norm residual check (NonConvergence if a column misses
RESIDUAL_TOL) guards it.  ``static_factor`` and ``static_solve`` hold this
contract for every caller.

A data solution becomes a ``Smoother`` through ``fitted``, whether it
comes from ``SaddleSystem.solve`` or from the winning candidate of a GCV
search, whose block solve already holds it (a ``Solution``).
"""

import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import (DimensionMismatch, NonConvergence, OutsideDomain,
                         SingularSystem)

RESIDUAL_TOL = 1e-9
#: the unknowns of one node, in block, interleaving and static column order
FIELDS = ("c", "g1", "g2", "w")
#: the fields whose diagonal blocks ``saddle_blocks`` multiplies by alpha
ALPHA_FIELDS = ("g1", "g2")
#: the row of each field of FIELDS in its node's block of the static order:
#: c and w swap, so that every diagonal entry is an L_ii or an aL_ii
ROW_SLOT = np.array([3, 1, 2, 0])
#: ``splu`` options of the per-alpha factorisation: the matrix is already in
#: its fill-reducing order, each diagonal pivot is taken as it is, and the
#: supernodes are not relaxed: relaxation merges small subtrees of the
#: elimination tree into supernodes, which only costs time on these sparse
#: factors (same pivots, fill within 0.05%)
STATIC_PIVOTING = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0,
                   "relax": 1, "panel_size": 1}
#: points that ``interpolate`` locates and interpolates per pass
QUERY_BLOCK = 8192


#: the nonzero blocks of K at alpha = 1, block row by block row: (row
#: field, column field, matrix of the FemSystem, sign, transposed); the
#: diagonal blocks of ALPHA_FIELDS are multiplied by alpha
SADDLE_LAYOUT = (("c", "c", "A", 1, False), ("c", "w", "L", 1, False),
                 ("g1", "g1", "L", 1, False), ("g1", "w", "G1", -1, True),
                 ("g2", "g2", "L", 1, False), ("g2", "w", "G2", -1, True),
                 ("w", "c", "L", 1, False), ("w", "g1", "G1", -1, False),
                 ("w", "g2", "G2", -1, False))


def saddle_blocks(A, L, G1, G2, alpha):
    """The 4x4 block layout of K at ``alpha`` (``SADDLE_LAYOUT``), rows and
    columns in FIELDS order; None marks a zero block."""
    given = {"A": A, "L": L, "G1": G1, "G2": G2}
    blocks = [[None] * len(FIELDS) for _ in FIELDS]
    for f, g, name, sign, transposed in SADDLE_LAYOUT:
        block = given[name].T if transposed else given[name]
        if f == g and f in ALPHA_FIELDS:
            block = alpha * block
        blocks[FIELDS.index(f)][FIELDS.index(g)] = (-block if sign < 0
                                                    else block)
    return blocks


def _block_entries(fem):
    """The nonzero entries of K at alpha = 1 as arrays (f, g, row, col,
    value): the FIELDS indices of the entry's block row and column, and its
    row and column node, block by block of ``SADDLE_LAYOUT`` and in each
    block in the storage order of its compressed matrix."""
    nonzero = {}
    for name in ("A", "L", "G1", "G2"):
        M = getattr(fem, name)
        major = np.repeat(np.arange(len(M.indptr) - 1, dtype=M.indices.dtype),
                          np.diff(M.indptr))
        keep = M.data != 0.0
        nonzero[name] = (major[keep], M.indices[keep], M.data[keep],
                         M.format == "csr")
    parts = []
    for f, g, name, sign, transposed in SADDLE_LAYOUT:
        major, minor, value, csr = nonzero[name]
        row, col = (major, minor) if csr != transposed else (minor, major)
        parts.append((np.full(len(value), FIELDS.index(f), dtype=np.int8),
                      np.full(len(value), FIELDS.index(g), dtype=np.int8),
                      row, col, -value if sign < 0 else value))
    return tuple(map(np.concatenate, zip(*parts)))


def _compressed(kind, rows, cols, values, scaled, shape):
    """CSR or CSC (``kind``) matrix of distinct triplets, indices sorted,
    and the positions in its data of the entries flagged ``scaled``."""
    if kind is sp.csc_matrix:
        (major, minor), (n_minor, n_major) = (cols, rows), shape
    else:
        (major, minor), (n_major, n_minor) = (rows, cols), shape
    order = np.argsort(major.astype(np.int64) * n_minor + minor)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major,
                                                        minlength=n_major))])
    M = kind((values[order], minor[order], indptr), shape=shape)
    return M, np.flatnonzero(scaled[order])


def _scaled(M, entries, alpha):
    """Copy of compressed ``M`` with the values at ``entries`` times alpha;
    the index arrays are shared with ``M``."""
    data = M.data.copy()
    data[entries] *= alpha
    return type(M)((data, M.indices, M.indptr), shape=M.shape)


class EliminatedSystem:
    """The eliminated saddle system of one FemSystem at alpha = 1.

    Built once per FemSystem (``FemSystem.eliminated``), straight from the
    compressed arrays of its matrices, block by block of ``SADDLE_LAYOUT``,
    and checked once: the matrices and d must match the mesh, the mesh must
    have interior nodes and ``fem.bv`` must cover exactly the boundary node
    set.  It holds the interior and boundary node sets, ``bv`` sorted by
    node and the boundary columns ``ib`` = K_IB (CSR, rows interleaved,
    columns block by block: the c, g1, g2 and w values of the boundary
    nodes), with ``ib_alpha`` the positions in its data of the aL entries.
    The static order and the interior matrix in it (``ordered``) are built
    on first use, because finding the order is a factorisation: its failure
    surfaces where a factorisation is asked for.  ``matrix_at`` and
    ``boundary_rhs`` rescale the two aL blocks.
    """

    def __init__(self, fem):
        mesh = fem.mesh
        n = self.n_nodes = mesh.n_nodes
        for name in ("A", "L", "G1", "G2"):
            mat = getattr(fem, name)
            if mat.shape != (n, n):
                raise DimensionMismatch(f"{name} has shape {mat.shape}, "
                                        f"mesh has {n} nodes")
        if len(fem.d) != n:
            raise DimensionMismatch("d length does not match node count")
        bv = fem.bv
        if bv is None:
            raise DimensionMismatch("no boundary values supplied")
        self.interior = mesh.interior_nodes()
        self.boundary = mesh.boundary_nodes()
        self.interior.flags.writeable = False
        self.boundary.flags.writeable = False
        if len(self.interior) == 0:
            raise SingularSystem("mesh has no interior nodes")
        order = np.argsort(bv.nodes)
        if not np.array_equal(bv.nodes[order], self.boundary):
            raise DimensionMismatch("boundary values do not cover the "
                                    "boundary node set")
        self.bv = replace(bv, nodes=self.boundary, **{
            name: np.asarray(getattr(bv, name))[order]
            for name in ("c", "g1", "g2", "w", "w_proxy")
            if getattr(bv, name) is not None})
        k, nb = len(self.interior), len(self.boundary)
        f, g, row, col, value = _block_entries(fem)
        pos = np.empty(n, dtype=np.int64)
        pos[self.interior] = np.arange(k)
        pos[self.boundary] = np.arange(nb)
        on_boundary = np.asarray(mesh.node_boundary, dtype=bool)
        scaled = (f == g) & np.isin(f, [FIELDS.index(name)
                                        for name in ALPHA_FIELDS])
        inner = ~on_boundary[row]
        ii = inner & ~on_boundary[col]
        ib = inner & on_boundary[col]
        # block by block columns: a row's K_IB x_B then sums its terms in
        # the order of a build that slices interleaved columns out of K
        self.ib, self.ib_alpha = _compressed(
            sp.csr_matrix, 4 * pos[row[ib]] + f[ib],
            nb * g[ib].astype(np.int64) + pos[col[ib]], value[ib], scaled[ib],
            (4 * k, 4 * nb))
        self._interior_entries = (f[ii], g[ii], pos[row[ii]], pos[col[ii]],
                                  value[ii], scaled[ii])

    @cached_property
    def ordered(self):
        """(rows, cols, matrix, alpha entries) of the static order.

        Static row r and column j are the interleaved rows[r] and cols[j],
        so ``matrix`` is the interleaved interior matrix K_II[rows][:, cols]
        at alpha = 1 (CSC, explicit zeros dropped); the alpha entries are
        the positions in its data of the aL entries.

        The node order is SuperLU's minimum-degree order of the interior
        node graph, which is factorised with it: a symmetric matrix with
        the pattern of all four blocks, strictly diagonally dominant so
        that it is SPD.  L_II alone does not have that pattern: L_pq
        vanishes across the hypotenuse of a right triangle, where G1 and
        G2 do not.  Interleaved node p goes to static node perm_c[p].
        """
        f, g, i, j, value, scaled = self._interior_entries
        k = len(self.interior)
        graph = sp.csc_matrix((np.where(i == j, float(len(i)), 1.0), (i, j)),
                              shape=(k, k))
        try:
            perm_c = spla.splu(graph, permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0,
                               options={"SymmetricMode": True}).perm_c
        except RuntimeError as err:
            raise SingularSystem(f"node order factorisation failed: {err}"
                                 ) from err
        matrix, alpha = _compressed(sp.csc_matrix, 4 * perm_c[i] + ROW_SLOT[f],
                                    4 * perm_c[j] + g, value, scaled,
                                    (4 * k, 4 * k))
        nodes = np.empty(k, dtype=np.int64)
        nodes[perm_c] = np.arange(k)
        rows = (4 * nodes[:, None] + np.argsort(ROW_SLOT)).ravel()
        cols = (4 * nodes[:, None] + np.arange(len(FIELDS))).ravel()
        del self._interior_entries  # held in ``matrix`` from now on
        return rows, cols, matrix, alpha

    def boundary_rhs(self, alpha, bvals):
        """-K_IB x_B at ``alpha`` (interleaved) for the sorted boundary
        values ``bvals``, a dict over FIELDS."""
        x_b = np.concatenate([bvals[name] for name in FIELDS])
        return -(_scaled(self.ib, self.ib_alpha, alpha) @ x_b)

    def matrix_at(self, alpha):
        """Interior matrix in the static order at ``alpha``.

        alpha * (1.0 * L_ij) is the product a build at alpha forms, so its
        values are bitwise those of building K at alpha and slicing it.
        """
        _, _, matrix, entries = self.ordered
        return _scaled(matrix, entries, alpha)


def static_factor(matrix):
    """LU factor of an interior matrix in the static order (CSC), pivoted
    statically; SingularSystem if SuperLU fails."""
    try:
        return spla.splu(matrix, **STATIC_PIVOTING)
    except RuntimeError as err:
        raise SingularSystem(f"direct factorisation failed: {err}") from err


def static_solve(lu, matrix, b):
    """Solution of ``matrix`` y = b for the (m, p) block b in the static
    order, with ``lu`` the factor of ``matrix``, and the (p,) max-norm
    relative residuals of its columns.

    Raises NonConvergence unless every column reaches RESIDUAL_TOL; a NaN
    residual is a miss.  Each column is scaled and solved on its own
    terms, so a column of a block is bitwise its solve alone.
    """
    # an exact power-of-two scale brings each column's largest entry into
    # [0.5, 1), so a subnormal right-hand side keeps its precision
    scale, exp = np.frexp(np.abs(b).max(axis=0))
    b = np.ldexp(b, -exp)
    y = lu.solve(b)
    r = np.abs(matrix @ y - b).max(axis=0) / np.where(scale > 0, scale, 1.0)
    worst = r.max(initial=0.0)
    if not worst <= RESIDUAL_TOL:
        raise NonConvergence("direct solve missed the residual target",
                             diagnostics={"residual": float(worst),
                                          "unknowns": len(b)})
    return np.ldexp(y, exp), r


#: one direct solve of the data right-hand side of an eliminated system:
#: the interleaved interior solution x, its max-norm relative residual and
#: the seconds its factorisation and solve took
Solution = namedtuple("Solution", ["x", "residual", "seconds"])


def fitted(fem, alpha, solution):
    """The ``Smoother`` of the ``Solution`` of ``fem``'s eliminated system
    at ``alpha``, from its one factorisation: the interior blocks of x
    spread into nodal fields, with the boundary values of ``fem.bv`` (w at
    ``alpha``) at the boundary nodes."""
    unit = fem.eliminated
    bv = unit.bv
    bvals = {"c": bv.c, "g1": bv.g1, "g2": bv.g2, "w": bv.w_at(alpha)}
    fields = {}
    for pos, name in enumerate(FIELDS):
        v = np.zeros(unit.n_nodes)
        v[unit.interior] = solution.x[pos::4]
        v[unit.boundary] = bvals[name]
        fields[name] = v
    s = Smoother(mesh=fem.mesh, alpha=alpha, info={
        "solve_seconds": solution.seconds,
        "unknowns": len(solution.x),
        "nnz": int(unit.ordered[2].nnz),
        "factorizations": 1,
        "residual": solution.residual,
    }, **fields)
    s.info["constraint_residual"] = constraint_residual(s, fem)
    return s


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
    alpha = 1) rescaled to ``alpha``, in the static order; ``rows`` and
    ``cols`` give the interleaved row and column of each of its rows and
    columns.  The right-hand side is interleaved: d in the c rows minus
    K_IB x_B for ``fem.bv``, which the EliminatedSystem checked and sorted.
    ``factorizations`` counts the direct factorisations; ``residual`` is the
    largest max-norm relative residual of the last solve.  alpha must be
    positive and finite.
    """

    def __init__(self, fem, alpha):
        if not 0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        unit = fem.eliminated
        if fem.mesh.n_nodes != unit.n_nodes:
            raise DimensionMismatch(f"mesh has {fem.mesh.n_nodes} nodes, its "
                                    f"system was built for {unit.n_nodes}")
        bv = unit.bv
        self.fem = fem
        self.alpha = alpha
        self.interior = unit.interior
        self.boundary = unit.boundary
        self.bvals = {"c": bv.c, "g1": bv.g1, "g2": bv.g2, "w": bv.w_at(alpha)}
        self.rhs = unit.boundary_rhs(alpha, self.bvals)
        self.rhs[0::4] += fem.d[self.interior]
        self.n_unknowns = len(self.rhs)
        self._lu = None
        self.factorizations = 0
        self.residual = None

    @cached_property
    def matrix(self):
        """Interior matrix at alpha in the static order (CSC)."""
        return self.fem.eliminated.matrix_at(self.alpha)

    @property
    def rows(self):
        return self.fem.eliminated.ordered[0]

    @property
    def cols(self):
        return self.fem.eliminated.ordered[1]

    def factorize(self):
        if self._lu is None:
            self._lu = static_factor(self.matrix)
            self.factorizations += 1
        return self._lu

    def solve_raw(self, rhs=None):
        """Solve for one right-hand side or an (m, p) block of them, both
        interleaved: the rows of b go to the static order and the solution
        comes back from it.

        Raises NonConvergence as ``static_solve`` does.
        """
        b = self.rhs if rhs is None else rhs
        t0 = time.perf_counter()
        lu = self.factorize()
        y, r = static_solve(lu, self.matrix, b.reshape(len(b), -1)[self.rows])
        self.residual = float(r.max(initial=0.0))
        x = np.empty_like(y)
        x[self.cols] = y
        return x.reshape(b.shape), time.perf_counter() - t0

    def solve(self):
        x, seconds = self.solve_raw()
        return fitted(self.fem, self.alpha,
                      Solution(x, self.residual, seconds))


def constraint_residual(s, fem):
    """Max-norm of the weak gradient constraint over interior rows."""
    r = fem.L @ s.c - fem.G1 @ s.g1 - fem.G2 @ s.g2
    r = r[~np.asarray(s.mesh.node_boundary, dtype=bool)]
    return float(np.abs(r).max()) if len(r) else 0.0


# -- evaluation ----------------------------------------------------------------


def interpolate(mesh, values, points):
    """Piecewise linear interpolation of nodal values at many points.

    Points outside the mesh yield NaN.  The points are located and
    interpolated QUERY_BLOCK at a time, into the preallocated output, so the
    temporaries do not grow with the number of points; each value depends
    on its own point alone, so the blocks change no answer.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    values = np.asarray(values)
    out = np.full(len(p), np.nan)
    for lo in range(0, len(p), QUERY_BLOCK):
        rows, bary = mesh.locate(p[lo:lo + QUERY_BLOCK])
        inside = rows >= 0
        nodes = mesh.tri_table.verts[rows[inside]]
        out[lo:lo + QUERY_BLOCK][inside] = np.einsum(
            "ij,ij->i", bary[inside], values[nodes])
    return out


def _point_values(s, p, names):
    """Interpolated nodal fields ``names`` of ``s`` at one point."""
    rows, bary = s.mesh.locate([p])
    if rows[0] < 0:
        raise OutsideDomain(f"point {p} is outside the mesh")
    nodes = s.mesh.tri_table.verts[rows[0]]
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
