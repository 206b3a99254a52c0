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
compressed arrays of A, L, G1 and G2, and its boundary values are read,
checked and sorted by node with it, once.  A ``SaddleSystem`` is the one
workspace of every alpha: it owns copies of the interior matrix and of
K_IB, and ``rescale`` writes alpha times the value at 1 into their aL
entries in place.  That product is the one a build at alpha would form,
so at every alpha, in any order of rescales, the matrix values and the
right-hand side are bitwise those of a build from scratch.  A given alpha,
a stack of auxiliary patch problems and every candidate of a GCV search
(which adds probe columns to the right-hand side) are each one
SaddleSystem.

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
RESIDUAL_TOL) guards it.  ``SaddleSystem.factorize`` and ``solve_raw``
hold this contract for every caller.

A data solution (a ``Solution``) becomes a ``Smoother`` through
``fitted``, whether it comes from ``SaddleSystem.solve`` or from the
winning candidate of a GCV search.
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
    surfaces where a factorisation is asked for.  Each ``SaddleSystem``
    rescales its own copies of ``ib`` and of the ordered matrix.
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
    """Eliminated saddle system of one FemSystem at one alpha, rescalable in
    place to any other, with a reusable factorisation.

    It owns copies of its FemSystem's K_IB and, from the first use of
    ``matrix`` on, of the interior matrix in the static order; ``rows`` and
    ``cols`` give the interleaved row and column of each of its rows and
    columns.  The right-hand side ``rhs`` is interleaved: d in the c rows
    minus K_IB x_B for ``fem.bv``, which the ``EliminatedSystem`` checked
    and sorted.  With ``probes``, an (n, p) block Z of vectors over the n
    located data points, ``rhs`` is (m, 1 + p): that data column, then p
    probe columns holding W = B_I^T Z / n (``W``) in their c rows, the
    right-hand sides of data Z with zero boundary values.

    ``factorizations`` counts the direct factorisations; ``residual`` is
    the largest max-norm relative residual of the last solve, and
    ``solution`` the data column's ``Solution`` of the last solve of
    ``rhs``.  alpha must be positive and finite.
    """

    def __init__(self, fem, alpha, probes=None):
        unit = fem.eliminated
        if fem.mesh.n_nodes != unit.n_nodes:
            raise DimensionMismatch(f"mesh has {fem.mesh.n_nodes} nodes, its "
                                    f"system was built for {unit.n_nodes}")
        self.fem = fem
        self.interior = unit.interior
        self.boundary = unit.boundary
        self.ib = unit.ib.copy()
        # (values, positions, values at alpha = 1) of the aL entries of each
        # copy; the matrix joins when it is copied
        self._alpha_entries = [(self.ib.data, unit.ib_alpha,
                                unit.ib.data[unit.ib_alpha])]
        self._matrix = None
        self.n_unknowns = m = self.ib.shape[0]
        self.W = None
        self.rhs = np.zeros(m)
        if probes is not None:
            self.W = self.probe_columns(probes)
            self.rhs = np.zeros((m, 1 + self.W.shape[1]))
            self.rhs[0::4, 1:] = self.W
        self.factorizations = 0
        self.residual = None
        self.rescale(alpha)

    def probe_columns(self, probes):
        """W = B_I^T Z / n for an (n, p) probe block Z: the rows of the
        interior nodes of B^T Z, whose sums run over the points in the same
        order as those of the sliced basis."""
        loc = self.fem.located
        return (loc.basis.T @ probes)[self.interior] / loc.n_used

    def rescale(self, alpha):
        """Move the system to ``alpha`` in place: every aL entry of the
        copies becomes alpha times its value at 1, the product a build at
        alpha forms; the data column of ``rhs`` becomes d - K_IB x_B at
        alpha, and the factor and the kept solution are dropped."""
        if not 0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        self.alpha = alpha
        for values, entries, unit in self._alpha_entries:
            values[entries] = unit * alpha
        bv = self.fem.eliminated.bv
        self.bvals = {"c": bv.c, "g1": bv.g1, "g2": bv.g2, "w": bv.w_at(alpha)}
        x_b = np.concatenate([self.bvals[name] for name in FIELDS])
        rhs = -(self.ib @ x_b)
        rhs[0::4] += self.fem.d[self.interior]
        self.rhs.reshape(len(rhs), -1)[:, 0] = rhs
        self._lu = self.solution = None

    @property
    def matrix(self):
        """Interior matrix at alpha in the static order (CSC), copied at its
        first use, which finds the static order."""
        if self._matrix is None:
            _, _, matrix, entries = self.fem.eliminated.ordered
            unit = matrix.data[entries]
            self._matrix = matrix.copy()
            self._matrix.data[entries] = unit * self.alpha
            self._alpha_entries.append((self._matrix.data, entries, unit))
        return self._matrix

    @property
    def rows(self):
        return self.fem.eliminated.ordered[0]

    @property
    def cols(self):
        return self.fem.eliminated.ordered[1]

    def factorize(self):
        """LU factor of ``matrix``, pivoted statically, once per alpha;
        SingularSystem if SuperLU fails."""
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix, **STATIC_PIVOTING)
            except RuntimeError as err:
                raise SingularSystem(f"direct factorisation failed: {err}"
                                     ) from err
            self.factorizations += 1
        return self._lu

    def solve_raw(self, rhs=None):
        """Solution of one interleaved right-hand side or of an (m, p)
        block of them, ``rhs`` by default, shaped as the right-hand side,
        and the seconds its factorisation and solve took.  A solve of
        ``rhs`` keeps its data column's ``Solution`` as ``solution``.

        The rows of b go to the static order and the solution comes back
        from it.  Raises NonConvergence unless every column reaches
        RESIDUAL_TOL; a NaN residual is a miss.  Each column is scaled and
        solved on its own terms, so a column of a block is bitwise its
        solve alone.
        """
        b = self.rhs if rhs is None else rhs
        t0 = time.perf_counter()
        lu = self.factorize()
        y = b.reshape(len(b), -1)[self.rows]
        # an exact power-of-two scale brings each column's largest entry
        # into [0.5, 1), so a subnormal right-hand side keeps its precision
        scale, exp = np.frexp(np.abs(y).max(axis=0))
        y = np.ldexp(y, -exp)
        z = lu.solve(y)
        r = (np.abs(self.matrix @ z - y).max(axis=0)
             / np.where(scale > 0, scale, 1.0))
        worst = r.max(initial=0.0)
        if not worst <= RESIDUAL_TOL:
            raise NonConvergence("direct solve missed the residual target",
                                 diagnostics={"residual": float(worst),
                                              "unknowns": len(y)})
        self.residual = float(worst)
        x = np.empty_like(z)
        x[self.cols] = np.ldexp(z, exp)
        seconds = time.perf_counter() - t0
        if rhs is None:
            self.solution = Solution(x[:, 0].copy(), float(r[0]), seconds)
        return x.reshape(b.shape), seconds

    def solve(self):
        self.solve_raw()
        return fitted(self.fem, self.alpha, self.solution)


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
