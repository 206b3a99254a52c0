"""Triangular meshes with newest-node bisection refinement, held in arrays.

The nodes of a mesh are the rows of ``points``, each with a boolean
``node_boundary`` flag.  Its triangles are (a, b, v) rows with ascending
ids, counter-clockwise with the newest node v last, so (a, b) is the base
edge.  Its edges are one ascending table of node-pair keys, each carrying
its edge id; which triangles meet at an edge is derived from the rows on
demand (``TriTable.edges``, ``EdgeTable.tris``).  Ids are never reused.
Sets of triangles are boolean masks over the ``tri_table`` rows.

Bisection splits a triangle from its newest node to the midpoint of its base
edge, so refined meshes built from the unit-square seed only ever contain
isosceles right triangles.  ``bisect_once`` runs one pass of it over a set
of rows as array operations, the vectorised newest-vertex bisection of
Funken, Praetorius & Wissgott (2011) and of L. Chen's iFEM ``bisect``; the
waves of a ``TriMesh`` and the auxiliary indicator's patches all use it.
A wave returns the nodes it made as (j, 3) [node, parent_a, parent_b] rows.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .exceptions import EmptyResult, NotRefinable, ParseError, ZeroInterior

MESH_SCHEMA = "tpsfem-mesh v1"

#: tolerance for barycentric containment tests
BARY_TOL = 1e-12

#: the point locator of a mesh: its node bounding box, cut into ng x ng bins
#: of sx by sy; the rows listed in bin g are ``rows[start[g]:start[g + 1]]``
_Bins = namedtuple("_Bins", ["xmin", "ymin", "xmax", "ymax", "sx", "sy",
                             "ng", "start", "rows"])


#: the six sub-triangles one bisection pass can make of a row (a, b, v), as
#: indices into (a, b, v, m, ml, mr), the corners and the midpoints of
#: (a, b), (v, a) and (b, v): the children (v, a, m) and (b, v, m) of the
#: split at m, each followed by its own two children, split at ml and mr;
#: a child's slot is its row here
SUB_TRIANGLES = np.array([[2, 0, 3], [3, 2, 4], [0, 3, 4],
                          [1, 2, 3], [3, 1, 5], [2, 3, 5]])


def _pair_key(p, q):
    """One int64 key per unordered node pair; keys sort as (lower, higher)."""
    p, q = np.asarray(p, dtype=np.int64), np.asarray(q, dtype=np.int64)
    return np.minimum(p, q) << 32 | np.maximum(p, q)


def _pair_nodes(keys):
    """(k, 2) node pairs, lower id first, of the ``_pair_key`` keys."""
    return np.column_stack([keys >> 32, keys & 0xFFFFFFFF])


def _sides(verts):
    """(m, 3) keys of the sides (a, b), (b, v), (v, a) of the rows ``verts``."""
    return _pair_key(verts, np.roll(verts, -1, axis=1))


def _grouped(keys, n):
    """The positions of the integer ``keys`` in [0, n), grouped by key: the
    positions of key g are ``order[start[g]:start[g + 1]]``, ascending."""
    # numpy sorts integer types of up to 16 bits stably by radix, so the
    # keys are sorted in the narrowest type that holds them
    order = np.argsort(keys.astype(np.min_scalar_type(n)), kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n))])
    return order, start


def fill_new_nodes(values, events, known):
    """Give every node of ``events`` not yet ``known`` the mean of its
    parents' rows of ``values``, in place; ``known`` is updated too.
    ``events`` is the (j, 3) int array of [node, parent_a, parent_b] rows
    that a refinement wave returns.  A parent may be a node of the same
    events, so a row is filled as soon as both parents are known."""
    todo = events[~known[events[:, 0]]]
    while len(todo):
        node, a, b = todo.T
        ready = known[a] & known[b]
        values[node[ready]] = 0.5 * (values[a[ready]] + values[b[ready]])
        known[node[ready]] = True
        todo = todo[~ready]


def bisect_once(verts, n, rank=None):
    """One bisection pass over the rows ``verts`` of a conforming mesh.

    ``verts`` holds the rows (a, b, v), v the newest node, on the nodes 0,
    ..., n-1, in ascending triangle id.  ``rank`` ranks each row's base
    edge, -1 where it is not marked; by default every base edge is marked,
    ranked by its first row.  A split edge (a, b) gets its midpoint m as a
    new node and each row at it becomes (v, a, m) and (b, v, m).  An edge is
    split only after the base edge of the other triangle at it, so a marked
    edge brings that chain of edges with it, and a child whose base edge is
    split in the pass is split again.  The order is that of splitting the
    marked edges one by one in rank order, each after its chain: by the
    lowest rank whose chain holds the edge, then from the chain's end.

    Returns (children, source, slot, final, parents): every child made,
    newest node last, in order of creation, so the i-th takes the i-th new
    triangle id; the row each descends from; its slot in SUB_TRIANGLES;
    whether it is left unsplit; and the (j, 2) endpoints, lower first, of
    the split edges, whose midpoints are the new nodes n, n + 1, ....
    Raises NotRefinable on a chain that does not end (cyclic newest-node
    labels).
    """
    a, b, v = np.asarray(verts, dtype=np.int64).reshape(-1, 3).T
    rank = np.arange(len(a)) if rank is None else np.asarray(rank)
    edges, first, edge = np.unique(_pair_key(a, b), return_index=True,
                                   return_inverse=True)
    # the children's base edges (v, a) and (b, v), as indices into edges
    # where they are base edges of rows too, else -1
    k = _pair_key([v, b], [a, v])
    i = np.searchsorted(edges, k)
    left, right = np.where(np.append(edges, -1)[i] == k, i, -1)
    # an edge is split after the base edge of the other triangle at it
    after = np.full(len(edges), -1)
    for side in (left, right):
        after[side[side >= 0]] = edge[side >= 0]
    link = after >= 0
    # each edge takes the lowest rank whose chain holds it and its distance
    # to the end of the chain: a rank runs down a chain, then the distances
    # run back up, one edge per step
    free = np.iinfo(np.int64).max
    start = np.full(len(edges), free)
    np.minimum.at(start, edge[rank >= 0], rank[rank >= 0])
    row, height = start, np.zeros(len(edges), dtype=np.int64)
    for _ in range(2 * len(edges) + 2):
        r = start.copy()
        np.minimum.at(r, after[link], row[link])
        h = np.where(link & (r < free), height[after] + 1, 0)
        if np.array_equal(r, row) and np.array_equal(h, height):
            break
        row, height = r, h
    else:
        raise NotRefinable("base-edge chains do not terminate "
                           "(cyclic newest-node labels)")
    split = row < free
    order = np.flatnonzero(split)[np.lexsort((height[split], row[split]))]
    t = np.zeros(len(edges), dtype=np.int64)
    t[order] = np.arange(len(order))  # the creation rank of each split edge
    # a split makes two children of each triangle at the edge: of its rows
    # in id order, then of the child that waited for it
    size = 2 * (np.bincount(edge, minlength=len(edges)) + link)[order]
    off = np.zeros(len(edges), dtype=np.int64)
    off[order] = np.cumsum(size) - size
    left, right = (np.where((s >= 0) & split[s], s, -1) for s in (left, right))
    m, ml, mr = n + t[edge], n + t[left], n + t[right]
    te = off[edge] + 2 * (np.arange(len(a)) != first[edge])
    tl, tr = off[left] + 2, off[right] + 2
    cand = np.stack([a, b, v, m, ml, mr])[SUB_TRIANGLES].transpose(0, 2, 1)
    created = np.stack([te, tl, tl + 1, te + 1, tr, tr + 1])
    cut, lcut, rcut = split[edge], left >= 0, right >= 0
    made = np.stack([cut, lcut, lcut, cut, rcut, rcut])
    final = np.stack([cut & ~lcut, lcut, lcut, cut & ~rcut, rcut, rcut])
    pick = np.argsort(created[made])
    source = np.broadcast_to(np.arange(len(a)), made.shape)[made][pick]
    slot = np.broadcast_to(np.arange(len(cand))[:, None], made.shape)
    return (cand[made][pick], source, slot[made][pick], final[made][pick],
            _pair_nodes(edges[order]))


def _halves(la, lb, lv):
    """Barycentric coordinates of a point in the two children (v, a, m) and
    (b, v, m) of the bisection of (a, b, v) at the midpoint m of (a, b),
    from its coordinates (la, lb, lv) in (a, b, v): exact maps, since the
    point is la a + lb b + lv v and m = (a + b) / 2."""
    return (lv, la - lb, 2.0 * lb), (lb - la, lv, 2.0 * la)


def _pick(first, second):
    """The child of ``_halves`` that holds each point, the one whose
    smallest coordinate is largest, the first on a tie: whether it is the
    second, and the point's coordinates in it."""
    later = np.minimum(np.minimum(*second[:2]), second[2]) > np.minimum(
        np.minimum(*first[:2]), first[2])
    return later, tuple(np.where(later, s, f) for f, s in zip(first, second))


def bisection_moments(points, verts, at, xy, y):
    """Data moments of the sub-triangles that one bisection pass can make of
    the rows ``verts`` (SUB_TRIANGLES), on the node coordinates ``points``.

    Data point k, at ``xy[k]`` with value ``y[k]``, lies in row ``at[k]``.
    Its coordinates l in that row come from one ``_bary`` on the row's
    frame, formed as ``TriTable.frame`` forms it; those in the children of
    each level follow by the exact maps of ``_halves``.  It is placed once
    on each level: in the child, slot 0 or 3, where its smallest
    coordinate is largest, the first on a tie, then likewise in one of
    that child's two children; on a shared edge either side gives the same
    basis values.

    Returns an (m, 6, 10) array: for each row and slot, the number of
    points, the six products l_i l_j (i <= j: 00, 01, 02, 11, 12, 22) and
    the three l_i y, with l in the slot's vertex order.
    """
    (x0, y0), (x1, y1), (x2, y2) = points[verts].transpose(1, 2, 0)
    v0x, v0y, v1x, v1y = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    frame = np.stack([x0, y0, v0x, v0y, v1x, v1y, v0x * v1y - v0y * v1x])
    lam = _bary(frame.take(at, axis=1), xy[:, 0], xy[:, 1])
    # slot 0 is (v, a, m) with children slots 1 and 2; slot 3 is (b, v, m)
    # with children slots 4 and 5, and each child is a row (a, b, v) again
    upper, lam1 = _pick(*_halves(*lam))
    right, lam2 = _pick(*_halves(*lam1))
    cell = len(SUB_TRIANGLES) * np.concatenate([at, at]) + np.concatenate(
        [3 * upper, 3 * upper + 1 + right])
    lam = np.concatenate([np.stack(lam1), np.stack(lam2)], axis=1)
    y = np.concatenate([y, y])
    size = len(SUB_TRIANGLES) * len(verts)
    columns = [np.bincount(cell, minlength=size).astype(float)]
    columns += [np.bincount(cell, lam[p] * lam[q], minlength=size)
                for p, q in zip(*np.triu_indices(3))]
    columns += [np.bincount(cell, l * y, minlength=size) for l in lam]
    return np.stack(columns, axis=1).reshape(len(verts), len(SUB_TRIANGLES),
                                             -1)


def _bary(frame, x, y):
    """Barycentric coordinates (l0, l1, l2) of the points (x[k], y[k]) in
    the triangles of the ``TriTable.frame`` columns ``frame[:, k]``, as
    three 1-D arrays: l1 and l2 by Cramer's rule, l0 = 1 - l1 - l2.  A
    degenerate triangle (den = 0) gives inf or NaN."""
    x0, y0, v0x, v0y, v1x, v1y, den = frame
    v2x, v2y = x - x0, y - y0
    l1 = (v2x * v1y - v2y * v1x) / den
    l2 = (v0x * v2y - v0y * v2x) / den
    return 1.0 - l1 - l2, l1, l2


def _rows(self, ids):
    """Rows of the ``ids``; KeyError for an id the table does not hold."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.searchsorted(self.ids, ids)
    found = np.append(self.ids, -1)[rows] == ids
    if not np.all(found):
        raise KeyError(f"no alive {self.item} with id {ids[~found][0]}")
    return rows


class TriTable(namedtuple("TriTable", ["ids", "verts", "x", "y", "area",
                                       "gx", "gy", "edges", "frame"])):
    """Geometry of every alive triangle, one row per triangle in id order.

    Attributes
    ----------
    ids : (m,) ndarray
        Triangle ids, ascending.
    verts : (m, 3) ndarray
        The (a, b, v) rows: counter-clockwise, newest node v last.
    x, y : (m, 3) ndarray
        Vertex coordinates.
    area : (m,) ndarray
        Signed areas (positive for counter-clockwise triangles).
    gx, gy : (m, 3) ndarray
        Constant gradients of the three local basis functions.
    edges : (m, 3) ndarray
        Edge ids of the sides (a, b), (b, v), (v, a); the first is the base
        edge.
    frame : (7, m) ndarray
        Each triangle's barycentric frame, one column per triangle: the
        first vertex (x0, y0), the sides v0 = (x1 - x0, y1 - y0) and v1 =
        (x2 - x0, y2 - y0) from it, and den = v0x * v1y - v0y * v1x.  These
        are the operands of every barycentric coordinate, formed once per
        triangle instead of once per (point, triangle) pair.
    """
    __slots__ = ()
    item = "triangle"
    rows = _rows

    def bary(self, rows, points):
        """Barycentric coordinates of ``points[k]`` in the triangle of row ``rows[k]``."""
        lam = _bary(self.frame.take(rows, axis=1), points[:, 0], points[:, 1])
        return np.column_stack(lam)

    def gradients(self, values):
        """(m, 2) constant gradient of the linear interpolant of nodal ``values``."""
        v = np.asarray(values, dtype=float)[self.verts]
        return np.column_stack([(self.gx * v).sum(axis=1),
                                (self.gy * v).sum(axis=1)])


class EdgeTable(namedtuple("EdgeTable", ["ids", "nodes", "tris"])):
    """Every edge, one row per edge in id order.

    Attributes
    ----------
    ids : (k,) ndarray
        Edge ids, ascending.
    nodes : (k, 2) ndarray
        End nodes, lower id first.
    tris : (k, 2) ndarray
        Ids of the incident triangles, ascending; the second is -1 on the
        boundary.
    """
    __slots__ = ()
    item = "edge"
    rows = _rows


class TriMesh:
    """Conforming triangular mesh with newest-node labels, held in arrays.

    Attributes
    ----------
    points : (n, 2) ndarray
        Node coordinates.  Node ids are row numbers; nodes are only added.
    node_boundary : (n,) bool ndarray
        True for nodes lying on the mesh boundary.

    The triangles are ascending ids with (a, b, v) rows, read through
    ``tri_table``; the edges are ascending node-pair keys with edge ids,
    read in id order through ``edge_table``.  A refinement wave replaces the
    split triangles by their children, which take new ids in order of
    creation (those split again in the wave use up ids too), and the split
    edges by new ones, numbered by first appearance over those children.
    """

    def __init__(self, points, verts):
        """The mesh of the counter-clockwise (a, b, v) rows ``verts`` on
        ``points``; ids follow the rows, then the sides' first appearance."""
        self.points = points
        self._ids = np.arange(len(verts))
        self._verts = verts
        keys, first = np.unique(_sides(verts), return_index=True)
        self._keys, self._key_ids = keys, np.argsort(np.argsort(first))
        self._next_tri, self._next_edge = len(verts), len(keys)
        self.node_boundary = self._derived_boundary()
        self._bump()

    @classmethod
    def from_arrays(cls, points, triangles, newest):
        """Build a mesh from raw arrays.

        Parameters
        ----------
        points : (n, 2) array_like
            Node coordinates.
        triangles : (m, 3) array_like of int
            Vertex triples (any orientation).
        newest : (m,) array_like of int
            Local index (0..2) of each triangle's newest node.

        Boundary flags are derived from edge incidence.
        """
        pts = np.array(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite node coordinates")
        # (a, b, v) with the newest node v last, then a and b swapped on
        # clockwise triangles
        nw = np.asarray(newest, dtype=int).reshape(-1, 1)
        abv = np.take_along_axis(
            np.asarray(triangles, dtype=np.int64).reshape(-1, 3),
            (nw + [1, 2, 0]) % 3, axis=1)
        (ax, ay), (bx, by), (vx, vy) = pts[abv].transpose(1, 2, 0)
        cw = (bx - ax) * (vy - ay) - (by - ay) * (vx - ax) < 0
        abv[cw, :2] = abv[cw, 1::-1]
        return cls(pts, abv)

    # -- basic queries -------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.points)

    @property
    def n_tris(self):
        return len(self._ids)

    @property
    def tri_table(self):
        """The :class:`TriTable` of the alive triangles (cached until the mesh changes)."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        verts = self._verts
        x = self.points[:, 0][verts]
        y = self.points[:, 1][verts]
        # b_i = y_j - y_k, c_i = x_k - x_j  (cyclic), grad b_i = (b_i, c_i) / (2T)
        bcoef = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        ccoef = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            gx = bcoef / (2.0 * area[:, None])
            gy = ccoef / (2.0 * area[:, None])
        v0x, v0y = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
        v1x, v1y = x[:, 2] - x[:, 0], y[:, 2] - y[:, 0]
        frame = np.stack([x[:, 0], y[:, 0], v0x, v0y, v1x, v1y,
                          v0x * v1y - v0y * v1x])
        return TriTable(self._ids, verts, x, y, area, gx, gy,
                        self._key_ids[self._side_rows()], frame)

    @property
    def edge_table(self):
        """The :class:`EdgeTable` of the alive edges (cached until the mesh changes)."""
        if self._edges is None:
            tab, order = self.tri_table, np.argsort(self._key_ids)
            ids = self._key_ids[order]
            # the sides grouped by edge, the triangle ids ascending in a group
            at = np.searchsorted(ids, tab.edges.ravel())
            side = np.argsort(at, kind="stable")
            tris = np.full((len(ids), 2), -1)
            tris[at[side], np.append(0, np.diff(at[side]) == 0)] = np.repeat(
                tab.ids, 3)[side]
            self._edges = EdgeTable(ids, _pair_nodes(self._keys[order]),
                                    tris)
        return self._edges

    @property
    def node_pairs(self):
        """The CSR pattern of the node pairs of the triangles (cached until
        the mesh changes): (indptr, indices, at), where ``at[r, i, j]`` is
        the position in the data of the pair (vertex i, vertex j) of
        ``tri_table`` row r, i = j included.  The stiffness and gradient
        matrices are summed onto it (``assembly._pattern_sum``)."""
        if self._pairs is None:
            n = self.n_nodes
            keys = self._verts[:, :, None] * n + self._verts[:, None, :]
            pairs, at = np.unique(keys.ravel(), return_inverse=True)
            index = np.int32 if len(pairs) < 2 ** 31 else np.int64
            indptr = np.concatenate([[0], np.cumsum(
                np.bincount(pairs // n, minlength=n))])
            self._pairs = (indptr.astype(index), (pairs % n).astype(index),
                           at.reshape(-1, 3, 3))
        return self._pairs

    def refinable_edges(self):
        """Ids of edges that are base edges of at least one triangle, ascending."""
        return np.unique(self.tri_table.edges[:, 0])

    def boundary_nodes(self):
        """Sorted ids of the boundary nodes, as an integer array."""
        return np.flatnonzero(self.node_boundary)

    def interior_nodes(self):
        """Sorted ids of the interior nodes, as an integer array."""
        return np.flatnonzero(~self.node_boundary)

    # -- internal state ---------------------------------------------------

    def _bump(self):
        """Drop the caches derived from the nodes and triangles."""
        self._locator = None
        self._table = None
        self._edges = None
        self._pairs = None

    def _side_rows(self):
        """(m, 3) rows of the edge key table of each triangle's sides."""
        return np.searchsorted(self._keys, _sides(self._verts))

    def _edge_counts(self):
        """Number of incident triangles of each edge, in key order."""
        return np.bincount(self._side_rows().ravel(),
                           minlength=len(self._keys))

    def _derived_boundary(self):
        """Node flags: True at the ends of the edges of one triangle."""
        flags = np.zeros(self.n_nodes, dtype=bool)
        flags[_pair_nodes(self._keys[self._edge_counts() == 1])] = True
        return flags

    # -- refinement -------------------------------------------------------

    def uniform_refine(self):
        """Bisect every triangle along its base edge once (one pass).

        Two passes halve the mesh size h.  Returns the (j, 3) int64 array
        of the nodes created, in creation order: one [node, parent_a,
        parent_b] row each, the parents being the ends of the split edge.
        """
        return self._bisect(np.arange(self.n_tris))

    def refine_wave(self, marked_edges):
        """Bisect the marked edges in ascending id order, each after the
        chain of base edges that must be split before it; a marked edge
        that an earlier chain split is not split again.

        Returns the (j, 3) int64 array of the nodes created, in creation
        order, as ``uniform_refine`` does; (0, 3) when none is.  Raises
        NotRefinable for an id that is not an edge of the mesh or not a
        base edge of any triangle.
        """
        marked = np.unique(np.fromiter(marked_edges, dtype=np.int64))
        base = self.tri_table.edges[:, 0]
        for eid in marked[~np.isin(marked, base)].tolist():
            if eid in self._key_ids:
                raise NotRefinable(f"edge {eid} is not a base edge of any triangle")
            raise NotRefinable(f"edge {eid} is not an edge of the mesh")
        rank = np.searchsorted(marked, base)
        return self._bisect(np.where(np.append(marked, -1)[rank] == base,
                                     rank, -1))

    def _bisect(self, rank):
        """One ``bisect_once`` pass over the triangles with base-edge
        ranks ``rank``; returns the [node, parent_a, parent_b] rows."""
        tab = self.tri_table
        n = self.n_nodes
        children, source, _, final, parents = bisect_once(tab.verts, n, rank)
        events = np.column_stack([np.arange(n, n + len(parents)), parents])
        if not len(children):
            return events
        split = _pair_key(parents[:, 0], parents[:, 1])
        boundary = self._edge_counts()[np.searchsorted(self._keys,
                                                       split)] == 1
        self.points = np.vstack([self.points, 0.5 * (
            self.points[parents[:, 0]] + self.points[parents[:, 1]])])
        self.node_boundary = np.append(self.node_boundary, boundary)
        kept = np.ones(len(tab.ids), dtype=bool)
        kept[source] = False
        self._ids = np.concatenate([tab.ids[kept],
                                    self._next_tri + np.flatnonzero(final)])
        self._verts = np.concatenate([tab.verts[kept], children[final]])
        self._next_tri += len(children)
        # the split edges go; the new ones are numbered in order of first
        # appearance over every child, those split again included
        sides = _sides(children).ravel()
        new, first = np.unique(sides[~np.isin(sides, self._keys)],
                               return_index=True)
        stay = ~np.isin(self._keys, split)
        keys = np.concatenate([self._keys[stay], new])
        ids = np.concatenate([self._key_ids[stay],
                              self._next_edge + np.argsort(np.argsort(first))])
        order = np.argsort(keys)
        self._keys, self._key_ids = keys[order], ids[order]
        self._next_edge += len(new)
        self._bump()
        return events

    # -- point location ----------------------------------------------------

    def _build_locator(self):
        tab = self.tri_table
        pts = self.points
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        ng = int(np.clip(3 * (np.sqrt(2 * len(tab.ids)) + 1), 1, 1024))
        sx = (xmax - xmin) / ng or 1.0
        sy = (ymax - ymin) / ng or 1.0
        i0 = np.clip(((tab.x.min(axis=1) - xmin) / sx).astype(int), 0, ng - 1)
        i1 = np.clip(((tab.x.max(axis=1) - xmin) / sx).astype(int), 0, ng - 1)
        j0 = np.clip(((tab.y.min(axis=1) - ymin) / sy).astype(int), 0, ng - 1)
        j1 = np.clip(((tab.y.max(axis=1) - ymin) / sy).astype(int), 0, ng - 1)
        # one entry per (row, overlapped bin); a stable sort keeps rows
        # ascending within each bin
        nj = j1 - j0 + 1
        count = (i1 - i0 + 1) * nj
        rows = np.repeat(np.arange(len(count)), count)
        k = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        bins = (i0[rows] + k // nj[rows]) * ng + j0[rows] + k % nj[rows]
        order, start = _grouped(bins, ng * ng)
        self._locator = _Bins(xmin, ymin, xmax, ymax, sx, sy, ng, start,
                              rows[order])

    def locate(self, points):
        """Triangles whose closed hulls contain the points.

        Parameters
        ----------
        points : (k, 2) array_like

        Returns
        -------
        (rows, bary)
            ``rows`` is the (k,) array of the triangles' rows of
            ``tri_table``, -1 for points outside the mesh (their ids are
            ``tri_table.ids[rows]``); ``bary`` the C-ordered (k, 3)
            barycentric coordinates in those triangles (NaN outside).
            Points on shared edges or vertices resolve to the lowest
            incident triangle id.

        The bounding box of the nodes is cut into ng x ng bins, ng = 3
        (sqrt(2m) + 1) for m triangles (at most 1024), and each bin lists
        the rows of the triangles whose bounding boxes overlap it,
        ascending.  Pass k tests the k-th row of each unresolved point's
        bin, from the triangle's ``TriTable.frame`` column, and a point is
        resolved at its first hit: the lowest id whose barycentric
        coordinates are all at least -BARY_TOL.  NaN coordinates (from a
        degenerate triangle) never hit.
        """
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        if self._locator is None:
            self._build_locator()
        xmin, ymin, xmax, ymax, sx, sy, ng, start, bin_rows = self._locator
        x, y = p.T
        pad = 1e-12
        q = np.flatnonzero((x >= xmin - pad) & (x <= xmax + pad)
                           & (y >= ymin - pad) & (y <= ymax + pad))
        b = (np.clip(((x[q] - xmin) / sx).astype(int), 0, ng - 1) * ng
             + np.clip(((y[q] - ymin) / sy).astype(int), 0, ng - 1))
        first = start[b]
        count = start[b + 1] - first
        tab = self.tri_table
        found = np.full(len(p), -1, dtype=np.int64)
        bary = np.full((3, len(p)), np.nan)
        # test the k-th candidate of every unresolved point in pass k; rows
        # ascend within a bin, so a point's first hit has the lowest id
        k = 0
        live = count > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.any():
                q, first, count = q[live], first[live], count[live]
                rows = bin_rows[first + k]
                lam = _bary(tab.frame.take(rows, axis=1), x[q], y[q])
                low = np.minimum(np.minimum(lam[0], lam[1]), lam[2])
                hit = low >= -BARY_TOL
                at = q[hit]
                found[at] = rows[hit]
                for col, l in zip(bary, lam):
                    col[at] = l[hit]
                k += 1
                live = ~hit & (count > k)
        return found, np.ascontiguousarray(bary.T)

    # -- derived metrics ----------------------------------------------------

    def near_boundary_ratio(self, radius):
        """Fraction of interior nodes closer than ``radius`` to a boundary node.

        ``driver.run`` asks this once per fit, so it answers from a numpy
        cell grid, not a k-d tree: ``scipy.spatial`` loads ``scipy.special``
        with it, about 0.1 s of start-up and 7 MiB of memory for one query.
        The nodes fall into square cells of side max(radius, extent / 2**24),
        widened by 2**-20 so that rounding cannot put two points nearer than
        ``radius`` two cells apart.  The three cells of each row of a node's
        3 x 3 neighbourhood have consecutive keys, so one ``searchsorted``
        pass over the sorted boundary keys finds the boundary nodes there.
        A node is near when one of them has sqrt(d0*d0 + d1*d1) < radius,
        the distance of ``cKDTree``.  The cost is linear in those candidate
        pairs: a radius near the mesh's extent pairs every interior node
        with every boundary node.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        if self.node_boundary.all():
            raise ZeroInterior("mesh has no interior nodes")
        pts = self.points
        lo = pts.min(axis=0)
        extent = (pts.max(axis=0) - lo).max()
        side = max(radius, extent / 2**24) * (1 + 2**-20)
        # cells from 1, so that every neighbour of a cell has a key >= 0
        cell = ((pts - lo) / side).astype(np.int64) + 1
        width = cell[:, 0].max() + 2
        key = cell[:, 1] * width + cell[:, 0]
        # ascending keys let the searches below walk forwards
        order = np.argsort(key, kind="stable")
        bnd = order[self.node_boundary[order]]
        inner = order[~self.node_boundary[order]]
        row = (key[inner] + width * np.arange(-1, 2)[:, None]).ravel()
        first = np.searchsorted(key[bnd], row - 1, side="left")
        count = np.searchsorted(key[bnd], row + 1, side="right") - first
        node = np.repeat(np.tile(inner, 3), count)
        other = bnd[np.arange(len(node))
                    - np.repeat(np.cumsum(count) - count - first, count)]
        d0, d1 = (pts[node] - pts[other]).T
        near = np.zeros(self.n_nodes, dtype=bool)
        near[node[np.sqrt(d0 * d0 + d1 * d1) < radius]] = True
        return float(np.count_nonzero(near)) / len(inner)

    # -- consistency ---------------------------------------------------------

    def validate(self):
        """Raise AssertionError if any structural invariant is violated."""
        ids, verts, eids = self._ids, self._verts, self._key_ids
        assert np.all(np.diff(ids) > 0) and np.all(ids < self._next_tri)
        assert np.all(np.diff(self._keys) > 0)
        assert len(np.unique(eids)) == len(eids) and np.all(eids < self._next_edge)
        assert np.all((0 <= verts) & (verts < self.n_nodes))
        assert len(self.node_boundary) == self.n_nodes
        lost = ids[~np.isin(_sides(verts), self._keys).all(axis=1)]
        assert len(lost) == 0, f"a side of triangle {lost[0]} is not an edge"
        count, tab = self._edge_counts(), self.tri_table
        for bad, what in (
                (eids[(count < 1) | (count > 2)], "edge {} has not 1 or 2 triangles"),
                (ids[np.any(verts == np.roll(verts, 1, axis=1), axis=1)],
                 "triangle {} has repeated vertices"),
                (ids[~(tab.area > 0)], "triangle {} is not counter-clockwise"),
                (np.flatnonzero(self._derived_boundary() != self.node_boundary),
                 "boundary flag mismatch at node {}")):
            assert len(bad) == 0, what.format(bad[0])

    # -- submesh extraction ---------------------------------------------------

    def submesh(self, keep):
        """Standalone copy of the triangles of the ``tri_table`` row mask
        ``keep``: their nodes in ascending id, then the triangles in
        ascending id, with newest-node labels kept and boundary flags
        recomputed."""
        verts = self.tri_table.verts[keep]
        nodes, local = np.unique(verts, return_inverse=True)
        return TriMesh.from_arrays(self.points[nodes], local.reshape(-1, 3),
                                   np.full(len(verts), 2))


def build_square_mesh(refine_level=0):
    """Isosceles right triangulation of the unit square.

    Level 0 is a 5x5 node grid (25 nodes, 32 triangles).  Each further level
    applies one uniform refinement (two bisection passes), doubling the
    resolution.  The hypotenuse of every triangle is its base edge.
    """
    if refine_level < 0:
        raise ValueError("refine_level must be >= 0")
    n = 4
    g = np.arange(n + 1) / n  # node j * (n + 1) + i lies at (g[i], g[j])
    p00 = (np.arange(n) + (n + 1) * np.arange(n)[:, None]).ravel()
    p10, p01, p11 = p00 + 1, p00 + n + 1, p00 + n + 2
    # diagonal p00-p11 is the base edge of both triangles of a cell
    tris = np.column_stack([p11, p00, p10, p00, p11, p01]).reshape(-1, 3)
    mesh = TriMesh.from_arrays(
        np.column_stack([np.tile(g, n + 1), np.repeat(g, n + 1)]), tris,
        np.full(len(tris), 2))
    for _ in range(refine_level):
        mesh.uniform_refine()
        mesh.uniform_refine()
    return mesh


# -- trimming ---------------------------------------------------------------


def trim_to_irregular(mesh, data):
    """Remove triangles that contain no data point.

    Triangles are retained when they contain at least one data point or when
    they bridge otherwise disconnected data-bearing components; connectivity
    is restored by breadth-first searches from the largest component over
    the rows that share a side.

    Returns ``(trimmed, rows, bary)``: a new mesh with renumbered nodes and
    recomputed boundary flags, and the data's ``locate`` on it, carried over
    from the one ``locate`` on ``mesh``.  A point's triangle, the lowest id
    that holds it, holds data, so it is kept, and no other kept triangle
    with a lower id holds the point.  The submesh keeps the rows in order
    with their vertex coordinates, so a point's row is renumbered and its
    barycentric coordinates are bitwise unchanged: they are what a fresh
    ``trimmed.locate(data.x)`` gives.
    """
    rows, bary = mesh.locate(data.x)
    bearing = np.zeros(mesh.n_tris, dtype=bool)
    bearing[rows[rows >= 0]] = True
    if not bearing.any():
        raise EmptyResult("no triangle contains a data point")
    keep = _connect_components(mesh, bearing)
    renumbered = np.where(rows >= 0, np.cumsum(keep)[rows] - 1, -1)
    return mesh.submesh(keep), renumbered, bary


def _side_graph(mesh):
    """CSR adjacency of the m triangle rows that share a side, each row's
    neighbours ascending (the canonical CSR form), and a spare row m with
    none."""
    et = mesh.edge_table
    pairs = mesh.tri_table.rows(et.tris[et.tris[:, 1] >= 0])
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    return sp.csr_array((np.ones(len(src)), (src, dst)),
                        shape=(mesh.n_tris + 1, mesh.n_tris + 1))


def _components(graph, mask):
    """Labels of the side-connected components of the rows in ``mask``,
    numbered in the order of each component's lowest row (-1 outside
    ``mask``), and the label of the largest, the lowest on a tie."""
    rows = np.flatnonzero(mask)
    _, labels = csgraph.connected_components(graph[rows][:, rows],
                                             directed=False)
    out = np.full(len(mask), -1)
    out[rows] = labels
    return out, np.argmax(np.bincount(labels))


def _connect_components(mesh, bearing):
    """The mask of the components of the rows ``bearing`` joined up: from
    the largest, a breadth-first search through all rows finds the nearest
    other component, which joins with the path to it, until none is left.
    Each search starts at the spare row m of ``_side_graph``, linked to
    the retained rows in ascending order, so each row is reached from the
    first row to reach it."""
    graph = _side_graph(mesh)
    labels, largest = _components(graph, bearing)
    retained = labels == largest
    pending = bearing & ~retained
    m = len(bearing)
    while pending.any():
        start = np.flatnonzero(retained)
        linked = graph + sp.csr_array((np.ones(len(start)), (
            np.full(len(start), m), start)), shape=graph.shape)
        order, parent = csgraph.breadth_first_order(linked, m, directed=True)
        order = order[1:]  # order[0] is the spare row
        hits = order[pending[order]]
        if not len(hits):
            raise EmptyResult("disconnected data components cannot be bridged")
        v = hits[0]
        while not retained[v]:
            retained[v] = True
            v = parent[v]
        retained |= labels == labels[hits[0]]
        pending &= ~retained
    return retained


# -- polygon domains -----------------------------------------------------------


def inside_polygon(points, loops):
    """Mask of the (k, 2) ``points`` inside the outer loop and outside every
    hole loop, by even-odd ray casting: one crossing test per loop edge,
    vectorised over the points."""
    x, y = points[:, 0], points[:, 1]
    parity = []
    for loop in loops:
        inside = np.zeros(len(points), dtype=bool)
        for (x0, y0), (x1, y1) in zip(loop, np.roll(loop, -1, axis=0)):
            cross = (y0 > y) != (y1 > y)
            xc = x0 + (y[cross] - y0) * (x1 - x0) / (y1 - y0)
            inside[cross] ^= x[cross] < xc
        parity.append(inside)
    return parity[0] & ~np.any(parity[1:], axis=0)


def polygon_triangles(mesh, loops):
    """Ascending ids of the triangles whose centroid lies in the domain of
    ``loops``."""
    tab = mesh.tri_table
    centroid = np.column_stack([tab.x.sum(axis=1), tab.y.sum(axis=1)]) / 3.0
    return tab.ids[inside_polygon(centroid, loops)]


def mesh_polygon(loops, refine_level=3):
    """Mesh a polygonal domain by trimming a fine square mesh.

    The square seed mesh is scaled uniformly onto the polygon's bounding
    square (preserving the isosceles right triangles), then triangles whose
    centroid falls outside the domain are removed.
    """
    loops = [np.asarray(l, dtype=float) for l in loops]
    allpts = np.vstack(loops)
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    side = max(hi - lo)
    if side <= 0:
        raise ValueError("degenerate polygon extent")
    centre = 0.5 * (lo + hi)
    mesh = build_square_mesh(refine_level)
    mesh.points = centre + (mesh.points - 0.5) * side
    mesh._bump()
    keep = np.isin(mesh.tri_table.ids, polygon_triangles(mesh, loops))
    if not keep.any():
        raise EmptyResult("polygon contains no triangle centroid")
    # polygon trimming is authoritative: keep the largest inside component
    # rather than bridging components through outside triangles
    labels, largest = _components(_side_graph(mesh), keep)
    return mesh.submesh(labels == largest)


# -- file formats ------------------------------------------------------------


def save_mesh(mesh, path):
    """Write a mesh in the text format ``tpsfem-mesh v1``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MESH_SCHEMA}\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for n, (x, y), flag in zip(range(mesh.n_nodes), mesh.points.tolist(),
                                   mesh.node_boundary.tolist()):
            fh.write(f"{n} {x!r} {y!r} {1 if flag else 0}\n")
        tab = mesh.tri_table
        fh.write(f"tris {mesh.n_tris}\n")
        for t, (a, b, v) in zip(tab.ids.tolist(), tab.verts.tolist()):
            fh.write(f"{t} {a} {b} {v} 2\n")


def _numbered_lines(path, skip_blank=False):
    """(line number, whitespace-split fields) of each line of a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(k, ln.split()) for k, ln in enumerate(fh, start=1)]
    return [r for r in rows if r[1]] if skip_blank else rows


def _keyword(word):
    """Field converter that accepts only ``word``."""
    def convert(text):
        if text != word:
            raise ValueError(text)
        return text
    return convert


def _count(text):
    """Field converter for a non-negative item count."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _parse_row(rows, i, types, expected):
    """Row ``i`` of :func:`_numbered_lines`, converted field by field.

    Raises ParseError with the file line number when the row is missing,
    has another number of fields or a field does not convert.
    """
    if i >= len(rows):
        line = rows[-1][0] + 1 if rows else 1
        raise ParseError(f"file ends early, expected {expected!r}", line=line)
    line, parts = rows[i]
    if len(parts) == len(types):
        try:
            return [convert(p) for convert, p in zip(types, parts)]
        except ValueError:
            pass
    raise ParseError(f"expected {expected!r}", line=line)


def load_mesh(path):
    """Read a mesh written by :func:`save_mesh`."""
    rows = _numbered_lines(path)
    if not rows or rows[0][1] != MESH_SCHEMA.split():
        raise ParseError(f"expected header {MESH_SCHEMA!r}", line=1)
    _, n = _parse_row(rows, 1, (_keyword("nodes"), _count), "nodes N")
    nodes = [_parse_row(rows, 2 + i, (str, float, float, str),
                        "id x1 x2 boundary") for i in range(n)]
    k = 2 + n
    _, m = _parse_row(rows, k, (_keyword("tris"), _count), "tris M")
    tris = [_parse_row(rows, k + 1 + i, (str, int, int, int, int),
                       "id n0 n1 n2 newest_idx") for i in range(m)]
    for i, t in enumerate(tris):
        if not (all(0 <= v < n for v in t[1:4]) and 0 <= t[4] <= 2):
            raise ParseError("node id or newest_idx out of range",
                             line=rows[k + 1 + i][0])
    mesh = TriMesh.from_arrays([nd[1:3] for nd in nodes],
                               [t[1:4] for t in tris], [t[4] for t in tris])
    sides = mesh._side_rows()
    crowded = (np.bincount(sides.ravel())[sides] > 2).any(axis=1)
    for bad, what in ((crowded, "an edge of more than two triangles"),
                      (~(mesh.tri_table.area > 0), "a triangle of zero area")):
        if bad.any():
            raise ParseError(what, line=rows[k + 1 + np.flatnonzero(bad)[-1]][0])
    if not np.array_equal(mesh.node_boundary, [nd[3] == "1" for nd in nodes]):
        raise ParseError("stored boundary flags contradict edge incidence")
    return mesh


def save_polygon(loops, path):
    with open(path, "w", encoding="utf-8") as fh:
        for loop in loops:
            fh.write(f"loop {len(loop)}\n")
            for x, y in loop:
                fh.write(f"{float(x)!r} {float(y)!r}\n")


def load_polygon(path):
    """Read closed polyline loops; the first loop is the outer boundary."""
    rows = _numbered_lines(path, skip_blank=True)
    loops = []
    k = 0
    while k < len(rows):
        _, cnt = _parse_row(rows, k, (_keyword("loop"), _count), "loop K")
        loops.append(np.array([_parse_row(rows, k + 1 + i, (float, float),
                                          "x1 x2") for i in range(cnt)]))
        k += 1 + cnt
    if not loops:
        raise ParseError("polygon file has no loops")
    return loops
