"""Triangular meshes with newest-node bisection refinement.

The mesh is stored in a node-edge structure: triangles are vertex triples
oriented counter-clockwise with the newest node in the last slot, and every
edge keeps the list of its incident triangles (two in the interior, one on
the boundary).  The edge opposite a triangle's newest node is its base edge;
bisection always splits a triangle from the newest node to the midpoint of
the base edge, so refined meshes built from the unit-square seed only ever
contain isosceles right triangles.
"""

from collections import namedtuple

import numpy as np
from scipy.spatial import cKDTree

from .exceptions import EmptyResult, NotRefinable, ParseError, ZeroInterior

MESH_SCHEMA = "tpsfem-mesh v1"

#: tolerance for barycentric containment tests
BARY_TOL = 1e-12

#: a node created by bisection, with the endpoints of the split edge
NewNode = namedtuple("NewNode", ["node", "parent_a", "parent_b", "boundary"])


def fill_new_nodes(values, events, known):
    """Give every node of ``events`` not yet ``known`` the mean of its
    parents' rows of ``values``, in place; ``known`` is updated too.
    ``events`` holds NewNode records or an array of (node, parent_a,
    parent_b) rows.  A parent may be a node of the same events, so a row is
    filled as soon as both parents are known."""
    todo = np.array(events, dtype=np.int64, ndmin=2)[:, :3].reshape(-1, 3)
    todo = todo[~known[todo[:, 0]]]
    while len(todo):
        node, a, b = todo.T
        ready = known[a] & known[b]
        values[node[ready]] = 0.5 * (values[a[ready]] + values[b[ready]])
        known[node[ready]] = True
        todo = todo[~ready]


def bisect_once(verts, n):
    """One bisection pass over the rows ``verts`` that splits every base edge.

    ``verts`` holds the rows (a, b, v), v the newest node, of a conforming
    mesh on the nodes 0, ..., n-1, in the order ``TriMesh.uniform_refine``
    visits them (ascending triangle id).  Every base edge (a, b) gets its
    midpoint m as a new node and every row is split into (v, a, m) and
    (b, v, m); a child whose base edge is another row's base edge is split
    again the same way.  Returns the (k, 3) children, newest node last, in
    the order and numbering of ``uniform_refine``; the row each child
    descends from; and the (j, 2) endpoints of the edges whose midpoints
    are the new nodes n, n + 1, ....  Raises NotRefinable on cyclic
    newest-node labels.
    """
    a, b, v = np.asarray(verts, dtype=np.int64).reshape(-1, 3).T
    key = lambda p, q: np.minimum(p, q) * n + np.maximum(p, q)
    edges, first, edge = np.unique(key(a, b), return_index=True,
                                   return_inverse=True)
    # the children's base edges (v, a) and (b, v), as indices into edges
    # where they are base edges of rows too, else -1
    k = np.stack([key(v, a), key(b, v)])
    i = np.searchsorted(edges, k)
    left, right = np.where(np.append(edges, -1)[i] == k, i, -1)
    # an edge is split after the base edge of the other triangle at it;
    # creation order is by the first row whose chain holds the edge, then
    # by the edge's distance to the end of the chain
    after = np.full(len(edges), -1)
    for side in (left, right):
        after[side[side >= 0]] = edge[side >= 0]
    row, height = first, np.zeros(len(edges), dtype=np.int64)
    for _ in range(len(edges) + 1):
        r = first.copy()
        np.minimum.at(r, after[after >= 0], row[after >= 0])
        h = np.where(after >= 0, height[after] + 1, 0)
        if np.array_equal(r, row) and np.array_equal(h, height):
            break
        row, height = r, h
    else:
        raise NotRefinable("base-edge chains do not terminate "
                           "(cyclic newest-node labels)")
    order = np.lexsort((height, row))
    t = np.argsort(order)  # the creation rank of each edge
    m, ml, mr = n + t[edge], n + t[left], n + t[right]
    # a split makes two children per incident triangle: of the rows in
    # order, then of the earlier split's child
    te = 4 * t[edge] + 2 * (np.arange(len(a)) != first[edge])
    tl, tr = 4 * t[left] + 2, 4 * t[right] + 2
    cand = np.stack([(v, a, m), (m, v, ml), (a, m, ml),
                     (b, v, m), (m, b, mr), (v, m, mr)]).transpose(0, 2, 1)
    created = np.stack([te, tl, tl + 1, te + 1, tr, tr + 1])
    keep = np.stack([left < 0, left >= 0, left >= 0,
                     right < 0, right >= 0, right >= 0])
    pick = np.argsort(created[keep])
    source = np.broadcast_to(np.arange(len(a)), keep.shape)[keep][pick]
    return (cand[keep][pick], source,
            np.column_stack([edges[order] // n, edges[order] % n]))


class TriTable(namedtuple("TriTable",
                          ["ids", "verts", "x", "y", "area", "gx", "gy"])):
    """Geometry of every alive triangle, one row per triangle in id order.

    Attributes
    ----------
    ids : (m,) ndarray
        Triangle ids, ascending.
    verts : (m, 3) ndarray
        Vertex triples as stored in ``TriMesh.tris``.
    x, y : (m, 3) ndarray
        Vertex coordinates.
    area : (m,) ndarray
        Signed areas (positive for counter-clockwise triangles).
    gx, gy : (m, 3) ndarray
        Constant gradients of the three local basis functions.
    """
    __slots__ = ()

    def rows(self, ids):
        """Rows of the triangles ``ids``; KeyError for ids of no alive triangle."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, ids)
        found = np.append(self.ids, -1)[rows] == ids
        if not np.all(found):
            raise KeyError(f"no alive triangle with id {ids[~found][0]}")
        return rows

    def bary(self, rows, points):
        """Barycentric coordinates of ``points[k]`` in the triangle of row ``rows[k]``."""
        x0, y0 = self.x[rows, 0], self.y[rows, 0]
        v0x, v0y = self.x[rows, 1] - x0, self.y[rows, 1] - y0
        v1x, v1y = self.x[rows, 2] - x0, self.y[rows, 2] - y0
        v2x, v2y = points[:, 0] - x0, points[:, 1] - y0
        del x0, y0  # large batches: the live temporaries set the peak memory
        den = v0x * v1y - v0y * v1x
        out = np.empty((len(den), 3))
        np.divide(v2x * v1y - v2y * v1x, den, out=out[:, 1])
        np.divide(v0x * v2y - v0y * v2x, den, out=out[:, 2])
        out[:, 0] = 1.0 - out[:, 1] - out[:, 2]
        return out

    def gradients(self, values):
        """(m, 2) constant gradient of the linear interpolant of nodal ``values``."""
        v = np.asarray(values, dtype=float)[self.verts]
        return np.column_stack([(self.gx * v).sum(axis=1),
                                (self.gy * v).sum(axis=1)])


class TriMesh:
    """Mutable conforming triangular mesh with newest-node labels.

    Attributes
    ----------
    xs, ys : list of float
        Node coordinates.  Nodes are append-only; ids stay contiguous.
    node_boundary : list of bool
        True for nodes lying on the mesh boundary.
    tris : dict
        Alive triangles, id -> (n0, n1, n2).  Vertices are counter-clockwise
        and n2 is the newest node, so (n0, n1) is the base edge.
    edges : dict
        Alive edges, id -> (a, b) with a < b.
    edge_tris : dict
        Edge id -> list of incident triangle ids (length 1 or 2).
    """

    def __init__(self):
        self.xs = []
        self.ys = []
        self.node_boundary = []
        self.tris = {}
        self.edges = {}
        self.edge_tris = {}
        self._edge_key = {}
        self._next_tri = 0
        self._next_edge = 0
        self._locator = None
        self._points_cache = None
        self._table = None

    # -- construction ------------------------------------------------------

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
        mesh = cls()
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite node coordinates")
        mesh.xs, mesh.ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        # (a, b, v) with the newest node v last, then a and b swapped on
        # clockwise triangles
        nw = np.asarray(newest, dtype=int).reshape(-1, 1)
        abv = np.take_along_axis(np.asarray(triangles, dtype=int).reshape(-1, 3),
                                 (nw + [1, 2, 0]) % 3, axis=1)
        (ax, ay), (bx, by), (vx, vy) = pts[abv].transpose(1, 2, 0)
        cw = (bx - ax) * (vy - ay) - (by - ay) * (vx - ax) < 0
        abv[cw, :2] = abv[cw, 1::-1]
        for a, b, v in abv.tolist():
            mesh._add_tri(a, b, v)
        mesh._recompute_boundary_flags()
        mesh._bump()
        return mesh

    # -- basic queries -------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.xs)

    @property
    def n_tris(self):
        return len(self.tris)

    @property
    def points(self):
        """Node coordinates as an (n, 2) array (cached until the mesh changes)."""
        if self._points_cache is None or len(self._points_cache) != self.n_nodes:
            self._points_cache = np.column_stack(
                [np.asarray(self.xs), np.asarray(self.ys)])
        return self._points_cache

    @property
    def tri_table(self):
        """The :class:`TriTable` of the alive triangles (cached until the mesh changes)."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        ids = np.sort(np.fromiter(self.tris, dtype=np.int64, count=len(self.tris)))
        verts = np.array([self.tris[t] for t in ids.tolist()],
                         dtype=np.int64).reshape(-1, 3)
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
        return TriTable(ids, verts, x, y, area, gx, gy)

    def node_xy(self, n):
        return self.xs[n], self.ys[n]

    def edge_id(self, a, b):
        return self._edge_key.get((a, b) if a < b else (b, a))

    def tri_edge_ids(self, t):
        n0, n1, n2 = self.tris[t]
        return (self.edge_id(n0, n1), self.edge_id(n1, n2), self.edge_id(n2, n0))

    def base_edge_of(self, t):
        """Edge id of the edge opposite triangle ``t``'s newest node."""
        n0, n1, _ = self.tris[t]
        return self.edge_id(n0, n1)

    def is_interface_base_edge(self, eid):
        """True when ``eid`` is the base edge of exactly one of two incident triangles."""
        ts = self.edge_tris[eid]
        if len(ts) != 2:
            return False
        flags = [self.base_edge_of(t) == eid for t in ts]
        return flags[0] != flags[1]

    def refinable_edges(self):
        """Ids of edges that are base edges of at least one incident triangle."""
        out = []
        for eid, ts in self.edge_tris.items():
            if any(self.base_edge_of(t) == eid for t in ts):
                out.append(eid)
        return out

    def boundary_nodes(self):
        """Sorted ids of the boundary nodes, as an integer array."""
        return np.flatnonzero(np.asarray(self.node_boundary, dtype=bool))

    def interior_nodes(self):
        """Sorted ids of the interior nodes, as an integer array."""
        return np.flatnonzero(~np.asarray(self.node_boundary, dtype=bool))

    # -- internal mutation ----------------------------------------------------

    def _bump(self):
        """Drop the caches derived from the nodes and triangles."""
        self._locator = None
        self._points_cache = None
        self._table = None

    def _get_edge(self, a, b):
        key = (a, b) if a < b else (b, a)
        eid = self._edge_key.get(key)
        if eid is None:
            eid = self._next_edge
            self._next_edge += 1
            self._edge_key[key] = eid
            self.edges[eid] = key
            self.edge_tris[eid] = []
        return eid

    def _add_tri(self, a, b, v):
        tid = self._next_tri
        self._next_tri += 1
        self.tris[tid] = (a, b, v)
        for u, w in ((a, b), (b, v), (v, a)):
            self.edge_tris[self._get_edge(u, w)].append(tid)
        return tid

    def _remove_tri(self, tid):
        a, b, v = self.tris.pop(tid)
        for u, w in ((a, b), (b, v), (v, a)):
            eid = self.edge_id(u, w)
            if eid is not None:
                self.edge_tris[eid].remove(tid)

    def _delete_edge(self, eid):
        a, b = self.edges.pop(eid)
        del self.edge_tris[eid]
        del self._edge_key[(a, b)]

    # -- refinement -------------------------------------------------------

    def bisect(self, edge_id):
        """Bisect a (interface) base edge, recursing through coarser neighbours.

        For a base edge shared by a triangle pair both triangles are split at
        the edge midpoint and the midpoint becomes the newest node of all
        children.  For an interface base edge the coarse neighbour is refined
        first until the edge is the base edge of both sides.

        Returns
        -------
        list of NewNode
            One entry per node created, including those from recursion.

        Raises
        ------
        NotRefinable
            If the edge id is dead/unknown or not a (interface) base edge.
        """
        if edge_id not in self.edges:
            raise NotRefinable(f"edge {edge_id} is not an edge of the mesh")
        if not any(self.base_edge_of(t) == edge_id for t in self.edge_tris[edge_id]):
            raise NotRefinable(f"edge {edge_id} is not a base edge of any triangle")
        created = []
        stack = [edge_id]
        budget = 8 * len(self.tris) + 64
        while stack:
            budget -= 1
            if budget < 0:
                raise NotRefinable("base-edge recursion does not terminate "
                                   "(cyclic newest-node labels)")
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
            created.append(self._split_base_edge(eid))
        self._bump()
        return created

    def _split_base_edge(self, eid):
        # every incident triangle has eid as its base edge at this point
        a, b = self.edges[eid]
        incident = [(tid, self.tris[tid]) for tid in self.edge_tris[eid]]
        for tid, _ in incident:
            self._remove_tri(tid)
        self._delete_edge(eid)
        boundary = len(incident) == 1
        mid = len(self.xs)
        self.xs.append(0.5 * (self.xs[a] + self.xs[b]))
        self.ys.append(0.5 * (self.ys[a] + self.ys[b]))
        self.node_boundary.append(boundary)
        for tid, (p, q, v) in incident:
            # children (p, mid, v) and (mid, q, v), newest node mid
            self._add_tri(v, p, mid)
            self._add_tri(q, v, mid)
        return NewNode(mid, a, b, boundary)

    def uniform_refine(self):
        """Bisect every triangle along its base edge once (one pass).

        Two passes halve the mesh size h.  Returns the list of nodes created.
        """
        created = []
        for tid in sorted(self.tris):
            if tid in self.tris:
                created.extend(self.bisect(self.base_edge_of(tid)))
        return created

    def refine_wave(self, marked_edges):
        """Bisect each marked edge, skipping ids consumed by earlier recursion."""
        created = []
        for eid in sorted(marked_edges):
            if eid in self.edges:
                created.extend(self.bisect(eid))
        return created

    # -- point location ----------------------------------------------------

    def _build_locator(self):
        tab = self.tri_table
        pts = self.points
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        ng = int(np.clip(np.sqrt(2 * len(tab.ids)) + 1, 1, 1024))
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
        start = np.concatenate(
            [[0], np.cumsum(np.bincount(bins, minlength=ng * ng))])
        order = np.argsort(bins, kind="stable")
        self._locator = (xmin, ymin, xmax, ymax, sx, sy, ng, start, rows[order])

    def locate(self, points):
        """Triangles whose closed hulls contain the points.

        Parameters
        ----------
        points : (k, 2) array_like

        Returns
        -------
        (ids, bary)
            ``ids`` is the (k,) array of triangle ids, -1 for points outside
            the mesh; ``bary`` the (k, 3) barycentric coordinates in those
            triangles (NaN outside).  Points on shared edges or vertices
            resolve to the lowest incident triangle id.
        """
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        if self._locator is None:
            self._build_locator()
        xmin, ymin, xmax, ymax, sx, sy, ng, start, bin_rows = self._locator
        x, y = p[:, 0], p[:, 1]
        pad = 1e-12
        q = np.flatnonzero((x >= xmin - pad) & (x <= xmax + pad)
                           & (y >= ymin - pad) & (y <= ymax + pad))
        b = (np.clip(((x[q] - xmin) / sx).astype(int), 0, ng - 1) * ng
             + np.clip(((y[q] - ymin) / sy).astype(int), 0, ng - 1))
        first = start[b]
        count = start[b + 1] - first
        tab = self.tri_table
        ids = np.full(len(p), -1, dtype=np.int64)
        out = np.full((len(p), 3), np.nan)
        # test the k-th candidate of every unresolved point in pass k; rows
        # ascend within a bin, so a point's first hit has the lowest id
        k = 0
        live = count > 0
        while live.any():
            q, first, count = q[live], first[live], count[live]
            rows = bin_rows[first + k]
            with np.errstate(divide="ignore", invalid="ignore"):
                bary = tab.bary(rows, p[q])
            hit = bary.min(axis=1) >= -BARY_TOL
            ids[q[hit]] = tab.ids[rows[hit]]
            out[q[hit]] = bary[hit]
            k += 1
            live = ~hit & (count > k)
        return ids, out

    # -- derived metrics ----------------------------------------------------

    def near_boundary_ratio(self, radius):
        """Fraction of interior nodes closer than ``radius`` to a boundary node."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        flags = np.asarray(self.node_boundary, dtype=bool)
        interior = self.points[~flags]
        if len(interior) == 0:
            raise ZeroInterior("mesh has no interior nodes")
        boundary = self.points[flags]
        d, _ = cKDTree(boundary).query(interior, k=1)
        return float(np.count_nonzero(d < radius)) / len(interior)

    # -- consistency ---------------------------------------------------------

    def validate(self):
        """Raise AssertionError if any structural invariant is violated."""
        for eid, ts in self.edge_tris.items():
            assert 1 <= len(ts) <= 2, f"edge {eid} has {len(ts)} incident triangles"
            a, b = self.edges[eid]
            for t in ts:
                assert t in self.tris, f"edge {eid} references dead triangle {t}"
                assert a in self.tris[t] and b in self.tris[t]
        derived = self._derive_boundary_flags()
        tab = self.tri_table
        flipped = tab.ids[~(tab.area > 0)]
        assert len(flipped) == 0, f"triangle {flipped[0]} is not counter-clockwise"
        for tid, (a, b, v) in self.tris.items():
            assert len({a, b, v}) == 3, f"triangle {tid} has repeated vertices"
            for eid in self.tri_edge_ids(tid):
                assert eid is not None and tid in self.edge_tris[eid]
        for n in range(self.n_nodes):
            assert self.node_boundary[n] == derived[n], f"boundary flag mismatch at node {n}"

    def _derive_boundary_flags(self):
        flags = [False] * self.n_nodes
        for eid, ts in self.edge_tris.items():
            if len(ts) == 1:
                a, b = self.edges[eid]
                flags[a] = flags[b] = True
        return flags

    def _recompute_boundary_flags(self):
        self.node_boundary = self._derive_boundary_flags()

    # -- submesh extraction ---------------------------------------------------

    def submesh(self, tri_ids):
        """Standalone copy of the triangles ``tri_ids``: their nodes in
        ascending id, then the triangles in ascending id, with newest-node
        labels kept and boundary flags recomputed."""
        tab = self.tri_table
        verts = tab.verts[tab.rows(sorted(tri_ids))]
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
        mesh._recompute_boundary_flags()
    return mesh


# -- trimming ---------------------------------------------------------------


def trim_to_irregular(mesh, data):
    """Remove triangles that contain no data point.

    Triangles are retained when they contain at least one data point or when
    they bridge otherwise disconnected data-bearing components; connectivity
    is restored by breadth-first search from the largest component.  Returns
    a new mesh with renumbered nodes and recomputed boundary flags.
    """
    ids, _ = mesh.locate(data.x)
    bearing = set(ids[ids >= 0].tolist())
    if not bearing:
        raise EmptyResult("no triangle contains a data point")
    retained = _connect_components(mesh, bearing)
    return mesh.submesh(retained)


def _tri_neighbors(mesh, t):
    out = []
    for eid in mesh.tri_edge_ids(t):
        for u in mesh.edge_tris[eid]:
            if u != t:
                out.append(u)
    return out


def _connect_components(mesh, bearing):
    comps = _components_of(mesh, bearing)
    comps.sort(key=lambda c: (-len(c), min(c)))
    retained = set(comps[0])
    pending = comps[1:]
    while pending:
        # BFS through all triangles until another component is reached
        parent = {t: None for t in retained}
        frontier = sorted(retained)
        hit = None
        while frontier and hit is None:
            nxt = []
            for u in frontier:
                for v in sorted(_tri_neighbors(mesh, u)):
                    if v in parent:
                        continue
                    parent[v] = u
                    for i, comp in enumerate(pending):
                        if v in comp:
                            hit = (v, i)
                            break
                    if hit:
                        break
                    nxt.append(v)
                if hit:
                    break
            frontier = nxt
        if hit is None:
            raise EmptyResult("disconnected data components cannot be bridged")
        v, i = hit
        while v is not None and v not in retained:
            retained.add(v)
            v = parent[v]
        retained |= pending.pop(i)
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
    """Ids of the triangles whose centroid lies in the domain of ``loops``."""
    tab = mesh.tri_table
    pts = mesh.points
    a, b, v = tab.verts.T
    centroid = (pts[a] + pts[b] + pts[v]) / 3.0
    return set(tab.ids[inside_polygon(centroid, loops)].tolist())


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
    mesh.xs = (centre[0] + (np.asarray(mesh.xs) - 0.5) * side).tolist()
    mesh.ys = (centre[1] + (np.asarray(mesh.ys) - 0.5) * side).tolist()
    mesh._bump()
    keep = polygon_triangles(mesh, loops)
    if not keep:
        raise EmptyResult("polygon contains no triangle centroid")
    # polygon trimming is authoritative: keep the largest inside component
    # rather than bridging components through outside triangles
    comps = _components_of(mesh, keep)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return mesh.submesh(comps[0])


def _components_of(mesh, tri_set):
    comps, seen = [], set()
    for t in sorted(tri_set):
        if t in seen:
            continue
        comp, queue = {t}, [t]
        seen.add(t)
        while queue:
            u = queue.pop()
            for v in _tri_neighbors(mesh, u):
                if v in tri_set and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


# -- file formats ------------------------------------------------------------


def save_mesh(mesh, path):
    """Write a mesh in the text format ``tpsfem-mesh v1``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MESH_SCHEMA}\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for n in range(mesh.n_nodes):
            fh.write(f"{n} {float(mesh.xs[n])!r} {float(mesh.ys[n])!r} "
                     f"{1 if mesh.node_boundary[n] else 0}\n")
        fh.write(f"tris {mesh.n_tris}\n")
        for t in sorted(mesh.tris):
            a, b, v = mesh.tris[t]
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
    if mesh.node_boundary != [nd[3] == "1" for nd in nodes]:
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
