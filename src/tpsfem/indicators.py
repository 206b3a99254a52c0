"""Per-edge and per-element refinement error indicators.

Two indicators drive adaptive refinement:

* recovery: the piecewise constant gradient of the surface is projected onto
  the nodes (lumped-mass L2 projection) and each element's indicator is the
  exact integral of the squared difference between the recovered linear
  gradient field and the element's constant gradient.

* auxiliary: for an edge, a small local smoothing problem is solved on a
  once-uniformly-bisected copy of the surrounding triangle patch, with
  Dirichlet values taken from the current surface on the patch boundary and
  the data points inside the patch; the indicator integrates the squared
  gradient difference between the local and global surfaces over the edge's
  incident triangles.

The auxiliary problems of many edges are solved as one batch.  Each patch
keeps its exact refined topology (a copy refined by ``uniform_refine``), but
the refined triangles of all patches form one stacked triangle table, so the
element matrices (the closed forms of ``assemble_L`` and ``assemble_G``),
the data terms, the Dirichlet elimination of the saddle layout
(``solver.saddle_blocks``), the dense solves and the gradient integrals are
array operations across all patches.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .assembly import element_G, element_L
from .exceptions import EmptyField, NonConvergence, SingularSystem
from .mesh import TriTable
from .solver import FIELDS, RESIDUAL_TOL, saddle_blocks


@dataclass
class IndicatorField:
    """Edge-keyed indicator values of one kind ("recovery" or "auxiliary")."""
    values: dict
    kind: str


def recovery_indicator(s, tri_ids):
    """Element indicators of triangles ``tri_ids`` from the recovered gradient.

    The nodal gradient is the lumped-mass L2 projection of the piecewise
    constant surface gradient; each indicator is the exact L2 norm over its
    triangle of the difference between that recovered (linear) gradient and
    the triangle's constant one.  Pure function of (mesh, c); returns a
    (k,) array.
    """
    tab = s.mesh.tri_table
    grad = tab.gradients(s.c)
    mass = tab.area / 3.0
    num = np.zeros((s.mesh.n_nodes, 2))
    den = np.zeros(s.mesh.n_nodes)
    np.add.at(num, tab.verts, (mass[:, None] * grad)[:, None, :])
    np.add.at(den, tab.verts, mass[:, None])
    rows = tab.rows(tri_ids)
    nodes = tab.verts[rows]
    d = num[nodes] / den[nodes, None] - grad[rows, None, :]
    # exact integral of a linear field squared: T/12 * ((sum d)^2 + sum d^2)
    per_axis = (tab.area[rows, None] / 12.0) * (d.sum(axis=1) ** 2
                                               + (d ** 2).sum(axis=1))
    return np.sqrt(per_axis.sum(axis=1))


# -- auxiliary problem ---------------------------------------------------------


def _patch_triangles(mesh, edge_id):
    """Incident triangles of the edge plus their edge-neighbours."""
    seed = list(mesh.edge_tris[edge_id])
    patch = set(seed)
    for t in seed:
        for eid in mesh.tri_edge_ids(t):
            patch.update(mesh.edge_tris[eid])
    return patch, seed


class PatchStack(namedtuple("PatchStack", [
        "tab", "tri_patch", "origin", "first_tri", "node_patch", "boundary",
        "copied", "split"])):
    """Refined copies of many triangle patches, numbered as one mesh.

    Attributes
    ----------
    tab : TriTable
        Every refined triangle of every patch; ``tab.verts`` index the
        stacked nodes and ``tab.ids`` are stacked triangle ids.
    tri_patch : (m,) ndarray
        Patch of each row of ``tab``.
    origin : (m,) ndarray
        Stacked id of the patch triangle each row descends from.
    first_tri : (P,) ndarray
        Stacked id of each patch's first triangle: the triangles of patch p,
        in ascending mesh id order, are ``first_tri[p] + 0, 1, ...``.
    node_patch : (n,) ndarray
        Patch of each stacked node; each patch's nodes are contiguous.
    boundary : (n,) bool ndarray
        True for nodes on the boundary of their patch.
    copied : (n,) ndarray
        Mesh node that each node copies, -1 for nodes made by refinement.
    split : (k, 3) ndarray
        (node, a, b) for each node made by refinement, in creation order:
        the node is the midpoint of the edge (a, b).
    """
    __slots__ = ()


def stack_patches(mesh, patches):
    """Copy each triangle set of ``patches``, refine it uniformly once, and
    number all the copies as one :class:`PatchStack`."""
    xs, ys, boundary, node_patch, copied, split = [], [], [], [], [], []
    parent, first_tri, verts, ids = [], [], [], []
    for p, tris in enumerate(patches):
        local, node_map, _ = mesh.copy_submesh(tris)
        events = local.uniform_refine()
        n0, t0 = len(xs), len(parent)
        first_tri.append(t0)
        xs += local.xs
        ys += local.ys
        boundary += local.node_boundary
        node_patch += [p] * local.n_nodes
        # copy_submesh numbers the copied nodes in increasing order
        copied += sorted(node_map) + [-1] * len(events)
        split += [(n0 + e.node, n0 + e.parent_a, n0 + e.parent_b)
                  for e in events]
        up = list(range(t0, t0 + local._next_tri))
        for child, par in local.tri_parent.items():
            up[child] = t0 + par
        parent += up
        for t in sorted(local.tris):
            ids.append(t0 + t)
            verts.append([n0 + v for v in local.tris[t]])
    ids = np.array(ids, dtype=np.int64)
    parent = np.array(parent, dtype=np.int64)
    # the copied patch triangles are their own parents; any depth of
    # bisection reaches them
    origin = parent[ids]
    while True:
        up = parent[origin]
        if np.array_equal(up, origin):
            break
        origin = up
    first_tri = np.array(first_tri, dtype=np.int64)
    tri_patch = np.searchsorted(first_tri, ids, side="right") - 1
    tab = TriTable.build(ids, np.array(verts, dtype=np.int64).reshape(-1, 3),
                         np.column_stack([xs, ys]).reshape(-1, 2))
    return PatchStack(tab=tab,
                      tri_patch=tri_patch, origin=origin, first_tri=first_tri,
                      node_patch=np.array(node_patch, dtype=np.int64),
                      boundary=np.array(boundary, dtype=bool),
                      copied=np.array(copied, dtype=np.int64),
                      split=np.array(split, dtype=np.int64).reshape(-1, 3))


def _containing_rows(stack, origin, points):
    """Row of ``stack.tab`` holding each point among the refined descendants
    of its patch triangle ``origin``, and its barycentric coordinates there.

    The descendant where the point's smallest barycentric coordinate is
    largest holds it; on a shared edge either side gives the same basis
    values.
    """
    order = np.argsort(stack.origin, kind="stable")
    count = np.bincount(stack.origin)
    start = np.cumsum(count) - count
    k = np.arange(count.max())
    valid = k < count[origin][:, None]
    cand = order[start[origin][:, None] + np.where(valid, k, 0)]
    bary = stack.tab.bary(cand.ravel(), np.repeat(points, len(k), axis=0))
    bary = bary.reshape(len(points), len(k), 3)
    pick = np.where(valid, bary.min(axis=2), -np.inf).argmax(axis=1)
    hit = np.arange(len(points))
    return cand[hit, pick], bary[hit, pick]


def _data_terms(stack, origin, points, y, n_patches):
    """Element data matrices A_e = sum b bᵀ / k and vectors d_e = sum b y / k
    of the points in each refined triangle, k counting the patch's points."""
    rows, b = _containing_rows(stack, origin, points)
    m = len(stack.tab.ids)
    k = np.bincount(stack.tri_patch[rows], minlength=n_patches)
    k = k[stack.tri_patch]
    A_e = np.bincount((9 * rows[:, None] + np.arange(9)).ravel(),
                      (b[:, :, None] * b[:, None, :]).ravel(),
                      minlength=9 * m).reshape(m, 3, 3)
    d_e = np.bincount((3 * rows[:, None] + np.arange(3)).ravel(),
                      (b * y[:, None]).ravel(), minlength=3 * m).reshape(m, 3)
    return A_e / k[:, None, None], d_e / k[:, None]


def _nodal_values(stack, s):
    """(n, 4) FIELDS of the global surface at the stacked nodes.

    A node made by refinement is the midpoint of its edge, so every patch
    trace stays the piecewise linear trace of the global surface.
    """
    vals = np.zeros((len(stack.copied), len(FIELDS)))
    known = stack.copied >= 0
    vals[known] = np.column_stack([getattr(s, f) for f in FIELDS])[
        stack.copied[known]]
    todo = stack.split
    while len(todo):  # a midpoint may need midpoints made before it
        node, a, b = todo.T
        ready = known[a] & known[b]
        vals[node[ready]] = 0.5 * (vals[a[ready]] + vals[b[ready]])
        known[node[ready]] = True
        todo = todo[~ready]
    return vals


def _solve_stack(K, b):
    """Solve each system of a (p, m, m) stack to the solver's residual target.

    A singular system raises SingularSystem; a solution whose max-norm
    residual relative to its right-hand side misses RESIDUAL_TOL raises
    NonConvergence.
    """
    try:
        x = np.linalg.solve(K, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as err:
        raise SingularSystem(f"auxiliary patch system: {err}") from err
    r = np.abs(np.einsum("pij,pj->pi", K, x) - b).max(axis=1)
    scale = np.abs(b).max(axis=1)
    resid = np.divide(r, scale, out=np.zeros_like(r), where=scale > 0)
    missed = np.flatnonzero(~(resid <= RESIDUAL_TOL))
    if len(missed):
        # flag 0: the dense solve returned, but its answer is not accurate
        raise NonConvergence(
            "auxiliary patch solve did not reach the residual target",
            diagnostics={"flag": 0, "residual": float(resid[missed[0]]),
                         "unknowns": K.shape[1]})
    return x


def _solve_patches(stack, blocks, d_e, vals, n_patches):
    """Local solution at the stacked nodes: its c field, pinned to ``vals``
    on the patch boundaries.

    Each patch's unknowns are the FIELDS of its interior nodes, node by
    node; the patch systems are assembled back to back in flat arrays from
    the (m, 3, 3) element ``blocks`` of the saddle layout, the pinned
    columns moved to the right-hand side, and solved by size.
    """
    nf = len(FIELDS)
    interior = ~stack.boundary
    n_int = np.bincount(stack.node_patch[interior], minlength=n_patches)
    size = nf * n_int
    rhs_start = np.cumsum(size) - size
    mat_start = np.cumsum(size ** 2) - size ** 2
    # first unknown of each interior node within its patch
    pos = nf * (np.cumsum(interior) - 1
                - (np.cumsum(n_int) - n_int)[stack.node_patch])
    verts, p = stack.tab.verts, stack.tri_patch
    row_free = interior[verts][:, :, None]
    col_free = interior[verts][:, None, :]
    free, pinned = row_free & col_free, row_free & ~col_free
    row_pos, col_pos = pos[verts][:, :, None], pos[verts][:, None, :]
    row_at = np.broadcast_to(rhs_start[p][:, None, None] + row_pos,
                             pinned.shape)
    width = size[p][:, None, None]
    mat_at = mat_start[p][:, None, None] + row_pos * width + col_pos
    K = np.zeros(int(size @ size))
    rhs = np.zeros(int(size.sum()))
    for i, block_row in enumerate(blocks):
        for j, M in enumerate(block_row):
            if M is None:
                continue
            at = mat_at + i * width + j
            K += np.bincount(at[free], M[free], minlength=len(K))
            rhs -= np.bincount((row_at + i)[pinned],
                               (M * vals[verts, j][:, None, :])[pinned],
                               minlength=len(rhs))
    c = FIELDS.index("c")
    rhs += np.bincount((row_at[:, :, 0] + c)[row_free[:, :, 0]],
                       d_e[row_free[:, :, 0]], minlength=len(rhs))
    x = np.zeros(len(rhs))
    for n in np.unique(size[size > 0]):
        ps = np.flatnonzero(size == n)
        cut = rhs_start[ps, None] + np.arange(n)
        x[cut] = _solve_stack(
            K[mat_start[ps, None] + np.arange(n * n)].reshape(-1, n, n),
            rhs[cut])
    shat = vals[:, c].copy()
    shat[interior] = x[(rhs_start[stack.node_patch] + pos + c)[interior]]
    return shat


def auxiliary_indicators(s, data, edge_ids, alpha, located_by_tri=None):
    """Auxiliary indicators of the edges ``edge_ids`` as one (k,) array.

    Every edge gets a local smoothing problem on a once-refined copy of its
    patch: the incident triangles plus their edge-neighbours.  The data
    inside the patch come from ``located_by_tri`` and are placed among the
    refined descendants of their triangles, without another point location.
    All the problems are assembled together, solved with one dense
    ``np.linalg.solve`` per system size, and integrated together (see the
    module docstring).

    Parameters
    ----------
    s : Smoother
        Current global surface (supplies Dirichlet traces and gradients).
    data : DataSet
    edge_ids : sequence of int
    alpha : float
        Smoothing parameter of the local problems (the global one).
    located_by_tri : dict, optional
        Map triangle id -> indices into ``data`` of the points it contains;
        computed on the fly when absent.

    An edge whose patch holds no data point, or whose refined patch has no
    interior node, gets 0.  Each local solve must reach the solver's
    residual target: a miss raises NonConvergence, a singular local system
    SingularSystem.
    """
    mesh = s.mesh
    if located_by_tri is None:
        located_by_tri = locate_by_tri(mesh, data)
    eta = np.zeros(len(edge_ids))
    kept, patches, seeds, found = [], [], [], []
    for k, eid in enumerate(edge_ids):
        patch, seed = _patch_triangles(mesh, eid)
        tris = sorted(patch)
        inside = [located_by_tri.get(t, ()) for t in tris]
        if any(len(i) for i in inside):
            kept.append(k)
            patches.append(tris)
            seeds.append([tris.index(t) for t in seed])
            found.append(inside)
    if not kept:
        return eta
    stack = stack_patches(mesh, patches)
    tab = stack.tab

    # stacked ids of the patch triangle of every (patch, point) pair
    origin = np.concatenate([stack.first_tri[p] + np.arange(len(f))
                             for p, f in enumerate(found)])
    point = np.concatenate([np.asarray(i, dtype=np.int64)
                            for f in found for i in f])
    origin = np.repeat(origin, [len(i) for f in found for i in f])
    A_e, d_e = _data_terms(stack, origin,
                           np.asarray(data.x, dtype=float)[point],
                           np.asarray(data.y, dtype=float)[point], len(kept))
    blocks = saddle_blocks(A_e, element_L(tab), element_G(tab, 1),
                           element_G(tab, 2), alpha,
                           lambda M: M.swapaxes(1, 2))
    vals = _nodal_values(stack, s)
    shat = _solve_patches(stack, blocks, d_e, vals, len(kept))

    # integrate |grad shat - grad s|^2 over the refined seed triangles
    seed_ids = np.concatenate([stack.first_tri[p] + np.asarray(sd)
                               for p, sd in enumerate(seeds)])
    rows = np.isin(stack.origin, seed_ids)
    grad = tab.gradients(shat - vals[:, FIELDS.index("c")])
    energy = np.bincount(stack.tri_patch[rows],
                         (tab.area * np.sum(grad ** 2, axis=1))[rows],
                         minlength=len(kept))
    eta[kept] = np.sqrt(energy)
    return eta


def auxiliary_indicator(s, data, edge_id, alpha, located_by_tri=None):
    """Auxiliary indicator of one edge: ``auxiliary_indicators`` for the
    single edge ``edge_id``, as a float."""
    return float(auxiliary_indicators(s, data, [edge_id], alpha,
                                      located_by_tri)[0])


# -- field construction and marking ---------------------------------------------


def recovery_field(s):
    """Element indicators mapped to base edges (max over incident triangles)."""
    values = {}
    ids = s.mesh.tri_table.ids
    raise_to_base_edges(values, s.mesh, ids, recovery_indicator(s, ids))
    return IndicatorField(values=values, kind="recovery")


def raise_to_base_edges(values, mesh, tri_ids, etas):
    """Raise ``values[base edge of t]`` to at least ``eta`` for every pair."""
    for t, eta in zip(tri_ids.tolist(), etas.tolist()):
        eid = mesh.base_edge_of(t)
        values[eid] = max(values.get(eid, 0.0), eta)


def auxiliary_field(s, data, alpha, located_by_tri=None):
    """Auxiliary indicators for every refinable edge."""
    edges = s.mesh.refinable_edges()
    etas = auxiliary_indicators(s, data, edges, alpha, located_by_tri)
    return IndicatorField(values=dict(zip(edges, etas.tolist())),
                          kind="auxiliary")


def locate_by_tri(mesh, data):
    """Map triangle id -> ascending array of data indices located inside it."""
    ids, _ = mesh.locate(data.x)
    idx = np.flatnonzero(ids >= 0)
    idx = idx[np.argsort(ids[idx], kind="stable")]
    tris, first = np.unique(ids[idx], return_index=True)
    return dict(zip(tris.tolist(), np.split(idx, first[1:])))


def mark(field, fraction_cap=0.5):
    """Maximum marking: edges with eta >= fraction_cap * max(eta)."""
    if not field.values:
        raise EmptyField("indicator field has no entries")
    peak = max(field.values.values())
    thr = fraction_cap * peak
    return {eid for eid, eta in field.values.items() if eta >= thr}
