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

The auxiliary problems of many edges are solved as one system.  The
patches are stacked straight from the global triangle table, each with its
own nodes, and ``mesh.bisect_once`` splits every base edge of the stack in
one array pass; the patches share no node, so each refines exactly as it
would alone, and their local problems form one block-diagonal saddle
system.  Its Dirichlet values are the global surface's fields at the copied
nodes; every node the refinement creates gets the mean of its bisected
edge's endpoints from ``mesh.fill_new_nodes``, the rule the driver's
refinement waves use, so each patch trace stays the piecewise linear trace
of the global surface.  The system is assembled by ``assemble_L`` and
``assemble_G``, with each patch's data term averaged over its own points,
and solved by one ``SaddleSystem`` under the solver's residual contract.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import FemSystem, Located, assemble_G, assemble_L
from .boundary import BoundaryValues
from .exceptions import EmptyField
from .mesh import TriMesh, bisect_once, fill_new_nodes
from .solver import FIELDS, SaddleSystem


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


def _containing_rows(tab, origin, within, points):
    """Row of ``tab`` holding each point among the rows whose ``origin`` is
    the point's ``within`` triangle, and its barycentric coordinates there.

    The descendant where the point's smallest barycentric coordinate is
    largest holds it; on a shared edge either side gives the same basis
    values.
    """
    order = np.argsort(origin, kind="stable")
    count = np.bincount(origin)
    start = np.cumsum(count) - count
    k = np.arange(count.max())
    valid = k < count[within][:, None]
    cand = order[start[within][:, None] + np.where(valid, k, 0)]
    bary = tab.bary(cand.ravel(), np.repeat(points, len(k), axis=0))
    bary = bary.reshape(len(points), len(k), 3)
    pick = np.where(valid, bary.min(axis=2), -np.inf).argmax(axis=1)
    hit = np.arange(len(points))
    return cand[hit, pick], bary[hit, pick]


def patch_system(s, data, patches, located_by_tri):
    """The local problems of the triangle sets ``patches`` as one FemSystem.

    The patches are stacked straight from the triangle table of ``s.mesh``,
    each with its own nodes, and refined once by ``bisect_once``.  The
    Dirichlet values are the global surface's fields on every patch
    boundary.  Every data point of a patch triangle is one row of the basis
    matrix B of that patch, placed among the refined descendants of its
    triangle without another point location.  A and d average over each
    patch's own points, so every patch must hold at least one.

    Returns
    -------
    (FemSystem, ndarray, ndarray)
        The system on the refined stack ``fem.mesh``; the (n, 4) FIELDS of
        the global surface at its nodes; and, row by row of its triangle
        table, the stacked patch triangle each triangle descends from: the
        triangles of ``patches[0]`` are 0, 1, ..., those of ``patches[1]``
        follow, and so on.
    """
    src = s.mesh.tri_table
    tris = np.concatenate(patches)
    patch = np.repeat(np.arange(len(patches)), [len(p) for p in patches])
    keys, verts = np.unique(patch[:, None] * s.mesh.n_nodes
                            + src.verts[src.rows(tris)], return_inverse=True)
    nodes = keys % s.mesh.n_nodes
    children, origin, parents = bisect_once(verts.reshape(-1, 3), len(nodes))
    pts = s.mesh.points[nodes]
    pts = np.vstack([pts, 0.5 * (pts[parents[:, 0]] + pts[parents[:, 1]])])
    local = TriMesh.from_arrays(pts, children, np.full(len(children), 2))
    tab = local.tri_table
    inside = [np.asarray(located_by_tri.get(t, ()), dtype=np.int64)
              for t in tris.tolist()]
    within = np.repeat(np.arange(len(tris)), [len(i) for i in inside])
    point = np.concatenate(inside)
    rows, bary = _containing_rows(tab, origin, within,
                                  np.asarray(data.x, dtype=float)[point])
    n, k = local.n_nodes, len(point)
    B = sp.csr_matrix((bary.ravel(), tab.verts[rows].ravel(),
                       np.arange(0, 3 * k + 1, 3)), shape=(k, n))
    node_patch = np.zeros(n, dtype=np.int64)
    node_patch[tab.verts] = patch[origin][:, None]
    # BᵀB is exactly symmetric and block diagonal by patch, so scaling its
    # rows by the patch's 1 / (point count) keeps A exactly symmetric
    weight = 1.0 / np.bincount(patch[within],
                               minlength=len(patches))[node_patch]
    A = (sp.diags(weight) @ (B.T @ B)).tocsr()
    d = weight * (B.T @ np.asarray(data.y, dtype=float)[point])
    trace = np.zeros((n, len(FIELDS)))
    trace[:len(nodes)] = np.column_stack([getattr(s, f)[nodes]
                                          for f in FIELDS])
    fill_new_nodes(trace, np.column_stack([np.arange(len(nodes), n), parents]),
                   np.arange(n) < len(nodes))
    b = local.boundary_nodes()
    bv = BoundaryValues(nodes=b, **{f: trace[b, i]
                                    for i, f in enumerate(FIELDS)})
    fem = FemSystem(mesh=local, A=A, d=d, L=assemble_L(local),
                    G1=assemble_G(local, 1), G2=assemble_G(local, 2),
                    located=Located(point, B, 0), bv=bv)
    return fem, trace, origin


def auxiliary_indicators(s, data, edge_ids, alpha, located_by_tri=None):
    """Auxiliary indicators of the edges ``edge_ids`` as one (k,) array.

    Every edge gets a local smoothing problem on a once-refined copy of its
    patch: the incident triangles plus their edge-neighbours.  All the
    problems are built by ``patch_system``, solved by one ``SaddleSystem``
    and integrated together (see the module docstring).

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
    interior node, gets 0.  The solve keeps the solver's contract: one
    direct factorisation, SingularSystem if it fails and NonConvergence if
    the residual misses the target.
    """
    mesh = s.mesh
    if located_by_tri is None:
        located_by_tri = locate_by_tri(mesh, data)
    eta = np.zeros(len(edge_ids))
    kept, patches, in_seed = [], [], []
    for k, eid in enumerate(edge_ids):
        patch, seed = _patch_triangles(mesh, eid)
        tris = sorted(patch)
        if any(len(located_by_tri.get(t, ())) for t in tris):
            kept.append(k)
            patches.append(tris)
            in_seed += [t in seed for t in tris]
    if not kept:
        return eta
    fem, trace, origin = patch_system(s, data, patches, located_by_tri)
    c = trace[:, FIELDS.index("c")]
    shat = c
    if len(fem.mesh.interior_nodes()):
        shat = SaddleSystem(fem, alpha).solve().c

    # integrate |grad shat - grad s|^2 over the refined seed triangles
    tab = fem.mesh.tri_table
    rows = np.asarray(in_seed)[origin]
    patch = np.repeat(np.arange(len(kept)), [len(p) for p in patches])[origin]
    grad = tab.gradients(shat - c)
    energy = np.bincount(patch[rows],
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
