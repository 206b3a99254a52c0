"""Per-edge and per-element refinement error indicators, held in arrays.

Two indicators drive adaptive refinement:

* recovery: the piecewise constant gradient of the surface is projected onto
  the nodes (lumped-mass L2 projection) and each element's indicator is the
  exact integral of the squared difference between the recovered linear
  gradient field and the element's constant gradient.  An edge gets the
  largest indicator of the triangles it is the base edge of.

* auxiliary: for an edge, a small local smoothing problem is solved on a
  once-uniformly-bisected copy of the surrounding triangle patch, with
  Dirichlet values taken from the current surface on the patch boundary and
  the data points inside the patch; the indicator integrates the squared
  gradient difference between the local and global surfaces over the edge's
  incident triangles.

A field is two arrays, the refinable edges and their values; a builder
carries over the values of a field from before the last refinement wave.
The data by triangle are one table and the patches one padded id array.

The auxiliary problems of many edges are solved as one system.  The
patches are stacked straight from the global triangle table, each with its
own nodes, and ``mesh.bisect_once`` splits every base edge of the stack in
one array pass; the patches share no node, so each refines exactly as it
would alone, and their local problems form one block-diagonal saddle
system.  Its Dirichlet values are the global surface's fields at the copied
nodes; every node the refinement creates gets the mean of its bisected
edge's endpoints from ``mesh.fill_new_nodes``, the rule the driver's
refinement waves use, so each patch trace stays the piecewise linear trace
of the global surface.  The system is assembled by ``assemble_L``,
``assemble_G`` and ``assembly.data_term``, which all sum onto the one
node-pair pattern of the refined stack, and solved by one ``SaddleSystem``
under the solver's residual contract.

The data term is the fit's own kernel, fed with sub-triangle moments.  A
point lies in the same one of the six sub-triangles that one pass can make
of its triangle, whichever patch holds that triangle, so
``mesh.bisection_moments`` places each point of the patch triangles once
per wave, from its barycentric coordinates in its triangle and their exact
maps into the sub-triangles, and takes, per sub-triangle, the
``mesh.cell_moments``: the point count and the sums of the products l_i
l_j and l_i y of its coordinates l there.  Each refined patch triangle
takes the moments of its ``bisect_once`` slot, and ``data_term`` sums them
into A and d with each node's row weighted by 1 / (points in its patch).
"""

from dataclasses import dataclass

import numpy as np

from .assembly import (FemSystem, assemble_G, assemble_L, data_term,
                       locate_dataset)
from .boundary import BoundaryValues
from .exceptions import EmptyField
from .mesh import (TriMesh, _grouped, bisect_once, bisection_moments,
                   fill_new_nodes)
from .solver import FIELDS, SaddleSystem


@dataclass
class IndicatorField:
    """Indicator values of the refinable edges of a mesh: ``edges`` holds
    their ids, ascending, and ``values`` the indicator of each."""
    edges: np.ndarray
    values: np.ndarray


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


def _members(table, groups):
    """The members of the ``groups`` of a ``mesh._grouped`` table ``(order,
    start)``, group after group, and the index into ``groups`` of each."""
    order, start = table
    count = start[groups + 1] - start[groups]
    at = np.repeat(np.arange(len(groups)), count)
    first = np.repeat(start[groups] - np.cumsum(count) + count, count)
    return order[first + np.arange(len(at))], at


def _patch_triangles(mesh, edge_ids):
    """The patch of each edge of ``edge_ids``: the ids, ascending, of its
    incident triangles and their edge-neighbours, as one (k, 14) array with
    -1 in the slots left over, and the mask of the incident ones."""
    tab, et = mesh.tri_table, mesh.edge_table
    seed = et.tris[et.rows(edge_ids)].reshape(-1, 2)
    full = np.where(seed >= 0, seed, seed[:, :1])
    ring = et.tris[et.rows(tab.edges[tab.rows(full)])].reshape(len(seed), 12)
    cand = np.sort(np.hstack([full, ring]), axis=1)
    keep = (cand >= 0) & (np.diff(cand, axis=1, prepend=-1) != 0)
    incident = keep & (cand[:, :, None] == seed[:, None, :]).any(axis=2)
    return np.where(keep, cand, -1), incident


def patch_system(s, data, patches, located_by_tri):
    """The local problems of the triangle sets ``patches`` as one FemSystem.

    ``patches`` holds one patch per row: triangle ids of ``s.mesh``, -1 in
    unused slots.  They are stacked, each with its own nodes, and refined
    once by ``bisect_once``.  The Dirichlet values are the global surface's
    fields on every patch boundary.  The data enter through the moments of
    ``mesh.bisection_moments``, taken once for the points of every patch
    triangle in the ``locate_by_tri`` table: each refined triangle of a
    patch takes the moments of its slot of its source triangle, and
    ``assembly.data_term`` sums them into A and d, so every point counts
    once in every patch that holds its triangle.  A and d average over each
    patch's own points, so each must hold one.

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
    patch, col = np.nonzero(patches >= 0)
    tris = src.rows(patches[patch, col])
    keys, verts = np.unique(patch[:, None] * s.mesh.n_nodes + src.verts[tris],
                            return_inverse=True)
    nodes = keys % s.mesh.n_nodes
    children, origin, slot, final, parents = bisect_once(
        verts.reshape(-1, 3), len(nodes))
    children, origin, slot = children[final], origin[final], slot[final]
    pts = s.mesh.points[nodes]
    pts = np.vstack([pts, 0.5 * (pts[parents[:, 0]] + pts[parents[:, 1]])])
    local = TriMesh.from_arrays(pts, children, np.full(len(children), 2))
    n = local.n_nodes
    held, at = np.unique(tris, return_inverse=True)
    point, within = _members(located_by_tri, held)
    moments = bisection_moments(
        s.mesh.points, src.verts[held], within,
        np.asarray(data.x, dtype=float)[point],
        np.asarray(data.y, dtype=float)[point])[at[origin], slot]
    node_patch = np.zeros(n, dtype=np.int64)
    node_patch[children] = patch[origin][:, None]
    A, d = data_term(local, moments, 1.0 / np.bincount(
        patch[origin], moments[:, 0], minlength=len(patches))[node_patch])
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
                    located=None, bv=bv)
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
    located_by_tri : (ndarray, ndarray), optional
        The ``locate_by_tri`` table of the data points by triangle of
        ``s.mesh``; the data are located when it is absent.

    An edge whose patch holds no data point, or whose refined patch has no
    interior node, gets 0.  The solve keeps the solver's contract: one
    direct factorisation, SingularSystem if it fails and NonConvergence if
    the residual misses the target.
    """
    mesh = s.mesh
    if located_by_tri is None:
        located_by_tri = locate_by_tri(mesh, locate_dataset(mesh, data))
    eta = np.zeros(len(edge_ids))
    patches, incident = _patch_triangles(mesh, edge_ids)
    held = np.diff(located_by_tri[1])[np.searchsorted(mesh.tri_table.ids,
                                                      patches)]
    kept = np.flatnonzero(((patches >= 0) & (held > 0)).any(axis=1))
    if not len(kept):
        return eta
    patches, incident = patches[kept], incident[kept]
    fem, trace, origin = patch_system(s, data, patches, located_by_tri)
    c = trace[:, FIELDS.index("c")]
    shat = c
    if len(fem.mesh.interior_nodes()):
        shat = SaddleSystem(fem, alpha).solve().c

    # integrate |grad shat - grad s|^2 over the refined seed triangles
    tab = fem.mesh.tri_table
    patch, col = np.nonzero(patches >= 0)
    rows = incident[patch, col][origin]
    grad = tab.gradients(shat - c)
    energy = np.bincount(patch[origin][rows],
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


def _carried(field, edges):
    """The values ``field`` holds for the ascending ``edges``, 0 for those
    it lacks, and the mask of the edges it holds."""
    field = field or IndicatorField(edges[:0], np.zeros(0))
    values, known = np.zeros(len(edges)), np.isin(edges, field.edges)
    values[known] = field.values[np.isin(field.edges, edges)]
    return values, known


def recovery_field(s, field=None, new_tri_floor=0):
    """Recovery field of ``s``: each refinable edge gets the largest element
    indicator of the triangles it is the base edge of, among those with ids
    from ``new_tri_floor`` on and the value it carries over from ``field``."""
    tab = s.mesh.tri_table
    edges = s.mesh.refinable_edges()
    values, _ = _carried(field, edges)
    rows = np.flatnonzero(tab.ids >= new_tri_floor)
    np.maximum.at(values, np.searchsorted(edges, tab.edges[rows, 0]),
                  recovery_indicator(s, tab.ids[rows]))
    return IndicatorField(edges, values)


def auxiliary_field(s, data, alpha, located_by_tri=None, field=None):
    """Auxiliary indicators of every refinable edge; only the edges that
    ``field`` lacks are computed, in one ``auxiliary_indicators`` batch."""
    edges = s.mesh.refinable_edges()
    values, known = _carried(field, edges)
    values[~known] = auxiliary_indicators(s, data, edges[~known], alpha,
                                          located_by_tri)
    return IndicatorField(edges, values)


def locate_by_tri(mesh, located):
    """The ``mesh._grouped`` table ``(order, start)`` of the data's
    ``Located`` on ``mesh``: the indices into the data of the points in the
    triangle of row r of ``mesh.tri_table`` are ``order[start[r]:start[r +
    1]]``, ascending."""
    order, start = _grouped(located.rows, mesh.n_tris)
    return located.indices[order], start


def mark(field, fraction_cap=0.5):
    """Maximum marking: the edges with eta >= fraction_cap * max(eta)."""
    if not len(field.values):
        raise EmptyField("indicator field has no entries")
    return field.edges[field.values >= fraction_cap * field.values.max()]
