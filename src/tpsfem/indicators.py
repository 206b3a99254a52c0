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
"""

from dataclasses import dataclass

import numpy as np

from .assembly import FemSystem
from .boundary import BoundaryValues
from .data import DataSet
from .exceptions import EmptyField, SingularSystem
from .solver import SaddleSystem


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


def auxiliary_indicator(s, data, edge_id, alpha, located_by_tri=None):
    """Edge indicator from a locally refined auxiliary smoothing problem.

    Parameters
    ----------
    s : Smoother
        Current global surface (supplies Dirichlet traces and gradients).
    data : DataSet
    edge_id : int
    alpha : float
        Smoothing parameter of the local problem (the global one).
    located_by_tri : dict, optional
        Map triangle id -> indices into ``data`` of the points it contains;
        computed on the fly when absent.

    Returns 0 when the patch contains no data point.
    """
    mesh = s.mesh
    patch, seed = _patch_triangles(mesh, edge_id)
    if located_by_tri is None:
        located_by_tri = locate_by_tri(mesh, data)
    pt_idx = [i for t in patch for i in located_by_tri.get(t, ())]
    if not pt_idx:
        return 0.0
    local, node_map, tri_map = mesh.copy_submesh(patch)
    # nodal values of the global surface on the patch, all four fields;
    # copy_submesh numbers the patch nodes in increasing order
    patch_nodes = np.array(sorted(node_map))
    vals = {name: getattr(s, name)[patch_nodes]
            for name in ("c", "g1", "g2", "w")}
    events = local.uniform_refine()
    for ev in events:  # midpoint values reproduce the piecewise linear trace
        for name in ("c", "g1", "g2", "w"):
            vals[name] = np.append(
                vals[name],
                0.5 * (vals[name][ev.parent_a] + vals[name][ev.parent_b]))
    bnodes = np.asarray(local.boundary_nodes(), dtype=int)
    bv = BoundaryValues(nodes=bnodes, c=vals["c"][bnodes],
                        g1=vals["g1"][bnodes], g2=vals["g2"][bnodes],
                        w=vals["w"][bnodes])
    ldata = DataSet(np.asarray(data.x, dtype=float)[pt_idx],
                    np.asarray(data.y, dtype=float)[pt_idx])
    fem = FemSystem.build(local, ldata, bv=bv)
    try:
        shat = SaddleSystem(fem, alpha).solve()
    except SingularSystem:
        # no interior unknowns: the local surface is pinned to the trace of
        # the global one, so the gradient difference vanishes identically
        return 0.0
    # integrate |grad shat - grad s|^2 over the edge's incident triangles,
    # i.e. over the alive triangles whose ancestry reaches a seed triangle
    seed_local = {tri_map[t] for t in seed}

    def in_seed(t):
        while t is not None and t not in seed_local:
            t = local.tri_parent.get(t)
        return t is not None

    tab = local.tri_table
    rows = np.flatnonzero([in_seed(t) for t in tab.ids.tolist()])
    # the global surface is linear on every descendant triangle
    diff = tab.gradients(shat.c - vals["c"])[rows]
    return float(np.sqrt(np.sum(tab.area[rows] * np.sum(diff ** 2, axis=1))))


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
    mesh = s.mesh
    if located_by_tri is None:
        located_by_tri = locate_by_tri(mesh, data)
    values = {}
    for eid in mesh.refinable_edges():
        values[eid] = auxiliary_indicator(s, data, eid, alpha, located_by_tri)
    return IndicatorField(values=values, kind="auxiliary")


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
