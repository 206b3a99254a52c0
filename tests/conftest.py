import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from tpsfem.mesh import TriMesh, build_square_mesh


def make_two_triangle_square():
    """Unit square split along the diagonal; the diagonal is the base edge."""
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 2, 1), (2, 0, 3)]   # ccw, newest last, base edge = (0, 2)
    return TriMesh.from_arrays(pts, tris, newest=[2, 2])


def make_unit_right_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    return TriMesh.from_arrays(pts, [(0, 1, 2)], newest=[2])


def make_interface_strip(k):
    """Strip of 2k right triangles whose base edges form a blocking chain.

    Bisecting the base edge of the first triangle forces recursion through
    all 2k-1 downstream triangles before the first split can happen.
    """
    pts = []
    for i in range(k + 1):
        pts.append((float(i), 0.0))   # u_i -> id 2i
        pts.append((float(i), 1.0))   # v_i -> id 2i+1
    u = lambda i: 2 * i
    v = lambda i: 2 * i + 1
    tris, newest = [], []
    for i in range(k):
        # upper triangle (u_i, v_{i+1}, v_i): newest v_i, base = diagonal
        tris.append((u(i), v(i + 1), v(i)))
        newest.append(2)
        # lower triangle (u_{i+1}, v_{i+1}, u_i): newest u_i, base = vertical
        tris.append((u(i + 1), v(i + 1), u(i)))
        newest.append(2)
    return TriMesh.from_arrays(pts, tris, newest)


def make_fan_mesh(interior_xy=(0.5, 0.5)):
    """Five boundary nodes with one interior node fanned by five triangles."""
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.0), interior_xy]
    tris = [(0, 4, 5), (4, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)]
    return TriMesh.from_arrays(pts, tris, newest=[2] * 5)


def edge_between(mesh, a, b):
    """Id of the edge joining nodes ``a`` and ``b``."""
    et = mesh.edge_table
    return int(et.ids[np.all(et.nodes == sorted((a, b)), axis=1)][0])


def base_edge(mesh, t):
    """Id of the base edge of triangle ``t``."""
    tab = mesh.tri_table
    return int(tab.edges[tab.rows([t])[0], 0])


@pytest.fixture
def square_mesh():
    return build_square_mesh(0)


def total_area(mesh):
    return float(mesh.tri_table.area.sum())


def all_angles(mesh):
    """Interior angles of every triangle, in degrees."""
    tab = mesh.tri_table
    p = np.stack([tab.x, tab.y], axis=2)
    u = np.roll(p, -1, axis=1) - p
    v = np.roll(p, -2, axis=1) - p
    cos = (u * v).sum(axis=2) / (np.linalg.norm(u, axis=2)
                                 * np.linalg.norm(v, axis=2))
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).ravel()


def max_nearest_gap(points):
    """Largest nearest-neighbour distance within a point set."""
    pts = np.asarray(points, dtype=float)
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(d[:, 1].max())


def coverage_gap(sample_points, reference_points):
    """Largest distance from any reference point to its nearest sample.

    This is the quantity stratified (quadtree) sampling bounds: the radius
    of the biggest hole the subsample leaves in the data cloud.
    """
    d, _ = cKDTree(np.asarray(sample_points, dtype=float)).query(
        np.asarray(reference_points, dtype=float), k=1)
    return float(d.max())


def failing_splu(monkeypatch):
    """Make every sparse factorisation fail as SuperLU does on a singular
    matrix."""
    def fail(*args, **kwargs):
        raise RuntimeError("factor is exactly singular")
    monkeypatch.setattr(spla, "splu", fail)


def perturbed_splu(monkeypatch, perturb):
    """Make every LU solve return ``perturb(x)`` in place of its solution x."""
    splu = spla.splu

    class Perturbed:
        def __init__(self, matrix, **kwargs):
            self._lu = splu(matrix, **kwargs)

        def __getattr__(self, name):
            return getattr(self._lu, name)

        def solve(self, b):
            return perturb(self._lu.solve(b))
    monkeypatch.setattr(spla, "splu", Perturbed)
