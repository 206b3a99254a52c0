"""Property tests of newest-node bisection, batched point location, the
element matrices, the stacked auxiliary patch problems and the exactness of
the fit on affine data."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tpsfem.assembly import assemble_G, assemble_L
from tpsfem.data import DataSet
from tpsfem.indicators import locate_by_tri, patch_system
from tpsfem.mesh import BARY_TOL, build_square_mesh
from tpsfem.solver import FIELDS, SaddleSystem, Smoother, rmse

from conftest import all_angles, total_area
from oracles import linear_basis
from test_solver import linear_problem

#: indices into the sorted refinable edges, one bisection each
bisections = st.lists(st.integers(0, 10 ** 6), max_size=30)

#: points on a dyadic grid over [-1/8, 9/8]^2: exact barycentric arithmetic,
#: many land on vertices and edges of the refined square meshes
grid_points = st.lists(
    st.tuples(st.integers(-64, 576), st.integers(-64, 576)).map(
        lambda ij: (ij[0] / 512.0, ij[1] / 512.0)),
    max_size=40)

#: points in general position around the unit square
loose_points = st.lists(
    st.tuples(st.floats(-0.1, 1.1), st.floats(-0.1, 1.1)), max_size=20)

#: distances from the hull used for points just outside it
OUTSIDE = (1e-9, 1e-3)


def refined_square(picks):
    mesh = build_square_mesh(0)
    for i in picks:
        edges = sorted(mesh.refinable_edges())
        mesh.bisect(edges[i % len(edges)])
    return mesh


def brute_force_locate(mesh, pts):
    """Lowest id of a triangle containing each point (-1 if none) and the
    barycentric coordinates there, testing every triangle."""
    ids = np.full(len(pts), -1)
    bary = np.full((len(pts), 3), np.nan)
    for t in sorted(mesh.tris):
        nodes = list(mesh.tris[t])
        fns, _ = linear_basis(mesh.points[nodes])
        b = np.column_stack([fn(pts[:, 0], pts[:, 1]) for fn in fns])
        new = (ids == -1) & (b.min(axis=1) >= -BARY_TOL)
        ids[new] = t
        bary[new] = b[new]
    return ids, bary


def probe_points(mesh, grid, loose):
    """Vertices, edge midpoints, points just outside the hull and the drawn ones."""
    p = mesh.points
    edges = np.array(list(mesh.edges.values()))
    u = p[mesh.boundary_nodes()][:, 0]
    outside = [np.column_stack([u, np.full_like(u, v)])
               for d in OUTSIDE for v in (-d, 1.0 + d)]
    outside += [o[:, ::-1] for o in outside]
    return np.vstack([p, 0.5 * (p[edges[:, 0]] + p[edges[:, 1]]), *outside,
                      np.reshape(grid, (-1, 2)), np.reshape(loose, (-1, 2))])


@settings(max_examples=150, deadline=None, database=None)
@given(picks=bisections, grid=grid_points, loose=loose_points)
def test_locate_matches_brute_force(picks, grid, loose):
    mesh = refined_square(picks)
    pts = probe_points(mesh, grid, loose)
    ids, bary = mesh.locate(pts)
    ref_ids, ref_bary = brute_force_locate(mesh, pts)
    assert np.array_equal(ids, ref_ids)
    inside = ids != -1
    assert np.allclose(bary[inside], ref_bary[inside], rtol=0, atol=1e-12)
    assert np.isnan(bary[~inside]).all()


@settings(max_examples=150, deadline=None, database=None)
@given(picks=bisections)
def test_bisection_preserves_invariants(picks):
    mesh = refined_square(picks)
    mesh.validate()
    assert abs(total_area(mesh) - 1.0) < 1e-12
    ang = all_angles(mesh)
    assert np.all((np.abs(ang - 45.0) < 1e-9) | (np.abs(ang - 90.0) < 1e-9))


@settings(max_examples=40, deadline=None, database=None)
@given(log_alpha=st.floats(-8.0, 2.0),
       coeffs=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       seed=st.integers(0, 2 ** 16))
def test_affine_data_reproduced_for_any_alpha(log_alpha, coeffs, seed):
    # an affine surface has zero gradient energy and zero misfit, so it is
    # the minimiser whatever the smoothing weight
    mesh = build_square_mesh(1)
    data, fem, _ = linear_problem(mesh, n=60, seed=seed, coeffs=coeffs)
    s = SaddleSystem(fem, 10.0 ** log_alpha).solve()
    assert rmse(s, data, fem.located) <= 1e-8


def check_element_identities(L, G1, G2, verts, x, area):
    """L annihilates constants, and G_j applied to the coordinate x_j gives
    the integral of each basis function: area/3 summed over its triangles."""
    n = len(x)
    assert np.abs(L @ np.ones(n)).max() <= 1e-12 * np.abs(L).max()
    mass = np.bincount(verts.ravel(), np.repeat(area / 3.0, 3), minlength=n)
    for G, xj in ((G1, x[:, 0]), (G2, x[:, 1])):
        assert np.allclose(G @ xj, mass, rtol=1e-12, atol=1e-15)


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections)
def test_assembled_matrices_identities(picks):
    mesh = refined_square(picks)
    tab = mesh.tri_table
    check_element_identities(assemble_L(mesh), assemble_G(mesh, 1),
                             assemble_G(mesh, 2), tab.verts, mesh.points,
                             tab.area)


def random_patches(mesh, rng, count=5):
    """``count`` random sets of 1 to 6 triangles of ``mesh``; sets may
    overlap, as the patches of neighbouring edges do."""
    ids = sorted(mesh.tris)
    return [rng.choice(ids, size=rng.integers(1, 7), replace=False)
            for _ in range(count)]


def refined_copy(mesh, patches):
    """The patches copied into one mesh and refined once, as the auxiliary
    indicator builds its local problems."""
    local, _, _ = mesh.copy_submesh(patches)
    local.uniform_refine()
    return local


def ancestor(mesh, t):
    while t in mesh.tri_parent:
        t = mesh.tri_parent[t]
    return t


def coordinate_triples(mesh, tri_ids):
    """Vertex coordinates of the triangles ``tri_ids``, in id order and in
    stored vertex order (so the newest-node label is compared too)."""
    return [tuple(mesh.node_xy(n) for n in mesh.tris[t])
            for t in sorted(tri_ids)]


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_stacked_patch_element_identities(picks, seed):
    mesh = refined_square(picks)
    local = refined_copy(mesh, random_patches(mesh, np.random.default_rng(seed)))
    tab = local.tri_table
    check_element_identities(assemble_L(local), assemble_G(local, 1),
                             assemble_G(local, 2), tab.verts, local.points,
                             tab.area)


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_stacked_patches_refine_as_alone(picks, seed):
    mesh = refined_square(picks)
    patches = random_patches(mesh, np.random.default_rng(seed))
    local = refined_copy(mesh, patches)
    first = np.cumsum([0] + [len(p) for p in patches])
    for p, tris in enumerate(patches):
        alone = refined_copy(mesh, [tris])
        own = [t for t in local.tris
               if first[p] <= ancestor(local, t) < first[p + 1]]
        assert (coordinate_triples(local, own)
                == coordinate_triples(alone, alone.tris))


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_stacked_patch_data_matrix_is_symmetric(picks, seed):
    mesh = refined_square(picks)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(150, 2))
    data = DataSet(x, rng.normal(size=len(x)))
    by_tri = locate_by_tri(mesh, data)
    patches = [[t for t in p if t in by_tri] or [min(by_tri)]
               for p in random_patches(mesh, rng)]
    s = Smoother(mesh=mesh, alpha=1.0,
                 **{f: rng.normal(size=mesh.n_nodes) for f in FIELDS})
    A = patch_system(s, data, patches, by_tri)[0].A
    assert A.nnz > 0
    assert (A != A.T).nnz == 0
