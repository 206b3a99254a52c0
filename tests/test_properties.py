"""Property tests of newest-node bisection, batched point location, the
element matrices, the stacked auxiliary patch problems, the values of new
nodes, the exactness of the fit on affine data, trimming and the spline
subsample."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tpsfem import assembly
from tpsfem.assembly import (FemSystem, Located, assemble_G, assemble_L,
                             locate_dataset)
from tpsfem.boundary import BoundaryStrategy, constant_boundary_values
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.driver import _NodeValues
from tpsfem.exceptions import EmptyResult, InsufficientData, NotRefinable
from tpsfem.gcv import misfit
from tpsfem.indicators import (auxiliary_field, locate_by_tri, mark,
                               patch_system, recovery_field)
from tpsfem.mesh import (BARY_TOL, SUB_TRIANGLES, TriMesh, bisect_once,
                         bisection_moments, build_square_mesh,
                         fill_new_nodes, mesh_polygon, trim_to_irregular)
from tpsfem.solver import FIELDS, RESIDUAL_TOL, SaddleSystem, Smoother, rmse
from tpsfem.tps import (SamplePlan, _quadtree_leaves, fit_tps, sample,
                        select_alpha_tps)

from conftest import (all_angles, base_edge, make_fan_mesh,
                      make_interface_strip, total_area)
from oracles import (RefMesh, assert_same_mesh, binned_locate,
                     containing_rows, coo_summed, copy_submesh, dict_field,
                     dict_mark, six_frame_moments,
                     linear_basis, located_dict, kdtree_near_boundary_ratio,
                     located_ids, loop_sample, padded_containing_rows,
                     point_patch_data,
                     per_event_extend, pivoted_saddle_solve,
                     recursive_quadtree_leaves, refresh_dict_field,
                     tri_items, trimmed_ids)
from test_equivalence import HOLED_SQUARE
from test_solver import linear_problem, random_bv

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

#: the meshes of ``located_mesh``
mesh_kinds = st.sampled_from(["refined", "trimmed", "holed"])

#: distances from the hull used for points just outside it
OUTSIDE = (1e-9, 1e-3)


def refined_at(mesh, picks):
    """``mesh`` after one bisection wave per pick, of the pick-th refinable
    edge (modulo their count)."""
    for i in picks:
        edges = mesh.refinable_edges()
        mesh.refine_wave([edges[i % len(edges)]])
    return mesh


def refined_square(picks):
    return refined_at(build_square_mesh(0), picks)


def located_mesh(kind, picks, seed):
    """A mesh to locate points in: the unit square refined at ``picks``, that
    mesh trimmed to the triangles of random points in an L-shape, or the
    square with a square hole, meshed by mesh_polygon and refined at
    ``picks``."""
    if kind == "holed":
        return refined_at(mesh_polygon(HOLED_SQUARE, refine_level=1), picks)
    mesh = refined_square(picks)
    if kind == "trimmed":
        x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(60, 2))
        x = x[(x[:, 0] < 0.5) | (x[:, 1] < 0.5)]
        mesh = trim_to_irregular(mesh, DataSet(x, np.zeros(len(x))))[0]
    return mesh


def brute_force_locate(mesh, pts):
    """Lowest id of a triangle containing each point (-1 if none) and the
    barycentric coordinates there, testing every triangle."""
    ids = np.full(len(pts), -1)
    bary = np.full((len(pts), 3), np.nan)
    for t, tri in tri_items(mesh):
        nodes = list(tri)
        fns, _ = linear_basis(mesh.points[nodes])
        b = np.column_stack([fn(pts[:, 0], pts[:, 1]) for fn in fns])
        new = (ids == -1) & (b.min(axis=1) >= -BARY_TOL)
        ids[new] = t
        bary[new] = b[new]
    return ids, bary


def outside_points(mesh):
    """Points at each distance of OUTSIDE below, above, left and right of
    the unit square, in line with the boundary nodes, and off the middle of
    every boundary edge, away from its triangle."""
    p, et, tab = mesh.points, mesh.edge_table, mesh.tri_table
    u = p[mesh.boundary_nodes()][:, 0]
    square = [np.column_stack([u, np.full_like(u, v)])
              for d in OUTSIDE for v in (-d, 1.0 + d)]
    square += [o[:, ::-1] for o in square]
    rim = et.tris[:, 1] < 0
    a, b = p[et.nodes[rim, 0]], p[et.nodes[rim, 1]]
    centroid = p[tab.verts[tab.rows(et.tris[rim, 0])]].mean(axis=1)
    mid = 0.5 * (a + b)
    normal = (b - a)[:, ::-1] * [1.0, -1.0]
    normal *= np.sign(np.einsum("ij,ij->i", normal, mid - centroid))[:, None]
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    return np.vstack(square + [mid + d * normal for d in OUTSIDE])


def bin_boundaries(mesh, ng):
    """The bin corners of an ng x ng grid over the nodes' bounding box."""
    lo, hi = mesh.points.min(axis=0), mesh.points.max(axis=0)
    bx, by = (lo[:, None] + np.arange(ng + 1) * ((hi - lo) / ng)[:, None])
    return np.column_stack([np.repeat(bx, ng + 1), np.tile(by, ng + 1)])


def probe_points(mesh, grid, loose):
    """Vertices, edge midpoints, points just outside the hull, the corners
    of the locator's bins and of bins three times coarser, and the drawn
    ones."""
    p = mesh.points
    edges = mesh.edge_table.nodes
    mesh.locate(p[:1])
    ng = mesh._locator.ng
    return np.vstack([p, 0.5 * (p[edges[:, 0]] + p[edges[:, 1]]),
                      outside_points(mesh), bin_boundaries(mesh, ng),
                      bin_boundaries(mesh, int(np.sqrt(2 * mesh.n_tris) + 1)),
                      np.reshape(grid, (-1, 2)), np.reshape(loose, (-1, 2))])


@settings(max_examples=450, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16),
       grid=grid_points, loose=loose_points)
def test_locate_matches_brute_force(kind, picks, seed, grid, loose):
    # 150 examples per mesh kind on average
    mesh = located_mesh(kind, picks, seed)
    pts = probe_points(mesh, grid, loose)
    ids, bary = located_ids(mesh, pts)
    ref_ids, ref_bary = brute_force_locate(mesh, pts)
    assert np.array_equal(ids, ref_ids)
    inside = ids != -1
    assert np.allclose(bary[inside], ref_bary[inside], rtol=0, atol=1e-12)
    assert np.isnan(bary[~inside]).all()


@settings(max_examples=150, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16),
       grid=grid_points, loose=loose_points)
def test_locate_matches_binned_oracle_bitwise(kind, picks, seed, grid, loose):
    # the per-triangle frame, the column-wise hit test and the finer bins
    # give the ids and coordinates of the coarser bins and per-pair
    # arithmetic bit for bit
    mesh = located_mesh(kind, picks, seed)
    pts = probe_points(mesh, grid, loose)
    ids, bary = located_ids(mesh, pts)
    ref_ids, ref_bary = binned_locate(mesh, pts)
    assert np.array_equal(ids, ref_ids)
    assert bary.flags.c_contiguous and bary.shape == (len(pts), 3)
    assert np.array_equal(bary, ref_bary, equal_nan=True)
    assert np.isnan(bary[ids == -1]).all()


#: radii from 1e-6 to 10, and the node spacings of the refined squares
near_radii = st.one_of(st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e),
                       st.sampled_from([0.25, 0.125, 0.0625, 0.03125]))


@settings(max_examples=150, deadline=None, database=None)
@given(kind=st.sampled_from(["square", "refined", "trimmed", "holed"]),
       picks=bisections, seed=st.integers(0, 2 ** 16), radius=near_radii)
@example(kind="square", picks=[], seed=0, radius=0.25)
def test_near_boundary_ratio_matches_kdtree(kind, picks, seed, radius):
    # the square is level 0, 1 or 2; a radius equal to a node spacing must
    # stay a strict bound, as the k-d tree's d < radius is
    mesh = (build_square_mesh(seed % 3) if kind == "square"
            else located_mesh(kind, picks, seed))
    assume(not mesh.node_boundary.all())
    assert (mesh.near_boundary_ratio(radius)
            == kdtree_near_boundary_ratio(mesh, radius))


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
@example(log_alpha=0.0, coeffs=(0.0, 0.0, 5e-324), seed=0)
def test_affine_data_reproduced_for_any_alpha(log_alpha, coeffs, seed):
    # an affine surface has zero gradient energy and zero misfit, so it is
    # the minimiser whatever the smoothing weight; the example's data are
    # subnormal, so the solve must scale its right-hand side to check it
    mesh = build_square_mesh(1)
    data, fem, _ = linear_problem(mesh, n=60, seed=seed, coeffs=coeffs)
    s = SaddleSystem(fem, 10.0 ** log_alpha).solve()
    assert rmse(s, data, fem.located) <= 1e-8


@settings(max_examples=60, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16),
       log_alpha=st.floats(-10.0, 0.0))
def test_static_solve_matches_pivoted_oracle(kind, picks, seed, log_alpha):
    # no data point in the triangles of one interior node, so that its
    # A_ii = 0, and random boundary values with a Laplacian proxy
    mesh = located_mesh(kind, picks, seed)
    interior = mesh.interior_nodes()
    assume(len(interior))
    rng = np.random.default_rng(seed)
    empty = rng.choice(interior)
    x = rng.uniform(mesh.points.min(axis=0), mesh.points.max(axis=0),
                    size=(30, 2))
    rows = mesh.locate(x)[0]
    inside = np.flatnonzero(rows >= 0)
    inside = inside[(mesh.tri_table.verts[rows[inside]] != empty).all(axis=1)]
    assume(len(inside))
    x = x[inside]
    fem = FemSystem.build(mesh, DataSet(x, rng.normal(size=len(x))),
                          bv=random_bv(mesh, rng))
    assert fem.A[empty, empty] == 0.0
    alpha = 10.0 ** log_alpha
    system = SaddleSystem(fem, alpha)
    got, _ = system.solve_raw()
    assert system.residual <= RESIDUAL_TOL
    # the c/w row swap leaves no zero on the diagonal: no row exchange
    perm_r = system.factorize().perm_r
    assert np.array_equal(perm_r, np.arange(len(perm_r)))
    ref = pivoted_saddle_solve(fem, alpha)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()


def check_element_identities(L, G1, G2, verts, x, area):
    """L annihilates constants, and G_j applied to the coordinate x_j gives
    the integral of each basis function: area/3 summed over its triangles."""
    n = len(x)
    assert np.abs(L @ np.ones(n)).max() <= 1e-12 * np.abs(L).max()
    mass = np.bincount(verts.ravel(), np.repeat(area / 3.0, 3), minlength=n)
    for G, xj in ((G1, x[:, 0]), (G2, x[:, 1])):
        assert np.allclose(G @ xj, mass, rtol=1e-12, atol=1e-15)


@settings(max_examples=60, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16))
def test_pattern_assembly_matches_coo_oracle(kind, picks, seed):
    # L, G1 and G2 summed onto the mesh's node-pair pattern against the
    # COO to CSR build of the same element matrices: the same indices, and
    # values within 4 ulp of each row's largest entry (only the order of
    # the sums differs)
    mesh = located_mesh(kind, picks, seed)
    elems, summed = [], assembly._pattern_sum
    with mock.patch.object(assembly, "_pattern_sum",
                           lambda m, e: elems.append(e) or summed(m, e)):
        got = [assemble_L(mesh), assemble_G(mesh, 1), assemble_G(mesh, 2)]
    for M, elem in zip(got, elems):
        ref = coo_summed(mesh.tri_table.verts, elem, mesh.n_nodes)
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        row = np.repeat(np.arange(mesh.n_nodes), np.diff(ref.indptr))
        largest = np.zeros(mesh.n_nodes)
        np.maximum.at(largest, row, np.abs(ref.data))
        assert np.all(np.abs(M.data - ref.data)
                      <= 4 * np.spacing(largest[row]))


#: barycentric weights in eighths: vertices, edge midpoints and points of
#: the bisectors of both levels, which two sub-triangles share
eighths = np.array([(i, j, 8 - i - j) for i in range(9)
                    for j in range(9 - i)]) / 8.0


@settings(max_examples=60, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16))
def test_bisection_moments_match_six_frame_oracle(kind, picks, seed):
    # dyadic points, many on shared edges, and points in general position:
    # the exact bisection maps place each in the oracle's sub-triangles,
    # and the moments agree within 1e-15 of each row's largest
    mesh = located_mesh(kind, picks, seed)
    tab, rng = mesh.tri_table, np.random.default_rng(seed)
    rows = rng.integers(0, mesh.n_tris, size=80)
    weights = np.vstack([eighths[rng.integers(0, len(eighths), size=40)],
                         rng.dirichlet(np.ones(3), size=40)])
    xy = np.einsum("kj,kjd->kd", weights, mesh.points[tab.verts[rows]])
    y = rng.normal(size=len(xy))
    # one row per point gives each point's slots
    got = bisection_moments(mesh.points, tab.verts[rows],
                            np.arange(len(rows)), xy, y)
    ref = six_frame_moments(mesh.points, tab.verts[rows],
                            np.arange(len(rows)), xy, y)
    assert np.array_equal(got[:, :, 0], ref[:, :, 0])
    order = np.argsort(rows, kind="stable")
    got = bisection_moments(mesh.points, tab.verts, rows[order], xy[order],
                            y[order])
    ref = six_frame_moments(mesh.points, tab.verts, rows[order], xy[order],
                            y[order])
    largest = np.abs(ref).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(got - ref) <= 1e-15 * largest)


@settings(max_examples=60, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16))
def test_node_space_misfit_matches_basis_misfit(kind, picks, seed):
    # n c^T A c - 2 n c^T d + y^T y against ||Bc - y||^2, for nodal values
    # near the data's and far from them
    mesh = located_mesh(kind, picks, seed)
    rng = np.random.default_rng(seed)
    x = rng.uniform(mesh.points.min(axis=0), mesh.points.max(axis=0),
                    size=(200, 2))
    x = x[mesh.locate(x)[0] >= 0]
    assume(len(x))
    near = rng.normal(size=mesh.n_nodes)
    basis = locate_dataset(mesh, DataSet(x, np.zeros(len(x)))).basis
    data = DataSet(x, basis @ near + 0.1 * rng.normal(size=len(x)))
    fem = FemSystem.build(mesh, data)
    for c in (near, rng.normal(size=mesh.n_nodes)):
        ref = np.sum((fem.located.basis @ c - data.y) ** 2)
        assert abs(misfit(fem, c) - ref) <= 1e-12 * ref


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
    ids = mesh.tri_table.ids
    return [rng.choice(ids, size=rng.integers(1, 7), replace=False)
            for _ in range(count)]


def refined_copy(mesh, patches):
    """The patches stacked into one mesh, each with its own nodes, and
    refined once by ``bisect_once``, as the auxiliary indicator builds its
    local problems; and the patch each refined triangle descends from, row
    by row of the stack's triangle table."""
    tab = mesh.tri_table
    patch = np.repeat(np.arange(len(patches)), [len(p) for p in patches])
    verts = tab.verts[tab.rows(np.concatenate(patches))]
    keys, local = np.unique(patch[:, None] * mesh.n_nodes + verts,
                            return_inverse=True)
    children, source, _, final, parents = bisect_once(local, len(keys))
    pts = mesh.points[keys % mesh.n_nodes]
    pts = np.vstack([pts, pts[parents].mean(axis=1)])
    return (TriMesh.from_arrays(pts, children[final], [2] * final.sum()),
            patch[source[final]])


def coordinate_triples(points, rows):
    """Sorted vertex coordinates of the (a, b, v) ``rows`` on ``points``,
    each in stored vertex order (so the newest-node label is compared
    too)."""
    return sorted(tuple(tuple(map(float, points[n])) for n in row)
                  for row in rows)


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_stacked_patch_element_identities(picks, seed):
    mesh = refined_square(picks)
    local, _ = refined_copy(mesh, random_patches(mesh,
                                                 np.random.default_rng(seed)))
    tab = local.tri_table
    check_element_identities(assemble_L(local), assemble_G(local, 1),
                             assemble_G(local, 2), tab.verts, local.points,
                             tab.area)


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_stacked_patches_refine_as_alone(picks, seed):
    mesh = refined_square(picks)
    patches = random_patches(mesh, np.random.default_rng(seed))
    local, patch = refined_copy(mesh, patches)
    for p, tris in enumerate(patches):
        alone = copy_submesh(mesh, tris)
        alone.uniform_refine()
        assert (coordinate_triples(local.points,
                                   local.tri_table.verts[patch == p])
                == coordinate_triples(list(zip(alone.xs, alone.ys)),
                                      alone.tris.values()))


def check_uniform_pass(mesh):
    """``bisect_once`` over the whole triangle table is ``uniform_refine``,
    numbering included: the same children in the same order, the same new
    nodes, and every child inside its source triangle, the sub-triangle of
    its slot."""
    tab = mesh.tri_table
    children, source, slot, final, parents = bisect_once(tab.verts,
                                                         mesh.n_nodes)
    n = mesh.n_nodes
    events = mesh.uniform_refine()
    children, source, slot = children[final], source[final], slot[final]
    assert np.array_equal(children, mesh.tri_table.verts)
    assert events[:, 0].tolist() == list(range(n, mesh.n_nodes))
    assert np.array_equal(np.sort(parents, axis=1),
                          np.sort(events[:, 1:], axis=1))
    p = mesh.points
    assert np.array_equal(p[n:], 0.5 * (p[parents[:, 0]] + p[parents[:, 1]]))
    centroid = p[children].mean(axis=1)
    assert tab.bary(source, centroid).min() > 0.0
    a, b, v = p[tab.verts[source]].transpose(1, 0, 2)
    corners = np.stack([a, b, v, 0.5 * (a + b), 0.5 * (v + a), 0.5 * (b + v)])
    assert np.array_equal(p[children], corners[SUB_TRIANGLES[slot],
                                               np.arange(len(slot))[:, None]])


@pytest.mark.parametrize("level", [0, 1, 2])
def test_whole_square_mesh_bisects_as_uniform_refine(level):
    check_uniform_pass(build_square_mesh(level))


def test_interface_chain_bisects_as_uniform_refine():
    check_uniform_pass(make_interface_strip(8))


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections)
def test_whole_adaptive_mesh_bisects_as_uniform_refine(picks):
    check_uniform_pass(refined_square(picks))


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_stacked_patch_data_matrix_is_symmetric(picks, seed):
    mesh = refined_square(picks)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(150, 2))
    data = DataSet(x, rng.normal(size=len(x)))
    by_tri = locate_by_tri(mesh, locate_dataset(mesh, data))
    located = located_dict(mesh, data)
    patches = [[t for t in p if t in located] or [min(located)]
               for p in random_patches(mesh, rng)]
    padded = np.full((len(patches), 14), -1)
    for row, p in zip(padded, patches):
        row[:len(p)] = sorted(p)
    s = Smoother(mesh=mesh, alpha=1.0,
                 **{f: rng.normal(size=mesh.n_nodes) for f in FIELDS})
    A = patch_system(s, data, padded, by_tri)[0].A
    assert A.nnz > 0
    assert (A != A.T).nnz == 0


def patch_case(kind, picks, seed):
    """A surface on a mesh of ``located_mesh``, random data over its box,
    its ``locate_by_tri`` table and random padded patches, each of which
    holds a data point; with dyadic data, many points lie on the edges of
    the refined patch triangles."""
    mesh = located_mesh(kind, picks, seed)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(200, 2))
    if seed % 2:
        x = np.round(x * 64) / 64
    data = DataSet(x, rng.normal(size=len(x)))
    by_tri = locate_by_tri(mesh, locate_dataset(mesh, data))
    held = mesh.tri_table.ids[np.diff(by_tri[1]) > 0]
    patches = [np.union1d(p, rng.choice(held, size=1))
               for p in random_patches(mesh, rng)]
    padded = np.full((len(patches), 14), -1)
    for row, p in zip(padded, patches):
        row[:len(p)] = p
    s = Smoother(mesh=mesh, alpha=1.0,
                 **{f: rng.normal(size=mesh.n_nodes) for f in FIELDS})
    return s, data, by_tri, padded


@settings(max_examples=60, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16))
def test_patch_moments_match_per_point_oracle(kind, picks, seed):
    # A and d of every patch from sub-triangle moments are the per-(point,
    # patch) basis rows' BᵀB and Bᵀy, up to rounding
    s, data, by_tri, padded = patch_case(kind, picks, seed)
    fem, _, origin = patch_system(s, data, padded, by_tri)
    A, d, counts = point_patch_data(s, data, padded, by_tri)
    node_patch = np.zeros(fem.mesh.n_nodes, dtype=np.int64)
    node_patch[fem.mesh.tri_table.verts] = np.nonzero(padded >= 0)[0][
        origin][:, None]
    scale = np.zeros(len(padded))
    np.maximum.at(scale, node_patch[A.tocoo().row], np.abs(A.tocoo().data))
    gap = (fem.A - A).tocoo()
    assert np.all(np.abs(gap.data) <= 1e-13 * scale[node_patch[gap.row]])
    scale = np.zeros(len(padded))
    np.maximum.at(scale, node_patch, np.abs(d))
    assert np.all(np.abs(fem.d - d) <= 1e-13 * scale[node_patch])
    # the entries of each patch's A sum to 1, as the basis values of each
    # of its points do
    total = np.bincount(node_patch[fem.A.tocoo().row], fem.A.tocoo().data)
    assert np.all(counts > 0)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(kind=mesh_kinds, picks=bisections, seed=st.integers(0, 2 ** 16))
def test_bisection_moments_place_each_point_once_per_level(kind, picks,
                                                           seed):
    s, data, by_tri, _ = patch_case(kind, picks, seed)
    mesh = s.mesh
    order, start = by_tri
    rows = np.repeat(np.arange(mesh.n_tris), np.diff(start))
    moments = bisection_moments(mesh.points, mesh.tri_table.verts, rows,
                                data.x[order], data.y[order])
    count = moments[:, :, 0]
    assert np.array_equal(count[:, 0] + count[:, 3], np.diff(start))
    assert np.array_equal(count[:, 1] + count[:, 2], count[:, 0])
    assert np.array_equal(count[:, 4] + count[:, 5], count[:, 3])
    # the coordinates of every placed point sum to 1 in its sub-triangle
    i, j = np.triu_indices(3)
    square = moments[:, :, 1:7] * np.where(i == j, 1.0, 2.0)
    assert np.allclose(square.sum(axis=2), count, rtol=0, atol=1e-12)


#: barycentric weights in quarters: vertices, edge midpoints and the points
#: of the bisector from the newest node, which two children share
quarters = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, seed=st.integers(0, 2 ** 16))
def test_containing_rows_match_padded_oracle(picks, seed):
    # the children of one bisection pass, and points of their parents on
    # a dyadic grid, so that many lie on a shared edge and tie
    mesh = refined_square(picks)
    tab = mesh.tri_table
    children, source, _, final, parents = bisect_once(tab.verts, mesh.n_nodes)
    p = mesh.points
    local = TriMesh.from_arrays(np.vstack([p, p[parents].mean(axis=1)]),
                                children[final], [2] * final.sum())
    rng = np.random.default_rng(seed)
    within = rng.integers(0, len(tab.ids), size=60)
    weights = np.array(quarters)[rng.integers(0, len(quarters), size=60)]
    points = np.einsum("kj,kjd->kd", weights / 4.0, p[tab.verts[within]])
    got = containing_rows(local.tri_table, source[final], within, points)
    ref = padded_containing_rows(local.tri_table, source[final], within,
                                 points)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("kind", ["recovery", "auxiliary"])
@settings(max_examples=25, deadline=None, database=None)
@given(picks=st.lists(st.integers(0, 10 ** 6), max_size=12),
       marks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                               max_size=6), max_size=3),
       seed=st.integers(0, 2 ** 16), gamma=st.floats(0.0, 1.0))
def test_field_matches_dict_oracle(kind, picks, marks, seed, gamma):
    # a field built on a fresh mesh and brought up to date after each of
    # a few random waves, on a new random surface every time, against the
    # edge-keyed dict bookkeeping it replaced
    mesh = refined_square(picks)
    rng = np.random.default_rng(seed)
    data = DataSet(rng.uniform(0.0, 1.0, size=(150, 2)),
                   rng.normal(size=150))
    field, values, floor = None, None, 0
    for wave in marks + [None]:
        s = Smoother(mesh=mesh, alpha=1.0,
                     **{f: rng.normal(size=mesh.n_nodes) for f in FIELDS})
        by_tri = locate_by_tri(mesh, locate_dataset(mesh, data))
        if kind == "recovery":
            field = recovery_field(s, field, floor)
        else:
            field = auxiliary_field(s, data, 1e-4, by_tri, field)
        if values is None:
            values = dict_field(kind, s, data, 1e-4, by_tri)
        else:
            refresh_dict_field(values, kind, s, data, 1e-4, by_tri, floor)
        assert field.edges.tolist() == sorted(values)
        assert field.values.tolist() == [values[e] for e in sorted(values)]
        assert set(mark(field, gamma).tolist()) == dict_mark(values, gamma)
        if wave is not None:
            edges = mesh.refinable_edges()
            floor = int(mesh.tri_table.ids[-1]) + 1
            mesh.refine_wave(edges[np.asarray(wave) % len(edges)])


# -- values of the nodes a refinement wave creates ------------------------------

#: one wave: indices into the sorted refinable edges, each marked
waves = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8),
                 min_size=1, max_size=3)


@lru_cache(maxsize=None)
def lshape_peaks():
    """Normalised peaks points outside the upper right quadrant."""
    raw = peaks_generate(PeaksSpec(n=400), seed=0)
    return raw.subset(~((raw.x[:, 0] > 0) & (raw.x[:, 1] > 0))).normalized()


@lru_cache(maxsize=None)
def lshape_spline():
    samp = sample(lshape_peaks(), SamplePlan("quadtree", count=60), seed=0)
    return fit_tps(samp, select_alpha_tps(samp))


def wave_strategy(kind):
    if kind == "tps_approximation":
        return BoundaryStrategy(kind=kind, tps=lshape_spline())
    return BoundaryStrategy(kind=kind, constant_value=0.3)


@settings(max_examples=60, deadline=None, database=None)
@given(trimmed=st.booleans(),
       kind=st.sampled_from(["nodal_average", "constant",
                             "tps_approximation"]),
       marks=waves, seed=st.integers(0, 2 ** 16), log_alpha=st.floats(-8, 0))
def test_wave_values_match_per_event_fill(trimmed, kind, marks, seed,
                                          log_alpha):
    # the batched fill equals filling event by event in creation order:
    # bitwise where both take means, to rounding where the spline is
    # evaluated in one batch instead of point by point
    mesh = (trim_to_irregular(build_square_mesh(1), lshape_peaks())[0]
            if trimmed else build_square_mesh(0))
    strategy, alpha = wave_strategy(kind), 10.0 ** log_alpha
    values = _NodeValues(mesh, constant_boundary_values(mesh, 0.0))
    values.table = np.random.default_rng(seed).normal(size=(mesh.n_nodes, 5))
    arrays = dict(zip(("c", "g1", "g2", "w", "w_proxy"), values.table.T))
    for picks in marks:
        edges = mesh.refinable_edges()
        events = mesh.refine_wave({edges[i % len(edges)] for i in picks})
        values.extend(mesh, events, strategy, alpha)
        arrays = per_event_extend(arrays, mesh, events, strategy, alpha)
        expected = np.column_stack(list(arrays.values()))
        if kind == "tps_approximation":
            scale = np.abs(expected).max(axis=0)
            assert np.all(np.abs(values.table - expected) <= 1e-12 * scale)
        else:
            assert np.array_equal(values.table, expected)


@settings(max_examples=60, deadline=None, database=None)
@given(picks=bisections, coeffs=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_fill_new_nodes_reproduces_linear_field(picks, coeffs):
    # every new node is the midpoint of its edge, so the mean of its
    # parents is a linear field's value there
    mesh = build_square_mesh(0)
    old = mesh.n_nodes
    events = np.empty((0, 3), dtype=np.int64)
    for i in picks:
        edges = mesh.refinable_edges()
        events = np.concatenate([events,
                                 mesh.refine_wave([edges[i % len(edges)]])])
    a, b, c = coeffs
    exact = a + mesh.points @ np.array([b, c])
    values = np.zeros((mesh.n_nodes, 2))
    values[:old] = np.column_stack([exact, -exact])[:old]
    fill_new_nodes(values, events, np.arange(mesh.n_nodes) < old)
    assert np.allclose(values, np.column_stack([exact, -exact]), rtol=0,
                       atol=1e-12)


# -- refinement against the reference recursion ---------------------------------

#: one wave each: None for ``uniform_refine``, else indices into the
#: refinable edges, each marked
mixed_waves = st.lists(st.one_of(st.none(),
                                 st.lists(st.integers(0, 10 ** 6),
                                          min_size=1, max_size=12)),
                       min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, database=None)
@given(trim=st.one_of(st.none(), st.integers(0, 2 ** 16)), marks=mixed_waves)
def test_refinement_matches_reference(trim, marks):
    # the array waves reproduce the per-edge recursion exactly: node
    # coordinates and flags, triangle ids and rows, edge ids, and the
    # created nodes in creation order: their parents, and their boundary
    # flags in node_boundary
    mesh = build_square_mesh(0)
    if trim is not None:
        rng = np.random.default_rng(trim)
        lo = rng.uniform(0.0, 0.5, size=2)
        x = lo + rng.uniform(0.0, 0.5, size=(40, 2))
        mesh = trim_to_irregular(build_square_mesh(2),
                                 DataSet(x, np.zeros(len(x))))[0]
    ref = RefMesh.of(mesh)
    assert_same_mesh(mesh, ref)
    for picks in marks:
        if picks is None:
            got, want = mesh.uniform_refine(), ref.uniform_refine()
        else:
            edges = ref.refinable_edges()
            marked = {edges[i % len(edges)] for i in picks}
            got, want = mesh.refine_wave(marked), ref.refine_wave(marked)
        assert got.dtype == np.int64 and got.shape == (len(want), 3)
        assert got.tolist() == [list(w[:3]) for w in want]
        assert (mesh.node_boundary[got[:, 0]].tolist()
                == [w[3] for w in want])
        assert_same_mesh(mesh, ref)
    mesh.validate()


def test_refinement_rejects_what_the_reference_rejects():
    # cyclic newest-node labels, a leg and an unknown id
    fan = make_fan_mesh()
    fan = TriMesh.from_arrays(fan.points, fan.tri_table.verts, [0] * 5)
    ref = RefMesh.of(fan)
    with pytest.raises(NotRefinable):
        ref.bisect(base_edge(fan, 0))
    for refine in (lambda: fan.refine_wave([base_edge(fan, 0)]),
                   fan.uniform_refine):
        with pytest.raises(NotRefinable):
            refine()
    mesh = build_square_mesh(0)
    ref = RefMesh.of(mesh)
    leg = next(e for e in sorted(ref.edges)
               if e not in ref.refinable_edges())
    for eid in (leg, max(ref.edges) + 1):
        with pytest.raises(NotRefinable):
            ref.bisect(eid)
        with pytest.raises(NotRefinable):
            mesh.refine_wave([base_edge(mesh, 0), eid])
    assert_same_mesh(mesh, ref)


# -- trimming against the search over triangle-id sets --------------------------

#: 1 to 7 pockets of data: a centre, a half-width and a point count each
pockets = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                             st.floats(0.005, 0.15), st.integers(1, 25)),
                   min_size=1, max_size=7)


@settings(max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(["square", "refined", "trimmed"]),
       level=st.integers(1, 3), picks=bisections, spots=pockets,
       seed=st.integers(0, 2 ** 16))
def test_trim_matches_id_set_oracle(kind, level, picks, spots, seed):
    # the mask and graph search keeps exactly the triangles that the
    # breadth-first search over id sets keeps, bridges included
    mesh = build_square_mesh(level)
    if kind != "square":
        mesh = refined_at(mesh, picks)
    rng = np.random.default_rng(seed)
    if kind == "trimmed":
        x = rng.uniform(0.0, 1.0, size=(200, 2))
        x = x[(x[:, 0] < 0.5) | (x[:, 1] < 0.5)]
        mesh = trim_to_irregular(mesh, DataSet(x, np.zeros(len(x))))[0]
    x = np.vstack([(cx, cy) + rng.uniform(-r, r, size=(k, 2))
                   for cx, cy, r, k in spots])
    data = DataSet(x, np.zeros(len(x)))
    try:
        want = trimmed_ids(mesh, x)
    except EmptyResult:
        with pytest.raises(EmptyResult):
            trim_to_irregular(mesh, data)
        return
    assert_same_mesh(trim_to_irregular(mesh, data)[0],
                     copy_submesh(mesh, want))


def assert_same_located(got, ref):
    """Two ``Located`` records hold the same points, rows and basis, bit for
    bit."""
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.rows, ref.rows)
    assert got.basis.shape == ref.basis.shape
    for part in ("data", "indices", "indptr"):
        assert (getattr(got.basis, part).tobytes()
                == getattr(ref.basis, part).tobytes())
    assert got.n_dropped == ref.n_dropped


@settings(max_examples=100, deadline=None, database=None)
@given(level=st.integers(0, 3), picks=bisections, spots=pockets,
       grid=grid_points, loose=loose_points, seed=st.integers(0, 2 ** 16))
def test_trim_hands_over_a_fresh_location(level, picks, spots, grid, loose,
                                          seed):
    # trimming carries its one location over to the trimmed mesh, rows
    # renumbered and barycentric coordinates unchanged: bit for bit what a
    # fresh locate_dataset there gives, also for the points of the dyadic
    # grid on the vertices and shared edges of the level mesh and for points
    # outside it
    mesh = refined_at(build_square_mesh(level), picks)
    rng = np.random.default_rng(seed)
    x = np.vstack([(cx, cy) + rng.uniform(-r, r, size=(k, 2))
                   for cx, cy, r, k in spots]
                  + [np.reshape(grid, (-1, 2)), np.reshape(loose, (-1, 2))])
    data = DataSet(x, np.zeros(len(x)))
    try:
        trimmed, rows, bary = trim_to_irregular(mesh, data)
    except EmptyResult:  # no point inside the mesh
        assume(False)
    handed = Located.from_rows(trimmed, rows, bary)
    assert_same_located(handed, locate_dataset(trimmed, data))
    assert_same_located(FemSystem.build(trimmed, data, located=handed).located,
                        handed)


@settings(max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(["refined", "trimmed"]), picks=bisections,
       spots=pockets, grid=grid_points, seed=st.integers(0, 2 ** 16))
def test_first_wave_table_from_the_fit_location(kind, picks, spots, grid,
                                                seed):
    # the first auxiliary wave of an iteration groups the fit's location by
    # triangle instead of locating again: that table is the one of a fresh
    # mesh.locate, whether the data were located on the mesh itself or
    # trimming handed its location over
    rng = np.random.default_rng(seed)
    x = np.vstack([(cx, cy) + rng.uniform(-r, r, size=(k, 2))
                   for cx, cy, r, k in spots] + [np.reshape(grid, (-1, 2))])
    data = DataSet(x, np.zeros(len(x)))
    mesh = refined_square(picks)
    if kind == "trimmed":
        try:
            mesh, rows, bary = trim_to_irregular(mesh, data)
        except EmptyResult:
            assume(False)
        located = Located.from_rows(mesh, rows, bary)
    else:
        located = locate_dataset(mesh, data)
    order, start = locate_by_tri(mesh, located)
    want = located_dict(mesh, data)
    ids = mesh.tri_table.ids
    assert start[-1] == len(order) == sum(len(p) for p in want.values())
    for r in range(mesh.n_tris):
        assert np.array_equal(order[start[r]:start[r + 1]],
                              want.get(ids[r], np.zeros(0, dtype=int)))


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 300), cap=st.integers(1, 20),
       seed=st.integers(0, 2 ** 32 - 1), snap=st.sampled_from([None, 4, 32]),
       copies=st.integers(0, 60))
def test_quadtree_leaves_match_recursion(n, cap, seed, snap, copies):
    """The breadth-first leaves are the depth-first recursion's, in its
    order: ``copies`` more copies of the first point fill a leaf that stops
    splitting only at the depth limit once there are more than ``cap``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    if snap is not None:
        x = np.round(x * snap) / snap
    x = np.vstack([x, np.repeat(x[:1], copies, axis=0)])
    members, start = _quadtree_leaves(x, cap)
    ref = recursive_quadtree_leaves(x, cap)
    if copies >= cap:
        assert ref[-1][0] == 41
    assert len(start) == len(ref) + 1
    for g, (_, _, idx) in enumerate(ref):
        assert np.array_equal(members[start[g]:start[g + 1]], idx)


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 400), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1), band=st.booleans(),
       snap=st.sampled_from([None, 4, 32]))
def test_sample_matches_per_leaf_loop(n, share, seed, band, snap):
    """One draw per pass picks bitwise the points of one draw per leaf.

    ``snap`` rounds the points to a coarse grid, so that coincident points
    fill leaves that stop splitting at the depth limit."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    if snap is not None:
        x = np.round(x * snap) / snap
    data = DataSet(x, np.arange(n, dtype=float))  # y holds the indices
    count = max(1, int(round(share * n)))
    plan = (SamplePlan("quadtree_boundary_band", count=count,
                       band=(-0.5, 0.5, -0.5, 0.5)) if band
            else SamplePlan("quadtree", count=count))
    try:
        ref = loop_sample(data, plan, seed=seed)
    except InsufficientData:
        with pytest.raises(InsufficientData):
            sample(data, plan, seed=seed)
        return
    got = sample(data, plan, seed=seed)
    assert np.array_equal(got.y, ref.y)
    assert np.array_equal(got.x, ref.x)
