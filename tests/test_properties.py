"""Property tests of newest-node bisection, batched point location, the
element matrices, the stacked auxiliary patch problems, the values of new
nodes and the exactness of the fit on affine data."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpsfem.assembly import assemble_G, assemble_L
from tpsfem.boundary import BoundaryStrategy, constant_boundary_values
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.driver import _NodeValues
from tpsfem.exceptions import NotRefinable
from tpsfem.indicators import locate_by_tri, patch_system
from tpsfem.mesh import (BARY_TOL, TriMesh, bisect_once, build_square_mesh,
                         fill_new_nodes, trim_to_irregular)
from tpsfem.solver import FIELDS, SaddleSystem, Smoother, rmse
from tpsfem.tps import SamplePlan, fit_tps, sample, select_alpha_tps

from conftest import (all_angles, base_edge, make_fan_mesh,
                      make_interface_strip, total_area)
from oracles import (RefMesh, assert_same_mesh, copy_submesh, linear_basis,
                     per_event_extend, tri_items)
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
        edges = mesh.refinable_edges()
        mesh.refine_wave([edges[i % len(edges)]])
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


def probe_points(mesh, grid, loose):
    """Vertices, edge midpoints, points just outside the hull and the drawn ones."""
    p = mesh.points
    edges = mesh.edge_table.nodes
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
    children, source, final, parents = bisect_once(local, len(keys))
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
    nodes, and every child inside its source triangle."""
    tab = mesh.tri_table
    children, source, final, parents = bisect_once(tab.verts, mesh.n_nodes)
    n = mesh.n_nodes
    events = mesh.uniform_refine()
    children, source = children[final], source[final]
    assert np.array_equal(children, mesh.tri_table.verts)
    assert [e.node for e in events] == list(range(n, mesh.n_nodes))
    assert np.array_equal(np.sort(parents, axis=1),
                          np.sort([e[1:3] for e in events], axis=1)
                          .reshape(-1, 2))
    p = mesh.points
    assert np.array_equal(p[n:], 0.5 * (p[parents[:, 0]] + p[parents[:, 1]]))
    centroid = p[children].mean(axis=1)
    assert tab.bary(source, centroid).min() > 0.0


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
    by_tri = locate_by_tri(mesh, data)
    patches = [[t for t in p if t in by_tri] or [min(by_tri)]
               for p in random_patches(mesh, rng)]
    s = Smoother(mesh=mesh, alpha=1.0,
                 **{f: rng.normal(size=mesh.n_nodes) for f in FIELDS})
    A = patch_system(s, data, patches, by_tri)[0].A
    assert A.nnz > 0
    assert (A != A.T).nnz == 0


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
    mesh = (trim_to_irregular(build_square_mesh(1), lshape_peaks())
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
    events = []
    for i in picks:
        edges = mesh.refinable_edges()
        events += mesh.refine_wave([edges[i % len(edges)]])
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
    # NewNode list in creation order
    mesh = build_square_mesh(0)
    if trim is not None:
        rng = np.random.default_rng(trim)
        lo = rng.uniform(0.0, 0.5, size=2)
        x = lo + rng.uniform(0.0, 0.5, size=(40, 2))
        mesh = trim_to_irregular(build_square_mesh(2),
                                 DataSet(x, np.zeros(len(x))))
    ref = RefMesh.of(mesh)
    assert_same_mesh(mesh, ref)
    for picks in marks:
        if picks is None:
            got, want = mesh.uniform_refine(), ref.uniform_refine()
        else:
            edges = ref.refinable_edges()
            marked = {edges[i % len(edges)] for i in picks}
            got, want = mesh.refine_wave(marked), ref.refine_wave(marked)
        assert got == want
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
