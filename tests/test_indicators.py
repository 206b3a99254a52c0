import numpy as np
import pytest
from scipy.stats import spearmanr

from tpsfem.assembly import FemSystem, locate_dataset
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.driver import RunConfig, run
from tpsfem.exceptions import EmptyField, NonConvergence, SingularSystem
from tpsfem.indicators import (IndicatorField, _patch_triangles,
                               auxiliary_field, auxiliary_indicator,
                               auxiliary_indicators, locate_by_tri, mark,
                               patch_system, recovery_field,
                               recovery_indicator)
from tpsfem.mesh import (TriMesh, build_square_mesh, mesh_polygon,
                         trim_to_irregular)
from tpsfem.solver import SaddleSystem, Smoother

from conftest import failing_splu, make_unit_right_triangle, perturbed_splu
from oracles import (consistent_mass_recovered_gradients, located_dict,
                     lumped_mass_recovery_indicators,
                     patch_auxiliary_indicator, tri_area, tri_gradient,
                     tri_items)
from test_solver import linear_problem


def linear_smoother(mesh, seed=0):
    data, fem, _ = linear_problem(mesh, n=60, seed=seed)
    s = SaddleSystem(fem, 1e-4).solve()
    return s, data, fem


class TestRecovery:
    def test_zero_on_linear_surface(self):
        mesh = build_square_mesh(1)
        s, _, _ = linear_smoother(mesh)
        for eta in recovery_indicator(s, mesh.tri_table.ids[:20]):
            assert eta <= 1e-8

    def test_symmetric_hat_function(self):
        # single interior hat on a symmetric mesh: symmetric triangles agree
        mesh = build_square_mesh(0)
        centre = next(n for n, p in enumerate(mesh.points)
                      if np.abs(p - 0.5).max() < 1e-12)
        c = np.zeros(25)
        c[centre] = 1.0
        s = Smoother(mesh=mesh, c=c, g1=np.zeros(25), g2=np.zeros(25),
                     w=np.zeros(25), alpha=1.0)
        tab = mesh.tri_table
        fan = tab.ids[(tab.verts == centre).any(axis=1)]
        etas = dict(zip(fan, recovery_indicator(s, fan)))
        vals = sorted(etas.values())
        # 8 incident triangles in two symmetry classes at most
        assert np.ptp(vals) / max(vals) < 0.75
        groups = np.unique(np.round(vals, 12))
        assert len(groups) <= 2

    def test_ranking_matches_consistent_mass_oracle(self):
        mesh = build_square_mesh(0)
        mesh.uniform_refine()  # 41 nodes
        rng = np.random.default_rng(3)
        c = rng.normal(size=mesh.n_nodes)
        s = Smoother(mesh=mesh, c=c, g1=np.zeros(mesh.n_nodes),
                     g2=np.zeros(mesh.n_nodes), w=np.zeros(mesh.n_nodes),
                     alpha=1.0)
        lumped = recovery_indicator(s, mesh.tri_table.ids)
        oracle = []
        recovered = consistent_mass_recovered_gradients(mesh, c)
        for _, tri in tri_items(mesh):
            nodes = list(tri)
            g = tri_gradient(mesh.points[nodes], c[nodes])
            d = recovered[nodes] - g
            area = tri_area(mesh.points[nodes])
            tot = sum((area / 12.0) * (d[:, k].sum() ** 2 + (d[:, k] ** 2).sum())
                      for k in range(2))
            oracle.append(np.sqrt(tot))
        rho = spearmanr(lumped, oracle).statistic
        assert rho >= 0.9

    def test_matches_lumped_mass_loop_oracle(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(4)
        for _ in range(3):
            edges = mesh.refinable_edges()
            mesh.refine_wave(rng.choice(edges, size=len(edges) // 4,
                                        replace=False).tolist())
        c = rng.normal(size=mesh.n_nodes)
        zeros = np.zeros(mesh.n_nodes)
        s = Smoother(mesh=mesh, c=c, g1=zeros, g2=zeros, w=zeros, alpha=1.0)
        ref = lumped_mass_recovery_indicators(mesh, c)
        eta = recovery_indicator(s, mesh.tri_table.ids)
        assert np.allclose(eta, ref, rtol=1e-12, atol=1e-12 * ref.max())

    def test_pure_function_repeatable(self):
        mesh = build_square_mesh(0)
        s, _, _ = linear_smoother(mesh, seed=5)
        t = mesh.tri_table.ids[:1]
        assert recovery_indicator(s, t) == recovery_indicator(s, t)

    def test_relabeling_invariance(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(1)
        c = rng.normal(size=25)
        zeros = np.zeros(25)
        s = Smoother(mesh=mesh, c=c, g1=zeros, g2=zeros, w=zeros, alpha=1.0)
        etas = recovery_indicator(s, mesh.tri_table.ids)
        perm = rng.permutation(25)
        inv = np.argsort(perm)
        # new node i corresponds to old node inv[i]
        pts = mesh.points[inv]
        tris = perm[mesh.tri_table.verts]
        mesh2 = TriMesh.from_arrays(pts, tris, [2] * len(tris))
        s2 = Smoother(mesh=mesh2, c=c[inv], g1=zeros, g2=zeros, w=zeros,
                      alpha=1.0)
        etas2 = recovery_indicator(s2, mesh2.tri_table.ids)
        assert np.allclose(etas, etas2, atol=1e-12)


class TestAuxiliary:
    def test_zero_without_local_data(self):
        mesh = build_square_mesh(0)
        s, data, _ = linear_smoother(mesh)
        empty = DataSet(np.array([[5.0, 5.0]]), np.array([0.0]))
        eid = int(mesh.edge_table.ids[0])
        assert auxiliary_indicator(s, empty, eid, 1e-4) == 0.0

    def test_small_on_linear_data(self):
        mesh = build_square_mesh(1)
        s, data, fem = linear_smoother(mesh)
        by_tri = locate_by_tri(mesh, locate_dataset(mesh, data))
        for eid in mesh.refinable_edges()[:15]:
            assert auxiliary_indicator(s, data, eid, 1e-4, by_tri) <= 1e-8

    def test_flags_steep_region_on_peaks(self):
        from tpsfem.data import PeaksSpec, peaks_generate
        raw = peaks_generate(PeaksSpec(n=4000), seed=2)
        data = raw.normalized()
        mesh = build_square_mesh(1)
        from tpsfem.boundary import constant_boundary_values
        fem = FemSystem.build(mesh, data,
                              bv=constant_boundary_values(mesh, 0.4))
        s = SaddleSystem(fem, 1e-6).solve()
        field = auxiliary_field(s, data, 1e-6)
        # edges in the oscillatory core carry larger eta than the flat rim
        pts = mesh.points
        et = mesh.edge_table
        ends = dict(zip(et.ids.tolist(), et.nodes.tolist()))
        core, rim = [], []
        for eid, eta in zip(field.edges.tolist(), field.values.tolist()):
            a, b = ends[eid]
            mid = 0.5 * (pts[a] + pts[b])
            if np.all(np.abs(mid - 0.5) < 0.2):
                core.append(eta)
            elif np.all((mid > 0.04) & (mid < 0.96)):
                rim.append(eta)
        assert np.median(core) > np.median(rim)

    def test_deterministic(self):
        mesh = build_square_mesh(0)
        s, data, _ = linear_smoother(mesh, seed=2)
        eid = mesh.refinable_edges()[0]
        a = auxiliary_indicator(s, data, eid, 1e-3)
        b = auxiliary_indicator(s, data, eid, 1e-3)
        assert a == b


def peaks_with_gap(n=1500, seed=0):
    """Normalised peaks data without the points of a disc, so that some
    auxiliary patches hold no data."""
    data = peaks_generate(PeaksSpec(n=n), seed=seed).normalized()
    keep = np.hypot(*(data.x - [0.62, 0.35]).T) > 0.12
    return DataSet(data.x[keep], data.y[keep])


def random_surface(mesh, seed):
    """A surface with independent random nodal fields, so that every
    Dirichlet term of the local problems is exercised."""
    rng = np.random.default_rng(seed)
    return Smoother(mesh=mesh, alpha=1.0,
                    **{f: rng.normal(size=mesh.n_nodes)
                       for f in ("c", "g1", "g2", "w")})


def adaptive_surface():
    data = peaks_with_gap(seed=1)
    s, _ = run(data, RunConfig(indicator="recovery", alpha=1e-6, gamma=0.5,
                               max_iters=2, stagnation_iters=0))
    return s, data


def oracle_case(name):
    data = peaks_with_gap()
    if name.startswith("square"):
        mesh = build_square_mesh(int(name[-1]))
    elif name == "adaptive":
        return adaptive_surface()
    elif name == "trimmed":
        mesh = trim_to_irregular(build_square_mesh(2), data)[0]
    else:
        mesh = mesh_polygon([[(0.15, 0.1), (0.9, 0.2), (0.85, 0.85),
                              (0.1, 0.8)],
                             [(0.35, 0.4), (0.55, 0.4), (0.5, 0.6)]],
                            refine_level=2)
    return random_surface(mesh, seed=len(name)), data


class TestAuxiliaryBatch:
    @pytest.mark.parametrize("name", ["square-0", "square-1", "square-2",
                                      "adaptive", "trimmed", "polygon-hole"])
    def test_matches_per_patch_oracle(self, name):
        s, data = oracle_case(name)
        mesh = s.mesh
        by_tri = locate_by_tri(mesh, locate_dataset(mesh, data))
        located = located_dict(mesh, data)
        edges = mesh.edge_table.ids  # boundary and non-refinable edges too
        got = auxiliary_indicators(s, data, edges, 1e-5, by_tri)
        ref = np.array([patch_auxiliary_indicator(s, data, e, 1e-5, located)
                        for e in edges])
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)
        assert ref.max() > 0
        if name != "square-0":
            # patches without data, or with no interior node, give 0
            assert np.any(ref == 0)

    def test_data_placed_once_per_wave(self, monkeypatch):
        # every wave of a run places its points with one sub-triangle
        # kernel call, whatever the number of patches holding them
        from tpsfem import indicators
        data = peaks_with_gap(n=800)
        waves, kernels = [], []
        batch, kernel = (indicators.auxiliary_indicators,
                         indicators.bisection_moments)
        monkeypatch.setattr(indicators, "auxiliary_indicators",
                            lambda *a: waves.append(len(a[2])) or batch(*a))
        monkeypatch.setattr(indicators, "bisection_moments",
                            lambda *a: kernels.append(len(a[2])) or kernel(*a))
        run(data, RunConfig(indicator="auxiliary", alpha=1e-5, gamma=0.0,
                            max_iters=2, stagnation_iters=0))
        assert len(waves) >= 3 and min(waves) > 0
        assert len(kernels) == len(waves)
        assert all(0 < k <= len(data) for k in kernels)

    def test_batch_without_interior_nodes_gives_zeros(self):
        # one triangle refined once has no interior node, so no patch of
        # the batch has an unknown and no system is solved
        mesh = make_unit_right_triangle()
        s = random_surface(mesh, seed=0)
        data = DataSet(np.array([[0.2, 0.2], [0.5, 0.1]]), np.ones(2))
        edges = mesh.edge_table.ids.tolist()
        located = located_dict(mesh, data)
        ref = [patch_auxiliary_indicator(s, data, e, 1e-4, located)
               for e in edges]
        assert ref == [0.0] * len(edges)
        assert np.array_equal(auxiliary_indicators(s, data, edges, 1e-4),
                              np.zeros(len(edges)))

    def test_single_edge_is_batch_entry(self):
        s, data = oracle_case("square-1")
        edges = s.mesh.edge_table.ids
        etas = auxiliary_indicators(s, data, edges, 1e-4)
        assert auxiliary_indicator(s, data, edges[7], 1e-4) == etas[7]
        assert auxiliary_indicators(s, data, [], 1e-4).shape == (0,)

    def test_failed_factorisation_raises_singular_system(self, monkeypatch):
        # the patch problems share the solver's contract: the one stacked
        # system is factorised directly, and a failure is an error
        s, data = oracle_case("square-1")
        edges = s.mesh.refinable_edges()
        by_tri = locate_by_tri(s.mesh, locate_dataset(s.mesh, data))
        failing_splu(monkeypatch)
        with pytest.raises(SingularSystem, match="factorisation failed"):
            auxiliary_indicators(s, data, edges, 0.1, by_tri)

    def test_missed_residual_raises_nonconvergence(self, monkeypatch):
        s, data = oracle_case("square-1")
        edges = s.mesh.refinable_edges()
        by_tri = locate_by_tri(s.mesh, locate_dataset(s.mesh, data))
        perturbed_splu(monkeypatch, lambda x: x * (1 + 1e-6))
        with pytest.raises(NonConvergence) as err:
            auxiliary_indicators(s, data, edges, 0.1, by_tri)
        diag = err.value.diagnostics
        assert set(diag) == {"residual", "unknowns"}
        assert diag["residual"] > 1e-9
        patches, _ = _patch_triangles(s.mesh, edges)
        located = located_dict(s.mesh, data)
        held = [any(t in located for t in p[p >= 0].tolist())
                for p in patches]
        fem = patch_system(s, data, patches[held], by_tri)[0]
        assert diag["unknowns"] == 4 * len(fem.mesh.interior_nodes())


def field_of(values):
    """The IndicatorField of the dict edge id -> value ``values``."""
    return IndicatorField(np.fromiter(values, dtype=np.int64),
                          np.fromiter(values.values(), dtype=float))


def marked(field, *gamma):
    return set(mark(field, *gamma).tolist())


class TestMark:
    def test_all_equal_all_marked(self):
        field = field_of({1: 0.5, 2: 0.5, 3: 0.5})
        assert marked(field) == {1, 2, 3}

    def test_single_spike(self):
        field = field_of({1: 1.0, 2: 0.1, 3: 0.2})
        assert marked(field, 0.5) == {1}

    def test_gamma_zero_marks_everything(self):
        field = field_of({1: 1.0, 2: 0.0})
        assert marked(field, 0.0) == {1, 2}

    def test_empty_field(self):
        with pytest.raises(EmptyField):
            mark(field_of({}))

    def test_recovery_field_keys_are_refinable_edges(self):
        mesh = build_square_mesh(0)
        s, _, _ = linear_smoother(mesh, seed=3)
        field = recovery_field(s)
        refinable = set(mesh.refinable_edges())
        assert set(field.edges.tolist()) <= refinable
