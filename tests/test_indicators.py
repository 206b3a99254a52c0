import numpy as np
import pytest
from scipy.stats import spearmanr

from tpsfem.assembly import FemSystem
from tpsfem.data import DataSet
from tpsfem.exceptions import EmptyField
from tpsfem.indicators import (IndicatorField, auxiliary_field,
                               auxiliary_indicator, locate_by_tri, mark,
                               recovery_field, recovery_indicator)
from tpsfem.mesh import TriMesh, build_square_mesh
from tpsfem.solver import SaddleSystem, Smoother

from oracles import (consistent_mass_recovered_gradients,
                     lumped_mass_recovery_indicators, tri_area, tri_gradient)
from test_solver import linear_problem


def linear_smoother(mesh, seed=0):
    data, fem, _ = linear_problem(mesh, n=60, seed=seed)
    s = SaddleSystem(fem, 1e-4).solve()
    return s, data, fem


class TestRecovery:
    def test_zero_on_linear_surface(self):
        mesh = build_square_mesh(1)
        s, _, _ = linear_smoother(mesh)
        for eta in recovery_indicator(s, list(mesh.tris)[:20]):
            assert eta <= 1e-8

    def test_symmetric_hat_function(self):
        # single interior hat on a symmetric mesh: symmetric triangles agree
        mesh = build_square_mesh(0)
        centre = next(n for n in range(25)
                      if abs(mesh.xs[n] - 0.5) < 1e-12
                      and abs(mesh.ys[n] - 0.5) < 1e-12)
        c = np.zeros(25)
        c[centre] = 1.0
        s = Smoother(mesh=mesh, c=c, g1=np.zeros(25), g2=np.zeros(25),
                     w=np.zeros(25), alpha=1.0)
        fan = sorted(t for t, tri in mesh.tris.items() if centre in tri)
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
        lumped = recovery_indicator(s, list(mesh.tris))
        oracle = []
        recovered = consistent_mass_recovered_gradients(mesh, c)
        for t in mesh.tris:
            nodes = list(mesh.tris[t])
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
            edges = sorted(mesh.refinable_edges())
            mesh.refine_wave(rng.choice(edges, size=len(edges) // 4,
                                        replace=False).tolist())
        c = rng.normal(size=mesh.n_nodes)
        zeros = np.zeros(mesh.n_nodes)
        s = Smoother(mesh=mesh, c=c, g1=zeros, g2=zeros, w=zeros, alpha=1.0)
        ref = lumped_mass_recovery_indicators(mesh, c)
        eta = recovery_indicator(s, sorted(mesh.tris))
        assert np.allclose(eta, ref, rtol=1e-12, atol=1e-12 * ref.max())

    def test_pure_function_repeatable(self):
        mesh = build_square_mesh(0)
        s, _, _ = linear_smoother(mesh, seed=5)
        t = [next(iter(mesh.tris))]
        assert recovery_indicator(s, t) == recovery_indicator(s, t)

    def test_relabeling_invariance(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(1)
        c = rng.normal(size=25)
        zeros = np.zeros(25)
        s = Smoother(mesh=mesh, c=c, g1=zeros, g2=zeros, w=zeros, alpha=1.0)
        etas = recovery_indicator(s, sorted(mesh.tris))
        perm = rng.permutation(25)
        inv = np.argsort(perm)
        # new node i corresponds to old node inv[i]
        pts = mesh.points[inv]
        tris = [[int(perm[n]) for n in mesh.tris[t]] for t in sorted(mesh.tris)]
        mesh2 = TriMesh.from_arrays(pts, tris, [2] * len(tris))
        s2 = Smoother(mesh=mesh2, c=c[inv], g1=zeros, g2=zeros, w=zeros,
                      alpha=1.0)
        etas2 = recovery_indicator(s2, sorted(mesh2.tris))
        assert np.allclose(etas, etas2, atol=1e-12)


class TestAuxiliary:
    def test_zero_without_local_data(self):
        mesh = build_square_mesh(0)
        s, data, _ = linear_smoother(mesh)
        empty = DataSet(np.array([[5.0, 5.0]]), np.array([0.0]))
        eid = next(iter(mesh.edges))
        assert auxiliary_indicator(s, empty, eid, 1e-4) == 0.0

    def test_small_on_linear_data(self):
        mesh = build_square_mesh(1)
        s, data, fem = linear_smoother(mesh)
        by_tri = locate_by_tri(mesh, data)
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
        core, rim = [], []
        for eid, eta in field.values.items():
            a, b = mesh.edges[eid]
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


class TestMark:
    def test_all_equal_all_marked(self):
        field = IndicatorField(values={1: 0.5, 2: 0.5, 3: 0.5}, kind="recovery")
        assert mark(field) == {1, 2, 3}

    def test_single_spike(self):
        field = IndicatorField(values={1: 1.0, 2: 0.1, 3: 0.2}, kind="recovery")
        assert mark(field, 0.5) == {1}

    def test_gamma_zero_marks_everything(self):
        field = IndicatorField(values={1: 1.0, 2: 0.0}, kind="recovery")
        assert mark(field, 0.0) == {1, 2}

    def test_empty_field(self):
        with pytest.raises(EmptyField):
            mark(IndicatorField(values={}, kind="recovery"))

    def test_recovery_field_keys_are_refinable_edges(self):
        mesh = build_square_mesh(0)
        s, _, _ = linear_smoother(mesh, seed=3)
        field = recovery_field(s)
        refinable = set(mesh.refinable_edges())
        assert set(field.values) <= refinable
