import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tpsfem.assembly import FemSystem
from tpsfem.boundary import boundary_values_from_callables
from tpsfem.data import DataSet
from tpsfem.exceptions import NonConvergence
from tpsfem.gcv import (GcvConfig, _probe_matrix, gcv_score, influence_trace,
                        select_alpha)
from tpsfem.mesh import build_square_mesh
from tpsfem.solver import SaddleSystem, rmse

from oracles import dense_influence_matrix
from test_solver import linear_problem, zero_bv


def noisy_problem(mesh, n=120, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, 2))
    y = np.sin(4 * x[:, 0]) * np.cos(3 * x[:, 1]) + noise * rng.normal(size=n)
    data = DataSet(x, y)
    fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
    return data, fem


class TestGcvScore:
    def test_exact_trace_matches_dense_oracle(self):
        mesh = build_square_mesh(0)  # 25 nodes
        data, fem = noisy_problem(mesh, n=30, seed=1)
        alpha = 1e-3
        system = SaddleSystem(fem, alpha)
        infl = dense_influence_matrix(fem, alpha, fem.bv, data)
        tr = influence_trace(system, probe_matrix=None)
        assert abs(tr - np.trace(infl)) < 1e-8
        n = fem.located.n_used
        from tpsfem.solver import predicted_values
        s = system.solve()
        y = data.y[fem.located.indices]
        misfit = np.sum((predicted_values(s, fem.located) - y) ** 2)
        expect = n * misfit / (n - np.trace(infl)) ** 2
        got = gcv_score(fem, alpha, data, probes=n)
        assert abs(got - expect) / expect < 1e-8

    def test_large_alpha_finite_score(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.9, size=(60, 2))
        data = DataSet(x, 0.5 + 0.05 * rng.normal(size=60))
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        v = gcv_score(fem, 1e6, data, probes=8, seed=0)
        assert np.isfinite(v)

    def test_deterministic_given_seed(self):
        mesh = build_square_mesh(0)
        data, fem = noisy_problem(mesh, n=80, seed=5)
        a = gcv_score(fem, 1e-2, data, probes=6, seed=42)
        b = gcv_score(fem, 1e-2, data, probes=6, seed=42)
        assert a == b


class TestBlockSolve:
    """All probes go through one solve_raw call on an (m, p) block."""

    @staticmethod
    def problem():
        data, fem = noisy_problem(build_square_mesh(0), n=30, seed=1)
        Z = _probe_matrix(fem.located.n_used, 6, np.random.default_rng(0))
        return data, fem, Z

    @staticmethod
    def without_direct_solver(monkeypatch):
        """Make every factorisation fail and count the MINRES calls."""
        def fail(*args, **kwargs):
            raise RuntimeError("factor is exactly singular")
        calls = []
        minres = spla.minres

        def counted(*args, **kwargs):
            calls.append(1)
            return minres(*args, **kwargs)
        monkeypatch.setattr(spla, "splu", fail)
        monkeypatch.setattr(spla, "minres", counted)
        return calls

    def test_rademacher_trace_matches_dense_oracle(self):
        data, fem, Z = self.problem()
        alpha = 1e-3
        infl = dense_influence_matrix(fem, alpha, fem.bv, data)
        tr = influence_trace(SaddleSystem(fem, alpha), Z)
        assert abs(tr - np.mean(np.diag(Z.T @ infl @ Z))) < 1e-10

    def test_failed_columns_fall_back_to_minres(self, monkeypatch):
        data, fem, Z = self.problem()
        direct = influence_trace(SaddleSystem(fem, 0.1), Z)
        calls = self.without_direct_solver(monkeypatch)
        tr = influence_trace(SaddleSystem(fem, 0.1), Z)
        assert len(calls) == Z.shape[1]
        assert abs(tr - direct) < 1e-8

    def test_counters_report_fallbacks_and_residual(self, monkeypatch):
        data, fem, Z = self.problem()
        direct = SaddleSystem(fem, 0.1)
        influence_trace(direct, Z)
        s = direct.solve()
        assert (direct.factorizations, direct.minres_fallbacks) == (1, 0)
        assert s.info["factorizations"] == 1
        assert s.info["minres_fallbacks"] == 0
        assert 0.0 <= s.info["residual"] <= 1e-9
        calls = self.without_direct_solver(monkeypatch)
        system = SaddleSystem(fem, 0.1)
        influence_trace(system, Z)
        assert system.factorizations == 0
        assert system.minres_fallbacks == len(calls) == Z.shape[1]
        assert 0.0 < system.residual <= 1e-9
        s = system.solve()
        assert s.info["factorizations"] == 0
        assert s.info["minres_fallbacks"] == Z.shape[1] + 1
        assert s.info["residual"] == system.residual <= 1e-9

    def test_minres_miss_raises_with_diagnostics(self, monkeypatch):
        data, fem, Z = self.problem()
        self.without_direct_solver(monkeypatch)
        system = SaddleSystem(fem, 1e-3)
        with pytest.raises(NonConvergence) as err:
            influence_trace(system, Z)
        diag = err.value.diagnostics
        assert set(diag) == {"flag", "residual", "unknowns"}
        assert diag["residual"] > 1e-9
        assert diag["unknowns"] == system.n_unknowns

    def test_block_columns_equal_single_solves(self):
        data, fem, Z = self.problem()
        system = SaddleSystem(fem, 1e-2)
        rhs = np.random.default_rng(2).normal(size=(system.n_unknowns, 3))
        rhs[:, 1] = 0.0
        block, _ = system.solve_raw(rhs)
        for j in range(3):
            single, _ = system.solve_raw(rhs[:, j])
            assert np.array_equal(block[:, j], single)


class TestSelectAlpha:
    def test_noise_free_linear_keeps_exactness(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh, n=60, seed=2)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-8, 1.0, 9), probes=6,
                        refine_iters=4)
        alpha = select_alpha(fem, data, cfg, seed=0)
        s = SaddleSystem(fem, alpha).solve()
        assert rmse(s, data, fem.located) <= 1e-6

    def test_selection_close_to_grid_oracle_on_peaks(self):
        # held-out error of the selected alpha is near the best on the grid
        from tpsfem.data import PeaksSpec, peaks_generate, peaks_value
        raw = peaks_generate(PeaksSpec(n=2000), seed=7)
        data = raw.normalized()
        mesh = build_square_mesh(2)
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        grid = np.geomspace(1e-9, 1e-2, 8)
        cfg = GcvConfig(alpha_grid=grid, probes=20, refine_iters=2)
        alpha = select_alpha(fem, data, cfg, seed=0)

        rng = np.random.default_rng(8)
        xt_raw = rng.uniform(-2.4, 2.4, size=(1500, 2))
        test = DataSet(data.scale.to_unit(xt_raw),
                       data.scale.y_to_unit(peaks_value(xt_raw[:, 0],
                                                        xt_raw[:, 1])))

        def test_rmse(a):
            s = SaddleSystem(fem, a).solve()
            return rmse(s, test)

        best = min(test_rmse(a) for a in grid)
        assert test_rmse(alpha) <= 1.10 * best

    def test_two_runs_identical(self):
        mesh = build_square_mesh(0)
        data, fem = noisy_problem(mesh, n=90, seed=9)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-8, 1, 9), probes=5,
                        refine_iters=5)
        a1 = select_alpha(fem, data, cfg, seed=3)
        a2 = select_alpha(fem, data, cfg, seed=3)
        assert a1 == a2

    def test_result_inside_bracket(self):
        mesh = build_square_mesh(0)
        data, fem = noisy_problem(mesh, n=70, seed=4)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-6, 1, 7), probes=4,
                        refine_iters=6)
        alpha = select_alpha(fem, data, cfg, seed=1)
        assert 1e-6 <= alpha <= 1.0

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            GcvConfig(alpha_grid=np.array([1e-3, 1e-3]))
        with pytest.raises(ValueError):
            GcvConfig(alpha_grid=np.array([-1.0, 1.0]))
