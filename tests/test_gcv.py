import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg as spla

from tpsfem.assembly import FemSystem
from tpsfem.boundary import boundary_values_from_callables
from tpsfem.data import DataSet
from tpsfem.exceptions import NonConvergence, SingularSystem
from tpsfem import gcv
from tpsfem.gcv import (GOLDEN, GcvConfig, _probe_matrix, gcv_score,
                        influence_trace, select_alpha)
from tpsfem import solver
from tpsfem.mesh import build_square_mesh
from tpsfem.solver import RESIDUAL_TOL, SaddleSystem, rmse

from conftest import failing_splu, perturbed_splu
from oracles import dense_influence_matrix, saddle_gcv_score
from test_solver import linear_problem, rescale_case, zero_bv


def noisy_problem(mesh, n=120, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, 2))
    y = np.sin(4 * x[:, 0]) * np.cos(3 * x[:, 1]) + noise * rng.normal(size=n)
    data = DataSet(x, y)
    fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
    return data, fem


def rademacher_system(fem, probes, seed=0):
    """The SaddleSystem of ``fem`` with ``probes`` probe columns drawn as
    ``select_alpha`` draws them under ``seed``."""
    Z = _probe_matrix(fem.located.n_used, probes, np.random.default_rng(seed))
    return SaddleSystem(fem, 1.0, Z)


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
        got = gcv_score(rademacher_system(fem, n), alpha)
        assert abs(got - expect) / expect < 1e-8

    def test_large_alpha_finite_score(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.9, size=(60, 2))
        data = DataSet(x, 0.5 + 0.05 * rng.normal(size=60))
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        v = gcv_score(rademacher_system(fem, 8), 1e6)
        assert np.isfinite(v)

    def test_deterministic_given_seed(self):
        mesh = build_square_mesh(0)
        data, fem = noisy_problem(mesh, n=80, seed=5)
        a, b = (gcv_score(rademacher_system(fem, 6, seed=42), 1e-2)
                for _ in range(2))
        assert a == b


def workspace_case(name):
    """A FemSystem with random boundary values, their Laplacian proxy
    included, on the "square" or "trimmed" mesh of ``rescale_case``, and
    its data."""
    from tpsfem.data import PeaksSpec, peaks_generate
    fem, _ = rescale_case(name)
    return fem, peaks_generate(PeaksSpec(n=800), seed=2).normalized()


class TestScoreWorkspace:
    """gcv_score on the selection's rescaled SaddleSystem is the score of a
    fresh SaddleSystem per alpha, bit for bit."""

    CASES = {name: workspace_case(name) for name in ("square", "trimmed")}

    @settings(max_examples=30, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(CASES)),
           logs=st.lists(st.floats(-12.0, 2.0), min_size=1, max_size=6),
           probes=st.integers(1, 12))
    def test_bitwise_equal_to_saddle_system_oracle(self, name, logs, probes):
        # one workspace serves alphas in any order, as the search asks them
        fem, data = self.CASES[name]
        block = rademacher_system(fem, probes)
        for alpha in 10.0 ** np.array(logs):
            got = gcv_score(block, alpha)
            assert got == saddle_gcv_score(fem, alpha, data, block.W)

    def test_one_factorisation_and_no_saddle_system_per_candidate(
            self, monkeypatch):
        fem, data = workspace_case("square")
        lus, systems, scores = [], [], []
        splu, build, score = spla.splu, SaddleSystem.__init__, gcv.gcv_score
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **k: lus.append(k) or splu(*a, **k))
        monkeypatch.setattr(SaddleSystem, "__init__",
                            lambda *a, **k: systems.append(1) or build(*a, **k))
        monkeypatch.setattr(gcv, "gcv_score",
                            lambda *a: scores.append(a[1]) or score(*a))
        select_alpha(fem, GcvConfig(probes=5, refine_iters=6))
        # one SaddleSystem per selection, rescaled for every candidate
        assert len(scores) >= 8 and len(systems) == 1
        # the node order is found once, then one factorisation per score
        assert lus[0]["permc_spec"] == "MMD_AT_PLUS_A"
        assert lus[1:] == [solver.STATIC_PIVOTING] * len(scores)

    def test_failed_factorisation_raises_singular_system(self, monkeypatch):
        fem, data = workspace_case("trimmed")
        failing_splu(monkeypatch, static_only=True)
        with pytest.raises(SingularSystem, match="direct factorisation failed"):
            select_alpha(fem, GcvConfig(probes=5))

    def test_missed_residual_raises_nonconvergence(self, monkeypatch):
        fem, data = workspace_case("trimmed")
        perturbed_splu(monkeypatch, lambda x: x * (1 + 1e-6))
        with pytest.raises(NonConvergence) as err:
            select_alpha(fem, GcvConfig(probes=5))
        diag = err.value.diagnostics
        assert set(diag) == {"residual", "unknowns"}
        assert RESIDUAL_TOL < diag["residual"] < 1e-5
        assert diag["unknowns"] == 4 * len(fem.mesh.interior_nodes())

    def test_rejects_alpha_outside_the_open_half_line(self):
        fem, data = workspace_case("square")
        block = rademacher_system(fem, 3)
        for alpha in (0.0, -1e-3, np.inf, np.nan):
            with pytest.raises(ValueError):
                gcv_score(block, alpha)


class TestBlockSolve:
    """All probes go through one solve_raw call on an (m, p) block."""

    @staticmethod
    def problem():
        data, fem = noisy_problem(build_square_mesh(0), n=30, seed=1)
        Z = _probe_matrix(fem.located.n_used, 6, np.random.default_rng(0))
        return data, fem, Z

    def test_rademacher_trace_matches_dense_oracle(self):
        data, fem, Z = self.problem()
        alpha = 1e-3
        infl = dense_influence_matrix(fem, alpha, fem.bv, data)
        tr = influence_trace(SaddleSystem(fem, alpha), Z)
        assert abs(tr - np.mean(np.diag(Z.T @ infl @ Z))) < 1e-10

    def test_failed_factorisation_raises_singular_system(self, monkeypatch):
        data, fem, Z = self.problem()
        failing_splu(monkeypatch, static_only=True)
        system = SaddleSystem(fem, 0.1)
        with pytest.raises(SingularSystem, match="factorisation failed"):
            influence_trace(system, Z)
        assert (system.factorizations, system.residual) == (0, None)
        with pytest.raises(SingularSystem):
            select_alpha(fem, GcvConfig(probes=6))

    def test_counters_report_factorizations_and_residual(self, monkeypatch):
        data, fem, Z = self.problem()
        system = SaddleSystem(fem, 0.1)
        influence_trace(system, Z)
        s = system.solve()
        # the probe block and the fit share one factorisation
        assert system.factorizations == s.info["factorizations"] == 1
        assert 0.0 <= s.info["residual"] == system.residual <= RESIDUAL_TOL
        assert set(s.info) == {"solve_seconds", "unknowns", "nnz",
                               "factorizations", "residual",
                               "constraint_residual"}
        perturbed_splu(monkeypatch, lambda x: x * (1 + 1e-6))
        missed = SaddleSystem(fem, 0.1)
        with pytest.raises(NonConvergence):
            missed.solve()
        assert (missed.factorizations, missed.residual) == (1, None)

    def test_residual_miss_raises_with_diagnostics(self, monkeypatch):
        data, fem, Z = self.problem()
        system = SaddleSystem(fem, 1e-3)
        # a NaN right-hand side leaves a NaN residual, which is a miss
        rhs = np.ones(system.n_unknowns)
        rhs[7] = np.nan
        with pytest.raises(NonConvergence) as err:
            system.solve_raw(rhs)
        assert np.isnan(err.value.diagnostics["residual"])
        perturbed_splu(monkeypatch, lambda x: x * (1 + 1e-6))
        system = SaddleSystem(fem, 1e-3)
        with pytest.raises(NonConvergence) as err:
            influence_trace(system, Z)
        diag = err.value.diagnostics
        assert set(diag) == {"residual", "unknowns"}
        assert RESIDUAL_TOL < diag["residual"] < 1e-5
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
    @settings(max_examples=25, deadline=None, database=None)
    @given(coeffs=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           seed=st.integers(0, 2 ** 16), level=st.integers(0, 1))
    def test_exact_data_scores_finite_and_not_negative(self, coeffs, seed,
                                                        level):
        # linear data are fitted exactly, so the node-space misfit is 0 up
        # to rounding that may fall below it; every score stays >= 0
        data, fem, _ = linear_problem(build_square_mesh(level), n=60,
                                      seed=seed, coeffs=coeffs)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-8, 1.0, 9), probes=6,
                        refine_iters=4)
        selection = select_alpha(fem, cfg, seed=seed)
        scores = np.array([v for _, v in selection.scores])
        assert np.all(np.isfinite(scores)) and np.all(scores >= 0.0)
        assert rmse(selection.fit, data, fem.located) <= 1e-8

    def test_selection_is_a_frozen_float(self):
        data, fem = noisy_problem(build_square_mesh(0), n=90, seed=9)
        selection = select_alpha(fem, GcvConfig(probes=5), seed=3)
        assert isinstance(selection, float)
        assert selection == min(selection.scores, key=lambda p: p[::-1])[0]
        for name in ("scores", "edge", "fit", "other"):
            with pytest.raises(AttributeError):
                setattr(selection, name, None)
            with pytest.raises(AttributeError):
                delattr(selection, name)

    def test_noise_free_linear_keeps_exactness(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh, n=60, seed=2)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-8, 1.0, 9), probes=6,
                        refine_iters=4)
        alpha = select_alpha(fem, cfg, seed=0)
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
        alpha = select_alpha(fem, cfg, seed=0)

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

    def test_search_close_to_dense_scan_on_peaks(self):
        # the golden search's score is within 0.1% of a 61-point scan's best
        from tpsfem.data import PeaksSpec, peaks_generate
        data = peaks_generate(PeaksSpec(n=2000), seed=7).normalized()
        mesh = build_square_mesh(2)
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        cfg = GcvConfig(alpha_grid=np.array([1e-9, 1e-2]), probes=20)
        alpha = select_alpha(fem, cfg, seed=0)
        W = rademacher_system(fem, 20)
        scan = np.geomspace(1e-9, 1e-2, 61)
        scores = [gcv_score(W, a) for a in scan]
        chosen = gcv_score(W, alpha)
        j = int(np.argmin(scores))
        gap = abs(math.log10(alpha / scan[j]))
        assert chosen <= 1.001 * scores[j], (
            f"score {chosen:.6e} vs scan {scores[j]:.6e}, "
            f"{gap:.3f} decades from the scan's alpha {scan[j]:.3e}")

    def test_two_runs_identical(self):
        mesh = build_square_mesh(0)
        data, fem = noisy_problem(mesh, n=90, seed=9)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-8, 1, 9), probes=5,
                        refine_iters=5)
        a1 = select_alpha(fem, cfg, seed=3)
        a2 = select_alpha(fem, cfg, seed=3)
        assert a1 == a2

    def test_saddle_system_formed_once_and_not_kept(self, monkeypatch):
        # each selection forms its SaddleSystem once and rescales it for
        # every score, one factorisation each; nothing holds it, the
        # FemSystem included, once the selection ends
        data, fem = noisy_problem(build_square_mesh(0), n=90, seed=9)
        made, factorizations = [], []

        class Recording(SaddleSystem):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

            def factorize(self):
                lu = super().factorize()
                factorizations[-1] = self.factorizations
                return lu

        monkeypatch.setattr(gcv, "SaddleSystem", Recording)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-8, 1, 9), probes=5,
                        refine_iters=5)
        for seed in (3, 4):
            factorizations.append(0)
            selection = select_alpha(fem, cfg, seed=seed)
            assert factorizations[-1] == len(selection.scores)
        assert len(made) == 2
        gc.collect()
        assert all(ref() is None for ref in made)

    def test_result_inside_bracket(self):
        mesh = build_square_mesh(0)
        data, fem = noisy_problem(mesh, n=70, seed=4)
        cfg = GcvConfig(alpha_grid=np.geomspace(1e-6, 1, 7), probes=4,
                        refine_iters=6)
        alpha = select_alpha(fem, cfg, seed=1)
        assert 1e-6 <= alpha <= 1.0

    @pytest.mark.parametrize("grid", [[np.nan, 1.0], [1e-3, np.inf], [],
                                      [[1e-3, 1.0]]])
    def test_grid_that_is_not_finite_or_flat_rejected(self, grid):
        with pytest.raises(ValueError, match="alpha_grid must be"):
            GcvConfig(alpha_grid=grid)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            GcvConfig(alpha_grid=np.array([1e-3, 1e-3]))
        with pytest.raises(ValueError):
            GcvConfig(alpha_grid=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            GcvConfig(probes=0)
        with pytest.raises(ValueError):
            GcvConfig(refine_iters=-1)


class TestGoldenSearch:
    """select_alpha against a stubbed score of alpha alone."""

    GRID = np.geomspace(1e-10, 1.0, 21)
    FEM = SimpleNamespace(located=SimpleNamespace(n_used=40))

    def search(self, monkeypatch, curve, refine_iters=12):
        calls = []

        def stub(system, alpha):
            # each candidate leaves its data solution on the system
            calls.append(alpha)
            system.solution = ("solution at", alpha)
            return curve(math.log10(alpha))

        monkeypatch.setattr("tpsfem.gcv.SaddleSystem",
                            lambda fem, alpha, Z: SimpleNamespace(
                                solution=None, fitted=lambda solution, alpha:
                                ("fit of", solution, alpha)))
        monkeypatch.setattr("tpsfem.gcv.gcv_score", stub)
        cfg = GcvConfig(alpha_grid=self.GRID, probes=4,
                        refine_iters=refine_iters)
        alpha = select_alpha(self.FEM, cfg)
        # the selection hands over the fit of the winner's solution at the
        # winner's alpha, and the scores
        assert alpha.fit == ("fit of", ("solution at", alpha), alpha)
        assert [a for a, _ in alpha.scores] == sorted(set(calls))
        assert all(v == curve(math.log10(a)) for a, v in alpha.scores)
        ends = (self.GRID[0], self.GRID[-1])
        assert alpha.edge == (alpha if alpha in ends else None)
        return alpha, len(calls)

    @pytest.mark.parametrize("refine_iters", [1, 5, 12])
    def test_increasing_score_returns_lowest_end(self, monkeypatch,
                                                 refine_iters):
        alpha, calls = self.search(monkeypatch, lambda t: t, refine_iters)
        assert alpha == self.GRID[0]
        assert calls == refine_iters + 3

    @pytest.mark.parametrize("refine_iters", [1, 5, 12])
    def test_decreasing_score_returns_highest_end(self, monkeypatch,
                                                  refine_iters):
        alpha, calls = self.search(monkeypatch, lambda t: -t, refine_iters)
        assert alpha == self.GRID[-1]
        assert calls == refine_iters + 3

    @pytest.mark.parametrize("refine_iters", [5, 12])
    @pytest.mark.parametrize("centre", [-8.3, -4.0, -1.5])
    def test_quadratic_minimum_within_final_bracket(self, monkeypatch,
                                                    refine_iters, centre):
        alpha, calls = self.search(monkeypatch, lambda t: (t - centre) ** 2,
                                   refine_iters)
        bracket = 10.0 * GOLDEN ** refine_iters  # decades
        assert abs(math.log10(alpha) - centre) <= bracket
        assert calls == refine_iters + 2

    def test_flat_score_returns_lowest_end(self, monkeypatch):
        alpha, calls = self.search(monkeypatch, lambda t: 1.0)
        assert alpha == self.GRID[0]
        assert calls == 12 + 3
