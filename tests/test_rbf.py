from types import SimpleNamespace

import numpy as np
import pytest

import tpsfem.rbf as rbf
import tpsfem.tps as tps

from oracles import csrbf_eval_loop, dense_csrbf_gcv_scores
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.exceptions import NoControlPoints
from tpsfem.rbf import (KERNELS, ControlPointPlan, buhmann_kernel, choose_rho,
                        baseline_metrics, fit_csrbf, fit_global_tps,
                        report_sparsity, snap_control_points, wendland_kernel)
from tpsfem.tps import fit_tps, select_alpha_tps


class TestKernels:
    def test_buhmann_endpoints(self):
        # phi(0) = 1/15 (limit of the 2 r^2 log r term is 0)
        assert abs(buhmann_kernel(0.0) - 1 / 15) < 1e-15
        # phi(1) = 1/15 + 19/6 - 16/3 + 3 - 16/15 + 1/6 = 0 exactly
        assert abs(buhmann_kernel(1.0 - 1e-13)) < 1e-11
        assert buhmann_kernel(1.0) == 0.0
        assert buhmann_kernel(1.5) == 0.0

    def test_wendland_endpoints(self):
        assert wendland_kernel(0.0) == 1.0
        assert wendland_kernel(1.0) == 0.0
        assert wendland_kernel(2.0) == 0.0

    def test_wendland_decreasing_on_support(self):
        r = np.linspace(0, 1, 200)
        v = wendland_kernel(r)
        assert np.all(np.diff(v) <= 1e-12)

    def test_continuity_at_cutoff(self):
        eps = np.geomspace(1e-8, 1e-3, 6)
        assert np.all(np.abs(buhmann_kernel(1 - eps)) < 1e-2)
        assert np.all(np.abs(wendland_kernel(1 - eps)) < 1e-2)
        assert np.abs(buhmann_kernel(1 - 1e-8)) < 1e-6


class TestControlPoints:
    def test_data_on_grid_nodes(self):
        xs = np.linspace(0.0, 1.0, 6)
        pts = np.array([(a, b) for a in xs for b in xs])
        data = DataSet(pts, np.zeros(len(pts)))
        idx = snap_control_points(data, ControlPointPlan(grid_h=0.2))
        assert len(idx) == 36

    def test_empty_region_has_no_control_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.4, size=(200, 2))
        pts = np.vstack([pts, [[1.0, 1.0]]])  # stretch the bbox
        data = DataSet(pts, np.zeros(len(pts)))
        idx = snap_control_points(data, ControlPointPlan(grid_h=0.1))
        centers = data.x[idx]
        hole = (centers[:, 0] > 0.55) & (centers[:, 0] < 0.9) \
            & (centers[:, 1] > 0.55) & (centers[:, 1] < 0.9)
        assert not hole.any()

    def test_min_pairwise_distance_bound(self):
        data = peaks_generate(PeaksSpec(n=4000), seed=1)
        plan = ControlPointPlan(grid_h=0.4)
        idx = snap_control_points(data, plan)
        centers = data.x[idx]
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        d[np.diag_indices_from(d)] = np.inf
        # two control points snap to distinct grid nodes >= h apart, each
        # within h/3 of its node, so pairwise distance >= h - 2h/3 = h/3
        assert d.min() >= plan.grid_h / 3.0 - 1e-12

    def test_no_control_points(self):
        # single grid node at the bbox corner, both points 2 > h/3 away
        data = DataSet(np.array([[0.0, 2.0], [2.0, 0.0]]), np.zeros(2))
        with pytest.raises(NoControlPoints):
            snap_control_points(data, ControlPointPlan(grid_h=3.0))


class TestChooseRho:
    def test_monotone_in_k(self):
        data = peaks_generate(PeaksSpec(n=3000), seed=2)
        idx = snap_control_points(data, ControlPointPlan(grid_h=0.3))
        r100 = choose_rho(data.x[idx], data, 100)
        r300 = choose_rho(data.x[idx], data, 300)
        assert r100 < r300

    def test_degenerate_clamp(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        data = DataSet(pts, np.zeros(4))
        rho = choose_rho(pts, data, 1)
        assert rho == 1.0  # smallest positive pairwise distance


class TestFits:
    def test_isolated_centers_diagonal_system(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        data = DataSet(pts, np.array([2.0, 4.0, 6.0]))
        m = fit_csrbf(data, "wendland", rho=1.0,
                      control_idx=np.arange(3), alpha=0.0)
        # phi(0) = 1 so weights equal the collocated values
        assert np.allclose(m.weights, data.y)
        assert m.nonzeros == 3

    def test_wendland_interpolates_at_alpha_zero(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(50, 2))
        data = DataSet(pts, rng.normal(size=50))
        m = fit_csrbf(data, "wendland", rho=0.5,
                      control_idx=np.arange(50), alpha=0.0)
        assert np.abs(m.eval(pts) - data.y).max() < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(30, 2))
        y = rng.normal(size=30)
        m1 = fit_csrbf(DataSet(pts, y), "buhmann", rho=0.4,
                       control_idx=np.arange(30), alpha=1e-6)
        perm = rng.permutation(30)
        m2 = fit_csrbf(DataSet(pts[perm], y[perm]), "buhmann", rho=0.4,
                       control_idx=np.arange(30), alpha=1e-6)
        probe = rng.uniform(0, 1, size=(10, 2))
        assert np.allclose(m1.eval(probe), m2.eval(probe), atol=1e-9)

    @pytest.mark.parametrize("kernel", ["buhmann", "wendland"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gcv_alpha_matches_dense_oracle(self, kernel, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(150, 2))
        y = np.sin(4 * x[:, 0]) * np.cos(3 * x[:, 1]) + 0.2 * rng.normal(size=150)
        grid = np.geomspace(1e-6, 1.0, 13)
        m = fit_csrbf(DataSet(x, y), kernel, rho=0.3, control_idx=np.arange(150),
                      alpha="gcv", alpha_grid=grid, probes=10, seed=seed)
        ref = dense_csrbf_gcv_scores(x, y, 0.3, KERNELS[kernel], grid,
                                     probes=10, seed=seed)
        assert 0 < np.argmin(ref) < len(grid) - 1  # an interior minimum
        assert m.alpha_rbf in grid
        assert ref[grid == m.alpha_rbf][0] <= ref.min() * (1 + 1e-9)

    @pytest.mark.parametrize("kernel", ["buhmann", "wendland"])
    def test_eval_matches_point_loop_oracle(self, kernel):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(400, 2))
        data = DataSet(x, np.sin(4 * x[:, 0]) + rng.normal(size=400))
        m = fit_csrbf(data, kernel, rho=0.2, control_idx=np.arange(0, 400, 3),
                      alpha=1e-4)
        outside = np.array([[3.0, 3.0], [-1.0, 0.5], [0.5, 1.25]])
        pts = np.vstack([m.centers, rng.uniform(-0.1, 1.1, size=(300, 2)),
                         outside])
        got = m.eval(pts)
        ref = csrbf_eval_loop(m, pts, KERNELS[kernel])
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        # every centre sits on itself, so phi(0) times its weight is counted
        assert np.all(np.abs(got[:len(m.centers)]) > 0)
        assert np.array_equal(got[-3:], np.zeros(3))
        assert m.eval(m.centers[0]).shape == (1,)

    def test_global_tps_fit_and_sparsity(self):
        data = peaks_generate(PeaksSpec(n=2000), seed=5)
        plan = ControlPointPlan(grid_h=0.4)
        idx = snap_control_points(data, plan)
        model, seconds = fit_global_tps(data, control_idx=idx, alpha=1e-6)
        nnz, ratio = report_sparsity(model)
        assert ratio == 1.0
        assert nnz == len(idx) ** 2
        r, mx = baseline_metrics(model, data)
        assert r < 0.5

    def test_global_tps_gcv_selects_and_fits_from_one_reduction(
            self, monkeypatch):
        # alpha="gcv" is fit_tps(subset, "auto"): the alpha of the separate
        # selection, and weights and affine part within 1e-10 of the
        # Cholesky fit at that alpha, from one reflected system
        data = peaks_generate(PeaksSpec(n=2000), seed=5)
        idx = snap_control_points(data, ControlPointPlan(grid_h=0.4))
        subset = DataSet(data.x[idx], data.y[idx])
        alpha = select_alpha_tps(subset)
        ref = fit_tps(subset, alpha)
        calls = []
        real = tps._reflected_system

        def counting(sample):
            calls.append(len(sample))
            return real(sample)
        monkeypatch.setattr(tps, "_reflected_system", counting)
        model, seconds = fit_global_tps(data, control_idx=idx)
        assert calls == [len(idx)] and seconds > 0
        assert model.alpha_tps == alpha
        for got, want in ((model.weights, ref.weights),
                          (model.affine, ref.affine)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_bad_alpha_rejected(self, alpha):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        data = DataSet(pts, np.ones(4))
        with pytest.raises(ValueError, match="alpha must be"):
            fit_csrbf(data, "wendland", rho=0.5, control_idx=np.arange(4),
                      alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be"):
            fit_global_tps(data, control_idx=np.arange(4), alpha=alpha)


    @pytest.mark.parametrize("grid", [[np.nan], [-1e-3, 1e-3],
                                      [1e-2, 1e-4], [1e-3, 1e-3], [],
                                      [[1e-4, 1e-2]], [1e-4, np.inf]])
    def test_bad_alpha_grid_rejected(self, grid):
        rng = np.random.default_rng(0)
        data = DataSet(rng.uniform(0, 1, size=(20, 2)), rng.normal(size=20))
        with pytest.raises(ValueError, match="alpha_grid must be"):
            fit_csrbf(data, "wendland", rho=0.5, control_idx=np.arange(20),
                      alpha_grid=grid)

    @pytest.mark.parametrize("alpha", ["gcv", 1e-4])
    def test_solve_seconds_cover_the_gcv_search(self, monkeypatch, alpha):
        # on a clock that moves only inside the search, the seconds are the
        # search's with "gcv", and 0 without it
        clock = [0.0]

        def search(K, y, grid, probes, seed):
            clock[0] += 100.0
            return float(grid[0])
        monkeypatch.setattr(rbf, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(rbf, "_csrbf_gcv", search)
        rng = np.random.default_rng(1)
        data = DataSet(rng.uniform(0, 1, size=(20, 2)), rng.normal(size=20))
        m = fit_csrbf(data, "wendland", rho=0.5, control_idx=np.arange(20),
                      alpha=alpha)
        assert m.solve_seconds == (100.0 if alpha == "gcv" else 0.0)


class TestSparsity:
    def test_ratio_increases_with_rho(self):
        data = peaks_generate(PeaksSpec(n=3000), seed=6)
        idx = snap_control_points(data, ControlPointPlan(grid_h=0.25))
        ratios = []
        for k in (50, 150, 400):
            rho = choose_rho(data.x[idx], data, k)
            m = fit_csrbf(data, "wendland", rho=rho, control_idx=idx,
                          alpha=1e-8)
            ratios.append(report_sparsity(m)[1])
        assert ratios[0] < ratios[1] < ratios[2]

    def test_diagonal_ratio(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        data = DataSet(pts, np.ones(4))
        m = fit_csrbf(data, "wendland", rho=1.0, control_idx=np.arange(4),
                      alpha=0.0)
        nnz, ratio = report_sparsity(m)
        assert ratio == pytest.approx(1 / 4)
