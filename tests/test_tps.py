import numpy as np
import pytest

from conftest import coverage_gap
from oracles import (complete_q_tps_gcv_scores, dense_tps_gcv_scores,
                     masked_kernel_value, radii_tps_evals, summed_radii)
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.exceptions import DegenerateGeometry, InsufficientData
from tpsfem.tps import (SamplePlan, TpsModel, _gcv_scores, _spline_system,
                        fit_tps, kernel_laplacian_proxy, kernel_value, sample,
                        select_alpha_tps)


def random_model(seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(12, 2))
    w = rng.normal(size=12)
    w -= w.mean()  # moment constraints are irrelevant for kernel evals
    return TpsModel(centers=centers, weights=w,
                    affine=rng.normal(size=3), alpha_tps=0.0)


class TestKernels:
    def test_value_zero_at_origin(self):
        assert kernel_value(0.0) == 0.0
        assert abs(kernel_value(1.0)) == 0.0  # 1^2 log 1
        assert abs(kernel_value(np.e) - np.e ** 2) < 1e-12

    def test_laplacian_proxy_form(self):
        assert abs(kernel_laplacian_proxy(1.0) + 4.0) < 1e-12
        assert abs(kernel_laplacian_proxy(np.exp(-4.0)) - 0.0) < 1e-12

    def test_center_contributes_zero_to_value_and_grad(self):
        m = random_model(0)
        p = m.centers[3]
        v1 = m.eval([p])[0]
        g1 = m.eval_grad([p])[0]
        # removing center 3 must not change value/gradient at its location
        m2 = TpsModel(centers=np.delete(m.centers, 3, axis=0),
                      weights=np.delete(m.weights, 3),
                      affine=m.affine, alpha_tps=0.0)
        assert abs(v1 - m2.eval([p])[0]) < 1e-12
        assert np.allclose(g1, m2.eval_grad([p])[0], atol=1e-12)


class TestKernelBuild:
    """The per-coordinate distances and the unmasked kernel give bitwise the
    numbers of the summed (k, m, 2) differences and the masked kernel."""

    def test_scalar_kernel(self):
        for r in (0.0, 1e-300, 0.5, 1.0, np.e):
            got = kernel_value(r)
            assert got.shape == ()
            assert got == masked_kernel_value(r)

    def test_kernel_matrix_with_duplicate_points(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(60, 2))
        x = np.vstack([x, x[[3, 17, 17, 40]]])  # r = 0 off the diagonal
        _, _, K, _ = _spline_system(DataSet(x, rng.normal(size=len(x))))
        ref = masked_kernel_value(summed_radii(x, x)[1])
        assert np.array_equal(K, ref)
        assert np.count_nonzero(K == 0.0) > len(x)

    def test_model_evals(self):
        m = random_model(3)
        pts = np.vstack([np.random.default_rng(8).uniform(-1, 1, (50, 2)),
                         m.centers[:4]])
        value, grad, proxy = radii_tps_evals(m, pts)
        assert np.array_equal(m.eval(pts), value)
        assert np.array_equal(m.eval_grad(pts), grad)
        assert np.array_equal(m.eval_laplacian_proxy(pts), proxy)


class TestFit:
    def test_three_points_pure_affine(self):
        data = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       np.array([1.0, 3.0, -2.0]))
        m = fit_tps(data, alpha_tps=0.0)
        assert np.abs(m.weights).max() < 1e-9
        assert np.allclose(m.eval(data.x), data.y, atol=1e-9)

    def test_affine_reproduction(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(40, 2))
        y = 2.0 + x[:, 0] - 3.0 * x[:, 1]
        m = fit_tps(DataSet(x, y), alpha_tps=0.0)
        probe = rng.uniform(-2, 2, size=(50, 2))
        expect = 2.0 + probe[:, 0] - 3.0 * probe[:, 1]
        assert np.abs(m.eval(probe) - expect).max() < 1e-9

    def test_interpolation_at_alpha_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(25, 2))
        y = rng.normal(size=25)
        m = fit_tps(DataSet(x, y), alpha_tps=0.0)
        assert np.abs(m.eval(x) - y).max() < 1e-8

    def test_moment_constraints(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(30, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
        for alpha in (0.0, 1e-4):
            m = fit_tps(DataSet(x, y), alpha)
            assert abs(m.weights.sum()) < 1e-8
            assert abs(m.weights @ x[:, 0]) < 1e-8
            assert abs(m.weights @ x[:, 1]) < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(20, 2))
        y = rng.normal(size=20)
        m1 = fit_tps(DataSet(x, y), 1e-3)
        perm = rng.permutation(20)
        m2 = fit_tps(DataSet(x[perm], y[perm]), 1e-3)
        probe = rng.uniform(0, 1, size=(10, 2))
        assert np.allclose(m1.eval(probe), m2.eval(probe), atol=1e-9)

    def test_collinear_rejected(self):
        x = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
        with pytest.raises(DegenerateGeometry):
            fit_tps(DataSet(x, np.ones(10)), 0.0)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            m = random_model(seed + 10)
            pts = rng.uniform(-0.9, 0.9, size=(100, 2))
            # keep probes away from centers where log r is stiff
            from scipy.spatial import cKDTree
            d, _ = cKDTree(m.centers).query(pts)
            pts = pts[d > 1e-2]
            g = m.eval_grad(pts)
            h = 1e-5
            gx = (m.eval(pts + [h, 0]) - m.eval(pts - [h, 0])) / (2 * h)
            gy = (m.eval(pts + [0, h]) - m.eval(pts - [0, h])) / (2 * h)
            scale = np.maximum(1.0, np.abs(g).max())
            assert np.abs(g[:, 0] - gx).max() / scale < 1e-4
            assert np.abs(g[:, 1] - gy).max() / scale < 1e-4

    def test_pure_affine_gradient(self):
        m = TpsModel(centers=np.zeros((1, 2)), weights=np.zeros(1),
                     affine=np.array([5.0, 2.0, -3.0]), alpha_tps=0.0)
        g = m.eval_grad(np.random.default_rng(0).uniform(size=(7, 2)))
        assert np.allclose(g, [2.0, -3.0])
        assert np.allclose(m.eval_laplacian_proxy(np.zeros((2, 2))), 0.0)


class TestGcvDense:
    def test_noisy_affine_prefers_smoothing(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(60, 2))
        y = 1.0 + x[:, 0] + 0.1 * rng.normal(size=60)
        alpha = select_alpha_tps(DataSet(x, y))
        m = fit_tps(DataSet(x, y), alpha)
        clean = 1.0 + x[:, 0]
        resid = m.eval(x) - clean
        interp = fit_tps(DataSet(x, y), 0.0)
        resid0 = interp.eval(x) - clean
        assert np.sqrt(np.mean(resid ** 2)) < np.sqrt(np.mean(resid0 ** 2))

    @staticmethod
    def assert_matches_oracle(data):
        grid = np.geomspace(1e-9, 1e-1, 17)
        ref = dense_tps_gcv_scores(data.x, data.y, grid)
        got = _gcv_scores(data, grid)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-6 * ref[finite])
        # the oracle's argmin, up to candidates tied within that tolerance
        # (near alpha = 0 the interpolating fits all score alike)
        alpha = select_alpha_tps(data)
        assert alpha in grid
        assert ref[grid == alpha][0] <= ref.min() * (1 + 1e-6)

    @pytest.mark.parametrize("n", [20, 60, 150])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_samples_match_dense_oracle(self, n, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-1, 1, size=(n, 2))
        y = np.sin(3 * x[:, 0]) * x[:, 1] + 0.2 * rng.normal(size=n)
        self.assert_matches_oracle(DataSet(x, y))

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_peaks_samples_match_dense_oracle(self, normalized, seed):
        # the boundary-accuracy experiment fits raw [-3, 3] coordinates
        data = peaks_generate(PeaksSpec(n=2000), seed=seed)
        if normalized:
            data = data.normalized()
        self.assert_matches_oracle(
            sample(data, SamplePlan("quadtree", count=200), seed=seed))

    def test_three_points_return_first_candidate(self):
        data = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       np.array([1.0, 3.0, -2.0]))
        grid = np.geomspace(1e-6, 1e-2, 5)
        assert select_alpha_tps(data, grid) == grid[0]


class TestGcvProjection:
    """The reflector projection against the complete-Q projection on the
    boundary spline's samples, in a square and an L-shaped region."""

    @pytest.mark.parametrize("n", [100, 300, 600])
    @pytest.mark.parametrize("lshape", [False, True])
    def test_peaks_samples_match_complete_q(self, n, lshape):
        data = peaks_generate(PeaksSpec(n=4000), seed=n)
        if lshape:
            data = data.subset(~((data.x[:, 0] > 0) & (data.x[:, 1] > 0)))
        samp = sample(data.normalized(), SamplePlan("quadtree", count=n),
                      seed=n)
        grid = np.geomspace(1e-9, 1e-1, 17)
        ref = complete_q_tps_gcv_scores(samp.x, samp.y, grid)
        got = _gcv_scores(samp, grid)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)
        assert select_alpha_tps(samp) == grid[np.argmin(ref)]


class TestSampling:
    def test_full_sample_returns_all(self):
        rng = np.random.default_rng(0)
        data = DataSet(rng.uniform(size=(50, 2)), rng.normal(size=50))
        out = sample(data, SamplePlan("quadtree", count=50), seed=1)
        assert len(out) == 50
        assert np.allclose(np.sort(out.x[:, 0]), np.sort(data.x[:, 0]))

    def test_too_many_requested(self):
        data = DataSet(np.random.default_rng(0).uniform(size=(10, 2)),
                       np.zeros(10))
        with pytest.raises(InsufficientData):
            sample(data, SamplePlan("random", count=11), seed=0)

    def test_quadtree_beats_random_on_coverage_gap(self):
        # stratification bounds the largest hole left in the data cloud
        data = peaks_generate(PeaksSpec(n=5000), seed=0)
        wins = 0
        for seed in range(10):
            q = sample(data, SamplePlan("quadtree", count=500), seed=seed)
            r = sample(data, SamplePlan("random", count=500), seed=seed)
            if coverage_gap(q.x, data.x) < coverage_gap(r.x, data.x):
                wins += 1
        assert wins >= 7

    def test_boundary_band_excludes_inner_rectangle(self):
        data = peaks_generate(PeaksSpec(n=5000), seed=1)
        band = (-1.9, 1.9, -1.9, 1.9)
        out = sample(data, SamplePlan("quadtree_boundary_band", count=300,
                                      band=band), seed=2)
        inside = ((out.x[:, 0] > -1.9) & (out.x[:, 0] < 1.9)
                  & (out.x[:, 1] > -1.9) & (out.x[:, 1] < 1.9))
        assert not inside.any()

    def test_deterministic(self):
        data = peaks_generate(PeaksSpec(n=2000), seed=3)
        a = sample(data, SamplePlan("quadtree", count=200), seed=9)
        b = sample(data, SamplePlan("quadtree", count=200), seed=9)
        assert np.array_equal(a.x, b.x)
