import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

import tpsfem.tps as tps

from conftest import coverage_gap
from oracles import (complete_q_tps_gcv_scores, copying_auto_tps_fit,
                     copying_given_alpha_tps_fit, dense_tps_fit,
                     dense_tps_gcv_scores, eigenvalue_gcv_scores,
                     eigenvalue_residual_dof, masked_kernel_value,
                     radii_tps_evals, summed_radii)
from tpsfem.boundary import _spline_rows
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.exceptions import DegenerateGeometry, InsufficientData
from tpsfem.experiments import boundary_accuracy_rows
from tpsfem.tps import (ALPHA_TPS_GRID, SamplePlan, TpsModel, _distances,
                        _gcv_scores, _spline_system, _Tridiagonal, fit_tps,
                        kernel_laplacian_proxy, kernel_value, sample,
                        select_alpha_tps)


def random_model(seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(12, 2))
    w = rng.normal(size=12)
    w -= w.mean()  # moment constraints are irrelevant for kernel evals
    return TpsModel(centers=centers, weights=w,
                    affine=rng.normal(size=3), alpha_tps=0.0)


def peaks_sample(n, lshape):
    """A quadtree sample of ``n`` normalised peaks points from the square or
    the L-shape left by dropping the upper right quadrant."""
    data = peaks_generate(PeaksSpec(n=4000), seed=n)
    if lshape:
        data = data.subset(~((data.x[:, 0] > 0) & (data.x[:, 1] > 0)))
    return sample(data.normalized(), SamplePlan("quadtree", count=n), seed=n)


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
        assert np.array_equal(K, kernel_value(_distances(x, x)))
        assert np.count_nonzero(K == 0.0) > len(x)

    @pytest.mark.parametrize("n, block", [(4, tps.KERNEL_BLOCK), (64, 50),
                                          (101, 700),
                                          (600, tps.KERNEL_BLOCK)])
    def test_lower_triangle_mirrored_is_the_full_build(self, monkeypatch, n,
                                                       block):
        # the kernel built as lower-triangle row blocks mirrored above the
        # diagonal is bitwise the full build, blocks of one row to one block
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, size=(n, 2))
        x[n // 2] = x[0]  # a duplicate: r = 0 off the diagonal
        logs = []
        real = tps.kernel_value
        monkeypatch.setattr(tps, "KERNEL_BLOCK", block)
        monkeypatch.setattr(tps, "kernel_value",
                            lambda r: logs.append(np.size(r)) or real(r))
        _, _, K, _ = _spline_system(DataSet(x, rng.normal(size=n)))
        assert K.tobytes() == real(_distances(x, x)).tobytes()
        rows = max(1, block // n)
        assert sum(logs) == sum(min(i + rows, n) * min(rows, n - i)
                                for i in range(0, n, rows))
        assert sum(logs) <= (n * n + n * rows) / 2

    def test_model_evals(self):
        m = random_model(3)
        pts = np.vstack([np.random.default_rng(8).uniform(-1, 1, (50, 2)),
                         m.centers[:4]])
        value, grad, proxy = radii_tps_evals(m, pts)
        assert np.array_equal(m.eval(pts), value)
        assert np.array_equal(m.eval_grad(pts), grad)
        assert np.array_equal(m.eval_laplacian_proxy(pts), proxy)
        for got, ref in zip(m.eval_all(pts), (value, grad, proxy)):
            assert got.tobytes() == ref.tobytes()

    def test_spline_rows_from_one_distance_matrix(self, monkeypatch):
        # the boundary rows c, g1, g2, w, w_proxy are bitwise those of the
        # three separate evaluations, from one distance matrix
        m = random_model(4)
        pts = np.vstack([np.random.default_rng(9).uniform(-1, 1, (40, 2)),
                         m.centers[:3]])
        alpha = 1e-3
        proxy = m.eval_laplacian_proxy(pts)
        ref = np.column_stack([m.eval(pts), m.eval_grad(pts),
                               -alpha * proxy, proxy])
        calls = []

        def counting(a, b):
            calls.append(len(a))
            return _distances(a, b)
        monkeypatch.setattr(tps, "_distances", counting)
        assert _spline_rows(m, pts, alpha).tobytes() == ref.tobytes()
        assert calls == [len(pts)]


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

    @pytest.mark.parametrize("alpha", [-1e-3, np.nan, np.inf, "gcv", None])
    def test_bad_alpha_rejected(self, alpha):
        rng = np.random.default_rng(10)
        data = DataSet(rng.uniform(0, 1, size=(20, 2)), rng.normal(size=20))
        with pytest.raises(ValueError, match="alpha_tps"):
            fit_tps(data, alpha)

    @pytest.mark.parametrize("grid", [
        [0.0, 1e-6, 1e-3], [-1e-6, 1e-3], [1e-6, np.nan], [1e-6, np.inf],
        [1e-3, 1e-6], [1e-6, 1e-6, 1e-3], [], [[1e-6, 1e-3]]])
    def test_bad_alpha_grid_rejected(self, grid):
        rng = np.random.default_rng(11)
        data = DataSet(rng.uniform(0, 1, size=(20, 2)), rng.normal(size=20))
        with pytest.raises(ValueError, match="alpha_grid"):
            select_alpha_tps(data, grid)

    def test_coincident_points_rejected_at_alpha_zero(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=(30, 2))
        x[[12, 25]] = x[4]
        data = DataSet(x, rng.normal(size=30))
        with pytest.raises(DegenerateGeometry,
                           match=r"\[\(4, 12\), \(4, 25\)\]"):
            fit_tps(data, 0.0)
        # smoothing through repeated coordinates is well posed
        alpha = select_alpha_tps(data)
        m = fit_tps(data, alpha)
        ref = dense_tps_fit(data.x, data.y, alpha)
        assert np.allclose(m.eval(x), ref.eval(x), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_tiny_samples_interpolate(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, size=(n, 2))
        y = rng.normal(size=n)
        m = fit_tps(DataSet(x, y), 0.0)
        assert np.abs(m.eval(x) - y).max() < 1e-12
        probe = rng.uniform(-1, 1, size=(20, 2))
        ref = dense_tps_fit(x, y, 0.0)
        assert np.abs(m.eval(probe) - ref.eval(probe)).max() < 1e-10


class TestFitProjection:
    """The null-space fit against the bordered dense solve on the boundary
    spline's samples, in a square and an L-shaped region, at interpolation
    and at the GCV alpha."""

    @pytest.mark.parametrize("n", [100, 300, 600])
    @pytest.mark.parametrize("lshape", [False, True])
    def test_peaks_samples_match_dense_fit(self, n, lshape):
        samp = peaks_sample(n, lshape)
        pts = np.vstack([samp.x, np.random.default_rng(n).uniform(
            samp.x.min(axis=0), samp.x.max(axis=0), size=(200, 2))])
        for alpha in (0.0, select_alpha_tps(samp)):
            got = fit_tps(samp, alpha)
            ref = dense_tps_fit(samp.x, samp.y, alpha)
            for f in ("eval", "eval_grad", "eval_laplacian_proxy"):
                a = getattr(got, f)(pts)
                b = getattr(ref, f)(pts)
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), f

    def test_no_cubic_dense_solver(self, monkeypatch):
        """Selection and fit use neither an eigendecomposition nor a general
        dense solve."""
        def refuse(*args, **kwargs):
            raise AssertionError("dense O(n^3) form called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        monkeypatch.setattr(scipy.linalg, "solve", refuse)
        data = peaks_generate(PeaksSpec(n=4000), seed=0).normalized()
        samp = sample(data, SamplePlan("quadtree", count=600), seed=0)
        for m in (fit_tps(samp, select_alpha_tps(samp)),
                  fit_tps(samp, "auto")):
            assert np.all(np.isfinite(m.weights))


class TestFitAuto:
    """Selection and fit from one reduction: the alpha of select_alpha_tps
    and the fit of its Cholesky path and of the bordered dense solve."""

    @staticmethod
    def tiny_sample(n, seed):
        rng = np.random.default_rng(300 + seed)
        x = rng.uniform(-1, 1, size=(n, 2))
        return DataSet(x, x[:, 0] * x[:, 1] + 0.2 * rng.normal(size=n))

    @staticmethod
    def assert_matches(data):
        alpha = select_alpha_tps(data)
        got = fit_tps(data, "auto")
        assert got.alpha_tps == alpha
        pts = np.random.default_rng(len(data)).uniform(
            data.x.min(axis=0), data.x.max(axis=0), size=(200, 2))
        # at n = 3 the weights are 0 and the oracle's about 1e-17
        floor = np.abs(data.y).max()
        refs = (fit_tps(data, alpha), dense_tps_fit(data.x, data.y, alpha))
        for ref in refs:
            for a, b in ((got.weights, ref.weights), (got.affine, ref.affine),
                         (_spline_rows(got, pts, alpha),
                          _spline_rows(ref, pts, alpha))):
                assert (np.abs(a - b).max()
                        <= 1e-10 * max(np.abs(b).max(), floor))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_samples(self, n, seed):
        self.assert_matches(self.tiny_sample(n, seed))

    @pytest.mark.parametrize("n", [300, 600])
    @pytest.mark.parametrize("lshape", [False, True])
    def test_peaks_samples(self, n, lshape):
        self.assert_matches(peaks_sample(n, lshape))

    def test_one_reflected_system_one_reduction_no_cholesky(self,
                                                            monkeypatch):
        calls = {"_reflected_system": 0, "dsytrd": 0, "cho_factor": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(tps, "_reflected_system")
        counting(lapack, "dsytrd")
        counting(scipy.linalg, "cho_factor")
        m = fit_tps(peaks_sample(300, True), "auto")
        assert np.all(np.isfinite(m.weights))
        assert calls == {"_reflected_system": 1, "dsytrd": 1,
                         "cho_factor": 0}


class TestInPlaceReduction:
    """The reflected system and its reduction overwrite the kernel matrix
    rather than copy it, and change no bit of the fit."""

    @pytest.mark.parametrize("n", [5, 6, 300, 600])
    @pytest.mark.parametrize("lshape", [False, True])
    def test_bitwise_equal_to_copying_fit(self, n, lshape):
        samp = (TestFitAuto.tiny_sample(n, 0) if n < 10
                else peaks_sample(n, lshape))
        got = fit_tps(samp, "auto")
        w, a, alpha = copying_auto_tps_fit(samp)
        assert got.weights.tobytes() == w.tobytes()
        assert got.affine.tobytes() == a.tobytes()
        assert got.alpha_tps == alpha

    @pytest.mark.parametrize("n", [3, 5, 600])
    @pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-3])
    def test_given_alpha_bitwise_equal_to_copying_fit(self, n, alpha):
        samp = (TestFitAuto.tiny_sample(n, 0) if n < 10
                else peaks_sample(n, True))
        got = fit_tps(samp, alpha)
        w, a = copying_given_alpha_tps_fit(samp, alpha)
        assert got.weights.tobytes() == w.tobytes()
        assert got.affine.tobytes() == a.tobytes()

    @pytest.mark.parametrize("alpha", ["auto", 1e-6])
    def test_fit_holds_one_kernel_buffer(self, alpha):
        """The kernel is built in blocks of rows into its one n x n buffer,
        and Z^T K Z and the reflectors are packed into it column block by
        column block, so at most 1 MiB comes on top of that buffer."""
        samp = peaks_sample(600, True)
        assert len(samp) == 600
        fit_tps(samp, alpha)
        tracemalloc.start()
        try:
            fit_tps(samp, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(samp) ** 2 + 2 ** 20


def diagonally_dominant(m, e, margin, scale):
    """A positive definite ``_Tridiagonal`` of order m: off-diagonal ``e``
    and a diagonal exceeding the absolute off-diagonal row sums by
    ``margin``, all times ``scale``."""
    e = np.asarray(e[:m - 1], dtype=float)
    off = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    d = off + np.asarray(margin[:m], dtype=float)
    return _Tridiagonal(None, None, scale * d, scale * e, np.ones(m))


class TestPivotTrace:
    """n - tr H from the forward and backward LDL^T pivots of the shifted
    tridiagonal, against the trace from its eigenvalues (``dsterf``)."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(m=st.integers(2, 80),
           e=st.lists(st.floats(-1.0, 1.0), min_size=79, max_size=79),
           margin=st.lists(st.floats(0.01, 10.0), min_size=80, max_size=80),
           scale=st.floats(-3.0, 3.0).map(lambda p: 10.0 ** p),
           shift=st.floats(-6.0, 2.0).map(lambda p: 10.0 ** p))
    def test_matches_eigenvalue_trace(self, m, e, margin, scale, shift):
        tri = diagonally_dominant(m, e, margin, scale)
        sigma = shift * scale
        got = tri.residual_dof(sigma)
        ref = eigenvalue_residual_dof(tri, sigma)
        assert abs(got - ref) <= 1e-12 * ref

    def test_not_positive_definite_scores_inf_without_warning(self):
        # T has two eigenvalues near -3; the candidates whose shift leaves
        # T + sigma*I indefinite score +inf, the others are finite
        rng = np.random.default_rng(12)
        m = 30
        e = rng.uniform(-0.1, 0.1, m - 1)
        d = rng.uniform(1.0, 2.0, m)
        d[[4, 17]] = -3.0
        tri = _Tridiagonal(None, None, d, e, rng.normal(size=m))
        grid = np.geomspace(1e-3, 1.0, 7)
        lam_min = lapack.dsterf(d, e)[0].min()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = tri.gcv_scores(grid)
            assert tri.residual_dof((m + 3) * grid[0]) is None
        definite = (m + 3) * grid + lam_min > 0
        assert 0 < np.count_nonzero(definite) < len(grid)
        assert np.all(scores[~definite] == np.inf)
        assert np.allclose(scores[definite],
                           eigenvalue_gcv_scores(tri, grid)[definite],
                           rtol=1e-12, atol=0)

    def test_orders_below_two(self):
        # m = 1: T is one diagonal entry; m = 0 (n = 3) leaves n - tr H = 0
        def tri(d):
            return _Tridiagonal(None, None, np.array(d), np.zeros(0),
                                np.ones(len(d)))
        assert tri([2.0]).residual_dof(0.5) == pytest.approx(0.2, rel=1e-15)
        assert tri([-2.0]).residual_dof(0.5) is None
        assert tri([]).residual_dof(0.5) == 0.0
        assert np.all(tri([]).gcv_scores(ALPHA_TPS_GRID) == np.inf)

    def test_auto_fit_never_calls_dsterf(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dsterf called")

        monkeypatch.setattr(lapack, "dsterf", refuse)
        for n in (5, 300):
            samp = (TestFitAuto.tiny_sample(n, 0) if n < 10
                    else peaks_sample(n, True))
            assert np.all(np.isfinite(fit_tps(samp, "auto").weights))
            select_alpha_tps(samp)

    def test_boundary_accuracy_alphas_match_eigenvalue_trace(self,
                                                             monkeypatch):
        # every spline of the boundary-accuracy table picks the alpha that
        # the eigenvalue trace picks, 13 of the 60 at the 1e-9 floor of the
        # grid where the scores of the smallest candidates nearly tie
        rows = boundary_accuracy_rows(seeds=range(6))
        monkeypatch.setattr(_Tridiagonal, "gcv_scores",
                            eigenvalue_gcv_scores)
        ref = boundary_accuracy_rows(seeds=range(6))
        assert len(rows) == len(ref) == 60
        assert [r["alpha"] for r in rows] == [r["alpha"] for r in ref]
        assert sum(r["alpha"] == ALPHA_TPS_GRID[0] for r in rows) == 13


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

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_samples_match_dense_oracle(self, n, seed):
        # n = 4 and 5 leave one and two null-space dimensions; n = 3 leaves
        # none, where the oracle's tr H misses n by rounding only
        rng = np.random.default_rng(200 + seed)
        x = rng.uniform(-1, 1, size=(n, 2))
        data = DataSet(x, x[:, 0] * x[:, 1] + 0.2 * rng.normal(size=n))
        if n == 3:
            grid = np.geomspace(1e-9, 1e-1, 17)
            assert np.all(_gcv_scores(data, grid) == np.inf)
            assert select_alpha_tps(data) == grid[0]
        else:
            self.assert_matches_oracle(data)


class TestGcvProjection:
    """The reflector projection against the complete-Q projection on the
    boundary spline's samples, in a square and an L-shaped region."""

    @pytest.mark.parametrize("n", [100, 300, 600])
    @pytest.mark.parametrize("lshape", [False, True])
    def test_peaks_samples_match_complete_q(self, n, lshape):
        samp = peaks_sample(n, lshape)
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
