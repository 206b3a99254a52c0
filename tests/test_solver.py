import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tpsfem.assembly import FemSystem, locate_dataset
from tpsfem.boundary import (BoundaryValues, boundary_values_from_callables,
                             constant_boundary_values)
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.driver import RunConfig, run
from tpsfem.exceptions import (DimensionMismatch, OutsideDomain,
                               SingularSystem)
from tpsfem.gcv import GcvConfig
from tpsfem.mesh import build_square_mesh, mesh_polygon, trim_to_irregular
from tpsfem import solver
from tpsfem.solver import (FIELDS, RESIDUAL_TOL, STATIC_PIVOTING,
                           SaddleSystem, constraint_residual, evaluate,
                           evaluate_grad, max_abs_residual, rmse)

from oracles import (dense_saddle_solve, linear_basis, one_call_interpolate,
                     rebuilt_saddle_system)
from test_equivalence import HOLED_SQUARE


def linear_field(a0=0.3, a1=0.7, a2=-0.4):
    f = lambda x, y: a0 + a1 * x + a2 * y
    grad = lambda x, y: (a1 * np.ones_like(x), a2 * np.ones_like(x))
    lap = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return f, grad, lap


def linear_problem(mesh, n=60, seed=0, coeffs=(0.3, 0.7, -0.4)):
    f, grad, lap = linear_field(*coeffs)
    rng = np.random.default_rng(seed)
    lo, hi = mesh.points.min(axis=0), mesh.points.max(axis=0)
    x = rng.uniform(lo, hi, size=(4 * n, 2))
    keep = np.flatnonzero(mesh.locate(x)[0] != -1)[:n]
    x = x[keep]
    data = DataSet(x, f(x[:, 0], x[:, 1]))
    bv = boundary_values_from_callables(mesh, f, grad, lap, alpha=1.0)
    fem = FemSystem.build(mesh, data, bv=bv)
    return data, fem, f


def zero_bv(mesh):
    nodes = mesh.boundary_nodes()
    z = np.zeros(len(nodes))
    return BoundaryValues(nodes=nodes, c=z.copy(), g1=z.copy(), g2=z.copy(),
                          w=z.copy())


def random_bv(mesh, rng):
    """Random non-zero boundary c, g1, g2 and Laplacian proxy."""
    nodes = mesh.boundary_nodes()
    c, g1, g2, proxy = rng.uniform(-1, 1, size=(4, len(nodes)))
    return BoundaryValues(nodes=nodes, c=c, g1=g1, g2=g2, w=-proxy,
                          w_proxy=proxy)


def random_boundary_problem(seed=5):
    """Trimmed mesh with random data and random non-zero boundary c, g1, g2
    and Laplacian proxy, so every eliminated boundary term is non-zero."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(400, 2))
    x = x[(x[:, 0] < 0.55) | (x[:, 1] < 0.45)]
    mesh = trim_to_irregular(build_square_mesh(1),
                             DataSet(x, np.zeros(len(x))))[0]
    y = np.sin(5 * x[:, 0]) * x[:, 1] + 0.1 * rng.normal(size=len(x))
    return FemSystem.build(mesh, DataSet(x, y), bv=random_bv(mesh, rng))


class TestBuildSystem:
    def test_zero_boundary_values_give_data_only_rhs(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh)
        sys_ = SaddleSystem(dataclasses.replace(fem, bv=zero_bv(mesh)), 1.0)
        assert np.array_equal(sys_.rhs[0::4], fem.d[sys_.interior])
        rest = np.delete(sys_.rhs, np.s_[0::4])
        assert len(rest) == 3 * len(sys_.interior)
        assert np.all(rest == 0.0)

    def test_symmetry_exact(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh)
        sys_ = SaddleSystem(fem, 0.37)
        K = interleaved_matrix(sys_)
        diff = (K - K.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_dimension_mismatch(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh)
        bad = zero_bv(mesh)
        bad.nodes = bad.nodes[:-1]
        bad.c = bad.c[:-1]
        bad.g1 = bad.g1[:-1]
        bad.g2 = bad.g2[:-1]
        bad.w = bad.w[:-1]
        with pytest.raises(DimensionMismatch):
            SaddleSystem(dataclasses.replace(fem, bv=bad), 1.0)

    def test_matches_dense_oracle_small(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh, n=25, seed=3)
        self.check_dense_oracle(fem)

    def test_matches_dense_oracle_boundary_terms(self):
        # non-zero boundary w and gradients on an irregular mesh reach the
        # L_ib w_b and G_j^T_ib w_b terms of the elimination
        fem = random_boundary_problem()
        assert np.abs(fem.bv.w_at(1e-3)).min() > 0.0
        self.check_dense_oracle(fem)

    @staticmethod
    def check_dense_oracle(fem):
        for alpha in (1.0, 1e-3):
            s = SaddleSystem(fem, alpha).solve()
            ref = dense_saddle_solve(fem, alpha, fem.bv)
            for name in ("c", "g1", "g2", "w"):
                got = getattr(s, name)
                ref_v = ref[name]
                denom = max(1.0, np.abs(ref_v).max())
                assert np.abs(got - ref_v).max() / denom < 1e-10


def rescale_case(name):
    """FemSystem with random boundary values on one of four meshes, and a
    second random boundary value set to override them with."""
    data = peaks_generate(PeaksSpec(n=800), seed=2).normalized()
    if name == "square":
        mesh = build_square_mesh(2)
    elif name == "adaptive":
        mesh = run(data, RunConfig(indicator="recovery", alpha=1e-6,
                                   gamma=0.5, max_iters=2,
                                   stagnation_iters=0))[0].mesh
    elif name == "trimmed":
        keep = (data.x[:, 0] < 0.55) | (data.x[:, 1] < 0.45)
        mesh = trim_to_irregular(build_square_mesh(3),
                                 DataSet(data.x[keep], data.y[keep]))[0]
    else:
        mesh = mesh_polygon([[(0.05, 0.05), (0.95, 0.1), (0.9, 0.95),
                              (0.1, 0.9)],
                             [(0.35, 0.4), (0.55, 0.4), (0.5, 0.6)]],
                            refine_level=3)
    rng = np.random.default_rng(len(name))
    return FemSystem.build(mesh, data, bv=random_bv(mesh, rng)), \
        random_bv(mesh, rng)


def interleaved_matrix(system):
    """A SaddleSystem's matrix taken back from its static order to the
    interleaved order of its right-hand side."""
    return system.matrix[np.argsort(system.rows)][:, np.argsort(system.cols)]


def static_matrix(system, matrix):
    """An interleaved reference matrix in a SaddleSystem's static order,
    canonical CSC; rows and cols must be permutations."""
    m = system.n_unknowns
    for perm in (system.rows, system.cols):
        assert np.array_equal(np.sort(perm), np.arange(m))
    out = matrix[system.rows][:, system.cols].tocsc()
    out.sort_indices()
    return out


def assert_same_system(system, matrix, rhs):
    """Bitwise equality of a SaddleSystem's matrix and rhs with a reference
    in interleaved order, the matrix compared in the system's static order."""
    got = system.matrix
    assert got.format == "csc"
    ref = static_matrix(system, matrix)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert system.rhs.tobytes() == rhs.tobytes()


class TestRescaledSystem:
    """Each SaddleSystem rescales its FemSystem's alpha = 1 system; the
    result must be bitwise the system built from scratch at alpha."""

    ALPHAS = (1e-12, 1e-9, 1e-4, 1.0, 1e6)

    @pytest.mark.parametrize("name", ["square", "adaptive", "trimmed",
                                      "polygon-hole"])
    def test_bitwise_equal_to_rebuilt_system(self, name):
        fem, other = rescale_case(name)
        assert len(fem.mesh.interior_nodes()) > 0
        for given in (fem, dataclasses.replace(fem, bv=other)):
            for alpha in self.ALPHAS:
                system = SaddleSystem(given, alpha)
                assert_same_system(system, *rebuilt_saddle_system(given,
                                                                  alpha))
        # the oracle's pattern holds entries of every alpha-scaled block
        assert system.matrix.nnz > 4 * len(system.interior)

    def test_solution_bitwise_equal_to_rebuilt_system(self):
        fem, _ = rescale_case("trimmed")
        matrix, rhs = rebuilt_saddle_system(fem, 1e-9)
        system = SaddleSystem(fem, 1e-9)
        x, _ = system.solve_raw()
        y = spla.splu(static_matrix(system, matrix),
                      **STATIC_PIVOTING).solve(rhs[system.rows])
        expect = np.empty_like(y)
        expect[system.cols] = y
        assert x.tobytes() == expect.tobytes()

    def test_alpha_sequence_matches_fresh_builds(self):
        # fresh systems, and one system rescaled in place through the same
        # alphas, each rescale-and-solve one new factorisation
        fem, _ = rescale_case("square")
        fresh = {a: rebuilt_saddle_system(fem, a) for a in (1e-3, 10.0)}
        rescaled = SaddleSystem(fem, 1.0)
        rescaled.solve()  # its matrix is copied and factorised at 1
        for count, alpha in enumerate((1e-3, 10.0, 1e-3), start=2):
            assert_same_system(SaddleSystem(fem, alpha), *fresh[alpha])
            rescaled.rescale(alpha)
            assert_same_system(rescaled, *fresh[alpha])
            s, expect = rescaled.solve(), SaddleSystem(fem, alpha).solve()
            assert rescaled.factorizations == count
            for name in FIELDS:
                assert (getattr(s, name).tobytes()
                        == getattr(expect, name).tobytes())

    def test_built_once_per_fem_system(self, monkeypatch):
        # the block layout is read and the node order found once; each
        # alpha is one factorisation
        fem, _ = rescale_case("square")
        calls, lus = [], []
        entries, splu = solver._block_entries, spla.splu
        monkeypatch.setattr(solver, "_block_entries",
                            lambda *a, **k: calls.append(1) or entries(*a, **k))
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **k: lus.append(k) or splu(*a, **k))
        for alpha in (1e-3, 1.0, 1e-3):
            SaddleSystem(fem, alpha).solve()
        assert len(calls) == 1
        assert lus[0]["permc_spec"] == "MMD_AT_PLUS_A"
        assert lus[1:] == [STATIC_PIVOTING] * 3

    def test_systems_do_not_share_values(self):
        fem, _ = rescale_case("square")
        first = SaddleSystem(fem, 1e-3)
        ref = rebuilt_saddle_system(fem, 1e-3)
        second = SaddleSystem(fem, 1e-3)
        first.matrix.data[:] = np.nan
        first.rhs[:] = np.nan
        assert_same_system(second, *ref)
        assert_same_system(SaddleSystem(fem, 1e-3), *ref)

    def test_shuffled_boundary_values_give_the_same_system(self):
        # the boundary values are sorted by node once, when the alpha = 1
        # system is built; their given order changes no bit
        fem, _ = rescale_case("trimmed")
        bv = fem.bv
        perm = np.random.default_rng(0).permutation(len(bv.nodes))
        shuffled = dataclasses.replace(fem, bv=BoundaryValues(
            bv.nodes[perm], bv.c[perm], bv.g1[perm], bv.g2[perm],
            bv.w[perm], bv.w_proxy[perm]))
        assert np.any(np.diff(shuffled.bv.nodes) < 0)
        for alpha in (1e-9, 1e-3):
            got, ref = SaddleSystem(shuffled, alpha), SaddleSystem(fem, alpha)
            for name in ("data", "indices", "indptr"):
                assert (getattr(got.matrix, name).tobytes()
                        == getattr(ref.matrix, name).tobytes())
            assert got.rhs.tobytes() == ref.rhs.tobytes()
            s, expect = got.solve(), ref.solve()
            for name in ("c", "g1", "g2", "w"):
                assert (getattr(s, name).tobytes()
                        == getattr(expect, name).tobytes())

    def test_missing_boundary_values_raise_dimension_mismatch(self):
        fem, _ = rescale_case("square")
        with pytest.raises(DimensionMismatch, match="no boundary values"):
            SaddleSystem(dataclasses.replace(fem, bv=None), 1e-3)

    def test_refined_mesh_raises_dimension_mismatch(self):
        fem, _ = rescale_case("square")
        SaddleSystem(fem, 1e-3)
        fem.mesh.uniform_refine()
        with pytest.raises(DimensionMismatch):
            SaddleSystem(fem, 1e-3)

    @pytest.mark.parametrize("alpha", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_non_positive_alpha_raises(self, alpha):
        fem, _ = rescale_case("square")
        SaddleSystem(fem, 1e-3)
        with pytest.raises(ValueError):
            SaddleSystem(fem, alpha)


class TestStaticPivoting:
    """The zero-pivot rule: SuperLU exchanges a zero diagonal pivot for the
    largest entry of its column, and a static factorisation that fails
    raises SingularSystem without a second, pivoted one."""

    def test_zero_diagonal_pivot_is_exchanged(self):
        fem, _ = rescale_case("trimmed")
        system = SaddleSystem(fem, 1e-6)
        x, _ = system.solve_raw()
        M = system.matrix.tocsr()
        b = system.rhs[system.rows]
        # swap row 0 with a row that has no entry in column 0
        r = int(np.flatnonzero(M[:, 0].toarray().ravel() == 0.0)[0])
        swap = np.arange(M.shape[0])
        swap[[0, r]] = [r, 0]
        M, b = M[swap].tocsc(), b[swap]
        assert M[0, 0] == 0.0
        lu = spla.splu(M, **STATIC_PIVOTING)
        assert lu.perm_r[0] != 0
        y = lu.solve(b)
        assert np.abs(M @ y - b).max() <= RESIDUAL_TOL * np.abs(b).max()
        assert np.abs(y - x[system.cols]).max() <= 1e-10 * np.abs(x).max()

    def test_failed_static_factorisation_is_not_retried(self, monkeypatch):
        fem, _ = rescale_case("square")
        calls = []
        splu = spla.splu

        def static_fails(matrix, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            if kwargs == STATIC_PIVOTING:
                raise RuntimeError("Factor is exactly singular")
            return splu(matrix, **kwargs)
        monkeypatch.setattr(spla, "splu", static_fails)
        system = SaddleSystem(fem, 1e-3)
        with pytest.raises(SingularSystem, match="direct factorisation failed"):
            system.solve()
        assert (system.factorizations, system.residual) == (0, None)
        assert calls == ["MMD_AT_PLUS_A", "NATURAL"]


class TestSolve:
    def test_linear_reproduction(self):
        mesh = build_square_mesh(1)
        rng = np.random.default_rng(12)
        for trial in range(3):
            coeffs = tuple(rng.uniform(-1, 1, 3))
            data, fem, f = linear_problem(mesh, n=80, seed=trial, coeffs=coeffs)
            for alpha in (1e-8, 1e-4, 1.0):
                s = SaddleSystem(fem, alpha).solve()
                assert rmse(s, data, fem.located) <= 1e-8

    def test_penalty_domination_shrinks_gradients(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 0.9, size=(50, 2))
        data = DataSet(x, np.sin(6 * x[:, 0]) * x[:, 1])
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        s1 = SaddleSystem(fem, 1.0).solve()
        s2 = SaddleSystem(fem, 1e6).solve()
        assert np.abs(s2.g1).max() <= np.abs(s1.g1).max()
        assert np.abs(s2.g2).max() <= np.abs(s1.g2).max()

    def test_near_interpolation_limit(self):
        mesh = build_square_mesh(0)
        # one data point exactly at an interior node
        node = next(n for n in range(25) if not mesh.node_boundary[n])
        p = mesh.points[node]
        data = DataSet(np.array([p]), np.array([0.9]))
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        s = SaddleSystem(fem, 1e-8).solve()
        ref = dense_saddle_solve(fem, 1e-8, fem.bv)
        assert np.abs(s.c - ref["c"]).max() < 1e-8
        assert abs(s.c[node] - 0.9) < 1e-3

    def test_constraint_invariant(self):
        mesh = build_square_mesh(1)
        data, fem, _ = linear_problem(mesh, n=100, seed=2)
        for alpha in (1e-6, 1e-2, 1.0):
            s = SaddleSystem(fem, alpha).solve()
            tol = 1e-8 * (1.0 + np.abs(s.c).max())
            assert constraint_residual(s, fem) <= tol

    def test_boundary_values_imposed_exactly(self):
        mesh = build_square_mesh(0)
        data, fem, f = linear_problem(mesh, n=40, seed=7)
        s = SaddleSystem(fem, 0.01).solve()
        for i, n in enumerate(np.sort(fem.bv.nodes)):
            assert s.c[n] == fem.bv.c[np.argsort(fem.bv.nodes)][i]

    def test_singular_on_empty_interior(self):
        from conftest import make_unit_right_triangle
        mesh = make_unit_right_triangle()
        data = DataSet(np.array([[0.2, 0.2]]), np.array([1.0]))
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        with pytest.raises(SingularSystem):
            SaddleSystem(fem, 1.0)

    def test_objective_monotonicity_in_alpha(self):
        mesh = build_square_mesh(1)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.05, 0.95, size=(200, 2))
        y = np.sin(5 * x[:, 0]) + 0.2 * rng.normal(size=200)
        data = DataSet(x, y)
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        located = fem.located
        misfits, penalties = [], []
        from tpsfem.solver import predicted_values
        for alpha in np.geomspace(1e-6, 1.0, 7):
            s = SaddleSystem(fem, alpha).solve()
            r = predicted_values(s, located) - data.y[located.indices]
            misfits.append(np.mean(r ** 2))
            penalties.append(s.g1 @ (fem.L @ s.g1) + s.g2 @ (fem.L @ s.g2))
        assert np.all(np.diff(misfits) >= -1e-12)
        assert np.all(np.diff(penalties) <= 1e-12)

    def test_uniform_refinement_keeps_linear_exactness(self):
        mesh = build_square_mesh(0)
        data, fem, f = linear_problem(mesh, n=60, seed=4)
        s0 = SaddleSystem(fem, 1e-3).solve()
        e0 = rmse(s0, data, fem.located)
        mesh.uniform_refine()
        f_, grad, lap = linear_field()
        bv = boundary_values_from_callables(mesh, f_, grad, lap, alpha=1.0)
        fem2 = FemSystem.build(mesh, data, bv=bv)
        s1 = SaddleSystem(fem2, 1e-3).solve()
        assert rmse(s1, data, fem2.located) <= e0 + 1e-9

    def test_trimmed_mesh_linear_exactness(self):
        mesh = build_square_mesh(2)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.6, size=(120, 2))
        trimmed = trim_to_irregular(mesh, DataSet(x, np.zeros(len(x))))[0]
        f, grad, lap = linear_field(0.1, -0.5, 0.9)
        data = DataSet(x, f(x[:, 0], x[:, 1]))
        bv = boundary_values_from_callables(trimmed, f, grad, lap, alpha=1.0)
        fem = FemSystem.build(trimmed, data, bv=bv)
        s = SaddleSystem(fem, 1e-4).solve()
        assert rmse(s, data, fem.located) <= 1e-8


    def test_direct_solve_meets_contract_across_gcv_range(self):
        # one factorisation reaches the residual target at every alpha of
        # the default GCV grid, down to 1e-10
        fem, _ = rescale_case("square")
        for alpha in GcvConfig().alpha_grid:
            s = SaddleSystem(fem, alpha).solve()
            assert s.info["factorizations"] == 1
            assert s.info["residual"] <= RESIDUAL_TOL

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_run_rejects_non_finite_alpha(self, alpha):
        # no surface comes back for an alpha that cannot be fitted
        data = peaks_generate(PeaksSpec(n=500), seed=0).normalized()
        with pytest.raises(ValueError, match="positive and finite"):
            run(data, RunConfig(alpha=alpha, boundary="constant",
                                max_iters=0))


class TestEvaluate:
    def setup_method(self):
        self.mesh = build_square_mesh(0)
        data, fem, f = linear_problem(self.mesh, n=30, seed=1)
        self.s = SaddleSystem(fem, 1e-3).solve()
        self.f = f

    def test_value_at_node(self):
        assert abs(evaluate(self.s, self.mesh.points[12]) - self.s.c[12]) < 1e-14

    def test_edge_midpoint_average(self):
        a, b = self.mesh.edge_table.nodes[0]
        mid = 0.5 * (self.mesh.points[a] + self.mesh.points[b])
        expect = 0.5 * (self.s.c[a] + self.s.c[b])
        assert abs(evaluate(self.s, mid) - expect) < 1e-12

    def test_random_points_match_barycentric_oracle(self):
        rng = np.random.default_rng(2)
        for p in rng.uniform(0, 1, size=(25, 2)):
            row = self.mesh.locate([p])[0][0]
            nodes = self.mesh.tri_table.verts[row]
            fns, _ = linear_basis(self.mesh.points[nodes])
            bary = np.array([fn(p[0], p[1]) for fn in fns])
            expect = bary @ self.s.c[nodes]
            assert abs(evaluate(self.s, p) - expect) < 1e-13
            g1, g2 = evaluate_grad(self.s, p)
            assert abs(g1 - bary @ self.s.g1[nodes]) < 1e-13

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            evaluate(self.s, (2.0, 2.0))


class TestInterpolate:
    """The blocked query: bit for bit the one-call form, in a working set
    that does not grow with the number of points."""

    @pytest.mark.parametrize("holed", [False, True])
    def test_blocks_match_one_call(self, holed):
        mesh = (mesh_polygon(HOLED_SQUARE, refine_level=2) if holed
                else build_square_mesh(3))
        rng = np.random.default_rng(7)
        values = rng.normal(size=mesh.n_nodes)
        pts = rng.uniform(-0.2, 1.2, size=(3 * solver.QUERY_BLOCK + 17, 2))
        got = solver.interpolate(mesh, values, pts)
        ref = one_call_interpolate(mesh, values, pts)
        assert got.tobytes() == ref.tobytes()
        outside = np.isnan(got)
        assert 0 < outside.sum() < len(pts)
        assert outside[-17:].any() and not outside[-17:].all()

    def test_short_and_empty_queries(self):
        mesh = build_square_mesh(1)
        values = np.arange(mesh.n_nodes, dtype=float)
        assert solver.interpolate(mesh, values, np.zeros((0, 2))).shape == (0,)
        for pts in ([(0.3, 0.6)], [(0.3, 0.6), (2.0, 0.5)]):
            assert (solver.interpolate(mesh, values, pts).tobytes()
                    == one_call_interpolate(mesh, values, pts).tobytes())

    def test_million_points_peak_below_16_mb(self):
        """The output alone is 8 MB; one call over all points held about
        17 times that."""
        mesh = build_square_mesh(3)
        values = np.random.default_rng(0).normal(size=mesh.n_nodes)
        pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(10 ** 6, 2))
        solver.interpolate(mesh, values, pts[:10])
        tracemalloc.start()
        try:
            out = solver.interpolate(mesh, values, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(out).all()
        assert peak < 16e6


class TestMetrics:
    def test_exact_fit_zero_errors(self):
        mesh = build_square_mesh(0)
        data, fem, _ = linear_problem(mesh, n=50, seed=6)
        s = SaddleSystem(fem, 1e-6).solve()
        assert rmse(s, data) <= 1e-9
        assert max_abs_residual(s, data) <= 1e-8

    def test_constant_offset(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.8, size=(30, 2))
        data = DataSet(x, np.full(30, 0.5))
        fem = FemSystem.build(mesh, data, bv=zero_bv(mesh))
        from tpsfem.solver import Smoother
        s = Smoother(mesh=mesh, c=np.zeros(25), g1=np.zeros(25),
                     g2=np.zeros(25), w=np.zeros(25), alpha=1.0)
        assert abs(rmse(s, data) - 0.5) < 1e-12
        assert abs(max_abs_residual(s, data) - 0.5) < 1e-12
