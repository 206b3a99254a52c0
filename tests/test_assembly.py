import numpy as np
import pytest
import scipy.sparse as sp

from tpsfem.assembly import (FemSystem, assemble_A_d, assemble_G, assemble_L,
                             basis_eval, locate_dataset)
from tpsfem.data import DataSet
from tpsfem.exceptions import (DegenerateTriangle, NoDataInDomain,
                               OutsideTriangle)
from tpsfem.mesh import TriMesh, build_square_mesh

from conftest import make_two_triangle_square, make_unit_right_triangle
from oracles import basis_matrix, dense_A_d, dense_G, dense_L, located_ids


def random_refined_mesh(seed, waves=3):
    mesh = build_square_mesh(0)
    rng = np.random.default_rng(seed)
    for _ in range(waves):
        edges = mesh.refinable_edges()
        mesh.refine_wave(rng.choice(edges, size=max(1, len(edges) // 6),
                                    replace=False))
    return mesh


class TestBasisEval:
    def test_vertex_values(self):
        mesh = make_unit_right_triangle()
        vals, _ = basis_eval(mesh, 0, (0.0, 0.0))
        assert np.allclose(vals, [1.0, 0.0, 0.0])

    def test_centroid(self):
        mesh = make_unit_right_triangle()
        vals, _ = basis_eval(mesh, 0, (1 / 3, 1 / 3))
        assert np.allclose(vals, [1 / 3, 1 / 3, 1 / 3])

    def test_gradient_analytic(self):
        # b_0 = 1 - x - y on the unit right triangle
        mesh = make_unit_right_triangle()
        _, grads = basis_eval(mesh, 0, (0.25, 0.25))
        assert np.allclose(grads[:, 0], [-1.0, -1.0])

    def test_partition_of_unity(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(1)
        for p in rng.uniform(0, 1, size=(20, 2)):
            t = located_ids(mesh, [p])[0][0]
            vals, grads = basis_eval(mesh, t, p)
            assert abs(vals.sum() - 1.0) < 1e-12
            assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)

    def test_outside_triangle(self):
        mesh = make_unit_right_triangle()
        with pytest.raises(OutsideTriangle):
            basis_eval(mesh, 0, (0.9, 0.9))


class TestStiffness:
    def test_constant_nullspace(self):
        mesh = build_square_mesh(0)
        L = assemble_L(mesh)
        assert np.abs(L @ np.ones(mesh.n_nodes)).max() < 1e-12

    def test_corner_diagonal_entry(self):
        # corner node belonging to a single right triangle with legs 1
        mesh = make_two_triangle_square()
        L = assemble_L(mesh).toarray()
        assert abs(L[1, 1] - 1.0) < 1e-14
        assert abs(L[3, 3] - 1.0) < 1e-14

    def test_psd_small_meshes(self):
        for seed in (0, 1, 2):
            mesh = random_refined_mesh(seed)
            w = np.linalg.eigvalsh(assemble_L(mesh).toarray())
            assert w.min() >= -1e-10

    def test_matches_quadrature_oracle(self):
        mesh = random_refined_mesh(5, waves=2)
        L = assemble_L(mesh).toarray()
        assert np.allclose(L, dense_L(mesh), atol=1e-12)

    def test_symmetry(self):
        mesh = random_refined_mesh(7)
        L = assemble_L(mesh)
        assert abs(L - L.T).max() < 1e-14


    def test_shared_pattern_cannot_be_restructured_in_place(self):
        # the matrix shares the mesh's cached node-pair arrays, which are
        # read-only: an in-place restructure raises and leaves the pattern,
        # and every later assembly on it, as it was
        mesh = random_refined_mesh(3)
        pattern = [a.copy() for a in mesh.node_pairs]
        L = assemble_L(mesh)
        ref = L.copy()
        L.data[::7] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            L.eliminate_zeros()
        for cached, kept in zip(mesh.node_pairs, pattern):
            assert not cached.flags.writeable
            assert cached.tobytes() == kept.tobytes()
        again = assemble_L(mesh)
        for name in ("data", "indices", "indptr"):
            assert (getattr(again, name).tobytes()
                    == getattr(ref, name).tobytes())


class TestGradientMatrices:
    def test_zero_row_sums(self):
        mesh = build_square_mesh(0)
        for j in (1, 2):
            G = assemble_G(mesh, j)
            assert np.abs(G @ np.ones(mesh.n_nodes)).max() < 1e-13

    def test_unit_right_triangle_entry(self):
        # entry (0,0) = area/3 * d_1 b_0 = (1/6) * (-1)
        mesh = make_unit_right_triangle()
        G1 = assemble_G(mesh, 1).toarray()
        assert abs(G1[0, 0] - (-1 / 6)) < 1e-14

    def test_matches_quadrature_oracle(self):
        mesh = random_refined_mesh(11, waves=2)
        for j in (1, 2):
            G = assemble_G(mesh, j).toarray()
            assert np.allclose(G, dense_G(mesh, j), atol=1e-12)

    def test_degenerate_triangle_rejected(self):
        mesh = TriMesh.from_arrays(
            [(0, 0), (1, 0), (0.5, 1e-16)], [(0, 1, 2)], [2])
        with pytest.raises(DegenerateTriangle):
            assemble_G(mesh, 1)


class TestDataProjection:
    def test_point_at_node(self):
        mesh = make_two_triangle_square()
        data = DataSet(np.array([[0.0, 0.0]]), np.array([1.0]))
        A, d = assemble_A_d(mesh, data)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(A.toarray(), expect)
        assert np.allclose(d, [1.0, 0, 0, 0])

    def test_point_at_centroid(self):
        mesh = make_unit_right_triangle()
        data = DataSet(np.array([[1 / 3, 1 / 3]]), np.array([1.0]))
        A, _ = assemble_A_d(mesh, data)
        assert np.allclose(A.toarray(), np.full((3, 3), 1 / 9))

    def test_matches_dense_oracle(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(3)
        data = DataSet(rng.uniform(0, 1, size=(100, 2)), rng.normal(size=100))
        A, d = assemble_A_d(mesh, data)
        A0, d0 = dense_A_d(mesh, data)
        assert np.allclose(A.toarray(), A0, atol=1e-12)
        assert np.allclose(d, d0, atol=1e-12)

    def test_row_sums_and_mean(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(9)
        data = DataSet(rng.uniform(0, 1, size=(64, 2)), rng.normal(size=64))
        located = locate_dataset(mesh, data)
        A, d = assemble_A_d(mesh, data, located)
        # sum_q A_pq = (1/n) sum_i b_p(x_i)
        bp = (np.asarray(basis_matrix(mesh, located).sum(axis=0)).ravel()
              / located.n_used)
        assert np.allclose(np.asarray(A.sum(axis=1)).ravel(), bp, atol=1e-13)
        assert abs(d.sum() - data.y[located.indices].mean()) < 1e-13

    def test_outside_points_dropped_and_counted(self):
        mesh = build_square_mesh(0)
        x = np.array([[0.5, 0.5], [2.0, 2.0], [0.25, 0.75]])
        data = DataSet(x, np.array([1.0, 2.0, 3.0]))
        located = locate_dataset(mesh, data)
        assert located.n_dropped == 1
        assert located.n_used == 2
        _, d = assemble_A_d(mesh, data, located)
        assert abs(d.sum() - np.mean([1.0, 3.0])) < 1e-14

    def test_no_data_in_domain(self):
        mesh = build_square_mesh(0)
        data = DataSet(np.array([[7.0, 7.0]]), np.array([0.0]))
        with pytest.raises(NoDataInDomain):
            assemble_A_d(mesh, data)


class TestNodeOrderInvariance:
    def test_permutation_invariance(self):
        mesh = build_square_mesh(0)
        L = assemble_L(mesh).toarray()
        # renumber nodes by a fixed permutation and rebuild
        rng = np.random.default_rng(4)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.argsort(perm)
        pts = mesh.points[inv]
        tris = perm[mesh.tri_table.verts]
        remesh = TriMesh.from_arrays(pts, tris, [2] * len(tris))
        L2 = assemble_L(remesh).toarray()
        assert np.allclose(L2[np.ix_(perm, perm)], L, atol=1e-12)


class TestFemSystem:
    def test_build(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(0)
        data = DataSet(rng.uniform(0.2, 0.8, size=(40, 2)), rng.normal(size=40))
        fem = FemSystem.build(mesh, data)
        n = mesh.n_nodes
        for mat in (fem.A, fem.L, fem.G1, fem.G2):
            assert mat.shape == (n, n)
        assert fem.located.n_used == 40
