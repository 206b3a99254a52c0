import numpy as np
import pytest

from tpsfem import driver
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.driver import IterationRecord, RunConfig, run
from tpsfem.indicators import auxiliary_field
from tpsfem.gcv import GcvConfig
from tpsfem.mesh import TriMesh, build_square_mesh

from conftest import all_angles, make_interface_strip


def small_gcv():
    return GcvConfig(alpha_grid=np.geomspace(1e-9, 1e-1, 7), probes=4,
                     refine_iters=2)


def normalized_peaks(n=1500, seed=0):
    return peaks_generate(PeaksSpec(n=n), seed=seed).normalized()


class TestRefineWave:
    def test_empty_marked_set_is_noop(self):
        mesh = build_square_mesh(0)
        before = mesh.n_nodes
        assert mesh.refine_wave(set()) == []
        assert mesh.n_nodes == before

    def test_all_base_edges_equals_uniform_pass(self):
        a = build_square_mesh(0)
        marked = {a.base_edge_of(t) for t in a.tris}
        a.refine_wave(marked)
        b = build_square_mesh(0)
        b.uniform_refine()
        assert a.n_nodes == b.n_nodes
        assert a.n_tris == b.n_tris

    def test_staircase_wave_conforming(self):
        mesh = make_interface_strip(6)
        marked = [mesh.base_edge_of(0), mesh.base_edge_of(5)]
        mesh.refine_wave(marked)
        mesh.validate()


class TestUniformRun:
    def test_node_counts_follow_uniform_sequence(self):
        data = normalized_peaks(800, seed=1)
        cfg = RunConfig(refine="uniform", max_iters=3, gcv=small_gcv(),
                        boundary="average", stagnation_iters=0, seed=5)
        s, records = run(data, cfg)
        assert [r.nodes for r in records] == [25, 41, 81, 145]
        assert s.mesh.n_nodes == 145

    def test_records_monotone_and_alpha_positive(self):
        data = normalized_peaks(600, seed=2)
        cfg = RunConfig(refine="uniform", max_iters=2, gcv=small_gcv(),
                        stagnation_iters=0, seed=1)
        _, records = run(data, cfg)
        nodes = [r.nodes for r in records]
        assert nodes == sorted(nodes)
        assert all(r.alpha > 0 for r in records)


class TestAdaptiveRun:
    def test_noise_free_linear_stops_by_stagnation(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 0.9, size=(150, 2))
        data = DataSet(x, 0.2 + 0.3 * x[:, 0] + 0.1 * x[:, 1])
        cfg = RunConfig(refine="adaptive", indicator="recovery",
                        boundary="average", gcv=small_gcv(), seed=3)
        s, records = run(data, cfg)
        assert s.info["stop_reason"] == "stagnation"
        assert len(records) <= 4  # iteration 0 plus at most 3 refinements
        assert records[-1].rmse <= 1e-8

    def test_inner_loop_doubles_node_count(self):
        data = normalized_peaks(1200, seed=3)
        cfg = RunConfig(refine="adaptive", indicator="recovery",
                        boundary="average", max_iters=3, gcv=small_gcv(),
                        stagnation_iters=0, seed=7)
        _, records = run(data, cfg)
        for prev, cur in zip(records, records[1:]):
            assert cur.nodes >= 2 * prev.nodes

    def test_square_mesh_angles_preserved(self):
        data = normalized_peaks(1000, seed=4)
        cfg = RunConfig(refine="adaptive", indicator="recovery",
                        boundary="average", max_iters=2, gcv=small_gcv(),
                        stagnation_iters=0, seed=2)
        s, _ = run(data, cfg)
        ang = all_angles(s.mesh)
        assert np.all((np.abs(ang - 45) < 1e-9) | (np.abs(ang - 90) < 1e-9))
        s.mesh.validate()

    def test_adaptive_beats_uniform_on_peaks(self):
        # at a matched node budget the adaptive mesh is more accurate
        data = normalized_peaks(2000, seed=5)
        uni = RunConfig(refine="uniform", max_iters=4, gcv=small_gcv(),
                        boundary="average", stagnation_iters=0, seed=11)
        _, urec = run(data, uni)
        ada = RunConfig(refine="adaptive", indicator="recovery",
                        boundary="average", max_iters=5, gcv=small_gcv(),
                        stagnation_iters=0, seed=11)
        _, arec = run(data, ada)
        budget = 1.2 * urec[-1].nodes
        within = [r for r in arec if r.nodes <= budget]
        assert within[-1].rmse < urec[-1].rmse

    def test_irregular_domain_run(self):
        data = normalized_peaks(1500, seed=6)
        cfg = RunConfig(domain="irregular", refine="adaptive",
                        indicator="recovery", boundary="average",
                        trim_level=1, max_iters=2, gcv=small_gcv(),
                        stagnation_iters=0, seed=4)
        s, records = run(data, cfg)
        s.mesh.validate()
        assert records[0].nodes < 81  # trimmed level-1 mesh is smaller
        assert records[-1].rmse < records[0].rmse

    def test_auxiliary_indicator_run(self):
        data = normalized_peaks(900, seed=7)
        cfg = RunConfig(refine="adaptive", indicator="auxiliary",
                        boundary="average", max_iters=2, gcv=small_gcv(),
                        stagnation_iters=0, seed=6)
        s, records = run(data, cfg)
        assert records[-1].nodes >= 2 * records[-2].nodes
        assert records[-1].rmse < records[0].rmse

    def test_tps_boundary_strategy_run(self):
        data = normalized_peaks(900, seed=8)
        cfg = RunConfig(refine="adaptive", indicator="recovery",
                        boundary="tps", max_iters=2, gcv=small_gcv(),
                        stagnation_iters=0, seed=8)
        s, _ = run(data, cfg)
        s.mesh.validate()

    def test_rmse_tolerance_stop(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 0.9, size=(120, 2))
        data = DataSet(x, 0.5 + 0.1 * x[:, 0])
        cfg = RunConfig(refine="adaptive", boundary="average",
                        rmse_tolerance=1e-6, gcv=small_gcv(), seed=9)
        s, records = run(data, cfg)
        assert s.info["stop_reason"] in ("tolerance", "stagnation")
        assert records[-1].rmse <= 1e-6

    def test_fixed_alpha_skips_gcv(self):
        data = normalized_peaks(700, seed=9)
        cfg = RunConfig(refine="uniform", max_iters=1, alpha=1e-4,
                        boundary="average", stagnation_iters=0, seed=10)
        _, records = run(data, cfg)
        assert all(r.alpha == 1e-4 for r in records)


class TestDeterminism:
    def test_identical_seeds_identical_records(self):
        data = normalized_peaks(800, seed=10)
        cfg = RunConfig(refine="adaptive", indicator="recovery",
                        boundary="average", max_iters=2, gcv=small_gcv(),
                        stagnation_iters=0, seed=21)
        _, r1 = run(data, cfg)
        _, r2 = run(data, cfg)
        for a, b in zip(r1, r2):
            assert a.nodes == b.nodes
            assert a.alpha == b.alpha
            assert a.rmse == b.rmse
            assert a.max_residual == b.max_residual


def patch_of(mesh, eid, by_tri):
    """The triangles of an edge's auxiliary patch and the data inside them.

    Triangle ids are never reused, so equal patches mean an unchanged local
    problem: refinement never alters the values of existing nodes.
    """
    seed = mesh.edge_tris[eid]
    tris = set(seed).union(*(mesh.edge_tris[e] for t in seed
                             for e in mesh.tri_edge_ids(t)))
    points = sorted(i for t in tris for i in by_tri.get(t, []))
    return frozenset(tris), tuple(points)


class TestAuxiliaryRefresh:
    def test_refresh_agrees_with_recomputation_on_unchanged_patches(
            self, monkeypatch):
        # the incremental refresh of the auxiliary field keeps the value of
        # every surviving edge; wherever that edge's patch is the one the
        # value was computed on, the value must be what a full
        # recomputation gives
        data = normalized_peaks(3000, seed=0)
        cfg = RunConfig(indicator="auxiliary", alpha=1e-6, max_iters=1,
                        stagnation_iters=0)
        computed_on, checked = {}, []
        real_field, real_refresh = driver._indicator_field, driver._refresh_field

        def indicator_field(kind, smoother, data, alpha, by_tri):
            field = real_field(kind, smoother, data, alpha, by_tri)
            computed_on.clear()
            computed_on.update({e: patch_of(smoother.mesh, e, by_tri)
                                for e in field.values})
            return field

        def refresh_field(field, kind, mesh, smoother, data, alpha, by_tri,
                          floor):
            real_refresh(field, kind, mesh, smoother, data, alpha, by_tri,
                         floor)
            full = auxiliary_field(smoother, data, alpha, by_tri).values
            assert set(field.values) == set(full)
            for e in list(computed_on):
                if e not in mesh.edges:
                    del computed_on[e]
            same = []
            for e, value in field.values.items():
                patch = patch_of(mesh, e, by_tri)
                if computed_on.setdefault(e, patch) == patch:
                    assert abs(value - full[e]) <= 1e-12 * abs(full[e])
                    same.append(e)
            checked.append(len(same))

        monkeypatch.setattr(driver, "_indicator_field", indicator_field)
        monkeypatch.setattr(driver, "_refresh_field", refresh_field)
        run(data, cfg)
        assert len(checked) >= 2 and min(checked) > 0

    def test_field_refreshed_only_before_a_wave(self, monkeypatch):
        # each iteration computes the field once and refreshes it before
        # every later wave; after the last wave comes the fit, which does
        # not read the field
        data = normalized_peaks(1500, seed=0)
        refreshes, waves = [], []
        real_indicators, real_wave = (driver.auxiliary_indicators,
                                      TriMesh.refine_wave)

        def indicators(*args, **kwargs):
            refreshes.append(1)
            return real_indicators(*args, **kwargs)

        def refine_wave(mesh, marked):
            waves.append(1)
            return real_wave(mesh, marked)

        monkeypatch.setattr(driver, "auxiliary_indicators", indicators)
        monkeypatch.setattr(TriMesh, "refine_wave", refine_wave)
        _, records = run(data, RunConfig(indicator="auxiliary", alpha=1e-6,
                                         max_iters=2, stagnation_iters=0))
        iterations = len(records) - 1
        assert iterations == 2 and len(waves) > 2 * iterations
        assert len(refreshes) == len(waves) - iterations
