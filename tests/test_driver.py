import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tpsfem import driver
from tpsfem.data import DataSet, PeaksSpec, peaks_generate
from tpsfem.driver import IterationRecord, RunConfig, run
from tpsfem.indicators import auxiliary_field
from tpsfem.gcv import GcvConfig
from tpsfem.mesh import TriMesh, build_square_mesh
from tpsfem.solver import FIELDS, SaddleSystem

from conftest import all_angles, base_edge, make_interface_strip


def small_gcv():
    return GcvConfig(alpha_grid=np.geomspace(1e-9, 1e-1, 7), probes=4,
                     refine_iters=2)


def normalized_peaks(n=1500, seed=0):
    return peaks_generate(PeaksSpec(n=n), seed=seed).normalized()


class TestRunConfig:
    @pytest.mark.parametrize("name, value", [
        ("domain", "disc"), ("refine", "uniformly"), ("indicator", "recover"),
        ("boundary", "spline"), ("gamma", 1.5), ("gamma", -0.1),
        ("gamma", np.nan), ("alpha", 0.0), ("alpha", -1e-6),
        ("alpha", np.inf), ("alpha", np.nan), ("alpha", "gcv"),
        ("alpha", None), ("tps_samples", 9), ("tps_samples", 0),
        ("tps_samples", -5), ("stagnation_iters", -1), ("max_iters", -1),
        ("stagnation_ratio", np.nan), ("rmse_tolerance", np.nan)])
    def test_setting_it_would_replace_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("n, centres", [(6, 6), (40, 10)])
    def test_spline_takes_at_most_the_data(self, n, centres):
        # the fewest samples a run accepts, on data with fewer points or more
        data = normalized_peaks(n, seed=0)
        _, tps = driver._make_strategy(RunConfig(tps_samples=10), data, 0)
        assert len(tps.centers) == centres

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_gamma_bounds_accepted(self, gamma):
        assert RunConfig(gamma=gamma).gamma == gamma

    def test_numpy_alpha_is_fitted_not_replaced_by_gcv(self):
        data = normalized_peaks(300, seed=0)
        alpha = np.float32(1e-4)
        _, records = run(data, RunConfig(alpha=alpha, boundary="constant",
                                         max_iters=0))
        assert records[0].alpha == float(alpha)


class TestRefineWave:
    def test_empty_marked_set_is_noop(self):
        mesh = build_square_mesh(0)
        before = mesh.n_nodes
        events = mesh.refine_wave(set())
        assert events.shape == (0, 3) and events.dtype == np.int64
        assert mesh.n_nodes == before

    def test_all_base_edges_equals_uniform_pass(self):
        a = build_square_mesh(0)
        marked = set(a.tri_table.edges[:, 0].tolist())
        a.refine_wave(marked)
        b = build_square_mesh(0)
        b.uniform_refine()
        assert a.n_nodes == b.n_nodes
        assert a.n_tris == b.n_tris

    def test_staircase_wave_conforming(self):
        mesh = make_interface_strip(6)
        marked = [base_edge(mesh, 0), base_edge(mesh, 5)]
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


def workload_data(name, seed=0):
    """The data and RunConfig settings of a benchmark workload, with alpha
    by GCV: 3k peaks points on the square, or 20k with the quadrant x1 > 0,
    x2 > 0 dropped on the trimmed domain."""
    if name == "auxiliary-3k":
        return normalized_peaks(3000, seed), dict(indicator="auxiliary")
    raw = peaks_generate(PeaksSpec(n=20_000), seed=seed)
    raw = raw.subset(~((raw.x[:, 0] > 0) & (raw.x[:, 1] > 0)))
    return raw.normalized(), dict(domain="irregular", tps_samples=600)


class TestGcvHandOff:
    """A GCV fit is the winning candidate's solution, not a second solve."""

    @pytest.mark.parametrize("name", ["auxiliary-3k", "lshape-15k"])
    def test_fit_is_the_saddle_system_solve_bitwise(self, monkeypatch, name):
        # each fit against a SaddleSystem solved at the selected alpha,
        # before refinement changes the mesh
        data, settings = workload_data(name)
        fits, fit = [], driver.fitted

        def checked(fem, alpha, solution):
            s = fit(fem, alpha, solution)
            ref = SaddleSystem(fem, alpha).solve()
            fits.append((s, dict(s.info), ref, solution))
            return s

        monkeypatch.setattr(driver, "fitted", checked)
        _, records = run(data, RunConfig(alpha="auto", gamma=0.0, max_iters=1,
                                         stagnation_iters=0, **settings))
        assert len(fits) == len(records) == 2
        for (s, info, ref, solution), record in zip(fits, records):
            for field in FIELDS:
                assert np.array_equal(getattr(s, field), getattr(ref, field))
            assert s.alpha == ref.alpha == record.alpha
            assert set(info) == set(ref.info)
            for key in ("factorizations", "residual", "nnz", "unknowns",
                        "constraint_residual"):
                assert info[key] == ref.info[key]
            assert info["factorizations"] == 1
            assert info["solve_seconds"] == solution.seconds

    def test_one_factorisation_per_candidate_and_none_for_the_fit(
            self, monkeypatch):
        data = normalized_peaks(1500, seed=3)
        lus, systems, selections = [], [], []
        splu, build, select = spla.splu, SaddleSystem.__init__, driver.select_alpha
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **k: lus.append(k) or splu(*a, **k))
        monkeypatch.setattr(SaddleSystem, "__init__",
                            lambda *a, **k: systems.append(1) or build(*a, **k))
        monkeypatch.setattr(driver, "select_alpha",
                            lambda *a, **k: selections.append(
                                select(*a, **k)) or selections[-1])
        _, records = run(data, RunConfig(gcv=small_gcv(), max_iters=2,
                                         stagnation_iters=0))
        # one SaddleSystem per selection, none for the fit
        assert len(selections) == len(records) == 3
        assert len(systems) == len(selections)
        # per fit: the node order, then one factorisation per candidate
        assert len(lus) == sum(1 + len(s.scores) for s in selections)


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
    """The triangles of an edge's auxiliary patch and the data inside them,
    read from the ``locate_by_tri`` table ``by_tri``.

    Triangle ids are never reused, so equal patches mean an unchanged local
    problem: refinement never alters the values of existing nodes.
    """
    tab, et = mesh.tri_table, mesh.edge_table
    seed = et.tris[et.rows([eid])[0]]
    seed = seed[seed >= 0]
    tris = set(et.tris[et.rows(tab.edges[tab.rows(seed)])].ravel().tolist())
    tris.discard(-1)
    order, start = by_tri
    points = sorted(i for r in tab.rows(sorted(tris)).tolist()
                    for i in order[start[r]:start[r + 1]].tolist())
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

        def field_update(smoother, data, alpha, by_tri, old):
            mesh = smoother.mesh
            field = auxiliary_field(smoother, data, alpha, by_tri, old)
            if old is None:
                computed_on.clear()
                computed_on.update({e: patch_of(mesh, e, by_tri)
                                    for e in field.edges.tolist()})
                return field
            full = auxiliary_field(smoother, data, alpha, by_tri)
            assert set(field.edges.tolist()) == set(full.edges.tolist())
            full = dict(zip(full.edges.tolist(), full.values.tolist()))
            for e in list(computed_on):
                if e not in mesh.edge_table.ids:
                    del computed_on[e]
            same = []
            for e, value in zip(field.edges.tolist(), field.values.tolist()):
                patch = patch_of(mesh, e, by_tri)
                if computed_on.setdefault(e, patch) == patch:
                    assert abs(value - full[e]) <= 1e-12 * abs(full[e])
                    same.append(e)
            checked.append(len(same))
            return field

        monkeypatch.setattr(driver, "auxiliary_field", field_update)
        run(data, cfg)
        assert len(checked) >= 2 and min(checked) > 0

    def test_field_refreshed_only_before_a_wave(self, monkeypatch):
        # each iteration computes the field once and refreshes it before
        # every later wave; after the last wave comes the fit, which does
        # not read the field
        data = normalized_peaks(1500, seed=0)
        updates, waves = [], []
        real_field, real_wave = driver.auxiliary_field, TriMesh.refine_wave

        def field_update(smoother, data, alpha, by_tri, old):
            updates.append(old is not None)
            return real_field(smoother, data, alpha, by_tri, old)

        def refine_wave(mesh, marked):
            waves.append(1)
            return real_wave(mesh, marked)

        monkeypatch.setattr(driver, "auxiliary_field", field_update)
        monkeypatch.setattr(TriMesh, "refine_wave", refine_wave)
        _, records = run(data, RunConfig(indicator="auxiliary", alpha=1e-6,
                                         max_iters=2, stagnation_iters=0))
        iterations = len(records) - 1
        assert iterations == 2 and len(waves) > 2 * iterations
        assert len(updates) == len(waves)
        assert sum(updates) == len(waves) - iterations


class TestLocateOnce:
    @pytest.mark.parametrize("settings, calls", [
        (dict(domain="irregular", indicator="recovery"), 2),
        (dict(indicator="auxiliary"), 3)])
    def test_each_mesh_state_is_located_once(self, monkeypatch, settings,
                                             calls):
        # trimming hands its location to the first fit, and the first
        # auxiliary wave of an iteration groups the fit's location: an
        # irregular run locates to trim and for its second fit, an
        # auxiliary one for its first fit, its second wave and its second
        # fit (gamma=0 refines the level-0 square in two waves)
        data = normalized_peaks(1500, seed=0)
        real = TriMesh.locate
        located = []

        def locate(mesh, points):
            located.append(len(points))
            return real(mesh, points)
        monkeypatch.setattr(TriMesh, "locate", locate)
        run(data, RunConfig(max_iters=1, stagnation_iters=0, alpha=1e-6,
                            gamma=0.0, **settings))
        assert located == [len(data)] * calls


class TestFieldLayout:
    @pytest.mark.parametrize("settings", [
        dict(domain="irregular", indicator="recovery", alpha=1e-6),
        dict(indicator="auxiliary", alpha=1e-6)])
    def test_field_holds_the_refinable_edges_at_every_marking(
            self, monkeypatch, settings):
        # the field is two arrays aligned with mesh.refinable_edges(); a
        # field update carries values over by edge id, so this must hold
        # before every marking, the first wave of an iteration and the later
        # ones alike
        data = normalized_peaks(1500, seed=0)
        meshes, marks = [], []
        real_mesh, real_mark = driver.initial_mesh, driver.mark

        def initial_mesh(*args):
            mesh, located = real_mesh(*args)
            meshes.append(mesh)
            return mesh, located

        def mark(field, gamma):
            assert np.array_equal(field.edges, meshes[0].refinable_edges())
            assert len(field.values) == len(field.edges)
            marks.append(1)
            return real_mark(field, gamma)

        monkeypatch.setattr(driver, "initial_mesh", initial_mesh)
        monkeypatch.setattr(driver, "mark", mark)
        _, records = run(data, RunConfig(max_iters=2, stagnation_iters=0,
                                         **settings))
        assert len(marks) > len(records) - 1 == 2
