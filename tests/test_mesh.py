import numpy as np
import pytest

from tpsfem.data import DataSet
from tpsfem.exceptions import EmptyResult, NotRefinable, ParseError, ZeroInterior
from tpsfem.mesh import (TriMesh, build_square_mesh, load_mesh, load_polygon,
                         mesh_polygon, polygon_triangles, save_mesh,
                         save_polygon, trim_to_irregular)

from conftest import (all_angles, make_fan_mesh, make_interface_strip,
                      make_two_triangle_square, make_unit_right_triangle,
                      total_area)
from oracles import polygon_triangles_loop

_ANGLES = np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False)

#: polygon loops spanning the unit square, so that mesh_polygon trims the
#: square mesh of the given level
POLYGONS = {
    "holed-quad": [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                   [(0.35, 0.35), (0.65, 0.35), (0.65, 0.65), (0.35, 0.65)]],
    "l-shape": [[(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0),
                 (0.0, 1.0)]],
    "36-gon": [0.5 + 0.5 * np.column_stack([np.cos(_ANGLES),
                                            np.sin(_ANGLES)])],
}


class TestBuildSquareMesh:
    def test_level0_counts(self):
        mesh = build_square_mesh(0)
        assert mesh.n_nodes == 25
        assert mesh.n_tris == 32
        mesh.validate()

    def test_level0_angles(self):
        mesh = build_square_mesh(0)
        ang = all_angles(mesh)
        assert np.all((np.abs(ang - 45.0) < 1e-9) | (np.abs(ang - 90.0) < 1e-9))

    def test_level1_counts(self):
        # hand count: 25 + 16 diagonal midpoints + 40 leg midpoints = 81
        mesh = build_square_mesh(1)
        assert mesh.n_nodes == 81
        assert mesh.n_tris == 128
        mesh.validate()

    def test_level_progression_matches_uniform_pass_sequence(self):
        mesh = build_square_mesh(0)
        counts = [mesh.n_nodes]
        for _ in range(4):
            mesh.uniform_refine()
            counts.append(mesh.n_nodes)
        assert counts == [25, 41, 81, 145, 289]

    def test_boundary_flags(self):
        mesh = build_square_mesh(0)
        for n in range(mesh.n_nodes):
            on_edge = (min(abs(mesh.xs[n]), abs(mesh.xs[n] - 1),
                           abs(mesh.ys[n]), abs(mesh.ys[n] - 1)) < 1e-12)
            assert mesh.node_boundary[n] == on_edge

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            build_square_mesh(-1)


class TestBisect:
    def test_interior_pair(self):
        mesh = make_two_triangle_square()
        eid = mesh.edge_id(0, 2)
        new = {ev.node for ev in mesh.bisect(eid)}
        assert len(new) == 1
        assert mesh.n_nodes == 5
        assert mesh.n_tris == 4
        mesh.validate()
        assert abs(total_area(mesh) - 1.0) < 1e-12

    def test_boundary_edge_single_split(self):
        mesh = make_unit_right_triangle()
        eid = mesh.edge_id(0, 1)
        new = {ev.node for ev in mesh.bisect(eid)}
        assert len(new) == 1
        assert mesh.n_tris == 2
        mid = next(iter(new))
        assert mesh.node_boundary[mid]
        mesh.validate()

    def test_midpoint_becomes_newest_of_children(self):
        mesh = make_two_triangle_square()
        mesh.bisect(mesh.edge_id(0, 2))
        for _, (_, _, v) in mesh.tris.items():
            assert v == 4  # the created midpoint

    def test_invalid_edge_id(self):
        mesh = make_two_triangle_square()
        with pytest.raises(NotRefinable):
            mesh.bisect(999)

    def test_non_base_edge_rejected(self):
        mesh = make_two_triangle_square()
        with pytest.raises(NotRefinable):
            mesh.bisect(mesh.edge_id(0, 1))  # leg, not a base edge

    def test_interface_chain_recursion_terminates(self):
        # chain depth 2k-1 = 3 for k = 2
        mesh = make_interface_strip(2)
        eid = mesh.base_edge_of(0)
        assert mesh.is_interface_base_edge(eid)
        mesh.bisect(eid)
        mesh.validate()
        assert abs(total_area(mesh) - 2.0) < 1e-12

    def test_interface_chain_depth_ten(self):
        mesh = make_interface_strip(8)  # chain depth 15
        mesh.bisect(mesh.base_edge_of(0))
        mesh.validate()
        # every strip triangle was forced to split
        assert mesh.n_tris >= 2 * 16

    def test_area_conservation(self):
        mesh = build_square_mesh(0)
        rng = np.random.default_rng(7)
        for _ in range(6):
            edges = mesh.refinable_edges()
            pick = rng.choice(edges, size=max(1, len(edges) // 8), replace=False)
            mesh.refine_wave(pick)
            assert abs(total_area(mesh) - 1.0) < 1e-12
        mesh.validate()


class TestUniformRefine:
    def test_one_pass_bisects_every_triangle(self, square_mesh):
        before = set(square_mesh.tris)
        square_mesh.uniform_refine()
        assert not before & set(square_mesh.tris)
        assert square_mesh.n_tris == 64
        square_mesh.validate()

    def test_angles_stay_isosceles_right(self, square_mesh):
        for _ in range(4):
            square_mesh.uniform_refine()
        ang = all_angles(square_mesh)
        assert np.all((np.abs(ang - 45.0) < 1e-9) | (np.abs(ang - 90.0) < 1e-9))


class TestLocate:
    def test_centroid_resolves_to_triangle(self, square_mesh):
        pts = square_mesh.points
        for t, (a, b, v) in list(square_mesh.tris.items())[:8]:
            c = (pts[a] + pts[b] + pts[v]) / 3.0
            assert square_mesh.locate([c])[0][0] == t

    def test_outside_returns_none(self, square_mesh):
        assert square_mesh.locate([(1.5, 0.5)])[0][0] == -1
        assert square_mesh.locate([(-0.01, 0.5)])[0][0] == -1

    def test_shared_vertex_lowest_id(self, square_mesh):
        # node at (0.25, 0.25) is shared by several triangles
        nid = next(n for n in range(25)
                   if abs(square_mesh.xs[n] - 0.25) < 1e-12
                   and abs(square_mesh.ys[n] - 0.25) < 1e-12)
        incident = sorted(t for t, tri in square_mesh.tris.items() if nid in tri)
        assert square_mesh.locate([(0.25, 0.25)])[0][0] == incident[0]

    def test_total_on_domain(self):
        mesh = build_square_mesh(1)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(10000, 2))
        ids, bary = mesh.locate(pts)
        for t, b in zip(ids, bary):
            assert t != -1
            assert b.min() >= -1e-12

    def test_locate_after_refinement(self, square_mesh):
        square_mesh.uniform_refine()
        assert square_mesh.locate([(0.5, 0.5)])[0][0] != -1


class TestNearBoundaryRatio:
    def test_coarse_square_is_zero(self, square_mesh):
        assert square_mesh.near_boundary_ratio(0.005) == 0.0

    def test_synthetic_single_interior_node(self):
        mesh = make_fan_mesh(interior_xy=(0.5, 0.004))
        assert mesh.near_boundary_ratio(0.005) == 1.0
        far = make_fan_mesh(interior_xy=(0.5, 0.5))
        assert far.near_boundary_ratio(0.005) == 0.0

    def test_zero_interior(self):
        mesh = make_unit_right_triangle()
        with pytest.raises(ZeroInterior):
            mesh.near_boundary_ratio(0.005)

    def test_bad_radius(self, square_mesh):
        with pytest.raises(ValueError):
            square_mesh.near_boundary_ratio(0.0)


class TestTrim:
    def test_all_triangles_bearing_keeps_mesh(self, square_mesh):
        pts = square_mesh.points
        cents = []
        for t, (a, b, v) in square_mesh.tris.items():
            cents.append((pts[a] + pts[b] + pts[v]) / 3.0)
        data = DataSet(np.asarray(cents), np.zeros(len(cents)))
        out = trim_to_irregular(square_mesh, data)
        assert out.n_tris == square_mesh.n_tris
        assert out.n_nodes == square_mesh.n_nodes
        out.validate()

    def test_quadrant_data_shrinks_mesh(self):
        mesh = build_square_mesh(2)
        rng = np.random.default_rng(0)
        data = DataSet(rng.uniform(0.05, 0.45, size=(200, 2)), np.zeros(200))
        out = trim_to_irregular(mesh, data)
        assert out.n_nodes < mesh.n_nodes
        out.validate()

    def test_no_data_raises(self, square_mesh):
        data = DataSet(np.array([[5.0, 5.0]]), np.array([0.0]))
        with pytest.raises(EmptyResult):
            trim_to_irregular(square_mesh, data)

    def test_disconnected_pockets_are_bridged(self):
        mesh = build_square_mesh(2)
        x = np.vstack([np.random.default_rng(1).uniform(0.05, 0.2, size=(50, 2)),
                       np.random.default_rng(2).uniform(0.8, 0.95, size=(50, 2))])
        out = trim_to_irregular(mesh, DataSet(x, np.zeros(100)))
        out.validate()
        # edge-connected: one component
        seen, stack = set(), [next(iter(out.tris))]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            for eid in out.tri_edge_ids(t):
                stack.extend(u for u in out.edge_tris[eid] if u not in seen)
        assert seen == set(out.tris)


class TestPolygon:
    def test_roundtrip(self, tmp_path):
        loops = [np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
                 np.array([(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)])]
        path = tmp_path / "poly.txt"
        save_polygon(loops, path)
        back = load_polygon(path)
        assert len(back) == 2
        assert np.allclose(back[0], loops[0])

    def test_mesh_polygon_respects_hole(self):
        loops = [np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
                 np.array([(0.35, 0.35), (0.65, 0.35), (0.65, 0.65), (0.35, 0.65)])]
        mesh = mesh_polygon(loops, refine_level=2)
        mesh.validate()
        assert mesh.locate([(0.5, 0.5)])[0][0] == -1  # inside the hole
        assert mesh.locate([(0.1, 0.1)])[0][0] != -1

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(POLYGONS))
    def test_kept_triangles_match_pointwise_test(self, name, level):
        loops = [np.asarray(l, dtype=float) for l in POLYGONS[name]]
        mesh = build_square_mesh(level)
        kept = polygon_triangles(mesh, loops)
        assert kept == polygon_triangles_loop(mesh, loops)
        assert 0 < len(kept) < mesh.n_tris

    def test_bad_polygon_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("loop 2\n0 0\n")
        with pytest.raises(ParseError) as err:
            load_polygon(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("loop 3\n0 0\n1 0\n", 4),
        ("loop x\n", 1),
        ("loop 3\n0 a\n1 0\n0 1\n", 2),
        ("loop 3\n0 0\n\n1 0 2\n0 1\n", 4),  # blank lines still count
    ], ids=["truncated", "count", "coordinate", "fields"])
    def test_malformed_polygon_file(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_polygon(path)
        assert err.value.line == line


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        mesh = build_square_mesh(0)
        mesh.refine_wave([mesh.base_edge_of(next(iter(mesh.tris)))])
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        back.validate()
        assert back.n_nodes == mesh.n_nodes
        assert back.n_tris == mesh.n_tris
        assert np.allclose(back.points, mesh.points[np.arange(mesh.n_nodes)])
        # newest-node structure preserved: same base edge vertex sets
        orig = sorted(frozenset(mesh.edges[mesh.base_edge_of(t)]) for t in mesh.tris)
        new = sorted(frozenset(back.edges[back.base_edge_of(t)]) for t in back.tris)
        # node ids are renumbered in creation order, which save preserves
        assert len(orig) == len(new)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("not-a-mesh\n")
        with pytest.raises(ParseError):
            load_mesh(path)

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: lines[:3], 4),  # cut after the first node
        (lambda lines: lines[:-1], None),  # last triangle missing
        (lambda lines: lines[:2] + ["0 0.0 zero 1"] + lines[3:], 3),
        (lambda lines: lines[:1] + ["nodes many"] + lines[2:], 2),
        (lambda lines: lines[:-1] + ["1 0 2 99 2"], None),
        (lambda lines: lines[:-1] + ["1 0 2 3 5"], None),
    ], ids=["one-node", "no-last-triangle", "coordinate", "count", "node-id",
            "newest"])
    def test_malformed_mesh_file(self, tmp_path, edit, line):
        path = tmp_path / "mesh.txt"
        save_mesh(build_square_mesh(0), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == (len(lines) if line is None else line)


class TestNewestNodeLabels:
    def test_children_newest_is_created_midpoint(self, square_mesh):
        before = square_mesh.n_nodes
        events = square_mesh.bisect(square_mesh.base_edge_of(0))
        new_ids = {ev.node for ev in events}
        assert new_ids == {before}
        for t, (a, b, v) in square_mesh.tris.items():
            if square_mesh.tri_parent.get(t) is not None:
                assert v in new_ids

    def test_node_parents_recorded(self, square_mesh):
        events = square_mesh.bisect(square_mesh.base_edge_of(0))
        ev = events[0]
        px = 0.5 * (square_mesh.xs[ev.parent_a] + square_mesh.xs[ev.parent_b])
        assert abs(square_mesh.xs[ev.node] - px) < 1e-15
