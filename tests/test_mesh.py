import numpy as np
import pytest

from tpsfem.data import DataSet
from tpsfem.exceptions import EmptyResult, NotRefinable, ParseError, ZeroInterior
from tpsfem.mesh import (TriMesh, bisect_once, build_square_mesh, load_mesh,
                         load_polygon, mesh_polygon, polygon_triangles,
                         save_mesh, save_polygon, trim_to_irregular)

from conftest import (all_angles, base_edge, edge_between, make_fan_mesh,
                      make_interface_strip, make_two_triangle_square,
                      make_unit_right_triangle, total_area)
from oracles import (assert_same_mesh, components_of, copy_submesh,
                     located_ids, locator_bins, polygon_triangles_loop,
                     tri_neighbors, trimmed_ids)


def l_shaped_data(n):
    """The points of n uniform draws over the unit square (seed 0) outside
    its upper right quarter."""
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
    x = x[(x[:, 0] < 0.5) | (x[:, 1] < 0.5)]
    return DataSet(x, np.zeros(len(x)))


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
    # two blocks joined by a corridor that holds no triangle centroid
    "dumbbell": [[(0.0, 0.0), (0.4, 0.0), (0.4, 0.49), (0.6, 0.49),
                  (0.6, 0.2), (1.0, 0.2), (1.0, 0.8), (0.6, 0.8), (0.6, 0.51),
                  (0.4, 0.51), (0.4, 1.0), (0.0, 1.0)]],
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
        for n, (x, y) in enumerate(mesh.points):
            on_edge = min(abs(x), abs(x - 1), abs(y), abs(y - 1)) < 1e-12
            assert mesh.node_boundary[n] == on_edge

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            build_square_mesh(-1)


class TestBisect:
    def test_interior_pair(self):
        mesh = make_two_triangle_square()
        eid = edge_between(mesh, 0, 2)
        new = set(mesh.refine_wave([eid])[:, 0].tolist())
        assert len(new) == 1
        assert mesh.n_nodes == 5
        assert mesh.n_tris == 4
        mesh.validate()
        assert abs(total_area(mesh) - 1.0) < 1e-12

    def test_boundary_edge_single_split(self):
        mesh = make_unit_right_triangle()
        eid = edge_between(mesh, 0, 1)
        new = set(mesh.refine_wave([eid])[:, 0].tolist())
        assert len(new) == 1
        assert mesh.n_tris == 2
        mid = next(iter(new))
        assert mesh.node_boundary[mid]
        mesh.validate()

    def test_midpoint_becomes_newest_of_children(self):
        mesh = make_two_triangle_square()
        mesh.refine_wave([edge_between(mesh, 0, 2)])
        assert np.all(mesh.tri_table.verts[:, 2] == 4)  # the created midpoint

    def test_invalid_edge_id(self):
        mesh = make_two_triangle_square()
        with pytest.raises(NotRefinable, match="not an edge"):
            mesh.refine_wave([999])

    def test_non_base_edge_rejected(self):
        mesh = make_two_triangle_square()
        with pytest.raises(NotRefinable, match="not a base edge"):
            mesh.refine_wave([edge_between(mesh, 0, 1)])  # a leg

    def test_interface_chain_recursion_terminates(self):
        # chain depth 2k-1 = 3 for k = 2
        mesh = make_interface_strip(2)
        eid = base_edge(mesh, 0)
        # the base edge of one of its two triangles only
        et = mesh.edge_table
        ts = et.tris[et.rows([eid])[0]]
        assert sorted(base_edge(mesh, t) == eid for t in ts) == [False, True]
        mesh.refine_wave([eid])
        mesh.validate()
        assert abs(total_area(mesh) - 2.0) < 1e-12

    def test_interface_chain_depth_ten(self):
        mesh = make_interface_strip(8)  # chain depth 15
        mesh.refine_wave([base_edge(mesh, 0)])
        mesh.validate()
        # every strip triangle was forced to split
        assert mesh.n_tris >= 2 * 16

    def test_cyclic_labels_rejected(self):
        # every fan triangle's base edge is the next one's leg: the chain
        # of blocking base edges closes on itself
        mesh = make_fan_mesh()
        mesh = TriMesh.from_arrays(mesh.points, mesh.tri_table.verts,
                                   [0] * mesh.n_tris)
        with pytest.raises(NotRefinable):
            mesh.refine_wave([base_edge(mesh, 0)])
        with pytest.raises(NotRefinable):
            mesh.uniform_refine()
        with pytest.raises(NotRefinable):
            bisect_once(mesh.tri_table.verts, mesh.n_nodes)

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
        before = set(square_mesh.tri_table.ids.tolist())
        square_mesh.uniform_refine()
        assert not before & set(square_mesh.tri_table.ids.tolist())
        assert square_mesh.n_tris == 64
        square_mesh.validate()

    def test_angles_stay_isosceles_right(self, square_mesh):
        for _ in range(4):
            square_mesh.uniform_refine()
        ang = all_angles(square_mesh)
        assert np.all((np.abs(ang - 45.0) < 1e-9) | (np.abs(ang - 90.0) < 1e-9))


class TestLocate:
    def test_centroid_resolves_to_triangle(self, square_mesh):
        tab = square_mesh.tri_table
        centroid = square_mesh.points[tab.verts[:8]].mean(axis=1)
        assert np.array_equal(located_ids(square_mesh, centroid)[0],
                              tab.ids[:8])

    def test_outside_returns_none(self, square_mesh):
        assert square_mesh.locate([(1.5, 0.5)])[0][0] == -1
        assert square_mesh.locate([(-0.01, 0.5)])[0][0] == -1

    def test_shared_vertex_lowest_id(self, square_mesh):
        # node at (0.25, 0.25) is shared by several triangles
        nid = next(n for n, p in enumerate(square_mesh.points)
                   if np.abs(p - 0.25).max() < 1e-12)
        tab = square_mesh.tri_table
        incident = tab.ids[(tab.verts == nid).any(axis=1)]
        assert located_ids(square_mesh, [(0.25, 0.25)])[0][0] == \
            incident.min()

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

    @pytest.mark.parametrize("case", ["refined", "trimmed"])
    def test_bins_match_loop_oracle(self, case):
        mesh = build_square_mesh(1)
        mesh.refine_wave(mesh.refinable_edges()[::3].tolist())
        if case == "trimmed":
            mesh = trim_to_irregular(mesh, l_shaped_data(300))[0]
        mesh.locate([(0.5, 0.5)])
        bins = mesh._locator
        start, rows = locator_bins(mesh, bins.ng)[-2:]
        assert np.array_equal(bins.start, start)
        assert np.array_equal(bins.rows, rows)

    @pytest.mark.parametrize("case, ng, mean, peak", [
        ("square-6", 1024, 3.120, 8),
        ("trimmed", 157, 1.860, 8),
    ])
    def test_bin_occupancy_pinned(self, case, ng, mean, peak):
        # the locator's selectivity, triangles listed per bin: a coarser
        # grid lists more, so every point tests more candidates.  The
        # level-6 square (131072 triangles) reaches the 1024-bin cap; the
        # trimmed mesh has 1330 triangles
        if case == "square-6":
            mesh = build_square_mesh(6)
        else:
            mesh = trim_to_irregular(build_square_mesh(3),
                                     l_shaped_data(4000))[0]
        mesh.locate([(0.25, 0.25)])
        bins = mesh._locator
        assert bins.ng == ng
        assert round(len(bins.rows) / ng ** 2, 3) == mean
        assert np.diff(bins.start).max() == peak


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

    def test_exact_spacing_is_not_near(self, square_mesh):
        """Eight of the nine interior nodes of the level-0 square lie
        exactly 0.25 from the boundary: strictly closer than 0.25 holds for
        none of them, and for all eight once the radius grows by one ulp."""
        assert square_mesh.near_boundary_ratio(0.25) == 0.0
        assert square_mesh.near_boundary_ratio(np.nextafter(0.25, 1)) == 8 / 9


class TestTrim:
    def test_all_triangles_bearing_keeps_mesh(self, square_mesh):
        cents = square_mesh.points[square_mesh.tri_table.verts].mean(axis=1)
        data = DataSet(cents, np.zeros(len(cents)))
        out = trim_to_irregular(square_mesh, data)[0]
        assert out.n_tris == square_mesh.n_tris
        assert out.n_nodes == square_mesh.n_nodes
        out.validate()

    def test_quadrant_data_shrinks_mesh(self):
        mesh = build_square_mesh(2)
        rng = np.random.default_rng(0)
        data = DataSet(rng.uniform(0.05, 0.45, size=(200, 2)), np.zeros(200))
        out = trim_to_irregular(mesh, data)[0]
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
        out = trim_to_irregular(mesh, DataSet(x, np.zeros(100)))[0]
        out.validate()
        # edge-connected: one component
        tab, et = out.tri_table, out.edge_table
        seen, stack = set(), [int(tab.ids[0])]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            for pair in et.tris[et.rows(tab.edges[tab.rows([t])[0]])]:
                stack.extend(u for u in pair.tolist()
                             if u >= 0 and u not in seen)
        assert seen == set(tab.ids.tolist())

    def test_pockets_bridged_as_the_id_set_oracle(self):
        # four pockets far apart on a level-3 square refined at one corner:
        # the largest is joined to the other three by the shortest paths
        # of a breadth-first search
        mesh = build_square_mesh(3)
        mesh.refine_wave(mesh.refinable_edges()[:40].tolist())
        rng = np.random.default_rng(5)
        x = np.vstack([c + rng.uniform(-r, r, size=(k, 2)) for c, r, k in (
            ((0.1, 0.1), 0.06, 80), ((0.85, 0.2), 0.03, 20),
            ((0.5, 0.55), 0.04, 30), ((0.15, 0.9), 0.02, 10))])
        ids, _ = located_ids(mesh, x)
        bearing = set(ids[ids >= 0].tolist())
        assert len(components_of(tri_neighbors(mesh), bearing)) >= 3
        want = trimmed_ids(mesh, x)
        assert len(want) > len(bearing)
        out = trim_to_irregular(mesh, DataSet(x, np.zeros(len(x))))[0]
        assert_same_mesh(out, copy_submesh(mesh, want))


class TestSubmesh:
    @pytest.mark.parametrize("case", ["trimmed", "l-shape", "holed-quad"])
    def test_matches_one_by_one_copy(self, case):
        mesh = build_square_mesh(2)
        if case == "trimmed":
            rng = np.random.default_rng(4)
            for _ in range(3):
                edges = mesh.refinable_edges()
                mesh.refine_wave(rng.choice(edges, size=len(edges) // 5,
                                            replace=False).tolist())
            ids, _ = located_ids(mesh, rng.uniform(0.05, 0.6, size=(300, 2)))
            keep = set(ids[ids >= 0].tolist())
        else:
            keep = polygon_triangles(mesh, [np.asarray(l, dtype=float)
                                            for l in POLYGONS[case]])
        got = mesh.submesh(np.isin(mesh.tri_table.ids, list(keep)))
        assert_same_mesh(got, copy_submesh(mesh, keep))
        got.validate()


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
        assert np.all(np.diff(kept) > 0)
        assert set(kept.tolist()) == polygon_triangles_loop(mesh, loops)
        assert 0 < len(kept) < mesh.n_tris

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(POLYGONS))
    def test_largest_component_matches_id_set_oracle(self, name, level):
        loops = [np.asarray(l, dtype=float) for l in POLYGONS[name]]
        square = build_square_mesh(level)
        comps = components_of(tri_neighbors(square),
                              polygon_triangles_loop(square, loops))
        if name == "dumbbell":
            assert len(comps) == 2
        assert_same_mesh(mesh_polygon(loops, refine_level=level),
                         copy_submesh(square, comps[0]))

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
        mesh.refine_wave([base_edge(mesh, 0)])
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        back.validate()
        assert back.n_nodes == mesh.n_nodes
        assert back.n_tris == mesh.n_tris
        assert np.allclose(back.points, mesh.points[np.arange(mesh.n_nodes)])
        # newest-node structure preserved: the same (a, b, v) rows, on the
        # node ids that save keeps
        assert np.array_equal(back.tri_table.verts, mesh.tri_table.verts)
        assert np.array_equal(back.node_boundary, mesh.node_boundary)

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
        # a copy of triangle 0: its base edge gets a third triangle
        (lambda lines: lines[:-1] + ["31 6 0 1 2"], None),
        # three nodes on the bottom side of the square
        (lambda lines: lines[:-1] + ["31 0 1 2 2"], None),
    ], ids=["one-node", "no-last-triangle", "coordinate", "count", "node-id",
            "newest", "three-triangles-at-an-edge", "zero-area"])
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
        old = square_mesh.tri_table.ids
        events = square_mesh.refine_wave([base_edge(square_mesh, 0)])
        new_ids = set(events[:, 0].tolist())
        assert new_ids == {before}
        # triangle ids are never reused: the children are the new ids
        tab = square_mesh.tri_table
        children = ~np.isin(tab.ids, old)
        assert np.count_nonzero(children) == 4
        assert set(tab.verts[children, 2].tolist()) == new_ids

    def test_node_parents_recorded(self, square_mesh):
        events = square_mesh.refine_wave([base_edge(square_mesh, 0)])
        node, parent_a, parent_b = events[0]
        x = square_mesh.points[:, 0]
        px = 0.5 * (x[parent_a] + x[parent_b])
        assert abs(x[node] - px) < 1e-15
