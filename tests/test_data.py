import numpy as np
import pytest

from conftest import max_nearest_gap
from tpsfem.data import (DataSet, PeaksSpec, ingest, peaks_generate,
                         peaks_grad, peaks_laplacian, peaks_value)
from tpsfem.exceptions import DegenerateExtent, ParseError


class TestNormalization:
    def test_two_point_example(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0,5\n10,10,15\n")
        ds = ingest(path)
        assert np.allclose(ds.x, [[0.2, 0.2], [0.8, 0.8]])
        assert np.allclose(ds.y, [0.0, 1.0])

    def test_aspect_ratio_preserved(self):
        x = np.array([[0.0, 0.0], [10.0, 2.0]])
        ds = DataSet(x, np.array([0.0, 1.0])).normalized()
        # longer axis spans exactly [0.2, 0.8]; shorter axis centred
        assert np.allclose(ds.x[:, 0], [0.2, 0.8])
        ext = ds.x[:, 1].max() - ds.x[:, 1].min()
        assert abs(ext - 0.12) < 1e-12
        assert abs(0.5 * (ds.x[:, 1].max() + ds.x[:, 1].min()) - 0.5) < 1e-12

    def test_constant_y_flagged(self):
        ds = DataSet(np.array([[0.0, 0.0], [1.0, 1.0]]),
                     np.array([3.0, 3.0])).normalized()
        assert np.all(ds.y == 0.0)
        assert any("constant" in w for w in ds.warnings)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 9, size=(50, 2))
        y = rng.normal(size=50)
        ds = DataSet(x, y).normalized()
        assert np.allclose(ds.scale.from_unit(ds.x), x, atol=1e-12)
        assert np.allclose(ds.scale.y_from_unit(ds.y), y, atol=1e-12)

    def test_degenerate_extent(self):
        with pytest.raises(DegenerateExtent):
            DataSet(np.array([[1.0, 2.0], [1.0, 2.0]]),
                    np.array([0.0, 1.0])).normalized()


class TestIngest:
    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0,5\n1,bad,2\n")
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("bad", ["0.3,0.4,nan", "inf,0.4,0.5"])
    def test_non_finite_value_line_number(self, tmp_path, bad):
        path = tmp_path / "d.csv"
        path.write_text(f"0,0,5\n1,1,2\n{bad}\n2,0,3\n")
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.line == 3

    def test_header_and_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,z,extra\n0,0,5,junk\n10,10,15,junk\n")
        ds = ingest(path)
        assert len(ds) == 2

    def test_max_nn_gap(self):
        ds = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]),
                     np.zeros(3))
        assert abs(max_nearest_gap(ds.x) - 2.0) < 1e-12


class TestPeaks:
    def test_value_at_origin(self):
        # (3 - 1/3) * exp(-1)
        assert abs(peaks_value(0.0, 0.0) - 0.98101) < 1e-5

    def test_first_term_vanishes_at_x1_equals_1(self):
        # remaining terms only
        v = peaks_value(1.0, 0.3)
        b = -10 * (1 / 5 - 1 - 0.3 ** 5) * np.exp(-1 - 0.09)
        c = -(1 / 3) * np.exp(-4 - 0.09)
        assert abs(v - (b + c)) < 1e-12

    def test_noise_statistics(self):
        ds = peaks_generate(PeaksSpec(n=100000), seed=11)
        clean = peaks_value(ds.x[:, 0], ds.x[:, 1])
        resid = ds.y - clean
        assert abs(resid.std() - 0.02) < 0.002

    def test_deterministic_per_seed(self):
        a = peaks_generate(seed=4)
        b = peaks_generate(seed=4)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2.2, 2.2, size=(60, 2))
        h = 1e-6
        fx, fy = peaks_grad(pts[:, 0], pts[:, 1])
        fx_fd = (peaks_value(pts[:, 0] + h, pts[:, 1])
                 - peaks_value(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        fy_fd = (peaks_value(pts[:, 0], pts[:, 1] + h)
                 - peaks_value(pts[:, 0], pts[:, 1] - h)) / (2 * h)
        assert np.allclose(fx, fx_fd, atol=1e-7)
        assert np.allclose(fy, fy_fd, atol=1e-7)

    def test_laplacian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(40, 2))
        h = 1e-4
        lap = peaks_laplacian(pts[:, 0], pts[:, 1])
        f = peaks_value
        lap_fd = ((f(pts[:, 0] + h, pts[:, 1]) + f(pts[:, 0] - h, pts[:, 1])
                   + f(pts[:, 0], pts[:, 1] + h) + f(pts[:, 0], pts[:, 1] - h)
                   - 4 * f(pts[:, 0], pts[:, 1])) / h ** 2)
        assert np.allclose(lap, lap_fd, atol=1e-5)
