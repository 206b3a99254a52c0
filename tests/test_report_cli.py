import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tpsfem
from tpsfem.data import PeaksSpec, peaks_generate
from tpsfem.driver import RunConfig, run
from tpsfem.gcv import GcvConfig
from tpsfem.report import (RunReport, merge_reports_csv, read_report,
                           save_node_values)


def tiny_run(seed=0, boundary="average"):
    data = peaks_generate(PeaksSpec(n=400), seed=1).normalized()
    cfg = RunConfig(refine="uniform", max_iters=1, boundary=boundary,
                    gcv=GcvConfig(alpha_grid=np.geomspace(1e-8, 1e-2, 5),
                                  probes=3, refine_iters=1),
                    stagnation_iters=0, seed=seed)
    smoother, records = run(data, cfg)
    return cfg, records, smoother


class TestRunReport:
    def test_round_trip_lossless(self, tmp_path):
        cfg, records, smoother = tiny_run()
        rep = RunReport.from_run(cfg, records, smoother, label="tiny")
        path = tmp_path / "run_report.json"
        rep.write(path)
        back = read_report(path)
        assert back.to_json() == rep.to_json()
        assert back.final["nodes"] == records[-1].nodes

    @pytest.mark.parametrize("boundary", ["tps", "average", "constant"])
    def test_spline_alpha_reported(self, boundary, monkeypatch):
        import tpsfem.driver as driver
        picked = []
        fit = driver.fit_tps

        def recording(samp, alpha_tps):
            model = fit(samp, alpha_tps)
            picked.append(model.alpha_tps)
            return model

        monkeypatch.setattr(driver, "fit_tps", recording)
        cfg, records, smoother = tiny_run(boundary=boundary)
        expect = None if boundary == "constant" else picked[0]
        assert len(picked) == (boundary != "constant")
        assert smoother.info["tps_alpha"] == expect
        rep = RunReport.from_run(cfg, records, smoother)
        assert rep.final["tps_alpha"] == expect
        back = RunReport.from_json(rep.to_json())
        assert back.final["tps_alpha"] == expect
        assert back.to_json() == rep.to_json()

    def test_schema_field_present(self):
        cfg, records, smoother = tiny_run()
        rep = RunReport.from_run(cfg, records, smoother)
        payload = json.loads(rep.to_json())
        assert payload["schema"] == "tpsfem-report v1"

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            RunReport.from_json(json.dumps({"schema": "nope"}))

    def test_jsonl_records(self, tmp_path):
        cfg, records, smoother = tiny_run()
        rep = RunReport.from_run(cfg, records, smoother)
        path = tmp_path / "records.jsonl"
        rep.write_records_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(records) + 1  # header line
        assert json.loads(lines[1])["nodes"] == records[0].nodes

    def test_merge_csv_stable_columns(self, tmp_path):
        cfg, records, smoother = tiny_run()
        rep = RunReport.from_run(cfg, records, smoother, label="a")
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        rep.write(p1)
        rep.write(p2)
        out = tmp_path / "merged.csv"
        merge_reports_csv([p1, p2], out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("label,domain,refine,indicator,boundary")

    def test_node_values_table(self, tmp_path):
        cfg, records, smoother = tiny_run()
        path = tmp_path / "values.txt"
        save_node_values(smoother, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "tpsfem-values v1"
        assert lines[1] == f"nodes {len(smoother.c)}"
        first = lines[2].split()
        assert int(first[0]) == 0
        assert float(first[1]) == smoother.c[0]


# The directory that holds the imported package. The child gets it as an
# absolute path: a relative PYTHONPATH entry would resolve against ``cwd``.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(tpsfem.__file__)))


def run_cli(args, cwd):
    cmd = [sys.executable, "-m", "tpsfem.cli"] + args
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=120)


@pytest.fixture(scope="module")
def peaks_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pts.csv"
    data = peaks_generate(PeaksSpec(n=300), seed=2)
    rows = ["x1,x2,y"] + [f"{p[0]},{p[1]},{v}" for p, v in zip(data.x, data.y)]
    path.write_text("\n".join(rows))
    return path


class TestCli:
    def test_fit_uniform_two_iters(self, peaks_csv, tmp_path):
        out = tmp_path / "out"
        res = run_cli(["fit", str(peaks_csv), "--refine", "uniform",
                       "--domain", "square", "--max-iters", "2",
                       "--gcv-probes", "3", "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        rep = read_report(out / "run_report.json")
        assert len(rep.records) == 3
        assert (out / "mesh.txt").exists()
        assert (out / "node_values.txt").exists()

    def test_unknown_flag_usage_error(self, peaks_csv, tmp_path):
        res = run_cli(["fit", str(peaks_csv), "--no-such-flag"], tmp_path)
        assert res.returncode == 2
        assert "unrecognized arguments: --no-such-flag" in res.stderr

    @pytest.mark.parametrize("flag, value", [("--gcv-probes", "0"),
                                             ("--alpha", "nan"),
                                             ("--tps-samples", "9"),
                                             ("--max-iters", "-1"),
                                             ("--trim-level", "-1"),
                                             ("--rmse-tolerance", "nan")])
    def test_unfittable_setting_usage_error(self, peaks_csv, tmp_path, flag,
                                            value):
        # argparse checks every flag here but the tolerance; RunConfig does
        expect = (f"argument {flag}: {value} is" if flag != "--rmse-tolerance"
                  else "rmse_tolerance must not be NaN")
        out = tmp_path / "out"
        res = run_cli(["fit", str(peaks_csv), flag, value, "--out", str(out)],
                      tmp_path)
        assert res.returncode == 2
        assert expect in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("method, value", [("tps", "foo"),
                                               ("tps", "nan"),
                                               ("tps", "-1"),
                                               ("wendland", "-1")])
    def test_bad_baseline_alpha_usage_error(self, peaks_csv, tmp_path, method,
                                            value):
        out = tmp_path / "b"
        res = run_cli(["baseline", str(peaks_csv), "--method", method,
                       "--grid-h", "0.05", "--alpha", value,
                       "--out", str(out)], tmp_path)
        assert res.returncode == 2
        assert "argument --alpha:" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_report_merge(self, peaks_csv, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for out, seed in ((out1, "1"), (out2, "2")):
            res = run_cli(["fit", str(peaks_csv), "--refine", "uniform",
                           "--max-iters", "1", "--gcv-probes", "3",
                           "--seed", seed, "--out", str(out)], tmp_path)
            assert res.returncode == 0, res.stderr
        merged = tmp_path / "merged.csv"
        res = run_cli(["report", str(out1 / "run_report.json"),
                       str(out2 / "run_report.json"), "--out", str(merged)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        lines = merged.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_baseline_wendland(self, peaks_csv, tmp_path):
        out = tmp_path / "b"
        res = run_cli(["baseline", str(peaks_csv), "--method", "wendland",
                       "--grid-h", "0.05", "--cover", "30",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        payload = json.loads((out / "baseline_wendland.json").read_text())
        assert payload["nonzero_ratio"] <= 1.0
        assert payload["rmse"] >= 0.0

    def test_peaks_generate(self, tmp_path):
        out = tmp_path / "p"
        res = run_cli(["peaks", "--n", "200", "--seed", "3",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (out / "peaks.csv").read_text().strip().split("\n")
        assert len(lines) == 201

    def test_sample_grid_export(self, peaks_csv, tmp_path):
        out = tmp_path / "g"
        res = run_cli(["fit", str(peaks_csv), "--refine", "uniform",
                       "--max-iters", "1", "--gcv-probes", "3",
                       "--sample-grid", "8", "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (out / "surface.csv").read_text().strip().split("\n")
        assert len(lines) == 65
        # rows run x fastest: x1 sweeps the 8 columns within each x2 row
        xy = np.array([line.split(",")[:2] for line in lines[1:]],
                      dtype=float).reshape(8, 8, 2)
        assert np.all(np.diff(xy[..., 0], axis=1) > 0)
        assert np.all(xy[..., 0] == xy[:1, :, 0])
        assert np.all(np.diff(xy[:, 0, 1]) > 0)
        assert np.all(xy[..., 1] == xy[:, :1, 1])
