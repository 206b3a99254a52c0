"""Tests of the benchmark's own code: span arithmetic, wrapper restoration
and tiny workloads run through the benchmark's entry point.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402

bench.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tpsfem.gcv import GcvConfig  # noqa: E402

TINY = {
    "tiny-recovery": workloads.Workload(
        "tiny-recovery", 600,
        dict(indicator="recovery", alpha="auto", max_iters=2,
             stagnation_iters=0,
             gcv=GcvConfig(alpha_grid=np.geomspace(1e-9, 1e-1, 7), probes=4,
                           refine_iters=2))),
    "tiny-lshape": workloads.Workload(
        "tiny-lshape", 800,
        dict(domain="irregular", indicator="auxiliary", alpha=1e-6,
             max_iters=1, stagnation_iters=0, trim_level=1),
        cut_quadrant=True),
}


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def snapshot():
    """The object behind every target name, or None where it is missing."""
    return {(t.owner, t.attr): vars(tracing.resolve(t.owner)).get(t.attr)
            for t in tracing.TARGETS}


def run_main(monkeypatch, capsys, tmp_path, name, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "HERE", str(tmp_path))
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "GRID_SIDE", 30)
    code = bench.main(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


class TestSelfTime:
    def test_nested_spans(self):
        tr = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
        with tr.span("root"):
            with tr.span("a"):
                with tr.span("b"):
                    pass
            with tr.span("a"):
                pass
        assert tr.self_times().tolist() == [3.0, 2.0, 1.0, 4.0]
        assert tr.totals() == {"root": (1, 3.0), "a": (2, 6.0),
                               "b": (1, 1.0)}

    def test_self_times_sum_to_root(self):
        tr = tracing.Tracer(clock=fake_clock([0.0, 0.5, 0.75, 2.0, 3.25, 4.0]))
        with tr.span("root"):
            with tr.span("x"):
                with tr.span("y"):
                    pass
        assert sum(tr.self_times()) == pytest.approx(tr.duration(0))

    def test_open_spans_refuse_self_times(self):
        tr = tracing.Tracer()
        tr.begin("open")
        with pytest.raises(RuntimeError):
            tr.self_times()


class TestWrappers:
    def test_restored_when_traced_code_raises(self):
        before = snapshot()
        tr = tracing.Tracer()
        with pytest.raises(ValueError):
            with tr.installed():
                assert snapshot() != before
                raise ValueError("boom")
        assert snapshot() == before
        assert tr.missing == []

    def test_missing_name_is_skipped_and_listed(self):
        gone = tracing.Target("tpsfem.driver", "no_such_function", "x")
        tr = tracing.Tracer()
        with tr.installed(targets=(gone,)):
            pass
        assert tr.missing == ["tpsfem.driver.no_such_function"]


class TestTinyWorkloads:
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_untraced_run_passes_check(self, monkeypatch, capsys, tmp_path,
                                       name):
        code, result = run_main(monkeypatch, capsys, tmp_path, name, trace=0)
        assert code == 0
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1
        wanted = [m["name"] for m in bench.load_contract()["end_to_end"]]
        assert list(result["metrics"]) == wanted

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_traced_run_reports_every_layer(self, monkeypatch, capsys,
                                            tmp_path, name):
        before = snapshot()
        code, result = run_main(monkeypatch, capsys, tmp_path, name, trace=1)
        assert snapshot() == before  # every wrapper restored
        assert code == 0 and result["correct"]
        assert result["attempted"] == 2 and result["failed"] == 0
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        wanted = [m["name"] for m in bench.load_contract()["per_layer"]]
        assert list(metrics) == wanted
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_sum == pytest.approx(metrics["trace.fit_s"], rel=1e-9)
        assert metrics["trace.missing_targets"] == 0
        assert metrics["mesh.locate.calls"] > 0
        assert metrics["solver.factorize.count"] > 0
        spans = np.load(tmp_path / "out" / f"spans-{name}-seed3.npz")
        assert len(spans["start"]) == metrics["trace.spans"]
        assert np.all(spans["end"] >= spans["start"])

    def test_seed_fixes_the_inputs(self):
        w = TINY["tiny-lshape"]
        a, b = workloads.make_data(w, 5), workloads.make_data(w, 5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, workloads.make_data(w, 6).x)


def test_refuses_to_run_without_sources(tmp_path):
    """With only the benchmark's files present, no result is printed."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
                tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "auxiliary-3k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
