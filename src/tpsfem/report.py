"""Run reports: schema-versioned JSON with per-iteration records."""

import csv
import json
import platform
import sys
from dataclasses import dataclass, field

REPORT_SCHEMA = "tpsfem-report v1"
VALUES_SCHEMA = "tpsfem-values v1"

CSV_COLUMNS = ["label", "domain", "refine", "indicator", "boundary", "nodes",
               "basis", "nonzeros", "nonzero_ratio", "solve_seconds", "rmse",
               "max_residual", "near_boundary_ratio", "dropped_points",
               "seed"]


def environment_stamp():
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class RunReport:
    """Losslessly serialisable record of one run."""
    config: dict
    records: list
    final: dict
    seed: int
    environment: dict = field(default_factory=environment_stamp)
    schema: str = REPORT_SCHEMA

    @classmethod
    def from_run(cls, cfg, records, smoother, label=""):
        recs = [r.to_dict() for r in records]
        last = recs[-1]
        final = {
            "label": label,
            "nodes": last["nodes"],
            "solve_seconds": last["solve_seconds"],
            "rmse": last["rmse"],
            "max_residual": last["max_residual"],
            "near_boundary_ratio": last["near_boundary_ratio"],
            "dropped_points": smoother.info.get("dropped_points", 0),
            "stop_reason": smoother.info.get("stop_reason"),
            "system_nonzeros": smoother.info.get("nnz"),
            "system_unknowns": smoother.info.get("unknowns"),
            "tps_alpha": smoother.info.get("tps_alpha"),
        }
        return cls(config=cfg.to_dict(), records=recs, final=final,
                   seed=cfg.seed)

    def to_json(self, indent=None):
        payload = {"schema": self.schema, "seed": self.seed,
                   "config": self.config, "records": self.records,
                   "final": self.final, "environment": self.environment}
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if payload.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"unknown report schema {payload.get('schema')!r}")
        return cls(config=payload["config"], records=payload["records"],
                   final=payload["final"], seed=payload["seed"],
                   environment=payload["environment"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=2))
            fh.write("\n")

    def write_records_jsonl(self, path):
        """One iteration record per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": REPORT_SCHEMA}) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return RunReport.from_json(fh.read())


def merge_reports_csv(paths, out_path):
    """Merge run reports into one CSV with a stable column order."""
    rows = []
    for path in paths:
        rep = read_report(path)
        cfg = rep.config
        row = {
            "label": rep.final.get("label", ""),
            "domain": cfg.get("domain", ""),
            "refine": cfg.get("refine", ""),
            "indicator": cfg.get("indicator", ""),
            "boundary": cfg.get("boundary", ""),
            "nodes": rep.final.get("nodes", ""),
            "basis": rep.final.get("basis", rep.final.get("nodes", "")),
            "nonzeros": rep.final.get("system_nonzeros", ""),
            "nonzero_ratio": rep.final.get("nonzero_ratio", ""),
            "solve_seconds": rep.final.get("solve_seconds", ""),
            "rmse": rep.final.get("rmse", ""),
            "max_residual": rep.final.get("max_residual", ""),
            "near_boundary_ratio": rep.final.get("near_boundary_ratio", ""),
            "dropped_points": rep.final.get("dropped_points", ""),
            "seed": rep.seed,
        }
        rows.append(row)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def save_node_values(smoother, path):
    """Write the per-node coefficient table `id c g1 g2 w`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VALUES_SCHEMA}\n")
        fh.write(f"nodes {len(smoother.c)}\n")
        for i in range(len(smoother.c)):
            fh.write(f"{i} {float(smoother.c[i])!r} {float(smoother.g1[i])!r} "
                     f"{float(smoother.g2[i])!r} {float(smoother.w[i])!r}\n")
