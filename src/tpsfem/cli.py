"""Command line interface: fit, baseline, peaks and report subcommands."""

import argparse
import csv
import json
import os
import sys

EXIT_USAGE = 2  # argparse's code for a bad command line
EXIT_NUMERICAL = 3


def _int_at_least(low):
    """An argparse type: an integer of at least ``low``."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)
    return integer


def _fit_alpha(text):
    """fit --alpha: 'auto' or a positive finite float."""
    if text != "auto" and not 0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(
            f"{text} is neither 'auto' nor positive and finite")
    return text if text == "auto" else float(text)


def _baseline_alpha(text):
    """baseline --alpha: 'gcv' or a finite float of at least 0."""
    if text != "gcv" and not 0 <= float(text) < float("inf"):
        raise argparse.ArgumentTypeError(
            f"{text} is neither 'gcv' nor finite and at least 0")
    return text if text == "gcv" else float(text)


def _add_fit_parser(sub):
    p = sub.add_parser("fit", help="run the smoothing pipeline on a CSV")
    p.add_argument("data", help="CSV file with columns x1, x2, y")
    p.add_argument("--domain", choices=["square", "irregular", "polygon"],
                   default="square")
    p.add_argument("--polygon", help="polygon loops file (domain=polygon)")
    p.add_argument("--refine", choices=["uniform", "adaptive"],
                   default="adaptive")
    p.add_argument("--indicator", choices=["auxiliary", "recovery"],
                   default="recovery")
    p.add_argument("--boundary", choices=["tps", "average", "constant"],
                   default="average")
    p.add_argument("--constant-value", type=float, default=0.0)
    p.add_argument("--alpha", type=_fit_alpha, default="auto",
                   help="'auto' (GCV) or a positive value")
    p.add_argument("--max-iters", type=_int_at_least(0), default=None)
    p.add_argument("--rmse-tolerance", type=float, default=None)
    p.add_argument("--trim-level", type=_int_at_least(0), default=2)
    p.add_argument("--tps-samples", type=_int_at_least(10), default=300)
    p.add_argument("--gcv-probes", type=_int_at_least(1), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-thread", action="store_true",
                   help="pin BLAS thread pools for bit-identical reports")
    p.add_argument("--sample-grid", type=int, default=0,
                   help="export an NxN grid of surface values as CSV")
    p.add_argument("--out", default="tpsfem_out", help="output directory")


def _add_baseline_parser(sub):
    p = sub.add_parser("baseline", help="fit a TPS or CSRBF baseline")
    p.add_argument("data", help="CSV file with columns x1, x2, y")
    p.add_argument("--method", choices=["tps", "buhmann", "wendland"],
                   required=True)
    p.add_argument("--grid-h", type=float, required=True,
                   help="control point grid spacing")
    p.add_argument("--cover", type=int, default=None,
                   help="choose rho covering this many data points")
    p.add_argument("--rho", type=float, default=None,
                   help="explicit support radius")
    p.add_argument("--alpha", type=_baseline_alpha, default="gcv",
                   help="'gcv' or a value of at least 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="tpsfem_out")


def _add_peaks_parser(sub):
    p = sub.add_parser("peaks", help="generate peaks data / run the "
                                     "boundary-accuracy experiment")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--experiment", choices=["none", "boundary"],
                   default="none")
    p.add_argument("--nhat-grid", default="100,200,300,400,600")
    p.add_argument("--out", default="tpsfem_out")


def _add_report_parser(sub):
    p = sub.add_parser("report", help="merge run reports into a CSV")
    p.add_argument("reports", nargs="+", help="run_report.json files")
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tpsfem",
        description="Scattered data smoothing with finite element thin "
                    "plate splines and adaptive mesh refinement")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_fit_parser(sub)
    _add_baseline_parser(sub)
    _add_peaks_parser(sub)
    _add_report_parser(sub)
    return parser


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _cmd_fit(args):
    # heavy imports stay below the thread pinning
    if args.single_thread:
        _pin_threads()
    import numpy as np
    from .data import ingest
    from .driver import RunConfig, run
    from .gcv import GcvConfig
    from .mesh import load_polygon, save_mesh
    from .report import RunReport, save_node_values
    from .solver import interpolate

    data = ingest(args.data)
    polygon = load_polygon(args.polygon) if args.polygon else None
    try:
        cfg = RunConfig(domain=args.domain, refine=args.refine,
                        indicator=args.indicator, boundary=args.boundary,
                        constant_value=args.constant_value, alpha=args.alpha,
                        max_iters=args.max_iters,
                        rmse_tolerance=args.rmse_tolerance,
                        trim_level=args.trim_level,
                        tps_samples=args.tps_samples,
                        gcv=GcvConfig(probes=args.gcv_probes), seed=args.seed,
                        polygon=polygon)
    except ValueError as err:  # a setting only RunConfig checks
        print(f"tpsfem fit: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    try:
        smoother, records = run(data, cfg)
    except Exception as err:  # numerical failure: partial report, exit 3
        partial = {"schema": "tpsfem-report v1", "error": str(err),
                   "config": cfg.to_dict(), "seed": cfg.seed}
        with open(os.path.join(args.out, "run_report.json"), "w") as fh:
            json.dump(partial, fh, indent=2, default=str)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = RunReport.from_run(cfg, records, smoother,
                                label=os.path.basename(args.data))
    report.write(os.path.join(args.out, "run_report.json"))
    report.write_records_jsonl(os.path.join(args.out, "records.jsonl"))
    save_mesh(smoother.mesh, os.path.join(args.out, "mesh.txt"))
    save_node_values(smoother, os.path.join(args.out, "node_values.txt"))
    if args.sample_grid:
        n = args.sample_grid
        pts = smoother.mesh.points
        xs = np.linspace(pts[:, 0].min(), pts[:, 0].max(), n)
        ys = np.linspace(pts[:, 1].min(), pts[:, 1].max(), n)
        gx, gy = np.meshgrid(xs, ys)  # x fastest
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        vals = interpolate(smoother.mesh, smoother.c, grid)
        with open(os.path.join(args.out, "surface.csv"), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "s"])
            writer.writerows(np.column_stack([grid, vals]).tolist())
    for rec in records:
        print(f"iter {rec.iteration}: nodes={rec.nodes} "
              f"alpha={rec.alpha:.3e} rmse={rec.rmse:.6g}")
    return 0


def _cmd_baseline(args):
    from .data import ingest
    from .rbf import (ControlPointPlan, baseline_metrics, choose_rho,
                      fit_csrbf, fit_global_tps, report_sparsity,
                      snap_control_points)

    data = ingest(args.data)
    plan = ControlPointPlan(grid_h=args.grid_h)
    idx = snap_control_points(data, plan)
    os.makedirs(args.out, exist_ok=True)
    if args.method == "tps":
        model, seconds = fit_global_tps(data, control_idx=idx,
                                        alpha=args.alpha)
        rho = None
    else:
        if args.rho is not None:
            rho = args.rho
        else:
            rho = choose_rho(data.x[idx], data, args.cover or 100)
        model = fit_csrbf(data, args.method, rho=rho, control_idx=idx,
                          alpha=args.alpha, seed=args.seed)
        seconds = model.solve_seconds
    nnz, ratio = report_sparsity(model)
    rmse_v, max_v = baseline_metrics(model, data)
    result = {
        "schema": "tpsfem-baseline v1",
        "method": args.method,
        "basis": int(len(idx)),
        "rho": rho,
        "nonzeros": int(nnz),
        "nonzero_ratio": ratio,
        "solve_seconds": seconds,
        "rmse": rmse_v,
        "max_residual": max_v,
        "seed": args.seed,
    }
    path = os.path.join(args.out, f"baseline_{args.method}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result, indent=2))
    return 0


def _cmd_peaks(args):
    import numpy as np
    from .data import PeaksSpec, peaks_generate
    from .experiments import boundary_accuracy_rows

    spec = PeaksSpec(n=args.n, noise_std=args.noise)
    data = peaks_generate(spec, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "peaks.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        writer.writerows(np.c_[data.x, data.y].tolist())
    print(f"wrote {csv_path} ({len(data)} points)")
    if args.experiment == "boundary":
        grid = tuple(int(v) for v in args.nhat_grid.split(","))
        rows = boundary_accuracy_rows(seeds=(args.seed,), nhat_grid=grid,
                                      spec=spec)
        table = os.path.join(args.out, "boundary_accuracy.csv")
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {table}")
    return 0


def _cmd_report(args):
    from .report import merge_reports_csv
    merge_reports_csv(args.reports, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": _cmd_fit, "baseline": _cmd_baseline,
                "peaks": _cmd_peaks, "report": _cmd_report}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
