"""Validation experiments on the synthetic peaks surface."""

import numpy as np

from .data import (PeaksSpec, peaks_generate, peaks_grad, peaks_laplacian,
                   peaks_value)
from .tps import SamplePlan, fit_tps, sample


def _band_plan(strategy, count, spec):
    if strategy == "quadtree_boundary_band":
        b = spec.band_half_width
        return SamplePlan(strategy, count=count, band=(-b, b, -b, b))
    return SamplePlan(strategy, count=count)


def boundary_accuracy_rows(seeds=(0,), nhat_grid=(100, 200, 300, 400, 600),
                           strategies=("quadtree", "quadtree_boundary_band"),
                           spec=None):
    """Test-region RMSE of the spline and its derivative surrogates.

    For each seed, sampling strategy and subsample size, a spline is fitted
    with a GCV smoothing parameter and compared against the noise-free
    surface, its gradient and its Laplacian on the data points outside the
    test rectangle.  Returns a list of row dicts; each row carries its seed.
    """
    spec = spec or PeaksSpec()
    rmse = lambda a, b: float(np.sqrt(np.mean((a - b) ** 2)))
    rows = []
    for seed in seeds:
        data = peaks_generate(spec, seed=seed)
        t = spec.test_half_width
        outside = np.flatnonzero(
            (np.abs(data.x[:, 0]) > t) | (np.abs(data.x[:, 1]) > t))
        xt = data.x[outside]
        f_true = peaks_value(xt[:, 0], xt[:, 1])
        fx_true, fy_true = peaks_grad(xt[:, 0], xt[:, 1])
        lap_true = peaks_laplacian(xt[:, 0], xt[:, 1])
        for strategy in strategies:
            for nhat in nhat_grid:
                subsample = sample(data, _band_plan(strategy, nhat, spec),
                                   seed=seed + 1)
                model = fit_tps(subsample, "auto")
                pred, grad, lap = model.eval_all(xt)
                rows.append({
                    "strategy": strategy,
                    "nhat": int(nhat),
                    "alpha": model.alpha_tps,
                    "rmse_f": rmse(pred, f_true),
                    "rmse_fx": rmse(grad[:, 0], fx_true),
                    "rmse_fy": rmse(grad[:, 1], fy_true),
                    "rmse_laplacian": rmse(lap, lap_true),
                    "seed": int(seed),
                })
    return rows
