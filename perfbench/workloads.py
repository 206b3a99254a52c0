"""Benchmark workloads: inputs made from a seed, one checked attempt.

An attempt fits the smoother with ``tpsfem.driver.run``, evaluates the final
surface on a fixed grid with ``tpsfem.solver.interpolate`` (the call behind
``tpsfem fit --sample-grid``), measures the error against the noise-free
peaks surface and checks the output.  Why each workload exists is in
``README.md`` next to this file.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from tpsfem.data import PeaksSpec, peaks_generate, peaks_value
from tpsfem.driver import RunConfig, run
from tpsfem.solver import interpolate

from tracing import ROOT_SPAN

#: side of the square query grid over the normalised data box
GRID_SIDE = 200
#: interpolations timed per attempt; one call is short next to the swings
#: in the speed of a shared machine
QUERY_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    """Peaks data of ``n`` points and the RunConfig fields used to fit it.

    With ``cut_quadrant`` the points with x1 > 0 and x2 > 0 are dropped
    before normalising, which leaves an L-shaped sampled region.
    """
    name: str
    n: int
    settings: dict
    cut_quadrant: bool = False

    def config(self, seed):
        return RunConfig(seed=seed, **self.settings)

    def in_sampled_region(self, x):
        """Mask of points (original units, inside the sampling square) that
        lie in the sampled region."""
        if not self.cut_quadrant:
            return np.ones(len(x), dtype=bool)
        return ~((x[:, 0] > 0) & (x[:, 1] > 0))


#: gamma=0 marks every edge, so each outer iteration bisects the whole mesh
#: twice and the mesh sequence is the same for every seed, while every
#: indicator value is still computed.  With the default gamma the final node
#: count follows the noise in the largest indicator value and varies by
#: +-20% between seeds, which would swamp any speed difference.  Sizes and
#: iteration counts keep one fit at 2-4 s, so that a run holds about ten
#: attempts.
WORKLOADS = {w.name: w for w in (
    Workload("auxiliary-3k", 3_000,
             dict(indicator="auxiliary", alpha="auto", gamma=0.0,
                  max_iters=1, stagnation_iters=0)),
    # The mesh boundary follows the data here, so the query grid reaches it
    # and truth_rmse is dominated by the boundary spline; 600 spline samples
    # instead of 300 cut its spread between seeds from 17% to about 4%.
    Workload("lshape-15k", 20_000,
             dict(domain="irregular", indicator="recovery", alpha=1e-8,
                  gamma=0.0, max_iters=1, stagnation_iters=0,
                  tps_samples=600),
             cut_quadrant=True),
)}


def make_data(workload, seed):
    """The normalised DataSet of a workload; the same seed gives the same data."""
    raw = peaks_generate(PeaksSpec(n=workload.n), seed=seed)
    if workload.cut_quadrant:
        raw = raw.subset(workload.in_sampled_region(raw.x))
    return raw.normalized()


def query_grid(data):
    """GRID_SIDE x GRID_SIDE points over the data box, x fastest."""
    lo = data.x.min(axis=0)
    hi = data.x.max(axis=0)
    xs = np.linspace(lo[0], hi[0], GRID_SIDE)
    ys = np.linspace(lo[1], hi[1], GRID_SIDE)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def truth_rmse(workload, data, grid, values):
    """RMSE against the noise-free surface, in normalised units.

    Only grid points inside both the mesh and the sampled region count; the
    grid spans the data box, so it lies inside the sampling square.
    """
    x = data.scale.from_unit(grid)
    truth = data.scale.y_to_unit(peaks_value(x[:, 0], x[:, 1]))
    keep = np.isfinite(values) & workload.in_sampled_region(x)
    if not keep.any():
        return float("nan")
    return float(np.sqrt(np.mean((values[keep] - truth[keep]) ** 2)))


def check_output(smoother, records, truth):
    """Problems with one fit's output; an empty list means it passed."""
    problems = []
    if not math.isfinite(records[-1].rmse):
        problems.append(f"final rmse is {records[-1].rmse}")
    if not math.isfinite(truth):
        problems.append(f"truth_rmse is {truth}")
    nodes = [r.nodes for r in records]
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        problems.append(f"node counts not strictly increasing: {nodes}")
    stop = smoother.info.get("stop_reason")
    if stop != "max_iters":
        problems.append(f"stop_reason is {stop!r}, expected 'max_iters'")
    return problems


@dataclass
class Outcome:
    """Timings, answer and check result of one attempt."""
    fit_s: float
    query_s: list
    truth_rmse: float
    records: list
    problems: list

    @property
    def answer(self):
        """(final nodes, final alpha, final rmse): must not depend on tracing."""
        last = self.records[-1]
        return last.nodes, last.alpha, last.rmse


def attempt(workload, data, seed, tracer=None):
    """Fit, query and check once.

    With a tracer the fit runs with its wrappers installed, under the root
    span, and its fit_s is that span's duration; the query always runs
    untraced.
    """
    cfg = workload.config(seed)
    if tracer is None:
        t0 = time.perf_counter()
        smoother, records = run(data, cfg)
        fit_s = time.perf_counter() - t0
    else:
        with tracer.installed(), tracer.span(ROOT_SPAN) as root:
            smoother, records = run(data, cfg)
        fit_s = tracer.duration(root)
    grid = query_grid(data)
    query_s = []
    for _ in range(QUERY_REPEATS):
        t0 = time.perf_counter()
        values = interpolate(smoother.mesh, smoother.c, grid)
        query_s.append(time.perf_counter() - t0)
    truth = truth_rmse(workload, data, grid, values)
    return Outcome(fit_s=fit_s, query_s=query_s, truth_rmse=truth,
                   records=records,
                   problems=check_output(smoother, records, truth))
