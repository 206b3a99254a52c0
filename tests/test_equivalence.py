"""Pinned iteration records of two small peaks runs.

A refactor must leave the refinement decisions (node, marked and refined
edge counts) exactly as they are, and alpha and the RMSE of every iteration
within 1e-10 relative.  The values were recorded from the code before the
saddle system was built from one block matrix; re-record them only for a
change that is meant to alter the answers.
"""

import numpy as np
import pytest

from tpsfem.data import PeaksSpec, peaks_generate
from tpsfem.driver import RunConfig, run
from tpsfem.gcv import GcvConfig

RUNS = {
    # square domain, auxiliary indicator, alpha by GCV on a short grid
    "square-auxiliary-gcv": (
        dict(indicator="auxiliary", max_iters=1, stagnation_iters=0,
             tps_samples=60,
             gcv=GcvConfig(alpha_grid=np.geomspace(1e-10, 1.0, 11), probes=5,
                           refine_iters=4)),
        [(25, 0, 0, 2.2259948616518885e-08, 0.08328237233920184),
         (50, 15, 25, 2.6086022527814846e-08, 0.07399508105738528)]),
    # trimmed domain, recovery indicator, Dirichlet values from the spline
    "irregular-recovery-tps": (
        dict(domain="irregular", boundary="tps", alpha=1e-6, max_iters=2,
             stagnation_iters=0, tps_samples=60),
        [(118, 0, 0, 1e-06, 0.06549288010369607),
         (279, 154, 161, 1e-06, 0.053711767575150345),
         (714, 403, 435, 1e-06, 0.04963086312024144)]),
}


@pytest.fixture(scope="module")
def peaks_300():
    return peaks_generate(PeaksSpec(n=300), seed=0).normalized()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_records_pinned(peaks_300, name):
    settings, expected = RUNS[name]
    _, records = run(peaks_300, RunConfig(seed=0, **settings))
    got = [(r.nodes, r.marked_edges, r.refined_edges) for r in records]
    assert got == [e[:3] for e in expected]
    for r, (*_, alpha, rmse) in zip(records, expected):
        assert abs(r.alpha - alpha) <= 1e-10 * alpha
        assert abs(r.rmse - rmse) <= 1e-10 * rmse
