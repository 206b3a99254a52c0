"""Pinned iteration records of three small peaks runs.

A refactor must leave the refinement decisions (node, marked and refined
edge counts) exactly as they are, and alpha and the RMSE of every iteration
within 1e-10 relative.  The irregular-recovery-tps run (fixed alpha) was
recorded from the code before the saddle system was built from one block
matrix.  The two runs that pick alpha by GCV were re-recorded when the
selection became one golden-section search on log(alpha) between the grid's
ends, in place of a grid scan plus a local golden refinement: that change
moves the chosen alpha by design.  Re-record them only for a change that is
meant to alter the answers.
"""

import numpy as np
import pytest

from tpsfem.data import PeaksSpec, peaks_generate
from tpsfem.driver import RunConfig, run
from tpsfem.gcv import GcvConfig

RUNS = {
    # square domain, auxiliary indicator, alpha by GCV in 4 golden steps
    "square-auxiliary-gcv": (
        dict(indicator="auxiliary", max_iters=1, stagnation_iters=0,
             tps_samples=60,
             gcv=GcvConfig(alpha_grid=np.geomspace(1e-10, 1.0, 11), probes=5,
                           refine_iters=4)),
        [(25, 0, 0, 2.2944562176907705e-08, 0.08328260929528335),
         (50, 15, 25, 2.2944562176907705e-08, 0.07393374655479025)]),
    # trimmed domain, recovery indicator, Dirichlet values from the spline
    "irregular-recovery-tps": (
        dict(domain="irregular", boundary="tps", alpha=1e-6, max_iters=2,
             stagnation_iters=0, tps_samples=60),
        [(118, 0, 0, 1e-06, 0.06549288010369607),
         (279, 154, 161, 1e-06, 0.053711767575150345),
         (714, 403, 435, 1e-06, 0.04963086312024144)]),
    # trimmed domain, auxiliary indicator with the default marking, alpha by
    # GCV: 29 incremental refreshes of the auxiliary field
    "irregular-auxiliary": (
        dict(domain="irregular", indicator="auxiliary", max_iters=2,
             stagnation_iters=0, tps_samples=60),
        [(118, 0, 0, 6.6464946918740086e-09, 0.04913208912353292),
         (279, 100, 161, 1.4054565132199838e-08, 0.03558938860310491),
         (663, 205, 384, 9.665070747168059e-09, 0.02257228345384677)]),
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
