"""Pinned iteration records of five small peaks runs.

A refactor must leave the refinement decisions (node, marked and refined
edge counts) exactly as they are, and alpha and the RMSE of every iteration
within 1e-10 relative.  The irregular-recovery-tps run (fixed alpha) was
recorded from the code before the saddle system was built from one block
matrix.  The square-auxiliary-gcv and irregular-auxiliary runs were
re-recorded when the GCV selection became one golden-section search on
log(alpha) between the grid's ends, in place of a grid scan plus a local
golden refinement: that change moves the chosen alpha by design.  The
square-uniform-gcv and polygon-recovery-tps runs were recorded from the
code before every bisection went through one array kernel and the mesh
dropped its dict-based edge bookkeeping; they pin the uniform refinement
and the polygon domain, which the first three runs do not reach.
Re-record the runs only for a change that is meant to alter the answers.
"""

import numpy as np
import pytest

from tpsfem.data import PeaksSpec, peaks_generate
from tpsfem.driver import RunConfig, run
from tpsfem.gcv import GcvConfig

#: the unit square with the hole [0.4, 0.6]^2 in its middle
HOLED_SQUARE = [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                [(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)]]

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
    # square domain, uniform refinement, alpha by GCV
    "square-uniform-gcv": (
        dict(refine="uniform", max_iters=2, stagnation_iters=0,
             tps_samples=60),
        [(25, 0, 0, 9.247221279299621e-09, 0.08327920975668654),
         (41, 0, 16, 8.998059014795248e-09, 0.06786950495455706),
         (81, 0, 40, 1.5096407580794675e-08, 0.05762306671978971)]),
    # the unit square with a square hole, meshed by mesh_polygon; recovery
    # indicator, Dirichlet values from the spline
    "polygon-recovery-tps": (
        dict(domain="polygon", polygon=HOLED_SQUARE, boundary="tps",
             alpha=1e-6, max_iters=2, stagnation_iters=0, tps_samples=60),
        [(284, 0, 0, 1e-06, 0.032716677664895236),
         (578, 283, 294, 1e-06, 0.022593009857691988),
         (1567, 915, 989, 1e-06, 0.01938980500163692)]),
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
