from tpsfem.experiments import boundary_accuracy_rows


def test_boundary_band_and_larger_subsamples_fit_better():
    # the paper's boundary-spline claim on one seed: sampling a band along
    # the boundary beats quadtree sampling of the whole domain outside the
    # test region, and more samples beat fewer for either strategy
    rows = boundary_accuracy_rows(seeds=(0,), nhat_grid=(100, 400))
    rmse = {(r["strategy"], r["nhat"]): r["rmse_f"] for r in rows}
    assert len(rmse) == len(rows) == 4
    assert all(r["seed"] == 0 for r in rows)
    for nhat in (100, 400):
        assert rmse["quadtree_boundary_band", nhat] < rmse["quadtree", nhat]
    for strategy in ("quadtree", "quadtree_boundary_band"):
        assert rmse[strategy, 400] < rmse[strategy, 100]
