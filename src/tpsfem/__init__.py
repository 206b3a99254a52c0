"""Scattered data smoothing with finite element thin plate splines.

The smoothing surface is a piecewise linear finite element field whose
coefficients minimise a data-misfit plus gradient-energy objective under a
weak gradient constraint, solved as a sparse four-block saddle system whose
size is independent of the number of data points.  Adaptive newest-node
bisection concentrates mesh resolution where error indicators are large;
Dirichlet boundary values are approximated by a thin plate spline fitted to
a small subsample.
"""

from .assembly import FemSystem, assemble_A_d, assemble_G, assemble_L, basis_eval
from .boundary import (BoundaryStrategy, BoundaryValues,
                       boundary_values_from_callables,
                       constant_boundary_values, initial_boundary_values,
                       new_boundary_node_values)
from .data import (DataSet, PeaksSpec, ingest, peaks_generate, peaks_grad,
                   peaks_laplacian, peaks_value)
from .driver import IterationRecord, RunConfig, run
from .gcv import GcvConfig, gcv_score, select_alpha
from .indicators import (IndicatorField, auxiliary_indicator,
                         auxiliary_indicators, mark, recovery_indicator)
from .mesh import (TriMesh, build_square_mesh, load_mesh, load_polygon,
                   mesh_polygon, save_mesh, save_polygon, trim_to_irregular)
from .rbf import (ControlPointPlan, CsrbfModel, choose_rho, fit_csrbf,
                  fit_global_tps, report_sparsity, snap_control_points)
from .report import RunReport, merge_reports_csv, read_report
from .solver import (SaddleSystem, Smoother, evaluate, evaluate_grad,
                     max_abs_residual, rmse)
from .tps import SamplePlan, TpsModel, fit_tps, sample, select_alpha_tps

__version__ = "0.1.0"

__all__ = [
    "BoundaryStrategy", "BoundaryValues", "ControlPointPlan", "CsrbfModel",
    "DataSet", "FemSystem", "GcvConfig", "IndicatorField", "IterationRecord",
    "PeaksSpec", "RunConfig", "RunReport", "SaddleSystem", "SamplePlan",
    "Smoother", "TpsModel", "TriMesh",
    "assemble_A_d", "assemble_G", "assemble_L", "basis_eval",
    "boundary_values_from_callables", "build_square_mesh",
    "choose_rho", "constant_boundary_values", "evaluate", "evaluate_grad",
    "fit_csrbf", "fit_global_tps", "fit_tps", "gcv_score",
    "initial_boundary_values", "ingest", "load_mesh", "load_polygon",
    "mark", "max_abs_residual", "merge_reports_csv", "mesh_polygon",
    "new_boundary_node_values", "peaks_generate",
    "peaks_grad", "peaks_laplacian", "peaks_value", "read_report",
    "recovery_indicator", "auxiliary_indicator", "auxiliary_indicators",
    "report_sparsity", "rmse", "run", "sample", "save_mesh", "save_polygon",
    "select_alpha", "select_alpha_tps", "snap_control_points",
    "trim_to_irregular",
]
