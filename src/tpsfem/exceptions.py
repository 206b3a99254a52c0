"""Exception types raised by the tpsfem package."""


class TpsfemError(Exception):
    """Base class for all package errors."""


# --- mesh ---------------------------------------------------------------

class MeshError(TpsfemError):
    """Base class for mesh construction and refinement errors."""


class NotRefinable(MeshError):
    """Edge id is invalid, dead, or not a (interface) base edge."""


class EmptyResult(MeshError):
    """Trimming removed every triangle."""


class ZeroInterior(MeshError):
    """Mesh has no interior nodes."""


# --- assembly -----------------------------------------------------------

class AssemblyError(TpsfemError):
    """Base class for finite element assembly errors."""


class OutsideTriangle(AssemblyError):
    """Point lies outside the requested triangle."""


class DegenerateTriangle(AssemblyError):
    """Triangle area below the degeneracy threshold."""


class NoDataInDomain(AssemblyError):
    """No data point could be located inside the mesh."""


# --- solver -------------------------------------------------------------

class SolverError(TpsfemError):
    """Base class for linear solver errors."""


class DimensionMismatch(SolverError):
    """Assembled blocks have inconsistent dimensions."""


class SingularSystem(SolverError):
    """System is singular (e.g. no interior unknowns)."""


class NonConvergence(SolverError):
    """Neither the direct nor the iterative solver met the residual target."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class OutsideDomain(SolverError):
    """Evaluation point lies outside the mesh domain."""


# --- kernels / sampling ---------------------------------------------------

class InsufficientData(TpsfemError):
    """Fewer candidate points than the requested sample size."""


class DegenerateGeometry(TpsfemError):
    """Sample points are affinely dependent (collinear)."""


class NoControlPoints(TpsfemError):
    """Control point snapping produced an empty set."""


# --- indicators -----------------------------------------------------------

class EmptyField(TpsfemError):
    """Indicator field has no entries to mark."""


# --- data ingestion -------------------------------------------------------

class ParseError(TpsfemError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateExtent(TpsfemError):
    """Data bounding box has zero width."""
