"""Scattered data sets: ingestion, normalisation and synthetic generation."""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateExtent, ParseError


@dataclass
class ScaleInfo:
    """Affine transforms between original and normalised coordinates.

    Predictors are scaled uniformly (aspect preserving) so the longer axis
    spans exactly [0.2, 0.8]; the shorter axis is centred.  Responses are
    min-max normalised to [0, 1].
    """
    x_scale: float
    x_offset: tuple
    y_min: float
    y_range: float

    def to_unit(self, x):
        x = np.asarray(x, dtype=float)
        return x * self.x_scale + np.asarray(self.x_offset)

    def from_unit(self, x):
        x = np.asarray(x, dtype=float)
        return (x - np.asarray(self.x_offset)) / self.x_scale

    def y_to_unit(self, y):
        return (np.asarray(y, dtype=float) - self.y_min) / self.y_range

    def y_from_unit(self, y):
        return np.asarray(y, dtype=float) * self.y_range + self.y_min


@dataclass
class DataSet:
    """Scattered predictor/response points.

    Attributes
    ----------
    x : (n, 2) ndarray
        Predictor values.
    y : (n,) ndarray
        Response values.
    scale : ScaleInfo or None
        Set on normalised data sets; maps back to original units.
    warnings : list of str
        Degeneracies encountered during ingestion/normalisation.
    """
    x: np.ndarray
    y: np.ndarray
    scale: ScaleInfo = None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if len(self.x) != len(self.y):
            raise ValueError("x and y lengths differ")

    def __len__(self):
        return len(self.y)

    def subset(self, idx):
        return DataSet(self.x[idx], self.y[idx], scale=self.scale,
                       warnings=list(self.warnings))

    def normalized(self):
        """Scale x into [0.2, 0.8]^2 (aspect preserving) and y into [0, 1]."""
        lo = self.x.min(axis=0)
        hi = self.x.max(axis=0)
        ext = hi - lo
        if ext.max() <= 0:
            raise DegenerateExtent("data bounding box has zero width")
        s = 0.6 / ext.max()
        off = tuple(0.2 + 0.5 * (0.6 - ext[j] * s) - lo[j] * s for j in range(2))
        warnings = list(self.warnings)
        ymin, ymax = float(self.y.min()), float(self.y.max())
        yrange = ymax - ymin
        if yrange <= 0:
            warnings.append("constant response values; normalised y is 0")
            yrange = 1.0
        scale = ScaleInfo(x_scale=s, x_offset=off, y_min=ymin, y_range=yrange)
        return DataSet(scale.to_unit(self.x), scale.y_to_unit(self.y),
                       scale=scale, warnings=warnings)


def ingest(path):
    """Read a CSV of scattered points and normalise it.

    The first three numeric columns are x1, x2, y; extra columns are
    ignored.  Raises ParseError with the offending line number on malformed
    rows or non-finite values (``nan``, ``inf``) and DegenerateExtent when the bounding box has zero width.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            vals = []
            for p in parts:
                try:
                    vals.append(float(p))
                except ValueError:
                    break
            if len(vals) < 3:
                if lineno == 1:
                    continue  # header row
                raise ParseError("fewer than 3 numeric columns", line=lineno)
            if not np.all(np.isfinite(vals[:3])):
                raise ParseError("non-finite value in the first 3 columns",
                                 line=lineno)
            rows.append(vals[:3])
    if not rows:
        raise ParseError("no data rows found")
    arr = np.asarray(rows, dtype=float)
    raw = DataSet(arr[:, :2], arr[:, 2])
    return raw.normalized()


# -- synthetic peaks data -----------------------------------------------------


def peaks_value(x1, x2):
    """Two-dimensional peaks test surface (three Gaussian bumps)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a = 3.0 * (1.0 - x1) ** 2 * np.exp(-x1 ** 2 - (x2 + 1.0) ** 2)
    b = -10.0 * (x1 / 5.0 - x1 ** 3 - x2 ** 5) * np.exp(-x1 ** 2 - x2 ** 2)
    c = -(1.0 / 3.0) * np.exp(-(x1 + 1.0) ** 2 - x2 ** 2)
    return a + b + c


def peaks_grad(x1, x2):
    """Analytic first derivatives (df/dx1, df/dx2) of the peaks surface."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    e1 = np.exp(-x1 ** 2 - (x2 + 1.0) ** 2)
    e2 = np.exp(-x1 ** 2 - x2 ** 2)
    e3 = np.exp(-(x1 + 1.0) ** 2 - x2 ** 2)
    q = (1.0 - x1) ** 2
    qx = -2.0 * (1.0 - x1)
    p = x1 / 5.0 - x1 ** 3 - x2 ** 5
    px = 0.2 - 3.0 * x1 ** 2
    py = -5.0 * x2 ** 4
    fx = 3.0 * (qx - 2.0 * x1 * q) * e1 \
        - 10.0 * (px - 2.0 * x1 * p) * e2 \
        + (2.0 / 3.0) * (x1 + 1.0) * e3
    fy = 3.0 * q * (-2.0 * (x2 + 1.0)) * e1 \
        - 10.0 * (py - 2.0 * x2 * p) * e2 \
        + (2.0 / 3.0) * x2 * e3
    return fx, fy


def peaks_laplacian(x1, x2):
    """Analytic Laplacian of the peaks surface."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    e1 = np.exp(-x1 ** 2 - (x2 + 1.0) ** 2)
    e2 = np.exp(-x1 ** 2 - x2 ** 2)
    e3 = np.exp(-(x1 + 1.0) ** 2 - x2 ** 2)
    # second derivative of Q(t) * exp(-t^2): (Q'' - 4 t Q' + (4 t^2 - 2) Q) exp
    q = (1.0 - x1) ** 2
    qx = -2.0 * (1.0 - x1)
    axx = 3.0 * (2.0 - 4.0 * x1 * qx + (4.0 * x1 ** 2 - 2.0) * q) * e1
    ayy = 3.0 * q * (4.0 * (x2 + 1.0) ** 2 - 2.0) * e1
    p = x1 / 5.0 - x1 ** 3 - x2 ** 5
    px, pxx = 0.2 - 3.0 * x1 ** 2, -6.0 * x1
    py, pyy = -5.0 * x2 ** 4, -20.0 * x2 ** 3
    bxx = -10.0 * (pxx - 4.0 * x1 * px + (4.0 * x1 ** 2 - 2.0) * p) * e2
    byy = -10.0 * (pyy - 4.0 * x2 * py + (4.0 * x2 ** 2 - 2.0) * p) * e2
    cxx = -(1.0 / 3.0) * (4.0 * (x1 + 1.0) ** 2 - 2.0) * e3
    cyy = -(1.0 / 3.0) * (4.0 * x2 ** 2 - 2.0) * e3
    return axx + ayy + bxx + byy + cxx + cyy


@dataclass
class PeaksSpec:
    """Configuration of the synthetic peaks data set."""
    n: int = 10000
    noise_std: float = 0.02
    half_width: float = 2.4
    test_half_width: float = 2.2
    band_half_width: float = 1.9


def peaks_generate(spec=None, seed=0):
    """Uniform random samples of the peaks surface plus Gaussian noise."""
    spec = spec or PeaksSpec()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-spec.half_width, spec.half_width, size=(spec.n, 2))
    y = peaks_value(x[:, 0], x[:, 1]) + rng.normal(0.0, spec.noise_std, size=spec.n)
    return DataSet(x, y)
