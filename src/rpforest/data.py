"""Dataset ingestion (CSV) and synthetic generators for desk-scale runs."""

import csv

import numpy as np

from .core import Dataset


class CsvFormatError(ValueError):
    """Malformed CSV: ragged rows or non-numeric cells."""


def load_csv(
    path,
    has_header: bool = False,
    label_column: int | None = None,
    standardize: bool = False,
) -> Dataset:
    """Load a numeric CSV into a Dataset.

    The label column (if given) is dropped. With standardize=True each
    feature is z-scored (mean 0, sample std 1; constant columns are left
    centered only).
    """
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, raw in enumerate(reader, start=1):
            if lineno == 1 and has_header:
                continue
            if not raw:
                continue
            parsed = []
            for col, cell in enumerate(raw):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: non-numeric cell at row {lineno}, column {col}: {cell!r}"
                    ) from None
            if rows and len(parsed) != len(rows[0]):
                raise CsvFormatError(
                    f"{path}: row {lineno} has {len(parsed)} columns, expected {len(rows[0])}"
                )
            rows.append(parsed)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=np.float64)
    columns = np.arange(matrix.shape[1])  # CSV column of each feature
    if label_column is not None:
        if not -matrix.shape[1] <= label_column < matrix.shape[1]:
            raise CsvFormatError(
                f"{path}: label column {label_column} out of range for {matrix.shape[1]} columns"
            )
        matrix, columns = np.delete(matrix, label_column, axis=1), np.delete(columns, label_column)
    if standardize:
        if matrix.shape[0] < 2:
            raise CsvFormatError(f"{path}: standardizing needs at least 2 data rows, got {matrix.shape[0]}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            matrix = matrix - matrix.mean(axis=0)
            std = matrix.std(axis=0, ddof=1)
        if not np.isfinite(std).all():
            raise CsvFormatError(f"{path}: standardizing column {columns[~np.isfinite(std)][0]} overflows; rescale it")
        std[std == 0.0] = 1.0
        matrix = matrix / std
    return Dataset(matrix)


def gen_gaussian_blobs(n: int, d: int, centers, sigma: float, seed: int) -> Dataset:
    """n points split round-robin across centers plus isotropic Gaussian noise.

    centers may be an explicit (c, d) array or an integer count, in which
    case center locations are drawn uniformly in [-10, 10]^d from the seed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    rng = np.random.default_rng(seed)
    if np.isscalar(centers):
        n_centers = int(centers)
        if n_centers < 1:
            raise ValueError("need at least one center")
        center_pts = rng.uniform(-10.0, 10.0, size=(n_centers, d))
    else:
        center_pts = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if center_pts.shape[1] != d:
            raise ValueError(f"centers have d={center_pts.shape[1]}, expected {d}")
    assignment = np.arange(n) % center_pts.shape[0]
    points = center_pts[assignment] + rng.normal(0.0, sigma, size=(n, d))
    return Dataset(points)


def gen_concentric_rings(n: int, radii, noise_sigma: float, seed: int) -> Dataset:
    """2-d points at evenly spaced angles on each ring plus radial noise."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0 or not np.all((radii > 0) & (radii < np.inf)):
        raise ValueError("radii must be positive and finite")
    if np.unique(radii).size != radii.size:
        raise ValueError("radii must be distinct")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError("noise_sigma must be non-negative and finite")
    rng = np.random.default_rng(seed)
    points = np.empty((n, 2))
    assignment = np.arange(n) % radii.size
    for ring, radius in enumerate(radii):
        rows = np.nonzero(assignment == ring)[0]
        angles = np.linspace(0.0, 2.0 * np.pi, rows.size, endpoint=False)
        r = radius + (rng.normal(0.0, noise_sigma, size=rows.size) if noise_sigma > 0 else 0.0)
        points[rows, 0] = r * np.cos(angles)
        points[rows, 1] = r * np.sin(angles)
    return Dataset(points)
