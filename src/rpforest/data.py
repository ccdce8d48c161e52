"""Dataset ingestion (CSV) and synthetic generators for desk-scale runs."""

import csv
import warnings

import numpy as np

from .core import Dataset, check_int, check_real, real_array


class CsvFormatError(ValueError):
    """Malformed CSV: ragged rows, non-numeric cells or non-finite features."""


def load_csv(
    path,
    has_header: bool = False,
    label_column: int | None = None,
    standardize: bool = False,
) -> Dataset:
    """Load a numeric CSV into a Dataset.

    numpy's C reader parses the rows after the header record. The line reader
    (_read_rows) has the last word on a file that it refuses, finds no rows in
    or reads a non-finite feature from; both give the same bits where both accept.
    The label column (if given) is dropped. With standardize=True each feature
    is z-scored (mean 0, sample std 1; constant columns are left centered only).
    """
    label_column = None if label_column is None else check_int(label_column, "label_column")
    with open(path, newline="", encoding="utf-8") as fh:
        try:  # a UnicodeDecodeError, too, is left for the line reader to name
            if has_header:
                next(csv.reader(fh), None)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
                # numpy strips \x1c-\x1f as whitespace, float() refuses them: so both refuse their line
                lines = ("#" if "\x1c" in s or "\x1d" in s or "\x1e" in s or "\x1f" in s else s for s in fh)
                matrix = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
            linenos = None  # never read: every feature is finite
        except (ValueError, csv.Error):
            matrix = np.empty((0, 0))
        finite = np.isfinite(matrix).all(axis=0)
        if label_column is not None and -finite.size <= label_column < finite.size:
            finite[label_column] = True  # the label is dropped below, whatever its value
        if not (matrix.size and finite.all()):
            fh.seek(0)
            matrix, linenos = _read_rows(fh, path, has_header)
    columns = np.arange(matrix.shape[1])  # CSV column of each feature
    if label_column is not None:
        if not -matrix.shape[1] <= label_column < matrix.shape[1]:
            raise CsvFormatError(f"{path}: label column {label_column} out of range for {matrix.shape[1]} columns")
        matrix, columns = np.delete(matrix, label_column, axis=1), np.delete(columns, label_column)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, feature = bad[0]
        raise CsvFormatError(f"{path}: non-finite value at row {linenos[row]}, column {columns[feature]}: {matrix[row, feature]}")
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


def _read_rows(fh, path, has_header: bool):
    """fh's rows as a float64 matrix and the CSV line of each row: csv records
    of float() cells, the header record and blank lines skipped."""
    rows: list[list[float]] = []
    linenos: list[int] = []  # CSV line of each data row
    lineno = 0
    try:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (lineno == 1 and has_header):
                continue
            parsed = []
            for col, cell in enumerate(raw):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvFormatError(f"{path}: non-numeric cell at row {lineno}, column {col}: {cell!r}") from None
            if rows and len(parsed) != len(rows[0]):
                raise CsvFormatError(f"{path}: row {lineno} has {len(parsed)} columns, expected {len(rows[0])}")
            rows.append(parsed)
            linenos.append(lineno)
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: row {lineno + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64), linenos


def gen_gaussian_blobs(n: int, d: int, centers, sigma: float, seed: int) -> Dataset:
    """n points split round-robin across centers plus isotropic Gaussian noise.

    centers may be an explicit (c, d) array or an integer count, in which
    case center locations are drawn uniformly in [-10, 10]^d from the seed.
    """
    n, d = check_int(n, "n", 2), check_int(d, "d", 1)
    sigma = check_real(sigma, "sigma")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    if np.isscalar(centers):
        center_pts = rng.uniform(-10.0, 10.0, size=(check_int(centers, "centers", 1), d))
    else:
        center_pts = np.atleast_2d(real_array(centers, "centers"))
        if center_pts.shape[1] != d:
            raise ValueError(f"centers have d={center_pts.shape[1]}, expected {d}")
    assignment = np.arange(n) % center_pts.shape[0]
    points = center_pts[assignment] + rng.normal(0.0, sigma, size=(n, d))
    return Dataset(points)


def gen_concentric_rings(n: int, radii, noise_sigma: float, seed: int) -> Dataset:
    """2-d points at evenly spaced angles on each ring plus radial noise."""
    n = check_int(n, "n", 1)
    radii = real_array(radii, "radii")
    if radii.size == 0 or not np.all((radii > 0) & (radii < np.inf)):
        raise ValueError(f"radii must be positive and finite, got {radii.tolist()!r}")
    if np.unique(radii).size != radii.size:
        raise ValueError("radii must be distinct")
    noise_sigma = check_real(noise_sigma, "noise_sigma")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be non-negative and finite, got {noise_sigma!r}")
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    points = np.empty((n, 2))
    assignment = np.arange(n) % radii.size
    for ring, radius in enumerate(radii):
        rows = np.nonzero(assignment == ring)[0]
        angles = np.linspace(0.0, 2.0 * np.pi, rows.size, endpoint=False)
        r = radius + (rng.normal(0.0, noise_sigma, size=rows.size) if noise_sigma > 0 else 0.0)
        points[rows, 0] = r * np.cos(angles)
        points[rows, 1] = r * np.sin(angles)
    return Dataset(points)
