"""Reference paths that the vectorised code in rpforest must match.

The query path first: the batched kernel in rpforest.forest must match it.

Routing descends each tree node by node, splitting the rows that reach a node
with the build's own projection (x.r < c goes left). Ranking handles one query
at a time: the deduplicated union of its leaves, minus its own id, ordered by
a stable argsort on distance, so ties go to the smaller id. The same
ranker, over every id except the query's own, is the exact oracle's
reference (tests/test_oracle.py).

load_csv is the CSV line reader as it stood before numpy's C reader took
the first pass (tests/test_data.py).
"""

import csv

import numpy as np

from rpforest.core import Dataset
from rpforest.data import CsvFormatError
from rpforest.oracle import NeighborList


def route_recursive(tree, points) -> np.ndarray:
    """Leaf index of each row of points, one recursive descent per tree over
    its child codes: code c >= 0 is internal node c, code c < 0 is leaf ~c."""
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0], dtype=np.intp)

    def descend(code, rows):
        if rows.size == 0:
            return
        if code < 0:
            out[rows] = ~code
            return
        go_left = np.einsum("ij,j->i", points[rows], tree.directions[code]) < tree.splits[code]
        descend(tree.children[code, 0], rows[go_left])
        descend(tree.children[code, 1], rows[~go_left])

    descend(0 if tree.splits.size else -1, np.arange(points.shape[0]))
    return out


def rank(data, candidates: np.ndarray, x, k: int) -> NeighborList:
    """The k nearest candidates by (distance, id); candidates sorted ascending."""
    if candidates.size == 0:
        return NeighborList(ids=np.empty(0, dtype=np.intp), distances=np.empty(0))
    diffs = data.points[candidates] - np.asarray(x, dtype=np.float64)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dists, kind="stable")[:k]
    return NeighborList(ids=candidates[order], distances=dists[order])


def query(forest, queries, k: int, self_ids=None, leaves=None) -> list[NeighborList]:
    """One row per query; leaves (m x T, local per tree) skip the routing."""
    queries = np.asarray(queries, dtype=np.float64)
    if leaves is None:
        leaves = np.column_stack([route_recursive(tree, queries) for tree in forest.trees])
    members = [np.split(tree.leaf_members, tree.leaf_offsets[1:-1]) for tree in forest.trees]
    rows = []
    for q in range(queries.shape[0]):
        pools = [members[t][leaves[q, t]] for t in range(len(forest.trees))]
        candidates = np.unique(np.concatenate(pools))
        if self_ids is not None:
            candidates = candidates[candidates != self_ids[q]]
        rows.append(rank(forest.data, candidates, queries[q], k))
    return rows


def query_all_training(forest, k: int) -> list[NeighborList]:
    leaves = np.column_stack([tree.leaf_of for tree in forest.trees])
    return query(forest, forest.data.points, k, self_ids=forest.data.ids, leaves=leaves)


def missing_rate(truth, found, k: int):
    """Per-row set difference, as rpforest.metrics.missing_rate must count it."""
    n = len(truth)
    missed = np.empty(n, dtype=np.intp)
    for i in range(n):
        missed[i] = np.setdiff1d(truth[i].ids, found[i].ids, assume_unique=True).size
    return float(missed.sum() / (n * k)), missed


def distance_error(truth, found, k: int):
    """Per-row k-th distance excess, averaged over the non-empty found rows."""
    errors = []
    excluded = 0
    for true_row, found_row in zip(truth, found):
        if len(found_row) == 0:
            excluded += 1
            continue
        d_true = true_row.distances[k - 1]
        d_found = found_row.distances[min(k, len(found_row)) - 1]
        errors.append(d_found - d_true)
    if not errors:
        return float("nan"), excluded
    return float(np.mean(errors)), excluded


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
    linenos: list[int] = []  # CSV line of each data row
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
            linenos.append(lineno)
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
