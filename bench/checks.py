"""Correctness checks on k-nn tables, computed without the package's code.

A table is a sequence of rows with `.ids` and `.distances`, one per query.
Every check returns the problems it found as strings; an empty list passes.
"""

import math

import numpy as np


def pad(rows, k: int):
    """(ids, distances, lengths): rows padded to k columns with -1 and NaN."""
    m = len(rows)
    ids = np.full((m, k), -1, dtype=np.int64)
    dists = np.full((m, k), np.nan)
    lengths = np.zeros(m, dtype=np.int64)
    for i, row in enumerate(rows):
        n_i = min(len(row.ids), k)
        lengths[i] = len(row.ids)
        ids[i, :n_i] = row.ids[:n_i]
        dists[i, :n_i] = row.distances[:n_i]
    return ids, dists, lengths


def _flag(bad: np.ndarray, problems: list, mask: np.ndarray, what: str) -> None:
    if mask.any():
        bad |= mask
        problems.append(f"{what}: {int(mask.sum())} rows, first row {int(np.flatnonzero(mask)[0])}")


def check_rows(points, queries, rows, k, self_ids=None, truth=None):
    """Check every row of a found table; returns (bad-row mask, problems).

    A row holds at most k entries, sorted by (distance, id), with distinct
    in-range ids and no self id. Each distance equals the differencing
    formula sqrt(sum((x - p)**2)) bit for bit, and with a truth table, the
    found j-th distance is at least the true j-th distance for every j.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    ids, dists, lengths = pad(rows, k)
    m = len(rows)
    bad = np.zeros(m, dtype=bool)
    problems: list[str] = []
    if m != queries.shape[0]:
        return np.ones(queries.shape[0], dtype=bool), [f"{m} rows for {queries.shape[0]} queries"]
    valid = np.arange(k) < np.minimum(lengths, k)[:, None]
    _flag(bad, problems, lengths > k, "row longer than k")
    out_of_range = valid & ((ids < 0) | (ids >= points.shape[0]))
    _flag(bad, problems, out_of_range.any(axis=1), "id out of range")
    valid &= ~out_of_range
    sentinel = -1 - np.arange(k)
    ordered = np.sort(np.where(valid, ids, sentinel), axis=1)
    _flag(bad, problems, (ordered[:, 1:] == ordered[:, :-1]).any(axis=1), "repeated id")
    if self_ids is not None:
        _flag(bad, problems, (valid & (ids == np.asarray(self_ids)[:, None])).any(axis=1), "self id")
    pair = valid[:, 1:]
    d0, d1 = dists[:, :-1], dists[:, 1:]
    in_order = (d0 < d1) | ((d0 == d1) & (ids[:, :-1] < ids[:, 1:]))
    _flag(bad, problems, (pair & ~in_order).any(axis=1), "not sorted by (distance, id)")
    diffs = points[np.where(valid, ids, 0)] - queries[:, None, :]
    recomputed = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    _flag(bad, problems, (valid & ~(recomputed == dists)).any(axis=1), "distance differs from recomputed")
    if truth is not None:
        _, true_dists, _ = pad(truth, k)
        _flag(bad, problems, (valid & (dists < true_dists)).any(axis=1), "closer than the true neighbour")
    return bad, problems


def reference_quality(truth, rows, k: int) -> tuple[float, float]:
    """Missing rate and distance error, computed independently of the package.

    Missing rate: true ids absent from the found row, over m*k. Distance
    error: mean of (found distance at position min(k, len) - true k-th
    distance) over non-empty found rows.
    """
    true_ids, true_dists, _ = pad(truth, k)
    ids, dists, lengths = pad(rows, k)
    hit = (true_ids[:, :, None] == ids[:, None, :]).any(axis=2)
    missing = float((~hit).sum() / (len(truth) * k))
    nonempty = np.flatnonzero(lengths > 0)
    last = dists[nonempty, np.minimum(k, lengths[nonempty]) - 1]
    errors = last - true_dists[nonempty, k - 1]
    return missing, float(np.mean(errors)) if errors.size else math.nan


def check_quality(truth, rows, k: int, missing: float, error: float) -> list[str]:
    """Compare the package's missing rate and distance error with the reference."""
    ref_missing, ref_error = reference_quality(truth, rows, k)
    problems = []
    if not math.isclose(missing, ref_missing, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"missing rate {missing!r} != reference {ref_missing!r}")
    if not (math.isclose(error, ref_error, rel_tol=1e-12, abs_tol=1e-15) or (math.isnan(error) and math.isnan(ref_error))):
        problems.append(f"distance error {error!r} != reference {ref_error!r}")
    return problems


def same_rows(a, b) -> bool:
    """Two tables hold the same ids and bit-identical distances, row by row."""
    return len(a) == len(b) and all(
        np.array_equal(x.ids, y.ids) and np.array_equal(x.distances, y.distances) for x, y in zip(a, b)
    )
