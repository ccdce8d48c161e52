"""Numeric primitives shared by the tree, forest and evaluation code."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """An n x d matrix of points with stable integer ids (row order)."""

    points: np.ndarray
    ids: np.ndarray

    @classmethod
    def from_points(cls, points) -> "Dataset":
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d matrix, got ndim={pts.ndim}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or Inf")
        return cls(points=pts, ids=np.arange(n))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def check_queries(queries, d: int) -> np.ndarray:
    """Queries as an (m, d) float64 matrix of finite values, else ValueError."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"dimension mismatch: queries have shape {q.shape}, data has d={d}")
    if not np.all(np.isfinite(q)):
        raise ValueError("queries contain NaN or Inf")
    return q


def project(points, direction) -> np.ndarray:
    """Project points onto a direction: one dot product per point."""
    pts = np.asarray(points, dtype=np.float64)
    r = np.asarray(direction, dtype=np.float64)
    if pts.shape[-1] != r.shape[0]:
        raise ValueError(
            f"dimension mismatch: points have d={pts.shape[-1]}, direction has d={r.shape[0]}"
        )
    return pts @ r


def euclidean_distance(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def dispersion(values, seg=None):
    """Spread of projected values: sample standard deviation (divisor m-1).

    A single value has zero spread by convention. The steps are those of
    np.std(v, ddof=1), so the result is bit-identical, without its per-call
    overhead. With seg, an array of the spread of every group of values,
    values[seg == i] for i = 0, 1, ..., each group non-empty and summed on
    its own in its own order, so its result does not depend on the others.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("dispersion of an empty set is undefined")
    if seg is not None:
        sizes = np.bincount(seg)
        centred = v - (np.bincount(seg, weights=v) / sizes)[seg]
        return np.sqrt(np.bincount(seg, weights=centred * centred) / np.maximum(sizes - 1, 1))
    if v.size == 1:
        return 0.0
    centred = v - v.sum() / v.size
    return float(np.sqrt((centred * centred).sum() / (v.size - 1)))


def random_unit_direction(d: int, rng: np.random.Generator, size: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform random direction on the (d-1)-sphere: normalized Gaussian draw.

    With size, an array of shape (*size, d) of independent directions from
    one bulk draw; a draw of norm <= 1e-12 is drawn again.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    v = rng.standard_normal((*size, d))
    norm = np.linalg.norm(v, axis=-1)
    while (short := norm <= 1e-12).any():
        v[short] = rng.standard_normal((int(short.sum()), d))
        norm[short] = np.linalg.norm(v[short], axis=-1)
    return v / norm[..., None]
