"""Numeric primitives shared by the tree, forest and evaluation code, and the recorder of their spans."""

import itertools
import math
import numbers
import operator
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

# threads parallel_map runs on: the CPUs this process may use (taskset pins them)
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# working-set budget of all workers together: the build's tree groups gather
# their points within it, the router its blocks, and the search its chunks and spans
POOL_BYTES = 16 << 20
# the open recording (its finished spans, its span ids and each thread's open span, top),
# the no-op block of span outside one, and the lock that lets one recording open at a time
_recording, _OFF, _ONE = None, nullcontext(), threading.Lock()


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x d matrix of finite points, kept as a read-only contiguous float64
    copy that no write to the caller's array can change; a point's id is its row.
    Datasets compare and hash by identity."""

    points: np.ndarray

    def __post_init__(self):
        pts = real_array(self.points, "points", copy=True)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d matrix, got ndim={pts.ndim}")
        if min(pts.shape) < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or Inf")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    from_points = classmethod(lambda cls, points: cls(points))  # the constructor by its older name
    ids = property(lambda self: np.arange(self.n))
    n = property(lambda self: self.points.shape[0])
    d = property(lambda self: self.points.shape[1])


def real_array(values, name: str, copy: bool = False) -> np.ndarray:
    """values as a float64 array, a new C-ordered one with copy, else
    ValueError naming it: complex values, strings, values that are not
    numbers and numbers beyond float64 are refused, not cast. An object
    array is cast element by element."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "SU":  # refused as check_real refuses a string, not parsed
            raise ValueError(f"could not convert string to float: {array.flat[0].item() if array.size else ''!r}")
        if array.dtype.kind != "c":  # a cast to float64 would drop the imaginary part
            return np.array(array, dtype=np.float64, order="C") if copy else array.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be real numbers: {exc}") from None
    raise ValueError(f"{name} must be real, got complex values")


def check_real(value, name: str) -> float:
    """value as a float, else ValueError naming it: a real number that a
    float64 holds (a bool or a string is not one)."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int beyond float64
        pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def check_queries(queries, d: int) -> np.ndarray:
    """Queries as an (m, d) float64 matrix of finite real values, else ValueError."""
    q = real_array(queries, "queries")
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"dimension mismatch: queries have shape {q.shape}, data has d={d}")
    if not np.all(np.isfinite(q)):
        raise ValueError("queries contain NaN or Inf")
    return q


def check_self_ids(self_ids, m: int, n: int) -> np.ndarray | None:
    """m integer ids in [0, n) to leave out, else ValueError; None (none) stays None."""
    if self_ids is None:
        return None
    ids = np.asarray(self_ids)
    if ids.shape != (m,):
        raise ValueError(f"self_ids has shape {ids.shape}, expected ({m},)")
    if m and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"self ids must be integers in [0, {n}), got {ids.dtype} in [{ids.min()}, {ids.max()}]")
    return ids


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int (operator.index; a bool is not one) in [low, high], no
    bound where a limit is None, else ValueError naming it."""
    lo, hi = -math.inf if low is None else low, math.inf if high is None else high
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or not lo <= index <= hi:
        bounds = "" if low is None and high is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")
    return index


def dispersion(values, seg=None, sizes=None):
    """Spread of projected values: sample standard deviation (divisor m-1),
    np.std(v, ddof=1); a single value has zero spread by convention. With seg
    and sizes (sizes[i] the count of i in seg), an array of the spread of
    every group of values, values[seg == i] for i = 0, 1, ..., each group
    non-empty and summed on its own in its own order, so its result does not
    depend on the others.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("dispersion of an empty set is undefined")
    if seg is None:
        return float(np.std(v, ddof=1)) if v.size > 1 else 0.0
    centred = v - (np.bincount(seg, weights=v) / sizes).take(seg)
    centred *= centred
    return np.sqrt(np.bincount(seg, weights=centred) / np.maximum(sizes - 1, 1))


class Level:
    """The gathered points of one tree level, node after node: node i is the
    sizes[i] rows of points from row starts[i] on, and seg holds each row's
    node. This is the level's one copy of its node layout.

    project(r) is every row's projection onto its node's direction, the bits
    of einsum("ij,ij->i", points, r[seg]) without copying r to every row. The
    rows are cut into blocks of BLOCK consecutive rows, at every d. Every
    block is projected through a view of points with one copy of its first
    row's direction; the rows whose node differs from their block's first
    row, and the tail rows, are projected again row by row. Each row's sum
    is the same contiguous einsum kernel either way.
    """

    BLOCK = 8

    def __init__(self, points: np.ndarray, sizes: np.ndarray):
        (n, d), b = points.shape, self.BLOCK
        k = n // b
        self.points, self.sizes, self.starts = points, sizes, np.cumsum(sizes) - sizes
        self.seg = seg = np.repeat(np.arange(sizes.size), sizes)
        self.blocks, self.heads = points[: k * b].reshape(k, b, d), seg[: k * b : b]
        # rows whose node is not their block's first row's, then the tail rows
        self.rest = np.append(np.flatnonzero(seg[: k * b].reshape(k, b) != self.heads[:, None]), np.arange(k * b, n))
        self.rest_points, self.rest_seg = points.take(self.rest, axis=0), seg.take(self.rest)

    def project(self, r: np.ndarray) -> np.ndarray:
        values = np.empty(self.seg.size)
        k, b, _ = self.blocks.shape
        np.einsum("kbj,kj->kb", self.blocks, r.take(self.heads, axis=0), out=values[: k * b].reshape(k, b))
        if self.rest.size:
            values[self.rest] = np.einsum("ij,ij->i", self.rest_points, r.take(self.rest_seg, axis=0))
        return values


def random_unit_direction(d: int, rng: np.random.Generator, size: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform random direction on the (d-1)-sphere: normalized Gaussian draw.

    With size, an array of shape (*size, d) of independent directions from
    one bulk draw; a draw of norm <= 1e-12 is drawn again. It is the
    one-generator case of random_unit_directions."""
    return random_unit_directions(d, [rng], [1], size)[0]


def random_unit_directions(d: int, rngs, counts, size: tuple[int, ...] = ()) -> np.ndarray:
    """random_unit_direction(d, rngs[i], (counts[i], *size)) for every i,
    stacked: one draw call per generator, then one normalizing pass. A draw of
    norm <= 1e-12 is drawn again from its own generator, before that
    generator's next draw; the generators must be distinct objects."""
    d = check_int(d, "d", 1)
    pairs = [(rng, c) for rng, c in zip(rngs, counts) if c]
    v = np.concatenate([rng.standard_normal((c, *size, d)) for rng, c in pairs])
    norm = np.linalg.norm(v, axis=-1)
    if (norm <= 1e-12).any():  # each generator's redraws, from its own stream
        for (rng, c), hi in zip(pairs, np.cumsum([c for _, c in pairs]).tolist()):
            vs, ns = v[hi - c : hi], norm[hi - c : hi]
            while (short := ns <= 1e-12).any():
                vs[short] = rng.standard_normal((int(short.sum()), d))
                ns[short] = np.linalg.norm(vs[short], axis=-1)
    return v / norm[..., None]


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items] on WORKERS threads, in input order; inline for
    fewer than two items or one worker. fn should spend its time in numpy or
    scipy calls that release the interpreter lock."""
    items = list(items)
    if len(items) < 2 or WORKERS < 2:
        return [fn(x) for x in items]
    if (rec := _recording) is not None:  # a worker's spans have the caller's open span as parent
        run, top = fn, getattr(rec[2], "top", -1)

        def fn(x):
            rec[2].top = top
            return run(x)

    with ThreadPoolExecutor(min(WORKERS, len(items))) as pool:
        return list(pool.map(fn, items))


def span(name: str):
    """A with block, recorded as one span inside recording(); outside, one shared no-op."""
    return _OFF if _recording is None else _record(name, *_recording)


@contextmanager
def _record(name: str, spans: list, ids, local):
    own, parent, start = next(ids), getattr(local, "top", -1), time.perf_counter()
    local.top = own
    try:
        yield
    finally:
        local.top = parent
        spans.append((name, own, parent, start, time.perf_counter()))


@contextmanager
def recording():
    """Yield the list of the spans that span blocks finish on any thread while
    it is open: (name, id, parent id (-1: none), start, end), perf_counter
    seconds. A parallel_map worker's spans have the caller's open span as
    parent. One recording at a time; none is open after it, however it ends."""
    global _recording
    if not _ONE.acquire(blocking=False):
        raise RuntimeError("a recording is already open")
    _recording = [], itertools.count(), threading.local()
    try:
        yield _recording[0]
    finally:
        _recording = None
        _ONE.release()
