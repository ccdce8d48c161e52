"""Split-direction selection strategies.

Four ways to pick the direction a tree node projects onto before splitting:

1. one uniform random direction,
2. the best of n_try random directions by dispersion,
3. method 2 followed by noise-perturbation tuning stages,
4. the first principal component of the node's points.

`choose_directions` picks a direction for every node of a tree level at once;
`choose_direction` and the per-method functions are its one-node form.
"""

from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .core import dispersion, project, random_unit_direction


class Method(IntEnum):
    RANDOM_DIRECTION = 1
    MAX_DISPERSION = 2
    NOISE_TUNED_DISPERSION = 3
    PRINCIPAL_COMPONENT = 4


class DegenerateNodeError(Exception):
    """All points in the node coincide; no split direction exists."""


@dataclass(frozen=True)
class StrategyConfig:
    method: Method = Method.RANDOM_DIRECTION
    n_try: int = 3
    noise_sigmas: tuple[float, ...] = (0.1, 0.01)

    def __post_init__(self):
        if self.n_try < 1:
            raise ValueError(f"n_try must be >= 1, got {self.n_try}")
        sigmas = tuple(self.noise_sigmas)
        if any(s <= 0 for s in sigmas):
            raise ValueError(f"noise sigmas must be positive, got {sigmas}")
        if any(a <= b for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError(f"noise sigmas must be strictly decreasing, got {sigmas}")
        object.__setattr__(self, "noise_sigmas", sigmas)


@dataclass
class DirectionChoice:
    direction: np.ndarray
    dispersion: float
    candidates_evaluated: int
    # dispersion of the incumbent after each tuning stage (method 3 only)
    stage_dispersions: tuple[float, ...] = field(default_factory=tuple)


def principal_components(points: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(m, d) first principal component of each segment of points, from one
    stacked eigh over the (m, d, d) covariances; the first component above
    1e-12 in magnitude is made positive."""
    m, d = sizes.size, points.shape[1]
    starts = np.cumsum(sizes) - sizes
    centred = points - (np.add.reduceat(points, starts, axis=0) / sizes[:, None]).repeat(sizes, axis=0)
    cov = np.stack([np.add.reduceat(centred[:, [a]] * centred, starts, axis=0) for a in range(d)], axis=1)
    pc = np.linalg.eigh(cov / np.maximum(sizes - 1, 1)[:, None, None])[1][:, :, -1]
    lead = pc[np.arange(m), np.argmax(np.abs(pc) > 1e-12, axis=1)]
    return pc * np.where(lead < 0, -1.0, 1.0)[:, None]


def choose_directions(points: np.ndarray, sizes: np.ndarray, cfg: StrategyConfig, rngs, counts):
    """One unit direction per segment of points, for every node of a level.

    Segment i is the next sizes[i] rows of points. The first counts[0]
    segments draw from rngs[0], the next counts[1] from rngs[1], and so on;
    each generator makes one bulk draw per stage for all of its segments
    (method 2: n_try directions each; method 3: then n_try noise vectors each
    per sigma). Returns the (m, d) directions and the (m, s) dispersion of the
    incumbent after each stage: s = 0 for methods 1 and 4, 1 for method 2 and
    1 + len(noise_sigmas) for method 3.
    """
    m, d = sizes.size, points.shape[1]
    pairs = [(rng, c) for rng, c in zip(rngs, counts) if c]

    def draw(one):  # one bulk draw per generator, stacked in segment order
        return np.concatenate([one(rng, c) for rng, c in pairs])

    if cfg.method == Method.RANDOM_DIRECTION:
        return draw(lambda rng, c: random_unit_direction(d, rng, (c,))), np.empty((m, 0))
    if cfg.method == Method.PRINCIPAL_COMPONENT:
        return principal_components(points, sizes), np.empty((m, 0))
    if cfg.method not in (Method.MAX_DISPERSION, Method.NOISE_TUNED_DISPERSION):
        raise ValueError(f"unknown method: {cfg.method!r}")
    seg = np.repeat(np.arange(m), sizes)

    rows = np.empty_like(points)  # one buffer for every candidate's directions, row by row

    def score(r):
        values = np.einsum("ij,ij->i", points, np.take(r, seg, axis=0, out=rows, mode="clip"))
        return dispersion(values, seg)

    # greedy over candidates in draw order: a candidate replaces the incumbent
    # only when it strictly improves dispersion, so ties go to the earliest
    best, best_disp = np.empty((m, d)), np.full(m, -1.0)

    def consider(cand, valid=True):
        disp = score(cand)
        better = valid & (disp > best_disp)
        best[better], best_disp[better] = cand[better], disp[better]

    candidates = draw(lambda rng, c: random_unit_direction(d, rng, (c, cfg.n_try)))
    for j in range(cfg.n_try):
        consider(candidates[:, j])
    stages = [best_disp.copy()]
    if cfg.method == Method.NOISE_TUNED_DISPERSION:
        for sigma in cfg.noise_sigmas:
            noise = draw(lambda rng, c: rng.normal(scale=sigma, size=(c, cfg.n_try, d)))
            for j in range(cfg.n_try):
                cand = best + noise[:, j]
                norm = np.sqrt(np.einsum("ij,ij->i", cand, cand))
                consider(cand / np.maximum(norm, 1e-12)[:, None], norm > 1e-12)
            stages.append(best_disp.copy())
    return best, np.column_stack(stages)


def choose_direction(points: np.ndarray, cfg: StrategyConfig, rng: np.random.Generator | None) -> DirectionChoice:
    """choose_directions for one node holding all of `points`.

    Raises DegenerateNodeError for method 4 when all points coincide. For
    methods 1 and 4 the reported dispersion is that of the projected points.
    """
    pts = np.asarray(points, dtype=np.float64)
    if cfg.method == Method.PRINCIPAL_COMPONENT and np.all(pts == pts[0]):
        raise DegenerateNodeError("all node points are identical")
    directions, stages = choose_directions(pts, np.array([pts.shape[0]]), cfg, [rng], [1])
    r = directions[0]
    if cfg.method == Method.NOISE_TUNED_DISPERSION:
        evaluated = cfg.n_try * (1 + len(cfg.noise_sigmas))
        return DirectionChoice(r, float(stages[0, -1]), evaluated, tuple(stages[0].tolist()))
    if cfg.method == Method.MAX_DISPERSION:
        return DirectionChoice(r, float(stages[0, -1]), cfg.n_try)
    return DirectionChoice(r, dispersion(project(pts, r)), 1)


def choose_direction_method1(points: np.ndarray, rng: np.random.Generator) -> DirectionChoice:
    """Pick one random direction, ignoring dispersion."""
    return choose_direction(points, StrategyConfig(method=Method.RANDOM_DIRECTION), rng)


def choose_direction_method2(points: np.ndarray, cfg: StrategyConfig, rng: np.random.Generator) -> DirectionChoice:
    """Try n_try random directions, keep the one with maximum dispersion.

    Ties go to the earliest draw.
    """
    return choose_direction(points, replace(cfg, method=Method.MAX_DISPERSION), rng)


def choose_direction_method3(points: np.ndarray, cfg: StrategyConfig, rng: np.random.Generator) -> DirectionChoice:
    """Method 2 plus tuning: perturb the incumbent with Gaussian noise.

    Each tuning stage draws n_try perturbations of the current best direction
    (noise scale from cfg.noise_sigmas, re-normalized to unit length) and keeps
    the incumbent unless a perturbation strictly improves dispersion, so the
    per-stage dispersion sequence is non-decreasing.
    """
    return choose_direction(points, replace(cfg, method=Method.NOISE_TUNED_DISPERSION), rng)


def choose_direction_method4(points: np.ndarray, rng: np.random.Generator | None = None) -> DirectionChoice:
    """First principal component of the node's points (max projected variance).

    Sign is normalized so the first nonzero component is positive. Raises
    DegenerateNodeError when all points coincide.
    """
    return choose_direction(points, StrategyConfig(method=Method.PRINCIPAL_COMPONENT), rng)
