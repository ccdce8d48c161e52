"""Split-direction selection strategies.

Four ways to pick the direction a tree node projects onto before splitting:

1. one uniform random direction,
2. the best of n_try random directions by dispersion,
3. method 2 followed by noise-perturbation tuning stages,
4. the first principal component of the node's points.

`choose_directions` picks a direction for every node of a tree level at once.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core import Level, check_int, dispersion, random_unit_directions


class Method(IntEnum):
    RANDOM_DIRECTION = 1
    MAX_DISPERSION = 2
    NOISE_TUNED_DISPERSION = 3
    PRINCIPAL_COMPONENT = 4


@dataclass(frozen=True)
class StrategyConfig:
    method: Method = Method.RANDOM_DIRECTION
    n_try: int = 3
    noise_sigmas: tuple[float, ...] = (0.1, 0.01)

    def __post_init__(self):
        object.__setattr__(self, "method", Method(check_int(self.method, "method", 1, 4)))
        check_int(self.n_try, "n_try", 1)
        sigmas = tuple(self.noise_sigmas)
        if not all(0 < s < np.inf for s in sigmas):
            raise ValueError(f"noise sigmas must be finite and positive, got {sigmas}")
        if any(a <= b for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError(f"noise sigmas must be strictly decreasing, got {sigmas}")
        object.__setattr__(self, "noise_sigmas", sigmas)


def principal_components(level: Level) -> np.ndarray:
    """(m, d) first principal component of each node's points (see
    core.Level), from one stacked eigh over the (m, d, d) covariances; the
    first component above 1e-12 in magnitude is made positive."""
    points, sizes, starts = level.points, level.sizes, level.starts
    m, d = sizes.size, points.shape[1]
    centred = points - (np.add.reduceat(points, starts, axis=0) / sizes[:, None]).take(level.seg, axis=0)
    cov = np.stack([np.add.reduceat(centred[:, [a]] * centred, starts, axis=0) for a in range(d)], axis=1)
    pc = np.linalg.eigh(cov / np.maximum(sizes - 1, 1)[:, None, None])[1][:, :, -1]
    lead = pc[np.arange(m), np.argmax(np.abs(pc) > 1e-12, axis=1)]
    return pc * np.where(lead < 0, -1.0, 1.0)[:, None]


def choose_directions(level: Level, cfg: StrategyConfig, rngs, counts):
    """One unit direction per node of a level (see core.Level).

    The first counts[0] nodes draw from rngs[0], the next counts[1] from
    rngs[1], and so on; each generator makes one bulk draw per stage for all
    of its nodes (method 2: n_try directions each; method 3: then n_try noise
    vectors each per sigma), and a stage's draws are normalized together (see
    core.random_unit_directions). Candidates are scored through level.project.
    Returns the (m, d) directions and the (m, s) dispersion of the incumbent
    after each stage, non-decreasing along a row: s = 0 for methods 1 and 4,
    1 for method 2 and 1 + len(noise_sigmas) for method 3.
    """
    m, d = level.sizes.size, level.points.shape[1]
    if cfg.method == Method.RANDOM_DIRECTION:
        return random_unit_directions(d, rngs, counts), np.empty((m, 0))
    if cfg.method == Method.PRINCIPAL_COMPONENT:
        return principal_components(level), np.empty((m, 0))

    # greedy over candidates in draw order: a candidate replaces the incumbent
    # only when it strictly improves dispersion, so ties go to the earliest; a
    # node whose every dispersion is NaN (projections overflow) keeps the first
    candidates = random_unit_directions(d, rngs, counts, (cfg.n_try,))
    best, best_disp = candidates[:, 0].copy(), np.full(m, -1.0)

    def consider(cand, valid=True):
        disp = dispersion(level.project(cand), level.seg, level.sizes)
        better = valid & (disp > best_disp)
        best[better], best_disp[better] = cand[better], disp[better]

    for j in range(cfg.n_try):
        consider(candidates[:, j])
    stages = [best_disp.copy()]
    if cfg.method == Method.NOISE_TUNED_DISPERSION:
        for sigma in cfg.noise_sigmas:
            noise = np.concatenate([rng.normal(scale=sigma, size=(c, cfg.n_try, d)) for rng, c in zip(rngs, counts) if c])
            for j in range(cfg.n_try):
                cand = best + noise[:, j]
                norm = np.sqrt(np.einsum("ij,ij->i", cand, cand))
                consider(cand / np.maximum(norm, 1e-12)[:, None], norm > 1e-12)
            stages.append(best_disp.copy())
    return best, np.column_stack(stages)
