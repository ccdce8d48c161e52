import re

import numpy as np
import pytest
from scipy.stats import chi2

from rpforest.core import Dataset, Level, dispersion, random_unit_direction, random_unit_directions
from rpforest.forest import build_forest
from rpforest.strategies import Method, StrategyConfig, choose_directions
from rpforest.tree import TreeConfig

METHOD1 = StrategyConfig(method=Method.RANDOM_DIRECTION)
METHOD4 = StrategyConfig(method=Method.PRINCIPAL_COMPONENT)


def anisotropic_points(rng, n=60, sx=10.0, sy=1.0):
    pts = rng.normal(size=(n, 2))
    pts[:, 0] *= sx
    pts[:, 1] *= sy
    return pts


def one_node(pts):
    """A level of one node holding every row of pts."""
    return Level(pts, np.array([len(pts)]))


class ZeroFirst:
    """A generator whose first `zeros` normals are 0, then those of
    default_rng(seed); the zeros still take their place in the stream, so it
    gives the same normals however its draws are cut."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros, self.calls = np.random.default_rng(seed), zeros, 0

    def standard_normal(self, shape):
        v = self.rng.standard_normal(shape)
        n = min(self.zeros, v.size)
        v.reshape(-1)[:n] = 0.0
        self.zeros, self.calls = self.zeros - n, self.calls + 1
        return v


def per_generator(d, rng, size):
    """One generator's directions as drawn before draws were stacked: one
    bulk draw, redrawn until no norm is <= 1e-12, then normalized."""
    v = rng.standard_normal((*size, d))
    norm = np.linalg.norm(v, axis=-1)
    while (short := norm <= 1e-12).any():
        v[short] = rng.standard_normal((int(short.sum()), d))
        norm[short] = np.linalg.norm(v[short], axis=-1)
    return v / norm[..., None]


class TestStackedDraws:
    """random_unit_directions draws from each generator what its own
    per-generator draw would, redraws included, and leaves every stream where
    that draw leaves it."""

    @staticmethod
    def generators(d, size):
        # stubs in the middle and last: a redraw must come from its own stream.
        # The middle stub's 2 nodes draw zeros only, and so does its first
        # redrawn row, which is drawn a third time; the last stub's first row is 0
        middle = ZeroFirst(51, (2 * int(np.prod(size)) + 1) * d)
        return [np.random.default_rng(50), middle, np.random.default_rng(52), np.random.default_rng(53), ZeroFirst(54, d)]

    @pytest.mark.parametrize("d", [1, 2, 64])
    @pytest.mark.parametrize("size", [(), (3,)], ids=["(c,)", "(c, n_try)"])
    def test_stacked_draw_equals_per_generator_draws(self, d, size):
        counts = [2, 2, 0, 3, 1]  # a generator of no nodes draws nothing
        stacked, alone, reference = (self.generators(d, size) for _ in range(3))
        got = random_unit_directions(d, stacked, counts, size)
        one = np.concatenate([random_unit_direction(d, g, (c, *size)) for g, c in zip(alone, counts) if c])
        ref = np.concatenate([per_generator(d, g, (c, *size)) for g, c in zip(reference, counts) if c])
        assert got.shape == (sum(counts), *size, d)
        assert got.tobytes() == one.tobytes() == ref.tobytes()  # bit for bit
        assert stacked[1].calls == 3 and stacked[4].calls == 2  # the redraw path ran, and ran again
        for a, b, c in zip(stacked, alone, reference):  # every stream is left in the same place
            assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes() == c.standard_normal(4).tobytes()

    def test_method1_draws_every_node_of_a_level_from_its_tree(self):
        pts = np.random.default_rng(60).normal(size=(12, 2))
        level = Level(pts, np.array([3, 2, 4, 3]))
        counts = [1, 0, 3]
        r, _ = choose_directions(level, METHOD1, [np.random.default_rng(s) for s in (61, 62, 63)], counts)
        alone = [np.random.default_rng(s) for s in (61, 62, 63)]
        expected = np.concatenate([per_generator(2, g, (c,)) for g, c in zip(alone, counts) if c])
        assert r.tobytes() == expected.tobytes()


class TestStrategyConfig:
    def test_defaults(self):
        cfg = StrategyConfig()
        assert cfg.n_try == 3 and cfg.noise_sigmas == (0.1, 0.01)

    def test_rejects_bad_ntry(self):
        with pytest.raises(ValueError):
            StrategyConfig(n_try=0)

    def test_rejects_non_decreasing_sigmas(self):
        with pytest.raises(ValueError):
            StrategyConfig(noise_sigmas=(0.01, 0.1))
        with pytest.raises(ValueError):
            StrategyConfig(noise_sigmas=(0.1, -0.5))

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            (0.1, "noise_sigmas must be a sequence of real numbers, got 0.1"),
            ("0.1", "noise_sigmas must be a sequence of real numbers, got '0.1'"),
            (None, "noise_sigmas must be a sequence of real numbers, got None"),
            ((0.1, "a"), "noise_sigmas[1] must be a real number, got 'a'"),
            ((10**400, 0.1), "noise_sigmas[0] must be a real number, got 1000"),
            ((0.1, True), "noise_sigmas[1] must be a real number, got True"),
        ],
        ids=["float", "str", "None", "word", "beyond-float64", "bool"],
    )
    def test_non_numeric_sigmas_named(self, sigmas, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            StrategyConfig(noise_sigmas=sigmas)

    def test_rejects_unknown_method(self):
        assert StrategyConfig(method=2).method is Method.MAX_DISPERSION
        with pytest.raises(ValueError):
            StrategyConfig(method=7)


class TestMethod1:
    def test_deterministic_under_seed(self):
        pts = np.random.default_rng(0).normal(size=(30, 3))
        a, _ = choose_directions(one_node(pts), METHOD1, [np.random.default_rng(11)], [1])
        b, _ = choose_directions(one_node(pts), METHOD1, [np.random.default_rng(11)], [1])
        np.testing.assert_array_equal(a, b)

    def test_candidates_evaluated(self):
        # one candidate per node: the generator advances by one d-vector draw
        pts = np.random.default_rng(1).normal(size=(10, 2))
        rng, replay = np.random.default_rng(0), np.random.default_rng(0)
        _, stages = choose_directions(one_node(pts), METHOD1, [rng], [1])
        replay.standard_normal((1, 2))
        assert stages.shape == (1, 0) and rng.random() == replay.random()

    def test_angles_uniform_on_circle(self):
        # chi-square over 40 angular bins on 1e4 draws, reject only at p < 0.001
        pts = np.random.default_rng(4).normal(size=(10, 2))
        rng = np.random.default_rng(5)
        angles = np.array(
            [
                np.arctan2(*choose_directions(one_node(pts), METHOD1, [rng], [1])[0][0, ::-1])
                for _ in range(10_000)
            ]
        )
        counts, _ = np.histogram(angles, bins=40, range=(-np.pi, np.pi))
        expected = len(angles) / 40
        stat = np.sum((counts - expected) ** 2 / expected)
        p = chi2.sf(stat, df=39)
        assert p > 0.001


class TestMethod2:
    def test_ntry_1_matches_method1(self):
        pts = np.random.default_rng(6).normal(size=(20, 3))
        cfg = StrategyConfig(method=Method.MAX_DISPERSION, n_try=1)
        a, _ = choose_directions(one_node(pts), METHOD1, [np.random.default_rng(21)], [1])
        b, _ = choose_directions(one_node(pts), cfg, [np.random.default_rng(21)], [1])
        np.testing.assert_array_equal(a, b)

    def test_returns_argmax_over_candidates(self):
        # replay the same stream: the winner must dominate every candidate
        pts = np.random.default_rng(7).normal(size=(40, 5))
        cfg = StrategyConfig(method=Method.MAX_DISPERSION, n_try=5)
        r, stages = choose_directions(one_node(pts), cfg, [np.random.default_rng(22)], [1])
        assert stages[0, -1] == pytest.approx(dispersion(pts @ r[0]), abs=1e-12)
        replay = np.random.default_rng(22)
        for _ in range(cfg.n_try):
            cand, _ = choose_directions(one_node(pts), METHOD1, [replay], [1])
            assert stages[0, -1] >= dispersion(pts @ cand[0]) - 1e-12

    def test_prefers_high_variance_axis(self):
        # anisotropic node: method 2 aligns with the long axis more than method 1
        rng = np.random.default_rng(8)
        cfg = StrategyConfig(method=Method.MAX_DISPERSION, n_try=3)
        align1, align2 = [], []
        for _ in range(1000):
            pts = anisotropic_points(rng)
            align1.append(abs(choose_directions(one_node(pts), METHOD1, [rng], [1])[0][0, 0]))
            align2.append(abs(choose_directions(one_node(pts), cfg, [rng], [1])[0][0, 0]))
        assert np.mean(align2) > np.mean(align1)


class TestMethod3:
    def test_stage_dispersions_non_decreasing(self):
        rng = np.random.default_rng(9)
        cfg = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION)
        for _ in range(50):
            pts = rng.normal(size=(30, 3))
            stages = choose_directions(one_node(pts), cfg, [rng], [1])[1][0]
            assert len(stages) == 1 + len(cfg.noise_sigmas)
            assert all(a <= b + 1e-15 for a, b in zip(stages, stages[1:]))

    def test_final_at_least_stage0(self):
        pts = np.random.default_rng(10).normal(size=(50, 4))
        cfg = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION)
        _, stages = choose_directions(one_node(pts), cfg, [np.random.default_rng(30)], [1])
        assert stages[0, -1] >= stages[0, 0]

    def test_empty_sigmas_equals_method2(self):
        pts = np.random.default_rng(11).normal(size=(20, 3))
        cfg3 = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION, noise_sigmas=())
        cfg2 = StrategyConfig(method=Method.MAX_DISPERSION, noise_sigmas=())
        a, a_stages = choose_directions(one_node(pts), cfg2, [np.random.default_rng(31)], [1])
        b, b_stages = choose_directions(one_node(pts), cfg3, [np.random.default_rng(31)], [1])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a_stages, b_stages)

    def test_candidates_evaluated(self):
        # n_try candidates per stage: the generator advances by n_try d-vector
        # draws for stage 0 and for each of the two noise stages
        pts = np.random.default_rng(12).normal(size=(20, 2))
        cfg = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION, n_try=4)
        rng, replay = np.random.default_rng(32), np.random.default_rng(32)
        _, stages = choose_directions(one_node(pts), cfg, [rng], [1])
        replay.standard_normal((4 * 3, 2))
        assert stages.shape == (1, 3) and rng.random() == replay.random()

    def test_unit_norm_after_tuning(self):
        pts = np.random.default_rng(13).normal(size=(25, 3))
        cfg = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION)
        r, _ = choose_directions(one_node(pts), cfg, [np.random.default_rng(33)], [1])
        assert np.linalg.norm(r[0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the projections overflow
    def test_all_nan_dispersions_give_one_forest(self, monkeypatch):
        # near 1.7e308 the candidates' dispersions are NaN: a node's direction
        # must not come from memory np.empty leaves unset, filled here with 3 or 5
        data = Dataset(1.7e308 + 1e292 * np.random.default_rng(0).normal(size=(200, 2)))
        cfg = TreeConfig(strategy=StrategyConfig(method=Method.NOISE_TUNED_DISPERSION))
        forests = []
        for fill in (3, 5):
            monkeypatch.setattr(np, "empty", lambda shape, dtype=float, **kw: np.full(shape, fill, dtype))
            forests.append(build_forest(data, cfg, 4, 5))
        monkeypatch.undo()
        forests.append(build_forest(data, cfg, 4, 5))
        for forest in forests[1:]:
            np.testing.assert_array_equal(forest.directions, forests[0].directions)
            np.testing.assert_array_equal(forest.splits, forests[0].splits)


class TestMethod4:
    # method 4 draws nothing, so it gets no generator
    def test_collinear_points(self):
        t = np.linspace(-2, 3, 10)
        pts = np.column_stack([t, 2 * t])
        r, _ = choose_directions(one_node(pts), METHOD4, [], [])
        np.testing.assert_allclose(r[0], np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-9)

    def test_sign_normalization(self):
        t = np.linspace(-1, 1, 8)
        pts = np.column_stack([-t, t])  # pc is along (-1, 1)/sqrt(2) up to sign
        r = choose_directions(one_node(pts), METHOD4, [], [])[0][0]
        first_nonzero = r[np.nonzero(np.abs(r) > 1e-12)[0][0]]
        assert first_nonzero > 0

    def test_beats_angle_grid(self):
        # PCA maximizes projected variance: compare against 360 grid directions
        rng = np.random.default_rng(14)
        for _ in range(20):
            pts = anisotropic_points(rng, n=40, sx=3.0, sy=1.0)
            r, _ = choose_directions(one_node(pts), METHOD4, [], [])
            angles = np.linspace(0, np.pi, 360, endpoint=False)
            grid_best = max(dispersion(pts @ np.array([np.cos(a), np.sin(a)])) for a in angles)
            assert dispersion(pts @ r[0]) >= grid_best - 1e-6

    def test_dominates_method1(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            pts = rng.normal(size=(30, 2))
            pc, _ = choose_directions(one_node(pts), METHOD4, [], [])
            rd, _ = choose_directions(one_node(pts), METHOD1, [rng], [1])
            assert dispersion(pts @ pc[0]) >= dispersion(pts @ rd[0]) - 1e-12

    def test_identical_points_degenerate(self):
        # no direction spreads identical points; the kernel still returns a
        # finite unit direction and the build turns the node into a leaf
        pts = np.ones((10, 3))
        r, _ = choose_directions(one_node(pts), METHOD4, [], [])
        assert np.all(np.isfinite(r)) and np.linalg.norm(r[0]) == pytest.approx(1.0, abs=1e-9)


class TestDispatch:
    @pytest.mark.parametrize("method", list(Method))
    def test_unit_norm_and_determinism(self, method):
        pts = np.random.default_rng(16).normal(size=(30, 3))
        cfg = StrategyConfig(method=method)
        a, _ = choose_directions(one_node(pts), cfg, [np.random.default_rng(40)], [1])
        b, _ = choose_directions(one_node(pts), cfg, [np.random.default_rng(40)], [1])
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a[0]) == pytest.approx(1.0, abs=1e-9)

    def test_method_ordering_on_shared_node(self):
        # per node: PCA >= method 3 >= method 3's own stage 0
        rng = np.random.default_rng(17)
        cfg3 = StrategyConfig(method=Method.NOISE_TUNED_DISPERSION)
        for _ in range(30):
            pts = rng.normal(size=(40, 2))
            _, stages = choose_directions(one_node(pts), cfg3, [rng], [1])
            pc, _ = choose_directions(one_node(pts), METHOD4, [], [])
            assert dispersion(pts @ pc[0]) >= stages[0, -1] - 1e-9
            assert stages[0, -1] >= stages[0, 0] - 1e-15
