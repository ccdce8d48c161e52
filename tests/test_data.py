import numpy as np
import pytest

from rpforest.data import CsvFormatError, gen_concentric_rings, gen_gaussian_blobs, load_csv


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        ds = load_csv(path, has_header=True)
        assert ds.n == 1

    def test_standardize(self, tmp_path):
        path = tmp_path / "std.csv"
        rng = np.random.default_rng(0)
        rows = rng.normal(loc=5.0, scale=3.0, size=(40, 3))
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        ds = load_csv(path, standardize=True)
        np.testing.assert_allclose(ds.points.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(ds.points.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_label_column_dropped(self, tmp_path):
        # iris-shaped layout: 150 rows, 4 features plus a label in column 4
        path = tmp_path / "iris_like.csv"
        rng = np.random.default_rng(1)
        features = rng.normal(size=(150, 4))
        labels = rng.integers(0, 3, size=150)
        rows = np.column_stack([features, labels])
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        ds = load_csv(path, label_column=4)
        assert ds.n == 150 and ds.d == 4
        np.testing.assert_allclose(ds.points, features, atol=1e-12)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError, match="row 2, column 1"):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")


class TestGaussianBlobs:
    def test_row_count(self):
        assert gen_gaussian_blobs(2, 3, 1, 0.5, seed=0).n == 2

    def test_seed_determinism(self):
        a = gen_gaussian_blobs(100, 4, 3, 1.0, seed=5)
        b = gen_gaussian_blobs(100, 4, 3, 1.0, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_single_center_mean(self):
        ds = gen_gaussian_blobs(10_000, 3, centers=[[0.0, 0.0, 0.0]], sigma=1.0, seed=6)
        se = 1.0 / np.sqrt(ds.n)
        assert np.all(np.abs(ds.points.mean(axis=0)) < 3 * se)

    def test_explicit_centers(self):
        centers = [[0.0, 0.0], [100.0, 100.0]]
        ds = gen_gaussian_blobs(200, 2, centers, sigma=0.1, seed=7)
        near_origin = np.sum(np.linalg.norm(ds.points, axis=1) < 10)
        assert near_origin == 100  # round-robin assignment

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gen_gaussian_blobs(10, 2, 1, 0.0, seed=0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                gen_gaussian_blobs(10, 2, 1, sigma, seed=0)


class TestConcentricRings:
    def test_noiseless_circle(self):
        ds = gen_concentric_rings(50, [1.0], noise_sigma=0.0, seed=0)
        radii = np.linalg.norm(ds.points, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_two_bands_separated(self):
        ds = gen_concentric_rings(400, [1.0, 5.0], noise_sigma=0.05, seed=1)
        radii = np.sort(np.linalg.norm(ds.points, axis=1))
        gap = np.max(np.diff(radii))
        assert gap > 3.0

    def test_seed_determinism(self):
        a = gen_concentric_rings(60, [1.0, 2.0], 0.1, seed=2)
        b = gen_concentric_rings(60, [1.0, 2.0], 0.1, seed=2)
        np.testing.assert_array_equal(a.points, b.points)

    def test_duplicate_radii_rejected(self):
        with pytest.raises(ValueError):
            gen_concentric_rings(10, [1.0, 1.0], 0.0, seed=0)
