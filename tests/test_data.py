import csv
import re

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

import rpforest.data
from rpforest.data import CsvFormatError, gen_concentric_rings, gen_gaussian_blobs, load_csv

# cells only float() reads (digit-group underscores, Arabic-Indic digits),
# cells padded with whitespace that numpy strips and float() may not (a
# no-break space, a tab, \x1c, \x1f) or with a BOM, non-finite values, and
# cells that neither reads
ODD_CELLS = ["1_000", "\u0661\u0662", "\u0663.\u0665", "\xa04", "\x1c5", "6\x1f", "\ufeff7", "\t8 ", " 9",
             "nan", "-inf", "inf", "1e400", "-1e400", "1e-400", "-0.0", "+.5", "1.", ".", "e5", "1e", "-", "",
             "x", "#1", "0x10", "1 2"]
PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**25), 10**25).map(str),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]), st.integers(0, 10**25), st.integers(0, 10**25), st.integers(-400, 400)),
)
# a cell as is or quoted, also with a line end inside the quotes; odd texts
# also draw a doubled quote and a space outside the quotes
QUOTES = ["{}", "{}", "{}", '"{}"', '"{}\n"', '"\r\n{}"']
ODD_QUOTES = QUOTES + ['"{}"""', ' "{}"', '"{}" ']
HEADERS = ["a,b", '"a","b"', '"a\nb",c', '"', '"', "1,2", "", "#"]


@st.composite
def csv_texts(draw):
    """A small CSV text and whether it has a header: rows of one width, blank
    lines, one line end (LF, CRLF or lone CR), with or without a final one.
    Half the texts also hold odd cells, ragged rows, trailing commas,
    whitespace-only and # lines or a BOM. A header may hold a quote that
    runs on over the next lines, as the line reader reads it."""
    odd = draw(st.booleans())
    cells = st.one_of(PLAIN_CELLS, st.sampled_from(ODD_CELLS)) if odd else PLAIN_CELLS
    quotes = st.sampled_from(ODD_QUOTES if odd else QUOTES)
    kinds = ["row"] * 6 + ["blank"] + (["ragged", "trailing comma", "whitespace", "comment"] if odd else [])
    width, lines = draw(st.integers(1, 3)), []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "whitespace":
            lines.append(draw(st.sampled_from([" ", "  ", "\t"])))
        elif kind == "comment":
            lines.append("# " + draw(cells))
        else:
            n = draw(st.integers(1, 4)) if kind == "ragged" else width
            row = [draw(quotes).format(draw(cells)) for _ in range(n)]
            lines.append(",".join(row) + ("," if kind == "trailing comma" else ""))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if lines and draw(st.booleans()) else "")
    if has_header := draw(st.booleans()):
        text = draw(st.sampled_from(HEADERS)) + end + text
    return ("\ufeff" if odd and draw(st.booleans()) else "") + text, has_header


def assert_reads_as_the_line_reader(path, **options):
    """load_csv returns the line reader's points bit for bit, or raises its
    error with its message."""

    def outcome(reader):
        try:
            return reader(path, **options).points
        except ValueError as exc:
            return type(exc), str(exc)

    got, want = outcome(load_csv), outcome(reference.load_csv)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape and got.tobytes() == want.tobytes()


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

    @settings(max_examples=400, deadline=None)
    @given(drawn=csv_texts(), label_column=st.one_of(st.none(), st.integers(-4, 3)), standardize=st.booleans())
    def test_same_points_or_error_as_the_line_reader(self, tmp_path_factory, drawn, label_column, standardize):
        (text, has_header), path = drawn, tmp_path_factory.getbasetemp() / "drawn.csv"  # rewritten by every example
        path.write_text(text, encoding="utf-8", newline="")
        assert_reads_as_the_line_reader(path, has_header=has_header, label_column=label_column, standardize=standardize)

    def test_plain_file_skips_the_line_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        path.write_text('x,y\n1.5,-2e3\n"3",4\r\n\n5,6')
        monkeypatch.setattr(rpforest.data, "_read_rows", None)  # a call would raise TypeError
        np.testing.assert_array_equal(load_csv(path, has_header=True).points, [[1.5, -2e3], [3, 4], [5, 6]])

    def test_non_finite_labels_skip_the_line_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "nan_labels.csv"
        rows = np.random.default_rng(3).normal(size=(50, 3)).tolist()
        path.write_text("".join(f"{a!r},{b!r},{['nan', 'inf', '-inf'][i % 3]},{c!r}\n" for i, (a, b, c) in enumerate(rows)))
        with open(path, newline="", encoding="utf-8") as fh:
            expected = np.delete(rpforest.data._read_rows(fh, path, False)[0], 2, axis=1)
        # the other columns are no label: out of range, or a non-finite feature at its CSV line
        with pytest.raises(CsvFormatError, match="label column 4 out of range for 4 columns"):
            load_csv(path, label_column=4)
        with pytest.raises(CsvFormatError, match="non-finite value at row 1, column 2: nan"):
            load_csv(path, label_column=3)
        monkeypatch.setattr(rpforest.data, "_read_rows", None)  # a call would raise TypeError
        for label_column in (2, -2):
            assert load_csv(path, label_column=label_column).points.tobytes() == expected.tobytes()

    def test_c_reader_reads_a_cell_of_any_length(self, tmp_path):
        # the line reader's csv module refuses a cell over 131,072 characters
        path = tmp_path / "long.csv"
        path.write_text("0" * 200_000 + "1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(path).points, [[1, 2], [3, 4]])
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reference.load_csv(path)

    @pytest.mark.parametrize(
        "text, has_header",
        [("", False), ("a,b\n", True), ('"\n1,2\n', True), ("1,2\n1,2,3\n", False), ("1,nan\n", False), ("1_0,2\n", False), ("\x1c1,2\n", False)],
    )
    def test_line_reader_reads_what_the_c_reader_cannot(self, tmp_path, text, has_header):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert_reads_as_the_line_reader(path, has_header=has_header)


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

    @pytest.mark.parametrize(
        "n, centers, message",
        [
            (1, 1, re.escape("n must be an integer in [2, inf], got 1")),
            (10, 0, re.escape("centers must be an integer in [1, inf], got 0")),
            (10, np.zeros((2, 3)), "centers have d=3, expected 2"),
        ],
    )
    def test_bad_arguments_named(self, n, centers, message):
        with pytest.raises(ValueError, match=message):
            gen_gaussian_blobs(n, 2, centers, 0.5, seed=0)


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
