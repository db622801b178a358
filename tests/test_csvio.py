"""Strict CSV dialect: parsing, role assignment, exact round trips."""

import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from varsearch import (
    CsvError,
    DuplicateNameError,
    EmptyCsvError,
    InvalidHeaderError,
    MissingColumnError,
    NonNumericCellError,
    RaggedRowError,
    Role,
    format_csv,
    load_dataset,
    load_future_matrix,
    read_matrix_csv,
    write_csv,
)
from varsearch import csvio


def parse(text):
    return read_matrix_csv(io.StringIO(text))


class TestReadMatrix:
    def test_two_by_two(self):
        names, matrix = parse("t1,t2\n1,10\n2,20\n")
        assert names == ("t1", "t2")
        np.testing.assert_array_equal(matrix, [[1.0, 10.0], [2.0, 20.0]])

    def test_non_numeric_cell_names_row_and_column(self):
        with pytest.raises(NonNumericCellError) as excinfo:
            parse("a,b\n1,2\nabc,4\n")
        assert excinfo.value.row == 3
        assert excinfo.value.column == "a"
        assert excinfo.value.text == "abc"

    def test_non_finite_cell_rejected(self):
        for bad in ("nan", "inf", "-inf", "Infinity"):
            with pytest.raises(NonNumericCellError):
                parse(f"a\n1\n{bad}\n")

    def test_duplicate_header(self):
        with pytest.raises(DuplicateNameError) as excinfo:
            parse("x,x\n1,2\n")
        assert excinfo.value.name == "x"

    def test_invalid_header_name(self):
        for header in ("a b", "a-b", "a,"):
            with pytest.raises(InvalidHeaderError):
                parse(f"{header}\n1,2\n")
        with pytest.raises(EmptyCsvError):
            parse("\n1,2\n")

    def test_ragged_row(self):
        with pytest.raises(RaggedRowError) as excinfo:
            parse("a,b\n1,2\n3\n")
        assert excinfo.value.row == 3
        assert (excinfo.value.expected, excinfo.value.found) == (2, 1)

    def test_empty_file_and_headerless_data(self):
        with pytest.raises(EmptyCsvError):
            parse("")
        with pytest.raises(EmptyCsvError):
            parse("a,b\n")

    def test_blank_lines_are_skipped(self):
        names, matrix = parse("a\n1\n\n2\n")
        np.testing.assert_array_equal(matrix, [[1.0], [2.0]])

    def test_reads_from_path(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("v\n1.5\n2.5\n", encoding="utf-8")
        names, matrix = read_matrix_csv(target)
        assert names == ("v",)
        np.testing.assert_array_equal(matrix, [[1.5], [2.5]])


class TestRoles:
    CSV = "y,z,w\n1,2,3\n4,5,6\n7,8,9\n"

    def test_default_everything_dependent(self):
        ds = load_dataset(io.StringIO(self.CSV))
        assert ds.roles == (Role.DEPENDENT,) * 3

    def test_dependent_list_sends_rest_independent(self):
        ds = load_dataset(io.StringIO(self.CSV), dependent=["y"])
        assert ds.roles == (Role.DEPENDENT, Role.INDEPENDENT, Role.INDEPENDENT)

    def test_independent_list_sends_rest_dependent(self):
        ds = load_dataset(io.StringIO(self.CSV), independent=["w"])
        assert ds.roles == (Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT)

    def test_both_lists_must_partition(self):
        ds = load_dataset(
            io.StringIO(self.CSV), dependent=["y", "w"], independent=["z"]
        )
        assert ds.roles == (Role.DEPENDENT, Role.INDEPENDENT, Role.DEPENDENT)
        with pytest.raises(CsvError, match="neither role"):
            load_dataset(io.StringIO(self.CSV), dependent=["y"], independent=["z"])

    def test_overlap_rejected(self):
        with pytest.raises(CsvError, match="both"):
            load_dataset(
                io.StringIO(self.CSV), dependent=["y", "z"], independent=["z", "w"]
            )

    def test_unknown_name(self):
        with pytest.raises(MissingColumnError) as excinfo:
            load_dataset(io.StringIO(self.CSV), dependent=["nope"])
        assert excinfo.value.name == "nope"


@pytest.mark.parametrize("plain", [True, False], ids=["loadtxt", "parser"])
def test_load_dataset_freezes_the_matrix_it_read_in_place(tmp_path, plain):
    path = tmp_path / "data.csv"
    path.write_text("y,z\n1,2\n3,4\n5,6\n" if plain else "y,z\n1,2\n\n3,4\n5,6\n")
    read = []
    original = csvio.read_matrix_csv

    def recording(source):
        names, matrix = original(source)
        read.append(matrix)
        return names, matrix

    with mock.patch.object(csvio, "read_matrix_csv", recording):
        ds = load_dataset(path)
    assert ds.observations is read[0]
    assert not ds.observations.flags.writeable
    np.testing.assert_array_equal(ds.observations, [[1, 2], [3, 4], [5, 6]])


class TestFutureMatrix:
    def test_reorders_to_expected(self):
        out = load_future_matrix(
            io.StringIO("b,a\n1,2\n3,4\n"), expected_names=["a", "b"]
        )
        np.testing.assert_array_equal(out, [[2.0, 1.0], [4.0, 3.0]])

    def test_missing_expected_column(self):
        with pytest.raises(MissingColumnError):
            load_future_matrix(io.StringIO("a\n1\n"), expected_names=["a", "b"])

    def test_extra_column_rejected(self):
        with pytest.raises(CsvError, match="unexpected"):
            load_future_matrix(
                io.StringIO("a,b,c\n1,2,3\n"), expected_names=["a", "b"]
            )


class TestWriting:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 9, size=(40, 3))
        target = tmp_path / "round.csv"
        write_csv(target, ("a", "b", "c"), matrix)
        names, back = read_matrix_csv(target)
        assert names == ("a", "b", "c")
        assert back.tobytes() == matrix.tobytes()

    def test_format_matches_write(self, tmp_path):
        matrix = np.array([[1.0, 2.5]])
        target = tmp_path / "fmt.csv"
        write_csv(target, ("a", "b"), matrix)
        assert target.read_text(encoding="utf-8") == format_csv(("a", "b"), matrix)

    def test_format_rejects_bad_names(self):
        with pytest.raises(InvalidHeaderError):
            format_csv(("ok", "not ok"), np.zeros((1, 2)))

    def test_name_ending_in_a_newline_is_invalid(self):
        # the whole name must match, so no valid name ever needs quoting
        with pytest.raises(InvalidHeaderError):
            read_matrix_csv(io.StringIO('"a\n",b\n1,2\n'))
        with pytest.raises(InvalidHeaderError):
            format_csv(("a\n",), np.zeros((1, 1)))

    def test_write_rejects_non_matrix_before_opening(self, tmp_path):
        target = tmp_path / "never.csv"
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="2-D"):
                write_csv(target, ("a", "b"), bad)
        assert not target.exists()


# cells: plain numbers, numbers float() takes in other spellings, and
# cells that one reader or both must reject
PLAIN_CELLS = ["1", "-0", "+1", ".5", "5.", "2.5e-3", "1E5", "4e-324"]
OTHER_CELLS = ["1_000", "nan", "inf", "-inf", "1e400", "#", "", "e", "1e", "-", "abc"]


@st.composite
def csv_texts(draw):
    """Texts near the dialect: most are plain, many break it in one place."""

    def rarely(odds):
        return draw(st.integers(1, odds)) == odds

    width = draw(st.integers(1, 3))
    names = [f"c{i}" for i in range(width)]
    if rarely(8):
        names[-1] = draw(st.sampled_from(["c0", "a b", "", '"q"', "x-y"]))
    number = st.one_of(
        st.sampled_from(PLAIN_CELLS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**20), 10**20).map(str),
    )
    quote, pad, other = rarely(4), rarely(4), rarely(3)

    def cell():
        text = draw(number)
        if other and rarely(6):
            text = draw(st.sampled_from(OTHER_CELLS))
        if quote and rarely(2):
            text = f'"{text}"'
        return f" {text} " if pad and rarely(2) else text

    lines = [",".join(names)]
    for _ in range(0 if rarely(10) else draw(st.integers(1, 6))):
        if rarely(8):
            lines.append("")
            continue
        n_cells = width + (draw(st.sampled_from([-1, 1])) if rarely(30) else 0)
        row = ",".join(cell() for _ in range(max(n_cells, 0)))
        lines.append(row + ("," if rarely(30) else ""))
    newline = "\r\n" if rarely(5) else "\n"
    text = newline.join(lines) + ("" if rarely(4) else newline)
    return ("\ufeff" if rarely(10) else "") + text


def _outcome(read, *args):
    try:
        names, matrix = read(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc), str(exc)
    return "read", names, matrix.shape, matrix.dtype, matrix.tobytes()


def _parse_file(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return csvio._parse(fh)


class TestReadPaths:
    """A file read by path gives what the line-by-line parser gives."""

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_both_paths_agree(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert _outcome(read_matrix_csv, path) == _outcome(_parse_file, path)

    def test_plain_file_skips_line_parser(self, tmp_path):
        target = tmp_path / "plain.csv"
        matrix = np.array([[1.5, -0.0], [5e-324, 1e300], [3.0, -2.25]])
        write_csv(target, ("a", "b"), matrix)
        with mock.patch.object(csvio, "_parse", side_effect=AssertionError):
            names, back = read_matrix_csv(target)
        assert names == ("a", "b")
        assert back.tobytes() == matrix.tobytes()

    def test_quoted_cells_go_through_line_parser(self, tmp_path):
        target = tmp_path / "quoted.csv"
        target.write_text('a,b\n"1",2\n3,"4.5"\n', encoding="utf-8")
        with mock.patch.object(csvio, "_parse", wraps=csvio._parse) as parse_:
            names, back = read_matrix_csv(target)
        assert parse_.call_count == 1
        assert names == ("a", "b")
        np.testing.assert_array_equal(back, [[1.0, 2.0], [3.0, 4.5]])

    def _rejected_after_loadtxt(self, tmp_path, text, error, match):
        """The error of a plain file that ``np.loadtxt`` parses but the result
        check turns over to the line-by-line parser."""
        target = tmp_path / "data.csv"
        target.write_text(text, encoding="ascii")
        with mock.patch.object(csvio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            with mock.patch.object(csvio, "_parse", wraps=csvio._parse) as parse_:
                with pytest.raises(error, match=match) as excinfo:
                    read_matrix_csv(target)
        assert (loadtxt.call_count, parse_.call_count) == (1, 1)
        return excinfo.value

    def test_plain_rows_wider_than_the_header_are_ragged(self, tmp_path):
        text = "a,b\n1,2,3\n4,5,6\n"
        exc = self._rejected_after_loadtxt(
            tmp_path, text, RaggedRowError, "row 2 has 3 cells, expected 2"
        )
        assert (exc.row, exc.expected, exc.found) == (2, 2, 3)

    def test_plain_overflowing_cell_is_non_numeric(self, tmp_path):
        text = "a,b\n1,2\n3,1e999\n"
        exc = self._rejected_after_loadtxt(tmp_path, text, NonNumericCellError, "'1e999'")
        assert (exc.row, exc.column, exc.text) == (3, "b", "1e999")


# finite doubles, with the edges of the range written out
EDGE_VALUES = [
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-300,
    -1e-300,
    1e300,
    -1e300,
    1.7976931348623157e308,
]


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 4)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(EDGE_VALUES),
        ),
    )
)
def test_write_read_round_trip_is_bit_exact(matrix):
    names = tuple(f"v{i}" for i in range(matrix.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round.csv")
        write_csv(path, names, matrix)
        plain = csvio._read_plain(path)
        back_names, back = read_matrix_csv(path)
    assert plain is not None, "written files take the numpy path"
    assert back_names == names
    assert back.tobytes() == plain[1].tobytes() == matrix.tobytes()


# the doubles whose repr is easiest to get wrong, cycled through the cells
WRITER_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.1]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize(
    "rows", [csvio._BLOCK_ROWS - 1, csvio._BLOCK_ROWS, csvio._BLOCK_ROWS + 1]
)
def test_written_text_is_repr_row_by_row(tmp_path, rows, width):
    cells = np.resize(np.array(WRITER_VALUES), rows * width)
    matrix = cells.reshape(rows, width) * np.where(np.arange(rows) % 2, -1.0, 1.0)[:, None]
    names = tuple(f"v{i}" for i in range(width))
    expected = ",".join(names) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in matrix.tolist()
    )
    assert format_csv(names, matrix) == expected
    path = tmp_path / "out.csv"
    write_csv(path, names, matrix)
    assert path.read_text() == expected
    stream = io.StringIO()
    write_csv(stream, names, matrix)
    assert stream.getvalue() == expected
    back_names, back = read_matrix_csv(path)
    assert back_names == names
    assert back.tobytes() == matrix.tobytes()
