import numpy as np
import pytest

from uqshift.csvio import csv_text, keyed_cells, parse_floats, read_csv, write_csv
from uqshift.errors import ConfigError, DataError
from uqshift.rng import derive_seed, keyed_rng


class TestKeyedRng:
    def test_same_key_same_stream(self):
        a = keyed_rng(7, 1, 2).random(16)
        b = keyed_rng(7, 1, 2).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_key_different_stream(self):
        a = keyed_rng(7, 1, 2).random(16)
        b = keyed_rng(7, 1, 3).random(16)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        a = keyed_rng(7, 1, 2).random(16)
        b = keyed_rng(7, 2, 1).random(16)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        assert not np.array_equal(keyed_rng(0).random(8), keyed_rng(1).random(8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            keyed_rng(-1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(11, 3, 0) == derive_seed(11, 3, 0)
        assert derive_seed(11, 3, 0) != derive_seed(11, 3, 1)
        assert 0 <= derive_seed(11, 3, 0) < 2**64


class TestCsvRoundTrip:
    def test_float_repr_exact(self, tmp_path):
        values = [0.1, 1.0 / 3.0, -2.5e-17, 1e300, float("inf")]
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [(v,) for v in values])
        _, rows = read_csv(path)
        back = [float(r[0]) for r in rows]
        for v, b in zip(values, back):
            assert v == b

    def test_numpy_scalar_formatting(self, tmp_path):
        # np.float64 subclasses float; its repr must not leak the type name
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [(np.float64(0.25), np.int64(3), np.float64(1.0 / 3.0))])
        _, rows = read_csv(path)
        assert rows[0][:2] == ["0.25", "3"]
        assert not any("np." in cell for cell in rows[0])

    def test_csv_text_is_the_text_written(self, tmp_path):
        header = ["id", "x", "note"]
        rows = [("p0", 0.1, ""), ("p1", np.float64(-2.5e-17), "a,b"), ("p2", 3, 'say "hi"\r\n')]
        path = tmp_path / "t.csv"
        write_csv(path, header, rows)
        assert csv_text(header, rows).encode() == path.read_bytes()

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, "x"), (2, "y")])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "x"], ["2", "y"]]

    def test_trailing_newline_and_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [(1,)])
        raw = path.read_bytes()
        assert raw == b"a\n1\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_csv(tmp_path / "nope.csv")

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [(1,), (2,)])
        before = path.read_bytes()

        def rows():
            yield (3,)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_csv(path, ["a"], rows())
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_parse_floats_error_mentions_location(self):
        with pytest.raises(DataError, match=r"^row 3, column 'f01': non-numeric value 'abc'$"):
            parse_floats(["1", "2", "abc", "xyz"], lambda i: f"row {i + 1}, column 'f01'")

    def test_parse_floats_refuses_nan(self):
        with pytest.raises(DataError, match="row 2: non-numeric value 'nan'"):
            parse_floats(["1", "nan", "abc"], lambda i: f"row {i + 1}")
        values = parse_floats(["inf", " -Infinity ", "0.1"], lambda i: f"row {i + 1}")
        np.testing.assert_array_equal(values, [np.inf, -np.inf, 0.1])


class TestKeyedCells:
    IDS = ("p0", "p1", "p2")

    def _cells(self, tmp_path, text, columns=("x",)):
        path = tmp_path / "t.csv"
        path.write_text(text)
        header, rows = read_csv(path)
        return keyed_cells(path, header, rows, self.IDS, list(columns))

    def test_rows_aligned_to_ids_in_file_order(self, tmp_path):
        at, cells = self._cells(tmp_path, "x,id,y\n1,p2,a\n2,p0,b\n", ("y", "x"))
        assert at == [2, 0]
        assert cells == [["a", "b"], ["1", "2"]]

    def test_padded_header_ids_and_cells_are_stripped(self, tmp_path):
        at, cells = self._cells(tmp_path, " id , x \n p1 , 7 \n")
        assert (at, cells) == ([1], [["7"]])

    @pytest.mark.parametrize("column", ["id", "x"])
    def test_missing_column_is_named(self, tmp_path, column):
        text = "id,y\np0,1\n" if column == "x" else "x,y\n1,2\n"
        with pytest.raises(DataError, match=rf"t\.csv: missing column '{column}'"):
            self._cells(tmp_path, text)

    def test_unknown_id_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"t\.csv: row 2: unknown id 'p9'"):
            self._cells(tmp_path, "id,x\np0,1\np9,2\n")

    def test_repeated_id_names_both_rows(self, tmp_path):
        with pytest.raises(DataError, match=r"t\.csv: rows 1 and 3: repeated id 'p1'"):
            self._cells(tmp_path, "id,x\np1,1\np0,2\n p1,3\n")
