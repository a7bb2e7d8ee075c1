import numpy as np
import pytest

from uqshift.csvio import format_value, parse_float, read_csv, write_csv
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

    def test_numpy_scalar_formatting(self):
        # np.float64 subclasses float; its repr must not leak the type name
        assert format_value(np.float64(0.25)) == "0.25"
        assert format_value(np.int64(3)) == "3"
        assert "np." not in format_value(np.float64(1.0 / 3.0))

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

    def test_parse_float_error_mentions_location(self):
        with pytest.raises(DataError, match="row 3"):
            parse_float("abc", "row 3, column 'f01'")

    def test_parse_float_refuses_nan(self):
        with pytest.raises(DataError):
            parse_float("nan", "row 1")
        assert parse_float("inf", "row 1") == float("inf")
