import numpy as np
import pytest

from proctensor.fileio import (
    config_digest,
    format_value,
    read_matrix,
    write_matrix,
    write_table,
)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)  # 17 significant digits round-trip exactly


def test_matrix_rejects_corrupt_row(tmp_path):
    path = tmp_path / "m.txt"
    # a short row, an empty file, fewer rows than the header, more rows, and
    # headers with one count, a non-integer, a negative count and three
    # counts, and a row with a non-numeric value
    for text in ("1 2\n0.0 0.0 1.0\n", "", "2 2\n1 0 0 0\n", "1 1\n1 0\n0 0\n",
                 "2\n", "a b\n", "0 -2\n", "1 2 3\n", "1 1\n1 x\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="bad-dims"):
            read_matrix(path)


@pytest.mark.parametrize("row", ["nan 0", "inf 0", "0 -inf"])
def test_matrix_rejects_non_finite_row(tmp_path, row):
    path = tmp_path / "m.txt"
    path.write_text(f"1 1\n{row}\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_matrix(path)


def test_config_digest_stable_and_order_free():
    a = config_digest({"x": 1, "y": "two"})
    b = config_digest({"y": "two", "x": 1})
    assert a == b
    assert len(a) == 12
    assert a != config_digest({"x": 2, "y": "two"})


def test_format_value_types():
    assert format_value(True) == "true"
    assert format_value(3) == "3"
    assert format_value(0.5) == "0.5"
    assert format_value("label") == "label"


def test_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [(1, 0.25), (2, "x")], "deadbeef0123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=deadbeef0123"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.25"
    assert lines[3] == "2,x"
