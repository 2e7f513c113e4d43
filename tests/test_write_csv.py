"""``write_csv`` against the csv-module writer it replaced, kept here as an
oracle, and its failure modes: no partial files, no cell that would need
quoting, no ragged rows."""

import csv
import math
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwave import StudyResult
from roughwave import cli
from roughwave.cli import write_csv


def _oracle_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def oracle_csv(columns, rows) -> bytes:
    """The bytes the csv-module writer wrote for a table."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_oracle_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1e16, -1e16, 9.999999999999999e15, 1e-05, 0.0001,
    1e-04, 9.5367431640625e-07, 0.1, 0.5, 1.0, 2.0, 1e300,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
LABEL = st.one_of(
    st.sampled_from(["fbm", "solve", "MEAN", "STD", "SLOPE", "RATE", ""]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
            max_size=6),
)
CELLS = {
    "float": FLOATS,
    "zero": st.sampled_from([0.0, -0.0]),
    "int": st.one_of(st.integers(-3, 3), st.integers()),
    "none": st.none(),
    "np_float": FLOATS.map(np.float64),
    "np_int": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "label": LABEL,
}
ANY_CELL = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    """(columns, rows): each column all of one kind of cell, of mixed kinds,
    or one value repeated."""
    n_cols = draw(st.integers(2, 5))
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from([*CELLS, "mixed", "repeated"]))
        if kind == "repeated":
            columns.append([draw(ANY_CELL)] * n_rows)
        else:
            cell = ANY_CELL if kind == "mixed" else CELLS[kind]
            columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    names = tuple(draw(st.lists(LABEL.filter(bool), min_size=n_cols, max_size=n_cols)))
    return names, tuple(zip(*columns))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=tables(), chunk_rows=st.sampled_from([1, 2, 5, 4096]))
def test_write_csv_matches_csv_module_oracle(table, chunk_rows, tmp_path_factory):
    columns, rows = table
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        write_csv(StudyResult("t", columns, rows, {}), path)
    assert path.read_bytes() == oracle_csv(columns, rows)


def test_write_csv_matches_oracle_on_signed_zeros_and_numpy_scalars(tmp_path):
    columns = ("study", "hurst", "sample", "k", "x", "u")
    rows = tuple(
        ("fbm", 0.5, np.int64(i % 2), i, np.float64(i) / 8, (-0.0, 0.0, np.float64(-0.0))[i % 3])
        for i in range(9)
    )
    path = tmp_path / "z.csv"
    write_csv(StudyResult("fbm", columns, rows, {}), path)
    assert path.read_bytes() == oracle_csv(columns, rows)
    assert b"\nfbm,0.5,1.0,1,0.125,0.0\n" in path.read_bytes()


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous run\n")
    rows = tuple(("fbm", 0.5, 0, 4, i / 16, 0.25) for i in range(9)) + (
        ("fbm", 0.5, 0, 4, 0.5, object()),
    )
    with pytest.raises(TypeError):
        write_csv(StudyResult("fbm", ("study", "hurst", "sample", "k", "x", "u"), rows, {}),
                  path)
    assert path.read_bytes() == b"previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_labels_that_need_quoting_are_rejected(char, tmp_path):
    path = tmp_path / "q.csv"
    rows = (("fbm", 0.5, 0), (f"fb{char}m", 0.5, 0))
    with pytest.raises(ValueError, match="column 'study'"):
        write_csv(StudyResult("fbm", ("study", "hurst", "sample"), rows, {}), path)
    with pytest.raises(ValueError, match="column 'header'"):
        write_csv(StudyResult("fbm", ("study", f"hu{char}rst"), (), {}), path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("columns, rows", [
    (("a", "b"), ((1, 2), (3,))),
    (("a", "b"), ((1, 2, 3), (4, 5))),
    (("a", "b"), ((1, 2, 3), (4, 5, 6))),
    (("a",), ((1,),)),
])
def test_ragged_and_one_column_tables_are_rejected(columns, rows, tmp_path):
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError):
        write_csv(StudyResult("t", columns, rows, {}), path)
    assert not list(tmp_path.iterdir())
