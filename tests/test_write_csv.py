"""``write_csv`` against the csv-module writer it replaced, kept here as an
oracle, on tables of row tuples and on the cell blocks of the per-cell
studies, and its failure modes: no partial files, no cell that would need
quoting, no ragged rows.  The library's ``cell_lines``, which writes the cell
blocks' ``x`` and ``u``, against ``repr`` on random bit patterns and near every
power of two and ten, and its refusal of a buffer too small."""

import csv
import math
import sys
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwave import Grid, StudyResult
from roughwave import _kernels, cli
from roughwave.cli import write_csv
from roughwave.experiments import _CellBlock, _CellRows


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


# left ends and widths whose midpoints cross repr's exponent switches at 1e-4 and 1e16
GRIDS = st.builds(
    lambda ends, n: Grid(*ends, n),
    st.tuples(st.sampled_from([-0.0, 0.0, 1e-05, 0.5, -1e16, 9.99999999999998e15]),
              st.sampled_from([2e-4, 1.0, 3.0, 64.0]))
    .map(lambda lw: (lw[0], lw[0] + lw[1])).filter(lambda ends: ends[0] < ends[1]),
    st.sampled_from([1, 3, 7, 12]),  # few lengths, so grids of one length but other ends meet
)


@st.composite
def cell_tables(draw):
    """(columns, blocks): blocks of one label count over a few shared grids."""
    n_labels = draw(st.integers(0, 4))
    grids = draw(st.lists(GRIDS, min_size=1, max_size=3))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        grid = draw(st.sampled_from(grids))
        labels = draw(st.lists(ANY_CELL, min_size=n_labels, max_size=n_labels))
        values = draw(st.lists(FLOATS, min_size=grid.n_cells, max_size=grid.n_cells))
        blocks.append(_CellBlock(tuple(labels), grid, np.array(values)))
    names = tuple(draw(st.lists(LABEL.filter(bool), min_size=n_labels + 2,
                                max_size=n_labels + 2)))
    return names, blocks


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=cell_tables(), chunk_rows=st.sampled_from([1, 2, 5, 4096]))
def test_cell_blocks_match_csv_module_oracle(table, chunk_rows, tmp_path_factory):
    columns, blocks = table
    rows = _CellRows(blocks)
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        write_csv(StudyResult("t", columns, rows, {}), path)
    assert path.read_bytes() == oracle_csv(columns, list(rows))


def test_cell_blocks_match_oracle_on_signed_zeros_exponents_and_numpy_labels(tmp_path,
                                                                               monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    columns = ("study", "hurst", "sample", "k", "x", "u")
    values = np.array([-0.0, 1e-05, 0.0001, 1e16, 9.999999999999998e15])
    blocks = [_CellBlock(("fbm", -0.0, np.int64(0), np.float64(3)), Grid(0.0, 2e-4, 5), values),
              _CellBlock(("fbm", 0.5, 1, 3), Grid(0.0, 2e-4, 5), values[::-1]),
              _CellBlock(("fbm", 0.5, 1, 4), Grid(9.99999999999998e15, 1.0000000000000002e16, 5),
                         values)]
    rows = _CellRows(blocks)
    write_csv(StudyResult("fbm", columns, rows, {}), tmp_path / "b.csv")
    text = (tmp_path / "b.csv").read_bytes()
    assert text == oracle_csv(columns, list(rows))
    assert b"\nfbm,-0.0,0.0,3.0,2e-05,-0.0\n" in text
    assert b",9999999999999996.0,1e+16\nfbm,0.5,1,4,1e+16,9999999999999998.0\n" in text


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_cell_block_labels_that_need_quoting_are_rejected(char, tmp_path):
    path = tmp_path / "q.csv"
    grid, values = Grid(0.0, 1.0, 3), np.zeros(3)
    rows = _CellRows([_CellBlock(("fbm", 0.5), grid, values),
                      _CellBlock(("fbm", f"0{char}5"), grid, values)])
    with pytest.raises(ValueError, match="column 'hurst'"):
        write_csv(StudyResult("fbm", ("study", "hurst", "x", "u"), rows, {}), path)
    assert not list(tmp_path.iterdir())


def test_cell_blocks_of_the_wrong_width_are_rejected(tmp_path):
    path = tmp_path / "r.csv"
    rows = _CellRows([_CellBlock(("fbm", 0.5), Grid(0.0, 1.0, 2), np.zeros(2))])
    with pytest.raises(ValueError, match="2 labels"):
        write_csv(StudyResult("fbm", ("study", "x", "u"), rows, {}), path)
    assert not list(tmp_path.iterdir())


def repr_lines(x, u) -> bytes:
    return "".join(map("{!r},{!r}\n".format, x.tolist(), u.tolist())).encode()


def assert_cell_lines_equal_repr(bits):
    """``cell_lines`` writes every double of the uint64 patterns ``bits`` (the even
    slots as ``x``, the odd ones as ``u``) as ``repr`` does."""
    values = np.append(bits, bits[:bits.size % 2]).view(np.float64)
    chunk = 1 << 16
    buf = np.empty(chunk // 2 * _kernels.LINE_BYTES, dtype=np.uint8)
    for i in range(0, values.size, chunk):
        x, u = values[i:i + chunk:2], values[i + 1:i + chunk:2]
        got = buf[:_kernels.cell_lines(b"", x, u, buf)].tobytes()
        if got != repr_lines(x, u):
            bad = next((g, e) for g, e in zip(got.splitlines(), repr_lines(x, u).splitlines())
                       if g != e)
            pytest.fail(f"cell_lines wrote {bad[0]!r} where repr writes {bad[1]!r}")


def bits_of(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


MAX_BITS = int(bits_of(sys.float_info.max))
EDGES = [5e-324, 2.2250738585072014e-308, sys.float_info.max, 1e16, 9.999999999999999e15,
         1e-05, 0.0001, 0.1, 2.0**53, 2.0**53 + 2, *(10.0**n for n in range(-20, 23)),
         1e23, 0.0, math.inf, math.nan]


def test_cell_lines_equal_repr_on_random_doubles_and_the_edges():
    rng = np.random.default_rng(2024)
    signs = np.uint64(1) << np.uint64(63)
    random_bits = rng.integers(0, 2**64, 2_000_000, dtype=np.uint64)  # every exponent
    subnormals = rng.integers(0, 2**52, 1 << 15, dtype=np.uint64) | signs * rng.integers(
        0, 2, 1 << 15, dtype=np.uint64)
    edges = bits_of(EDGES)
    assert_cell_lines_equal_repr(np.concatenate([random_bits, subnormals, edges,
                                                 edges | signs]))


def test_cell_lines_equal_repr_near_each_power_of_two_and_ten():
    # within 64 ulps of 2^j, where the rounding interval of 2^j itself is asymmetric,
    # and of 10^n, whose neighbours take the fewest and the most digits
    powers = bits_of([*(2.0**j for j in range(-1074, 1024)),
                      *(float(f"1e{n}") for n in range(-323, 309))]).astype(np.int64)
    near = (powers[:, None] + np.arange(-64, 65)).ravel()
    near = near[(near >= 0) & (near <= MAX_BITS)].astype(np.uint64)
    signs = np.random.default_rng(7).integers(0, 2, near.size, dtype=np.uint64) << np.uint64(63)
    assert_cell_lines_equal_repr(near | signs)


def test_cell_lines_refuse_a_buffer_a_byte_short_and_write_nothing_past_it():
    lib, prefix = _kernels.load(), "é".encode() * 9 + b","  # 19 bytes, 10 characters
    x, u = np.full(3, -2.2250738585072014e-308), np.full(3, -1.7976931348623157e308)
    need = 3 * (len(prefix) + _kernels.LINE_BYTES)
    buf = np.full(need + 8, 7, dtype=np.uint8)
    args = (prefix, len(prefix), x.ctypes.data, u.ctypes.data, 3, buf.ctypes.data)
    assert lib.cell_lines(*args, need - 1, _kernels._powers_of_ten().ctypes.data) == -1
    assert np.all(buf[need - 1:] == 7)
    end = lib.cell_lines(*args, need, _kernels._powers_of_ten().ctypes.data)
    line = prefix + b"-2.2250738585072014e-308,-1.7976931348623157e+308\n"
    assert len(line) == len(prefix) + _kernels.LINE_BYTES and buf[:end].tobytes() == 3 * line
    with pytest.raises(ValueError, match="too few"):
        _kernels.cell_lines(prefix, x, u, buf[:need - 1])


@pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
def test_a_block_with_a_prefix_of_1000_characters(chunk_rows, tmp_path, monkeypatch):
    # a label of 999 two-byte characters between two short ones: the buffer is sized by
    # the prefix's bytes, and grows for it
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    columns = ("label", "x", "u")
    short = _CellBlock(("ü",), Grid(0.0, 1.0, 5), np.arange(5.0))
    blocks = [short, _CellBlock(("ü" * 999,), Grid(-3e-308, -2e-308, 7),
                                np.full(7, -2.2250738585072014e-308)), short]
    write_csv(StudyResult("t", columns, _CellRows(blocks), {}), tmp_path / "p.csv")
    text = (tmp_path / "p.csv").read_bytes()
    assert text == oracle_csv(columns, list(_CellRows(blocks)))
