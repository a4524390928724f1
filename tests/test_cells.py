"""The block formatter of CSV cells against '%.17g', byte for byte, and the
block reader against np.loadtxt, bit for bit."""

import decimal
import io
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gridpriv import _cells as cells_module
from gridpriv._cells import HIGH, LOW, g17_rows, read_rows
from gridpriv.errors import ConfigurationError
from gridpriv.sim import CSV_CHUNK_CELLS, Trajectory, write_csv


def reference(block):
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * block.shape[0]) % tuple(block.ravel().tolist())


def assert_same_text(cells, cols=1):
    block = np.asarray(cells, dtype=np.float64)[: len(cells) // cols * cols].reshape(-1, cols)
    got, want = g17_rows(block), reference(block)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[0]}")


def edge_values():
    ups = [np.nextafter(v, np.inf) for v in (LOW, HIGH, -LOW, -HIGH)]
    downs = [np.nextafter(v, 0.0) for v in (LOW, HIGH, -LOW, -HIGH)]
    return [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, LOW, HIGH, -LOW, -HIGH,
            *ups, *downs, 1 / 3, 0.1, 0.5, 1.0, 1e-5, 1e-4, 1e16, 1e17, 123456789012345678.0]


def powers_of_ten():
    """Every power of ten and its neighbours one ulp away, either sign."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([values, -values])


def exact_ties(rng, count):
    """Doubles M / 2^s (M odd) with exactly 18 significant digits, the last a 5:
    ties at 17 digits, which '%' breaks to even."""
    out = []
    for s in range(3, 25):
        lo = max(10.0 ** (17 - s) * 2**s, 1.0)
        hi = min(10.0 ** (18 - s) * 2**s, 2.0**53)
        m = rng.integers(int(lo) // 2, int(hi) // 2, count) * 2 + 1
        out.append(m / 2.0**s)
    ties = np.concatenate(out)
    return np.concatenate([ties, -ties])


def test_random_bit_patterns():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False)
    assert_same_text(bits.view(np.float64), cols=7)


def test_log_uniform_magnitudes():
    rng = np.random.default_rng(12)
    values = rng.choice([-1.0, 1.0], 60_000) * 10.0 ** rng.uniform(-320, 308, 60_000)
    assert_same_text(values, cols=5)


def test_edge_values_and_fast_path_bounds():
    assert_same_text(edge_values())
    assert_same_text(edge_values() * 3, cols=3)


def test_every_power_of_ten_and_its_neighbours():
    assert_same_text(powers_of_ten())


def test_rounding_into_the_next_decade():
    # the doubles nearest 1e-14 and 1e98 lie below them and print as the power
    # itself; 9.999999999999999e22 lies below 1e23 and does not
    values = [1e-14, 1e98, -1e98, 9.999999999999999e22, 99999999999999999.0, 0.99999999999999999]
    assert g17_rows(np.array([values[:3]])) == "1e-14,1e+98,-1e+98\n"
    assert_same_text(values, cols=2)


def test_exact_ties_break_to_even():
    assert g17_rows(np.array([[100000000000000.125, 100000000000000.375]])) == (
        "100000000000000.12,100000000000000.38\n")
    assert_same_text(exact_ties(np.random.default_rng(13), 200), cols=4)


def test_write_csv_gives_the_bytes_of_percent_format_across_chunks(tmp_path):
    rng = np.random.default_rng(14)
    rows = CSV_CHUNK_CELLS // 3 + 5  # two chunks of three columns
    block = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 8, (rows, 3))
    block[::97] = np.array(edge_values()[:3])
    write_csv(tmp_path / "a.csv", [("t", block[:, 0]), ("x", block[:, 1:])])
    text = (tmp_path / "a.csv").read_bytes().decode("ascii")
    assert text == "t,x_0,x_1\n" + reference(block)


# The block reader against np.loadtxt, bit for bit.

def loadtxt_rows(text):
    return np.loadtxt(io.BytesIO(text), delimiter=",", ndmin=2)


def assert_read_as_loadtxt(text, cols, cells=CSV_CHUNK_CELLS):
    """read_rows reads text itself, to the bits np.loadtxt gives."""
    got, want = read_rows(io.BytesIO(text), cols, cells), loadtxt_rows(text)
    assert got is not None, "refused a block of the writer's layout"
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64).ravel() != want.view(np.uint64).ravel())
    if len(bad):
        cells_text = text.replace(b"\n", b",").split(b",")
        pytest.fail(f"{len(bad)} cells differ, first {cells_text[bad[0]]!r}: "
                    f"{got.ravel()[bad[0]]!r} against {want.ravel()[bad[0]]!r}")


def finite_rows(values, cols):
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return values[: len(values) // cols * cols].reshape(-1, cols)


def loadtxt_or_refusal(path):
    """np.loadtxt's rows under the header of path, or its ValueError."""
    try:
        with open(path) as fh:
            fh.readline()
            return np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        return exc


def test_reader_on_random_bit_patterns():
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False)
    assert_read_as_loadtxt(g17_rows(finite_rows(bits.view(np.float64), 7)).encode(), 7)


def test_reader_on_log_uniform_magnitudes():
    rng = np.random.default_rng(22)
    values = rng.choice([-1.0, 1.0], 60_000) * 10.0 ** rng.uniform(-320, 308, 60_000)
    assert_read_as_loadtxt(g17_rows(finite_rows(values, 5)).encode(), 5)


def test_reader_on_edge_values_and_powers_of_ten():
    edges = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, *edge_values()]
    assert_read_as_loadtxt(g17_rows(finite_rows(edges, 1)).encode(), 1)
    assert_read_as_loadtxt(g17_rows(finite_rows(powers_of_ten(), 3)).encode(), 3)


def test_trace_with_non_finite_edge_values_reads_as_loadtxt(tmp_path):
    """nan and inf are not in the reader's layout: np.loadtxt reads the file."""
    values = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 1 / 3])
    path = tmp_path / "edge.csv"
    write_csv(path, [("t", values), ("x", np.column_stack([values[::-1], values]))])
    back = Trajectory.from_csv(path)
    want = loadtxt_rows(path.read_bytes().split(b"\n", 1)[1])
    np.testing.assert_array_equal(np.column_stack([back.times, back.x]).view(np.uint64),
                                  want.view(np.uint64))


def midpoint_neighbours(rng, count, low=-290, high=280):
    """17-digit decimals just below and just above the midpoint between random
    doubles in [10^low, 10^high) and their successors, in the writer's
    exponent layout."""
    out = []
    for x in 10.0 ** rng.uniform(low, high, count):
        mid = (Fraction(float(x)) + Fraction(math.nextafter(float(x), math.inf))) / 2
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            context = decimal.Context(prec=17, rounding=rounding)
            _, digits, exponent = context.divide(Decimal(mid.numerator),
                                                 Decimal(mid.denominator)).as_tuple()
            text = "".join(map(str, digits))
            out.append(f"{text[0]}.{text[1:].ljust(16, '0')}e{exponent + len(digits) - 1:+03d}")
    return out


def exact_decimal_ties():
    """Decimals of at most 17 digits that lie exactly halfway between two
    doubles: odd multiples of half the spacing just above 2^52, 2^53 and 2^54."""
    ties = []
    for k in (52, 53, 54):
        half = Fraction(2) ** (k - 53)
        for j in range(1, 200, 2):
            tie = Fraction(2) ** k + j * half
            ties.append(str(tie.numerator) if tie.denominator == 1 else
                        f"{tie.numerator // 2}.5")
    return ties


def test_reader_near_and_at_rounding_midpoints():
    rng = np.random.default_rng(23)
    # below 1e-282 a cell's q is under -297, where the table's lo may be subnormal
    cells = (midpoint_neighbours(rng, 2000) + midpoint_neighbours(rng, 1000, -290, -282)
             + exact_decimal_ties())
    text = "".join(f"{c}\n" for c in cells).encode()
    assert_read_as_loadtxt(text, 1)
    got = read_rows(io.BytesIO(text), 1, CSV_CHUNK_CELLS).ravel()
    assert got.tolist() == [float(c) for c in cells]


@pytest.mark.parametrize("cells, read_by_blocks", [
    (["1", "2"], True), (["1.", "-2."], True), ([".5", "-.25"], True),
    (["-0", "0"], True), (["1.5e+05", "-2e-300"], True), (["123456789.5", "7"], True),
    (["0.000000000000000000001", "1.00000000000000000001"], True),
    (["99999999999999999999", "-1.2345678901234567e+300"], True),
    (["1e+999", "-1e-999"], True), (["2.4703282292062328e-324", "9.9999999999999999e+307"], True),
    (["+1.5", "2"], False), (["1E5", "2"], False), (["1e5", "2"], False),
    (["nan", "2"], False), ([" 1", "2"], False), (["1", "2 "], False),
    (["1.5e+5", "2"], False), (["1.2.3", "4"], False), (["", "4"], False),
    (["1", "2\r"], False), (["12345678901234567890123456", "1"], False),
])
def test_hand_written_cells_read_as_loadtxt(tmp_path, cells, read_by_blocks):
    """Cells the writer never emits: the block reader reads those of its layout
    (a "123456789.5" or one of more than 17 digits by float), refuses the rest,
    and from_csv then returns np.loadtxt's values, or its refusal, either way."""
    body = (",".join(cells) + "\n").encode()
    got = read_rows(io.BytesIO(body), 2, CSV_CHUNK_CELLS)
    assert (got is not None) == read_by_blocks
    path = tmp_path / "hand.csv"
    path.write_bytes(b"t,x_0\n" + body * 3)
    want = loadtxt_or_refusal(path)
    if isinstance(want, ValueError):  # the refusal keeps np.loadtxt's text
        with pytest.raises(ConfigurationError, match=re.escape(f"malformed trace {path}: {want}")):
            Trajectory.from_csv(path)
        return
    back = Trajectory.from_csv(path)
    np.testing.assert_array_equal(np.column_stack([back.times, back.x]).view(np.uint64),
                                  want.view(np.uint64))


@pytest.mark.parametrize("ending", [b"\r\n", b"\n\n", b"\n \n"], ids=["crlf", "blank", "space"])
def test_line_ends_the_writer_never_emits_read_as_loadtxt(tmp_path, ending):
    """A CRLF file and blank lines read as np.loadtxt reads them; a line of one
    space is a row of one cell to it, and the refusal keeps its text."""
    path = tmp_path / "ends.csv"
    rows = ending.join([b"0,1.5", b"0.01,-2.25e-07", b"0.02,3"]) + ending
    path.write_bytes(b"t,x_0" + ending[:-1].strip(b" \n") + b"\n" + rows)
    assert read_rows(io.BytesIO(rows), 2, CSV_CHUNK_CELLS) is None
    want = loadtxt_or_refusal(path)
    if isinstance(want, ValueError):
        with pytest.raises(ConfigurationError, match=re.escape(f"malformed trace {path}: {want}")):
            Trajectory.from_csv(path)
        return
    back = Trajectory.from_csv(path)
    assert want.tolist() == [[0.0, 1.5], [0.01, -2.25e-07], [0.02, 3.0]]
    np.testing.assert_array_equal(np.column_stack([back.times, back.x]), want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", [b"\n0,1\n0.01,2\n", b"\r\n\r\n0,1\r\n0.01,2", b"#c\n0,1\n0.01,2\n"],
                         ids=["blank", "crlf-blanks", "comment"])
def test_rows_after_blank_first_lines_are_read(tmp_path, body):
    """Blank and comment lines before the first row are skipped as np.loadtxt skips them."""
    path = tmp_path / "blank.csv"
    path.write_bytes(b"t,x_0\n" + body)
    back = Trajectory.from_csv(path)
    assert np.column_stack([back.times, back.x]).tolist() == [[0.0, 1.0], [0.01, 2.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", [b"", b"\n", b"\r\n\n", b"#c\n"],
                         ids=["none", "blank", "blanks", "comment"])
def test_a_body_without_a_row_is_refused_without_a_warning(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"t,x_0\n" + body)
    with pytest.raises(ConfigurationError, match="no samples after the header"):
        Trajectory.from_csv(path)


def test_reader_across_row_blocks(tmp_path):
    """Blocks of about 40 cells cut the rows at every place; a row of 60 cells
    takes more than one read, and the last row has no line end. Rows of zeros
    after long rows outgrow the room the first block's bytes per row gave."""
    rng = np.random.default_rng(24)
    block = rng.standard_normal((301, 60)) * 10.0 ** rng.integers(-9, 9, (301, 60))
    text = g17_rows(block).encode()
    for cells in (40, 97, CSV_CHUNK_CELLS):
        assert_read_as_loadtxt(text, 60, cells)
    assert_read_as_loadtxt(g17_rows(np.vstack([block[:20], np.zeros((2000, 60))])).encode(),
                           60, 97)
    got = read_rows(io.BytesIO(text[:-1]), 60, 40)  # no LF after the last row
    np.testing.assert_array_equal(got.view(np.uint64), block.view(np.uint64))
    path = tmp_path / "long.csv"
    write_csv(path, [("t", block[:, 0]), ("x", block[:, 1:])])
    back = Trajectory.from_csv(path)
    np.testing.assert_array_equal(back.x.view(np.uint64), block[:, 1:].view(np.uint64))


def test_short_cells_are_read_without_float(monkeypatch):
    """A cell's first 8 bytes can hold the next cell's "." too ("1.01,1.02"):
    the first "." found is the cell's own, so no cell needs float()."""
    def no_float(cell):
        raise AssertionError(f"{bytes(cell)!r} went to float()")
    times = np.arange(2001) * 0.01
    block = np.column_stack([times, -times, np.round(times, 1), 1.0 / (1.0 + times)])
    text = g17_rows(block).encode()
    monkeypatch.setattr(cells_module, "float", no_float, raising=False)
    assert_read_as_loadtxt(text, 4)


def test_reader_refuses_ragged_rows_and_an_empty_body():
    assert read_rows(io.BytesIO(b"1,2\n3\n"), 2, CSV_CHUNK_CELLS) is None
    assert read_rows(io.BytesIO(b"1,2,3\n"), 2, CSV_CHUNK_CELLS) is None
    assert read_rows(io.BytesIO(b""), 2, CSV_CHUNK_CELLS) is None
