"""The block formatter of CSV cells against '%.17g', byte for byte."""

import numpy as np
import pytest

from gridpriv._cells import HIGH, LOW, g17_rows
from gridpriv.sim import CSV_CHUNK_CELLS, write_csv


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
