"""numfmt.rows against Python's own `%` formatting, byte for byte."""

import math
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelletsim import numfmt

CSV_ROW = "%.9e,%d,%.9e,%.9e,%.9e,%.9e,%.9e,%d\r\n"


def formatted(fmt, *columns):
    return b"".join(numfmt.rows(fmt, columns)).decode("ascii")


def expected(fmt, *columns):
    return "".join(fmt % row for row in zip(*(c.tolist() for c in columns)))


def assert_matches(conv, values):
    values = np.asarray(values)
    assert formatted(conv + "\n", values) == expected(conv + "\n", values)


def powers_of_ten_and_neighbours(lo, hi):
    p = np.array([10.0**k for k in range(lo, hi)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
           1.7976931348623157e308, -1.7976931348623157e308]


class TestE9:
    def test_exact_ties_round_half_even(self):
        assert formatted("%.9e", np.array([12345678905.0])) == "1.234567890e+10"
        assert formatted("%.9e", np.array([12345678915.0])) == "1.234567892e+10"
        assert_matches("%.9e", [12345678905.0, 12345678915.0, 0.5, 1.5, 2.5, -2.5])

    def test_decimal_ties_that_binary_rounding_moves(self):
        # eleven-digit decimal ties whose scaled product lands on the wrong
        # side of, or exactly on, .5: only the exact fallback gets them right
        assert_matches("%.9e", [333744673.05, 0.0033656020285, 7758.2700105, 3962381.0065,
                                6.6428591165e-07, -0.0033002907335])

    def test_special_values(self):
        assert_matches("%.9e", SPECIAL)
        assert formatted("%.9e", np.array([-0.0])) == "-0.000000000e+00"

    def test_powers_of_ten_and_their_neighbours(self):
        assert_matches("%.9e", powers_of_ten_and_neighbours(-40, 40))
        assert_matches("%.9e", -powers_of_ten_and_neighbours(-40, 40))

    def test_three_digit_exponents(self):
        assert_matches("%.9e", [1e100, 1e-100, 1.5e-300, -3.25e250, 9.9999999995e99])

    def test_rounding_carries_into_the_exponent(self):
        assert formatted("%.9e", np.array([9.9999999996e5])) == "1.000000000e+06"
        assert_matches("%.9e", [9.9999999996e5, 9.99999999949e5, 9.9999999995e-14, 9.9999999999e31])

    def test_exponent_guess_is_exact_or_one_low(self):
        # the guess by binary exponent e2 is the decimal exponent of the
        # binade's low end 2**(e2 - 1); its high end is at most one above
        tables = numfmt._tables()
        for e2 in range(numfmt._E2_MIN, numfmt._E2_MAX + 1):
            guess = int(tables.guess[e2 - numfmt._E2_MIN]) + numfmt._E_MIN
            low = math.ldexp(0.5, e2)
            high = math.nextafter(2 * low, 0.0) if e2 < numfmt._E2_MAX else sys.float_info.max
            assert Decimal(low).adjusted() == guess
            assert Decimal(high).adjusted() in (guess, guess + 1)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_exponent_guess_one_off(self, monkeypatch, shift):
        # the exponent comes from log10, which may round across an integer
        # next to a power of ten; a guess one off either way is corrected
        values = np.concatenate([powers_of_ten_and_neighbours(-12, 30), [3.7e19, 1.5e-4, 9.87e30]])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        got = formatted("%.9e\n", values)
        monkeypatch.undo()
        assert got == expected("%.9e\n", values)

    @given(st.lists(st.floats(width=64), max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_float64(self, values):
        assert_matches("%.9e", np.array(values, dtype=np.float64))

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_any_bit_pattern(self, bits):
        assert_matches("%.9e", np.array(bits, dtype=np.uint64).view(np.float64))


class TestF2:
    def test_ties(self):
        assert formatted("%.2f", np.array([0.125])) == "0.12"
        assert formatted("%.2f", np.array([0.375])) == "0.38"
        assert_matches("%.2f", [0.125, 0.375, 0.005, 0.015, 2.675, 1.005, 60.125, 859.875])

    def test_signs_and_specials(self):
        assert formatted("%.2f", np.array([-0.001])) == "-0.00"
        assert_matches("%.2f", SPECIAL + [-0.001, -0.004999, 1e7, np.nextafter(1e7, 0.0), 1e22])

    @given(st.lists(st.floats(width=64), max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_float64(self, values):
        assert_matches("%.2f", np.array(values, dtype=np.float64))

    @given(st.lists(st.floats(-1e4, 1e4), max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_plot_range(self, values):
        assert_matches("%.2f", np.array(values, dtype=np.float64))


class TestD:
    def test_large_tick_counts(self):
        assert formatted("%d", np.array([100_000])) == "100000"
        assert_matches("%d", np.array([99_999, 100_000, 10**10 - 1, 10**10, 10**10 + 7]))

    def test_extremes_and_booleans(self):
        info = np.iinfo(np.int64)
        assert_matches("%d", np.array([0, -1, 9, 10, 9999, 10_000, info.min, info.max, -info.max]))
        assert formatted("%d|", np.array([True, False])) == "1|0|"

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_int64(self, values):
        assert_matches("%d", np.array(values, dtype=np.int64))


# values that Python's `%` formats: a three-digit exponent widens the field
# by a word, and a decimal tie is formatted on its own
SLOW = [np.nan, np.inf, -np.inf, -0.0, -1.5e-300, 333744673.05]


class TestRows:
    # the six float columns of a block are formatted together: slow values in
    # one of them (its index among the six), at and across block boundaries,
    # widen that column alone
    @pytest.mark.parametrize("n, slow_column", [
        pytest.param(n, column, id=str(n) if column is None else f"{n}-slow-in-{column}")
        for n in (0, 1, numfmt.CHUNK - 1, numfmt.CHUNK, numfmt.CHUNK + 1, 3 * numfmt.CHUNK + 5)
        for column in (None, *range(6)) if n or column is None
    ])
    def test_csv_rows_across_block_boundaries(self, n, slow_column):
        rng = np.random.default_rng(n)
        floats = [rng.standard_normal(n) * 10.0 ** rng.integers(-15, 25, n) for _ in range(6)]
        floats[1][::7] = 0.0
        if slow_column is not None:
            ends = [k * numfmt.CHUNK for k in range(1, -(-n // numfmt.CHUNK))] + [n]
            rows = [i for end in ends for i in range(end - 3, end + 3) if 0 <= i < n]
            floats[slow_column][rows] = np.resize(SLOW, len(rows))
        j = rng.integers(0, 10**6, n)
        fired = rng.random(n) < 0.1
        columns = (floats[0], j, *floats[1:], fired)
        assert formatted(CSV_ROW, *columns) == expected(CSV_ROW, *columns)

    def test_literal_text_around_fields(self):
        px = np.array([60.0, 61.255, 859.995])
        fmt = '<line x1="%.2f" y1="262" x2="%.2f"/>\n'
        assert formatted(fmt, px, px) == expected(fmt, px, px)

    def test_one_block_per_chunk(self):
        values = np.arange(2 * numfmt.CHUNK + 1, dtype=np.int64)
        assert len(list(numfmt.rows("%d\n", (values,)))) == 3

    @pytest.mark.parametrize("fmt,columns", [
        ("%f\n", 1), ("%s\n", 1), ("%.9e %%\n", 1), ("%d,%d\n", 1), ("%d\n", 2),
    ])
    def test_rejects_other_formats(self, fmt, columns):
        with pytest.raises(ValueError):
            list(numfmt.rows(fmt, [np.zeros(3)] * columns))

    @pytest.mark.parametrize("n", [0, 1, numfmt.CHUNK - 1, numfmt.CHUNK + 1, 3 * numfmt.CHUNK + 5])
    def test_column_formatted_once_and_reused(self, n):
        # blocks of different widths (a sign, more digits, a slow NaN) and
        # ties, one column laid into two formats, then rows selected from it
        rng = np.random.default_rng(n)
        px = 60.0 + rng.random(n) * 800.0
        px[numfmt.CHUNK:numfmt.CHUNK + 3] = [-1.5, 1e6 + 0.125, np.nan][:max(0, n - numfmt.CHUNK)]
        px[: n // 5] = 61.255
        py = rng.random(n) * 600.0
        assert formatted("%.2f,%.2f ", px, py) == expected("%.2f,%.2f ", px, py)
        pick = rng.random(n) < 0.1
        fmt = '<line x1="%.2f" x2="%.2f"/>\n'
        assert formatted(fmt, px[pick], px[pick]) == expected(fmt, px[pick], px[pick])

    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(ValueError):
            list(numfmt.rows("%d,%d\n", (np.zeros(3), np.zeros(4))))


def test_no_work_at_import():
    # `import pelletsim` leaves the formatter unloaded, and loading it
    # builds no table
    code = ("import sys, pelletsim; assert 'pelletsim.numfmt' not in sys.modules; "
            "import pelletsim.numfmt as n; assert n._tables.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)
