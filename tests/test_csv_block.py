"""``cli.csv_block`` writes every number with the bytes of Python's ``"%.16e" % x``."""

import struct
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltsim import cli
from eltsim.cli import csv_block


def _rowwise(columns) -> str:
    """The reference: one ``%`` per number, rows joined as the CSV writes them."""
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in np.asarray(columns).T.tolist())


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ties() -> list[float]:
    """Doubles m / 2**k with 18 significant digits, the last a 5: exact ties at 17 digits, both ways."""
    ties = []
    for k in range(2, 25):
        low = -(-(10**17) // 5**k) | 1  # the first odd m with m * 5**k >= 1e17
        for m in range(low, min(10**18 // 5**k, 2**53), max(2, (10**18 // 5**k - low) // 40 * 2)):
            ties.append(m / 2**k)
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return ties


def _edge_values() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate(
        [
            powers,
            np.nextafter(powers, 0),
            np.nextafter(powers, np.inf),
            np.arange(-10000, 10001) * 0.5,
            _ties(),
            [np.nextafter(1.0, 0), 5e-324, 1.7976931348623157e308, 1e100, 1e-100, 2.5e-300, 7.5e299, 0.0],
            [np.nan, np.inf],
            np.random.default_rng(14).integers(0, 2**64, 100000, dtype=np.uint64).view(np.float64),
        ]
    )
    return np.concatenate([values, -values])


class _CountingFormat(str):
    """``cli._FMT`` that counts the numbers formatted by Python's ``%``."""

    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return str.__mod__(self, value)


@pytest.fixture()
def percent(monkeypatch):
    fmt = _CountingFormat(cli._FMT)
    monkeypatch.setattr(cli, "_FMT", fmt)
    return fmt


_doubles = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.integers(0, 2**64 - 1).map(_double))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), rows=st.integers(0, 3), data=st.data())
def test_csv_block_is_percent_formatting(width, rows, data):
    values = data.draw(st.lists(_doubles, min_size=width * rows, max_size=width * rows))
    columns = np.array(values, dtype=np.float64).reshape(rows, width).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nan and inf are never cast
        assert csv_block(*columns) == _rowwise(columns)


def test_csv_block_is_percent_formatting_on_edge_values():
    values = _edge_values()
    columns = values[: values.size // 3 * 3].reshape(-1, 3).T
    assert csv_block(*columns) == _rowwise(columns)


def _nearest(value: Fraction, double: float) -> bool:
    """Whether ``double`` is a double nearest to ``value``: no neighbour lies closer."""
    error = abs(value - Fraction(double))
    return all(error <= abs(value - Fraction(float(np.nextafter(double, side)))) for side in (-np.inf, np.inf))


def _significant_bits(double: float) -> int:
    numerator = abs(double.as_integer_ratio()[0])
    return (numerator >> ((numerator & -numerator).bit_length() - 1)).bit_length()


def test_power_of_ten_table_is_correctly_rounded():
    table = (cli._SHIFT, cli._HI_BIG, cli._HI_SMALL, cli._LO)
    for e, shift, big, small, lo in zip(range(cli._E_MIN, cli._E_MAX + 1), *(column.tolist() for column in table)):
        assert 1 <= Fraction(10) ** e * Fraction(2) ** shift < 2, e  # so |x| * 2**shift lies in [1, 20)
        power = Fraction(10) ** (16 - e) / Fraction(2) ** shift
        hi = big + small
        assert Fraction(big) + Fraction(small) == Fraction(hi), e  # the halves sum exactly to hi
        assert _significant_bits(big) <= 26 and (small == 0 or _significant_bits(small) <= 26), e
        assert _nearest(power, hi), e
        assert _nearest(power - Fraction(hi), lo), e


def test_scaling_error_is_within_the_tie_bound():
    """n + fraction against the exact |x| * 10**(16 - E), for random doubles of every binary exponent,
    subnormals, and the powers of ten with their neighbours."""
    rng = np.random.default_rng(16)
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 8) << np.uint64(52)
    mantissas = rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    a = np.concatenate(
        [
            (exponents | mantissas).view(np.float64),
            rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64),  # subnormals
            powers,
            np.nextafter(powers, 0),
            np.nextafter(powers, np.inf),
        ]
    )
    decades = np.array([Decimal(v).adjusted() for v in a.tolist()])
    n, fraction = cli._scaled(a, decades - cli._E_MIN)
    worst = Fraction(0)
    for v, e, whole, part in zip(a.tolist(), decades.tolist(), n.tolist(), fraction.tolist()):
        assert 0 <= part <= 1  # t - floor(t) of a tiny t < 0 rounds to 1
        worst = max(worst, abs(whole + Fraction(part) - Fraction(v) * Fraction(10) ** (16 - e)))
    assert worst <= cli._TIE_BOUND, float(worst)


def test_only_near_ties_and_non_finite_numbers_take_percent(percent):
    x = np.random.default_rng(5).uniform(-1e-5, 1e-5, 30000)
    assert csv_block(x) == _rowwise([x])
    assert percent.calls == 0
    special = np.array([*_ties(), np.nan, np.inf, -np.inf])
    assert csv_block(special) == _rowwise([special])
    assert percent.calls == special.size


def test_a_tie_bound_at_one_half_sends_every_number_to_percent(percent, monkeypatch):
    monkeypatch.setattr(cli, "_TIE_BOUND", 0.5)
    values = _edge_values()[::7]
    columns = values[: values.size // 3 * 3].reshape(-1, 3).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_block(*columns) == _rowwise(columns)
    assert percent.calls == columns.size
