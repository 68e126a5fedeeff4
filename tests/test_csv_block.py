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

EXTENDED = cli._TIE_BOUND < 0.5 and cli._POW10_FINITE  # long double resolves y: x87 or quad


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


def test_power_of_ten_table_is_correctly_rounded():
    for e, power in zip(range(cli._E_MIN, cli._E_MAX + 1), cli._POW10):
        error = abs(Fraction(*power.as_integer_ratio()) - Fraction(10) ** (16 - e))
        assert error <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, e


@pytest.mark.skipif(not EXTENDED, reason="every number takes % where long double is no wider than double")
def test_only_near_ties_and_non_finite_numbers_take_percent(percent):
    x = np.random.default_rng(5).uniform(-1e-5, 1e-5, 30000)
    csv_block(x)
    assert abs(percent.calls / x.size - 2 * cli._TIE_BOUND) < 0.005  # the window about 1/2 is 2 _TIE_BOUND wide
    percent.calls = 0
    special = np.array([*_ties(), np.nan, np.inf, -np.inf])
    assert csv_block(special) == _rowwise([special])
    assert percent.calls == special.size


@pytest.mark.parametrize("platform", ["bound at 1/2", "long double is double"])
def test_without_extended_precision_every_number_takes_percent(percent, monkeypatch, platform):
    if platform == "bound at 1/2":
        monkeypatch.setattr(cli, "_TIE_BOUND", 0.5)
    else:
        for name, value in zip(("_POW10", "_TIE_BOUND", "_POW10_FINITE"), cli._scaling(np.float64)):
            monkeypatch.setattr(cli, name, value)
        assert cli._TIE_BOUND > 0.5 and not cli._POW10_FINITE
    values = _edge_values()[::7]
    columns = values[: values.size // 3 * 3].reshape(-1, 3).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_block(*columns) == _rowwise(columns)
    assert percent.calls == columns.size
