"""``cli.csv_block`` writes every number with the bytes of Python's ``"%.16e" % x``."""

import struct
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltsim import cli, params
from eltsim.cli import csv_block

RUBIDIUM = str(Path(__file__).resolve().parents[1] / "configs" / "rubidium.cfg")


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


_MAGNITUDES = {
    "two-digit": st.floats(1e-99, 9.999999999999999e99),
    "three-digit": st.floats(1e100, 1.7976931348623157e308) | st.floats(5e-324, 9.99e-101, allow_subnormal=True),
    "zero": st.just(0.0),
    "any": _doubles,
}


@st.composite
def _regime_column(draw, rows):
    """A column whose sign and magnitude regime are drawn once: signs all clear, all set or mixed, and
    exponents of two digits, of three, zeros, or any double."""
    magnitude = _MAGNITUDES[draw(st.sampled_from(sorted(_MAGNITUDES)))]
    values = np.abs(draw(st.lists(magnitude, min_size=rows, max_size=rows)))
    sign = draw(st.sampled_from(["+", "-", "mixed"]))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=rows, max_size=rows)) if sign == "mixed" else 1.0
    return np.copysign(values, -1.0 if sign == "-" else signs)


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 6), rows=st.integers(0, 64), data=st.data())
def test_csv_block_is_percent_formatting_by_column_regime(width, rows, data):
    # a column of one sign and one exponent width fills its slots; a mixed one leaves bytes for compaction
    columns = np.array([data.draw(_regime_column(rows)) for _ in range(width)]).reshape(width, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_block(*columns) == _rowwise(columns)


def _block_column(kind: str, rng) -> np.ndarray:
    """A ``PROFILE_BLOCK``-row column of one kind."""
    rows = cli.PROFILE_BLOCK
    mantissa = rng.uniform(1.0, 10.0, rows)
    if kind == "zero-crossing":  # a monotone grid through an exact 0, as in a profile's middle block
        return np.arange(-rows // 2, rows // 2) * 4.9e-9
    if kind == "negative":
        return -mantissa * 10.0 ** rng.integers(-99, 99, rows)
    if kind == "three-digit":
        return mantissa * 10.0 ** (rng.choice([-1, 1], rows) * rng.integers(100, 300, rows))
    if kind == "mixed-exponent":  # two- and three-digit exponents in one column
        return mantissa * 10.0 ** rng.integers(-120, -80, rows)
    column = mantissa * 1e-7  # one sign, two-digit exponents: then one number of another kind
    special = {"nan": np.nan, "inf": -np.inf, "tie": _ties()[0], "-0.0": -0.0, "negative-tie": -_ties()[-1]}
    if kind == "negative-tie":
        column = -column
    column[rng.integers(rows)] = special[kind]
    return column


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize(
    "kind", ["zero-crossing", "negative", "three-digit", "mixed-exponent", "nan", "inf", "tie", "-0.0", "negative-tie"]
)
def test_csv_block_is_percent_formatting_on_profile_blocks(kind, width):
    # every other column is plain (positive, two-digit exponents), so slots of both widths meet
    rng = np.random.default_rng(width)
    plain = rng.uniform(0.0, 1.0, cli.PROFILE_BLOCK)
    columns = [_block_column(kind, rng) if c % 2 == 0 else plain for c in range(width)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_block(*columns) == _rowwise(columns)


@pytest.mark.parametrize("grid", ["one-sign", "zero-crossing"])
def test_profile_block_memory_budget(grid):
    # one PROFILE_BLOCK x 3 call, the size profile_csv makes: the budget in the PROFILE_BLOCK comment,
    # for a block written in place and for one that is compacted (its grid crosses 0)
    rng = np.random.default_rng(12)
    x = np.arange(-cli.PROFILE_BLOCK // 2, cli.PROFILE_BLOCK // 2) * 4.9e-9
    columns = (x + 2.1e-5 if grid == "one-sign" else x, rng.uniform(0.0, 1.0, x.size), rng.uniform(0.0, 1.0, x.size))
    csv_block(*columns)
    tracemalloc.start()
    try:
        csv_block(*columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_csv_block_is_percent_formatting_on_edge_values():
    values = _edge_values()
    columns = values[: values.size // 3 * 3].reshape(-1, 3).T
    assert csv_block(*columns) == _rowwise(columns)


def test_fast_layout_on_edge_values(percent):
    # the edge values less nan, inf and every number whose 18th-21st significant digits round to 5000 (the
    # ties, and anything within 5e-5 of one): one block the fast layout settles whole, so the decade
    # re-scale, the carry into the next decade, subnormals and three-digit exponents are its own bytes
    values = _edge_values()
    settled = np.array([v for v in values[np.isfinite(values)].tolist() if ("%.20e" % abs(v))[18:22] != "5000"])
    columns = settled[: settled.size // 3 * 3].reshape(-1, 3).T
    expected = _rowwise(columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_block(*columns) == expected
    assert percent.calls == 0


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


def test_a_block_whose_numbers_all_go_to_percent_is_percent_text_whole(monkeypatch):
    # with every number sent to %, the block is Python's % text whole, row by row: a % that writes a sign
    # and a third exponent digit the number lacks shows in every field, with no byte of the fast layout
    class Moved(str):
        def __mod__(self, value):
            return str.__mod__(self, -value * 1e100)

    monkeypatch.setattr(cli, "_FMT", Moved(cli._FMT))
    monkeypatch.setattr(cli, "_TIE_BOUND", 0.5)
    x = np.random.default_rng(3).uniform(1.0, 2.0, 50)
    assert csv_block(x, -x) == _rowwise([-x * 1e100, x * 1e100])


@pytest.mark.parametrize("kind", ["tie", "nan"])
def test_a_block_the_layout_cannot_settle_is_percent_text_whole(percent, kind):
    # one unsettled number sends every number of its block to %, row by row
    columns = np.random.default_rng(19).uniform(0.0, 1.0, (3, cli.PROFILE_BLOCK))
    columns[1, 1234] = _ties()[7] if kind == "tie" else np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_block(*columns) == _rowwise(columns)
    assert percent.calls == columns.size == 3 * cli.PROFILE_BLOCK


@pytest.mark.parametrize("raw", [False, True], ids=["peak", "raw"])
@pytest.mark.parametrize("branch", cli.BRANCHES)
def test_rubidium_profiles_take_no_percent(percent, capsys, branch, raw):
    argv = ["intensity", "--config", RUBIDIUM, "--branch", branch, "--grid-points", "20001"]
    assert cli.main(argv + (["--raw"] if raw else [])) == 0
    assert capsys.readouterr().out.count("\n") == 20002
    assert percent.calls == 0


@pytest.mark.parametrize("parameter", cli.SWEEP_PARAMETERS)
def test_rubidium_sweeps_take_no_percent(percent, capsys, parameter):
    value = getattr(params.load_config(RUBIDIUM), parameter)
    span = [repr(value / 10**0.5), repr(value * 10**0.5)]
    assert cli.main(["sweep", "--config", RUBIDIUM, "--parameter", parameter, "--range", *span, "--steps", "2000"]) == 0
    assert capsys.readouterr().out.count("\n") == 2001
    assert percent.calls == 0
