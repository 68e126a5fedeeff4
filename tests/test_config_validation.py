"""Bad physical input is rejected by a named ConfigError, and the CLI exits 2."""

import math
import re

import numpy as np
import pytest

from eltsim.cli import main
from eltsim.params import ConfigError, parse_config_text, rubidium_config

_MINIMAL = """\
mass_kg = 1.44e-25
sigma0_m = 10e-9
beta_m = 10e-9
d_m = 180e-9
t_s = 20e-6
tau_s = 20e-6
"""


@pytest.mark.parametrize(
    "name, value",
    [
        ("eta", math.nan),
        ("eta", math.inf),
        ("eta", True),
        ("excited_lifetime", math.nan),
        ("excited_lifetime", -1.0),
        ("omega_ge", math.nan),
        ("omega_ge", 0.0),
        ("hbar", math.inf),
        ("mass", True),
        ("sigma0", "10e-9"),
        ("amp_exotic", math.inf),
        ("amp_exotic", complex(0.05, math.nan)),
        ("amp_nonexotic", complex(math.inf, 0.0)),
        ("amp_nonexotic", True),
    ],
)
def test_bad_field_rejected_by_name(name, value):
    with pytest.raises(ConfigError, match=name):
        rubidium_config(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("eta", 0.0), ("eta", 1e-9), ("amp_exotic", -0.05 + 0.1j), ("amp_nonexotic", 0.0), ("mass", 144)],
)
def test_edge_values_accepted(name, value):
    assert getattr(rubidium_config(**{name: value}), name) == value


@pytest.mark.parametrize(
    "line, name",
    [
        ("amp_exotic_re = inf", "amp_exotic"),
        ("amp_nonexotic_im = nan", "amp_nonexotic"),
        ("lifetime_s = nan", "excited_lifetime"),
        ("eta_s = nan", "eta"),
        ("omega_ge_rad_s = -1", "omega_ge"),
    ],
)
def test_config_file_rejects_non_finite(line, name):
    with pytest.raises(ConfigError, match=name):
        parse_config_text(_MINIMAL + line + "\n")


def test_cli_exits_2_and_writes_nothing_on_infinite_amplitude(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(_MINIMAL + "amp_exotic_re = inf\n")
    out = tmp_path / "full.csv"
    code = main(["intensity", "--config", str(cfg), "--branch", "full", "--out", str(out)])
    assert code == 2
    assert "amp_exotic" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # an editor may save UTF-8 with a leading BOM; it is not part of the first key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(_MINIMAL, encoding="utf-8")
    marked.write_text(_MINIMAL, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["states", "--config", str(plain)]) == 0
    expected = capsys.readouterr()
    assert main(["states", "--config", str(marked)]) == 0
    assert capsys.readouterr() == expected


def test_a_config_file_that_is_not_utf8_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(("# widths in \xb5m\n" + _MINIMAL).encode("latin-1"))
    assert main(["states", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xb5")


@pytest.mark.parametrize(
    "argv",
    [["intensity", "--branch", "elt"], ["intensity", "--branch", "full"], ["sweep", "--parameter", "d", "--range", "1e-7", "2e-7"]],
)
def test_looped_path_commands_accept_nonzero_eta(tmp_path, capsys, argv):
    # intensity and sweep read the looped paths off the propagator chain, which carries eta
    cfg = tmp_path / "eta.cfg"
    cfg.write_text(_MINIMAL + "eta_s = 1e-9\n")
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_verify_measures_nonzero_eta(tmp_path, capsys):
    cfg = tmp_path / "eta.cfg"
    cfg.write_text(_MINIMAL + "eta_s = 1e-9\n")
    # the closed form takes each loop segment at epsilon + eta, as the chain does, so the records agree
    assert main(["verify", "--config", str(cfg), "--skip-quadrature"]) == 0
    assert "[ok  ] closed-vs-chain/loop12" in capsys.readouterr().out


@pytest.mark.parametrize(
    "value, message",
    [
        (np.array([1e-7, math.nan, -1.0]), "d must be a finite number, got nan"),
        (np.array([1e-7, 2e-7, -1.0]), "d must be strictly positive, got -1.0"),
        (np.array([[1e-7]]), "d must be a finite number or a 1-D float array"),
        (np.array([1, 2]), "d must be a finite number or a 1-D float array"),
    ],
)
def test_array_field_checked_elementwise(value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        rubidium_config(d=value)
