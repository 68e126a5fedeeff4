"""A configuration whose closed-form coefficients are not finite is refused by name."""

import pytest

from eltsim.cli import main

RUBIDIUM = {
    "mass_kg": "1.44e-25",
    "sigma0_m": "10e-9",
    "beta_m": "10e-9",
    "d_m": "180e-9",
    "t_s": "20e-6",
    "tau_s": "20e-6",
}


@pytest.mark.parametrize(("key", "value", "named"), [("d_m", "1e300", "c2=nan"), ("tau_s", "1e-170", "c1=inf")])
def test_verify_exits_2_and_writes_nothing(tmp_path, capsys, key, value, named):
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k} = {value if k == key else v}\n" for k, v in RUBIDIUM.items()))
    out = tmp_path / "out.csv"
    code = main(["verify", "--skip-quadrature", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: non-normalizable closed form: amplitude=" in err
    assert named in err
    assert list(tmp_path.iterdir()) == [config]
