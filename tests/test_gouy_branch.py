"""The Gouy phase mu sits on the propagator chain's branch everywhere in the verify box."""

import dataclasses
import math

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from eltsim import closedform, gaussians, verification
from eltsim.cli import build_parser, cmd_sweep
from eltsim.params import rubidium_config
from references import slits

RUBIDIUM = rubidium_config()
flight = st.floats(math.log(1e-9), math.log(1e-2))
decade = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(t=flight, tau=flight, d=decade, sigma0=decade, beta=decade)
def test_chain_is_chain_sign_times_closed_form(t, tau, d, sigma0, beta):
    config = dataclasses.replace(
        RUBIDIUM,
        t=math.exp(t),
        tau=math.exp(tau),
        d=RUBIDIUM.d * 10.0**d,
        sigma0=RUBIDIUM.sigma0 * 10.0**sigma0,
        beta=RUBIDIUM.beta * 10.0**beta,
    )
    coeffs = closedform.solve(config).coeffs
    try:
        chain = gaussians.chain(slits("12", config), config).evaluate(0.0)
    except gaussians.EvaluationError:
        reject()
    with np.errstate(over="ignore", under="ignore"):
        closed = closedform.CHAIN_SIGN * closedform.psi12(0.0, coeffs)
    tiny = np.finfo(float).tiny
    if not (tiny <= abs(chain) < math.inf and tiny <= abs(closed) < math.inf):
        reject()  # one of the two values is not a normal double
    assert abs(chain - closed) <= 1e-9 * abs(chain)


def test_mu_is_continuous_across_a_flight_time_sweep():
    # the batched solve behind each sweep chunk, on 2000 log-spaced flight times
    t = np.geomspace(1e-9, 1e-2, 2000)
    mu = closedform.solve(dataclasses.replace(RUBIDIUM, t=t)).coeffs.mu
    assert np.max(np.abs(np.diff(mu))) < 0.05


def test_sweep_mu_column_is_continuous_across_the_old_wrap_line():
    # the paper formula wraps by pi near t = 2.06e-8 s on the Rubidium set
    args = build_parser().parse_args(
        ["sweep", "--config", "unused.cfg", "--parameter", "t", "--range", "1e-8", "1e-7", "--steps", "2000"]
    )
    code, text, _, _ = cmd_sweep(args, RUBIDIUM)
    assert code == 0
    mu = np.array([float(line.rsplit(",", 1)[1]) for line in "".join(text).splitlines()[1:]])
    assert mu.size == 2000
    assert np.max(np.abs(np.diff(mu))) < 0.05


def test_mu_record_where_the_paper_formula_wraps():
    config = rubidium_config(t=1e-7, tau=1e-7)
    solution = closedform.solve(config)
    assert abs(solution.coeffs.mu - closedform.gouy_phase(solution.ztable)) > 3.0  # one pi apart here
    records = {r.name: r for r in verification.coefficient_terms(solution).records}
    assert records["term/mu"].passed
