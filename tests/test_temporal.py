"""Tests for the temporal Cauchy solver.

The first-order closed form used as an oracle is itself re-derived with
sympy's ODE solver before anything trusts it.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
import sympy as sp

from cdburgers.cli import cli_run
from cdburgers.temporal import (
    CEILING,
    CauchySpec,
    Trajectory,
    solve_cauchy,
)
from oracles import riccati_oracle


def test_first_order_closed_form_matches_symbolic_solution():
    t = sp.Symbol("t")
    l1, l2 = sp.symbols("l1 l2", nonzero=True)
    phi = sp.Function("phi")
    sol = sp.dsolve(sp.Eq(phi(t).diff(t), l1 * phi(t) ** 2),
                    phi(t), ics={phi(0): l2})
    target = l2 / (1 - l1 * l2 * t)
    assert sp.simplify(sol.rhs - target) == 0


def test_riccati_oracle_reference_points():
    assert riccati_oracle(1, 1, 0) == 1
    assert riccati_oracle(1, 1, 0.5) == 2
    assert riccati_oracle(2, -1, 1) == pytest.approx(-1 / 3, rel=1e-15)
    with pytest.raises(ZeroDivisionError):
        riccati_oracle(1.0, 1.0, 1.0)


def test_first_order_solution_matches_closed_form():
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.5, tau=1e-3)
    traj = solve_cauchy(spec)
    assert abs(traj.values[-1] - riccati_oracle(1.0, 1.0, 0.5)) < 1e-8
    mids = np.linspace(0.05, 0.45, 9)
    for tm in mids:
        k = int(round(tm / 1e-3))
        want = riccati_oracle(1.0, 1.0, traj.times[k])
        assert abs(traj.values[k] - want) < 1e-8


def test_zero_initial_data_is_a_fixed_point():
    spec = CauchySpec(m=2, c=(0.3, -0.1), lam=(2.0, 0.0, 0.0), horizon=1.0)
    traj = solve_cauchy(spec)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.residuals == 0.0)
    assert not traj.blew_up


def test_global_error_scales_at_fourth_order():
    errs = []
    for tau in (4e-3, 2e-3):
        spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.5, tau=tau)
        traj = solve_cauchy(spec)
        errs.append(abs(traj.values[-1] - riccati_oracle(1.0, 1.0, 0.5)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3


def test_second_order_problem_richardson_ratio():
    vals = []
    for tau in (8e-3, 4e-3, 2e-3):
        spec = CauchySpec(m=2, c=(0.2, -0.4), lam=(1.5, 0.9, 0.5),
                          horizon=1.0, tau=tau)
        vals.append(solve_cauchy(spec).values[-1])
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    assert 2.0**3.7 <= ratio <= 2.0**4.3


def test_blowup_is_flagged_and_trajectory_stays_finite():
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=2.0, tau=1e-3)
    traj = solve_cauchy(spec)
    assert traj.blew_up
    assert traj.blowup_time == pytest.approx(1.0, abs=0.2)
    assert traj.times[-1] < 2.0
    assert np.all(np.isfinite(traj.states.view(np.float64)))
    assert np.max(np.abs(traj.values)) <= CEILING


def test_real_parameters_give_real_trajectories():
    spec = CauchySpec(m=2, c=(0.1, 0.2), lam=(0.5, 1.0, 0.3), horizon=1.0)
    traj = solve_cauchy(spec)
    assert np.max(np.abs(traj.values.imag)) <= 1e-12


def test_output_moves_continuously_with_parameters():
    base = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.5, tau=1e-3)
    bumped = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0 + 1e-6), horizon=0.5,
                        tau=1e-3)
    a = solve_cauchy(base).values
    b = solve_cauchy(bumped).values
    assert np.max(np.abs(a - b)) <= 100.0 * 1e-6


def test_spec_validation():
    with pytest.raises(ValueError, match="degree"):
        CauchySpec(m=0, c=(), lam=(1.0,), horizon=1.0)
    with pytest.raises(ValueError, match="lower coefficients"):
        CauchySpec(m=2, c=(0.0,), lam=(1.0, 0.0, 0.0), horizon=1.0)
    with pytest.raises(ValueError, match="parameter vector"):
        CauchySpec(m=1, c=(0.0,), lam=(1.0, 0.0, 0.0), horizon=1.0)
    with pytest.raises(ValueError, match="lambda_1"):
        CauchySpec(m=1, c=(0.0,), lam=(0.0, 1.0), horizon=1.0)
    with pytest.raises(ValueError, match="horizon"):
        CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=-1.0)
    with pytest.raises(ValueError, match="step"):
        CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=1.0, tau=0.0)


def test_default_step_is_a_thousandth_of_the_horizon():
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 0.1), horizon=2.0)
    assert spec.step == pytest.approx(2e-3)


def test_fractional_horizon_closes_with_a_short_step():
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 0.1), horizon=0.0505,
                      tau=1e-2)
    traj = solve_cauchy(spec)
    assert traj.times[-1] == pytest.approx(0.0505, rel=1e-12)
    assert len(traj.times) == 7  # t=0, five full steps, one half step


def test_interior_residual_tracks_the_integrator():
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.5, tau=1e-3)
    traj = solve_cauchy(spec)
    assert np.max(traj.residuals[2:-2]) < 1e-3
    assert np.all(traj.residuals >= 0.0)


def test_nearest_state_lookup():
    spec = CauchySpec(m=2, c=(0.0, 0.0), lam=(1.0, 0.2, 0.1), horizon=1.0,
                      tau=1e-2)
    traj = solve_cauchy(spec)
    state = traj.at(0.5)
    k = int(np.argmin(np.abs(traj.times - 0.5)))
    assert np.array_equal(state, traj.states[k])
    assert state.shape == (2,)


def test_trajectory_csv_round_trip(tmp_path, capsys):
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.1, tau=1e-2)
    traj = solve_cauchy(spec)
    blobs = []
    cfg = tmp_path / "ode.json"
    cfg.write_text(json.dumps({"c": [0.0], "lambda": [1.0, 1.0],
                               "horizon": 0.1, "tau": 0.01}))
    for run in ("a", "b"):
        assert cli_run(["ode", "--config", str(cfg),
                        "--out", str(tmp_path / run)]) == 0
        blobs.append((tmp_path / run / "trajectory.csv").read_text())
    capsys.readouterr()
    blob = blobs[0]
    assert blob == blobs[1]
    rows = list(csv.reader(io.StringIO(blob)))
    assert rows[0] == ["t", "re_phi", "im_phi", "residual"]
    assert len(rows) == len(traj.times) + 1
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(got[:, 0], traj.times)
    assert np.array_equal(got[:, 1], traj.values.real)
