"""Tests for the end-to-end assembly and verification module.

The effective-coefficient chain for diagonal restrictions of midpoint-form
pair fields is re-derived symbolically here (quaternion Dirac operators,
sympy doing the calculus) before any test trusts the frozen constants in
``SobolevBurgersSpec.effective_coefficients``.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import sympy as sp

import cdburgers.calculus
import cdburgers.kernel
import cdburgers.workbench
from cdburgers.calculus import Grid, _d1, interior_slices
from cdburgers.cli import _csv_text
from cdburgers.kernel import (
    _aux_lhs,
    _diagonal_pair,
    _diagonal_terms,
    admissible_kappa,
    aux_residual,
)
from cdburgers.randmeasure import expectation, sample_H
from cdburgers.workbench import (
    REFINEMENT_COLUMNS,
    AtomParams,
    SobolevBurgersSpec,
    SpectralPoint,
    assemble_u,
    atom_kernel_config,
    characteristic_kappa,
    lambda_to_params,
    measure_for_atoms,
    moment_identity,
    refinement_study,
    residual_suite,
)
from cdburgers.workbench import _q_time_apply, _time_residuals
from oracles import (
    _symbolic_dirac,
    reference_atom_diag,
    reference_aux_residual,
    reference_expectation_residual,
    reference_lhs_field,
    reference_linear_residual,
    reference_mean_diagonal,
    reference_mean_pair,
    reference_moment_identity,
    reference_scalar_residuals,
    reference_second_moment_diagonal,
    reference_second_pair,
)


# -- symbolic oracle for the diagonal-restriction scaling chain ----------------


def _midpoint_chain():
    """Pair operators applied symbolically to G = exp(k . (x + y)/2)."""
    x1, x2, y1, y2 = sp.symbols("x1 x2 y1 y2", real=True)
    k1, k2 = sp.symbols("k1 k2", real=True)
    psi = 1 / sp.sqrt(2)
    f = sp.exp((k1 * (x1 + y1) + k2 * (x2 + y2)) / 2)
    comp = [f, sp.Integer(0), sp.Integer(0), sp.Integer(0)]
    sx = _symbolic_dirac(comp, (x1, x2), psi)
    sy = _symbolic_dirac(comp, (y1, y2), psi)
    first = [sp.expand(a + b) for a, b in zip(sx, sy)]
    sxx = _symbolic_dirac(_symbolic_dirac(comp, (x1, x2), psi),
                          (x1, x2), psi)
    syy = _symbolic_dirac(_symbolic_dirac(comp, (y1, y2), psi),
                          (y1, y2), psi)
    pair_lap = [sp.expand(a + b) for a, b in zip(sxx, syy)]
    return f, (k1, k2), first, pair_lap


def test_pair_laplacian_on_midpoint_fields_is_quarter_laplacian():
    f, (k1, k2), _, pair_lap = _midpoint_chain()
    for c in pair_lap[1:]:
        assert sp.simplify(c) == 0
    factor = sp.simplify(pair_lap[0] / f)
    assert sp.simplify(factor + (k1**2 + k2**2) / 4) == 0


def test_first_order_pair_term_projects_to_scaled_gradient():
    f, (k1, k2), first, _ = _midpoint_chain()
    assert sp.simplify(first[0]) == 0
    assert sp.simplify(first[3]) == 0
    assert sp.simplify(first[1] / f + k1 / sp.sqrt(2)) == 0
    assert sp.simplify(first[2] / f + k2 / sp.sqrt(2)) == 0


def test_effective_coefficients_frozen_by_symbolic_chain():
    # symbolic factors established above: (sigma_x^2 + sigma_y^2) acts on
    # midpoint-form fields as c2 * Lap with c2 = -1/4, and the slot-1
    # component of (sigma_x + sigma_y) as c1 * d/dx_1 with c1 = -1/sqrt(2)
    c2 = sp.Rational(-1, 4)
    c1 = -1 / sp.sqrt(2)
    alpha, beta, gamma, varsigma = sp.symbols(
        "alpha beta gamma varsigma", real=True)
    L = sp.Symbol("L")  # stands for the scalar Laplacian
    # fourth-order pair operator with a = (-1, -alpha, beta), restricted
    s0_diag = sp.expand(-((c2 * L) ** 2) - alpha * (c2 * L) + beta)
    scale = 16  # normalizes the Lap^2 coefficient to -1
    poly = sp.Poly(scale * s0_diag, L)
    eff_alpha = poly.coeff_monomial(L)
    eff_beta = poly.coeff_monomial(1)
    assert poly.coeff_monomial(L**2) == -1
    eff_gamma = sp.simplify(scale * gamma * c1)
    eff_varsigma = scale * varsigma

    rng = np.random.default_rng(11)
    for _ in range(5):
        av, bv, gv, sv = rng.uniform(-2, 2, size=4)
        if av == 0:
            av = 1.0
        spec = SobolevBurgersSpec(alpha=av, beta=bv, gamma=gv, varsigma=sv,
                                  c=(0.0,))
        got = spec.effective_coefficients()
        subs = {alpha: av, beta: bv, gamma: gv, varsigma: sv}
        assert got["alpha"] == pytest.approx(float(eff_alpha.subs(subs)),
                                             rel=1e-15)
        assert got["beta"] == pytest.approx(float(eff_beta.subs(subs)),
                                            rel=1e-15)
        assert got["gamma"] == pytest.approx(float(eff_gamma.subs(subs)),
                                             rel=1e-15)
        assert got["varsigma"] == pytest.approx(
            float(eff_varsigma.subs(subs)), rel=1e-15)


# -- problem data validation ---------------------------------------------------


def test_spec_validation_messages():
    ok = dict(alpha=1.0, beta=0.0, gamma=1.0, varsigma=0.0, c=(0.0,))
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        SobolevBurgersSpec(**{**ok, "alpha": 0.0})
    with pytest.raises(ValueError, match="gamma"):
        SobolevBurgersSpec(**{**ok, "gamma": 0.0, "varsigma": 0.0})
    with pytest.raises(ValueError, match="at least 2"):
        SobolevBurgersSpec(**{**ok, "n": 1})
    with pytest.raises(ValueError, match="degree >= 1"):
        SobolevBurgersSpec(**{**ok, "c": ()})
    with pytest.raises(ValueError, match="degenerate box"):
        SobolevBurgersSpec(**{**ok, "lo": 1.0, "hi": 1.0})
    with pytest.raises(ValueError, match="horizon must be positive"):
        SobolevBurgersSpec(**{**ok, "horizon": 0.0})


def test_spec_properties():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.5, gamma=0.2, varsigma=0.0,
                              c=(0.0, 1.0), lo=-1.0, hi=3.0, horizon=2.0)
    assert spec.m == 2
    grid = spec.grid(9, 5)
    assert grid.n == 2
    assert grid.counts == (9, 9)
    assert grid.t_count == 5
    assert grid.t_max == 2.0
    assert grid.axis(0)[0] == -1.0 and grid.axis(0)[-1] == 3.0


def test_spectral_point_validation_and_properties():
    with pytest.raises(ValueError, match="at least 4 entries"):
        SpectralPoint((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="lambda_1 must be nonzero"):
        SpectralPoint((0.0, 1.0, 1.0, 1.0))
    point = SpectralPoint((2.0, -0.5, 0.25, 0.75, 0.1))
    assert point.m == 2
    assert point.lam_prime == (2.0, -0.5, 0.25)
    assert point.p == (0.75, 0.1)


# -- parameter mapping ---------------------------------------------------------


def test_lambda_to_params_worked_example():
    # lambda_1 = 1 with alpha = 1, beta = 0 gives a = (-1, -1, 0); the
    # nonlinearity weight doubles the product of lambda_1 and the coupling
    # entry, and the amplitude rule value is gamma over that weight
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1.0, varsigma=0.0,
                              c=(0.0,))
    point = SpectralPoint((1.0, -0.5, 0.5, 0.0))
    params = lambda_to_params(point, spec)
    assert params.a == (-1.0, -1.0, 0.0)
    assert params.q == (1.0, 0.0)
    assert params.p == (0.5, 0.0)
    assert params.xi == 1.0


def test_lambda_to_params_zero_coupling_entry_kills_weight():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=0.0, varsigma=2.0,
                              c=(0.0,))
    point = SpectralPoint((1.0, -0.5, 0.0, 0.25))
    params = lambda_to_params(point, spec)
    assert params.q[0] == 0.0
    assert params.q[1] == 0.5
    assert params.xi == pytest.approx(4.0)


def test_lambda_to_params_weight_identity_is_exact():
    rng = np.random.default_rng(3)
    spec = SobolevBurgersSpec(alpha=1.3, beta=-0.7, gamma=2.3, varsigma=1.7,
                              c=(0.4,))
    for _ in range(20):
        lam1 = float(rng.uniform(0.2, 3.0))
        lam2 = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.1, 0.9))
        point = SpectralPoint((lam1, lam2, t * spec.gamma, t * spec.varsigma))
        params = lambda_to_params(point, spec)
        assert params.q[0] + 2.0 * params.a[0] * params.p[0] == 0.0
        assert params.q[1] + 2.0 * params.a[1 - 1] * params.p[1] == 0.0


def test_lambda_to_params_matches_kernel_config_weights():
    spec = SobolevBurgersSpec(alpha=1.3, beta=0.5, gamma=2.3, varsigma=1.7,
                              c=(0.4,))
    point = SpectralPoint.matched(spec, (1.0, -0.5))
    params = lambda_to_params(point, spec)
    cfg = atom_kernel_config(point, spec, (0.0, 0.0))
    assert complex(cfg.q[0]) == complex(params.q[0])
    assert complex(cfg.q[1]) == complex(params.q[1])
    assert cfg.a == params.a
    assert cfg.kappa == characteristic_kappa(spec)


def test_lambda_to_params_error_messages():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1.0, varsigma=0.0,
                              c=(0.0,))
    with pytest.raises(ValueError, match="temporal degree"):
        lambda_to_params(SpectralPoint((1.0, 0.1, 0.2, 0.5, 0.0)), spec)
    both = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1.0, varsigma=1.0,
                              c=(0.0,))
    with pytest.raises(ValueError, match="constraint p_2 gamma"):
        lambda_to_params(SpectralPoint((1.0, -0.5, 0.5, 0.1)), both)
    with pytest.raises(ValueError, match="p_1 must vanish"):
        lambda_to_params(SpectralPoint((1.0, -0.5, 0.0, 0.0)), both)
    only_s = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=0.0, varsigma=1.0,
                                c=(0.0,))
    with pytest.raises(ValueError, match="p_2 must vanish"):
        lambda_to_params(SpectralPoint((1.0, -0.5, 0.0, 0.0)), only_s)


def test_matched_point_closes_amplitude_rule():
    spec = SobolevBurgersSpec(alpha=2.0, beta=-0.25, gamma=0.3, varsigma=0.9,
                              c=(0.1,))
    point = SpectralPoint.matched(spec, (1.0, 0.7))
    assert point.lam == (1.0, 0.7, 0.15, 0.45)
    params = lambda_to_params(point, spec)
    assert params.xi == 1.0
    assert params.q[0] == spec.gamma
    assert params.q[1] == spec.varsigma

    half = SpectralPoint.matched(spec, (0.5, 0.7))
    assert lambda_to_params(half, spec).xi == 1.0

    odd = SpectralPoint.matched(spec, (3.0, 0.7))
    assert lambda_to_params(odd, spec).xi == pytest.approx(1.0, rel=1e-14)

    with pytest.raises(ValueError, match="temporal vector needs 2 entries"):
        SpectralPoint.matched(spec, (1.0, 0.7, 0.2))


def test_matched_point_varsigma_branch():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=0.0, varsigma=0.8,
                              c=(0.0,))
    point = SpectralPoint.matched(spec, (1.0, -0.5))
    assert point.p == (0.0, 0.4)
    params = lambda_to_params(point, spec)
    assert params.xi == 1.0
    assert params.q == (0.0, 0.8)


def test_characteristic_kappa_burgers_configuration():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1.0, varsigma=0.0,
                              c=(0.0,))
    # k^4/16 - k^2/4 = 0 has the positive root k = 2
    assert characteristic_kappa(spec) == (-2.0, 0.0)
    assert characteristic_kappa(spec) == admissible_kappa(
        (-1.0, -1.0, 0.0), 2)


def test_characteristic_kappa_is_lambda_free():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1.0, varsigma=0.0,
                              c=(0.0,))
    for lam1 in (1.0, 0.5, 3.0):
        point = SpectralPoint.matched(spec, (lam1, -0.5))
        cfg = atom_kernel_config(point, spec, (0.0, 0.0))
        assert cfg.kappa == (-2.0, 0.0)


# -- measure construction ------------------------------------------------------


def test_measure_for_atoms_reps_amplitudes_seed():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1e-5, varsigma=0.0,
                              c=(0.0,))
    a0 = SpectralPoint.matched(spec, (1.0, -0.5))
    a1 = SpectralPoint.matched(spec, (1.0, -1.0))
    measure = measure_for_atoms([a0, a1], spec, (0.25, 0.75), seed=7)
    assert measure.partition.reps == (a0.lam, a1.lam)
    assert measure.xi == (1.0, 1.0)
    assert measure.p == (0.25, 0.75)
    assert measure.seed == 7


def test_measure_for_atoms_accepts_real_complex_entries():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1e-5, varsigma=0.0,
                              c=(0.0,))
    point = SpectralPoint((1.0 + 0.0j, -0.5, 5e-6, 0.0))
    measure = measure_for_atoms([point], spec, (1.0,))
    assert measure.partition.reps == ((1.0, -0.5, 5e-6, 0.0),)


def test_measure_for_atoms_rejects_complex_lambda():
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1e-5, varsigma=0.0,
                              c=(0.0,))
    point = SpectralPoint((1.0 + 0.2j, -0.5, 5e-6, 0.0))
    with pytest.raises(ValueError, match="real lambda representatives"):
        measure_for_atoms([point], spec, (1.0,))


# -- assembly ------------------------------------------------------------------


_SPEC = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1e-5, varsigma=0.0,
                           c=(0.0,), n=2, lo=-0.5, hi=4.5, horizon=1.0)
_W0 = (0.0, 0.0)


@pytest.fixture(scope="module")
def single_atom():
    point = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    measure = measure_for_atoms([point], _SPEC, (1.0,))
    grid = _SPEC.grid(21, 9)
    sol = assemble_u([point], measure, grid, _SPEC, _W0)
    return sol


@pytest.fixture(scope="module")
def two_atoms():
    a0 = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    a1 = SpectralPoint.matched(_SPEC, (1.0, -1.0))
    measure = measure_for_atoms([a0, a1], _SPEC, (0.25, 0.75), seed=5)
    grid = _SPEC.grid(11, 7)
    sol = assemble_u([a0, a1], measure, grid, _SPEC, _W0)
    return sol


@pytest.mark.parametrize("lams, solves", [
    (((1.0, -0.5), (1.0, -1.0)), 1),
    (((1.0, -0.5), (2.0, -0.5)), 2),
], ids=["equal-lambda1", "distinct-lambda1"])
def test_assemble_solves_each_distinct_kernel_once(lams, solves,
                                                   monkeypatch):
    # atoms share kappa, w0 and the grid, so atoms with equal lambda_1 have
    # equal kernel configs and share one solve
    calls = []
    solve = cdburgers.workbench.solve_K

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cdburgers.workbench, "solve_K", counted)
    points = [SpectralPoint.matched(_SPEC, lam) for lam in lams]
    measure = measure_for_atoms(points, _SPEC, (0.25, 0.75))
    sol = assemble_u(points, measure, _SPEC.grid(11, 7), _SPEC, _W0)
    assert len(calls) == len({id(kf) for kf in sol.kernels}) == solves


def test_assemble_validations():
    point = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    other = SpectralPoint.matched(_SPEC, (1.0, -1.0))
    measure = measure_for_atoms([point], _SPEC, (1.0,))
    grid = _SPEC.grid(7, 7)
    with pytest.raises(ValueError, match="do not match the atom list"):
        assemble_u([point, other], measure, grid, _SPEC, _W0)
    with pytest.raises(ValueError, match="do not match the atom list"):
        assemble_u([other], measure, grid, _SPEC, _W0)
    flat = Grid.box(2, -0.5, 4.5, 7)
    with pytest.raises(ValueError, match="grid with a time axis"):
        assemble_u([point], measure, flat, _SPEC, _W0)


def test_assemble_reports_temporal_blowup():
    runaway = SpectralPoint.matched(_SPEC, (1e4, 1.0))
    measure = measure_for_atoms([runaway], _SPEC, (1.0,))
    grid = _SPEC.grid(7, 9)
    with pytest.raises(RuntimeError, match="temporal factor blew up"):
        assemble_u([runaway], measure, grid, _SPEC, _W0)


def test_single_atom_field_is_separated_product(single_atom):
    sol = single_atom
    assert sol.size == 1
    phi = sol.trajectories[0].values
    kvals = sol.kernels[0].K.values
    t_count, count = sol.grid.t_count, sol.grid.counts[0]
    diag = kvals[np.arange(count)[:, None], np.arange(count)[None, :],
                 np.arange(count)[:, None], np.arange(count)[None, :]]
    want = phi.reshape(t_count, 1, 1) * diag[None]
    assert np.array_equal(reference_atom_diag(sol)[0], want)
    assert np.array_equal(reference_mean_diagonal(sol),
                          reference_atom_diag(sol)[0])


def test_diagonal_of_pair_mean_matches_diagonal_mean(single_atom):
    sol = single_atom
    count = sol.grid.counts[0]
    idx = np.arange(count)
    for ti in (0, sol.grid.t_count // 2, sol.grid.t_count - 1):
        pair = reference_mean_pair(sol, ti)
        diag = pair[idx[:, None], idx[None, :], idx[:, None], idx[None, :]]
        assert np.array_equal(diag, reference_mean_diagonal(sol)[ti])
        pair2 = reference_second_pair(sol, ti)
        diag2 = pair2[idx[:, None], idx[None, :], idx[:, None],
                      idx[None, :]]
        assert np.array_equal(diag2,
                              reference_second_moment_diagonal(sol)[ti])


def test_single_atom_moment_identity_is_exact(single_atom):
    report = moment_identity(single_atom, samples=2000)
    assert report["structure_gap"] == 0.0
    assert report["structure_ok"]
    assert report["mean_square_gap"] == 0.0
    assert report["mean_square_exact"]
    assert report["mc"]["mean_ok"]
    assert report["mc"]["second_ok"]


def test_two_atom_mixture_breaks_mean_square_identity(two_atoms):
    report = moment_identity(two_atoms, samples=4000)
    assert report["structure_ok"]
    assert report["mean_square_gap"] > 1e-6
    assert not report["mean_square_exact"]
    assert report["mc"]["mean_ok"]
    assert report["mc"]["second_ok"]


def test_two_atom_mean_matches_monte_carlo(two_atoms):
    sol = two_atoms
    real = sample_H(sol.measure, 3000)
    t_index, node = 3, (3, 3)
    outcomes, weights = sol.enumerate_node(t_index, node)
    mean, se = expectation(outcomes[real.draws])
    want = np.dot(weights, outcomes)
    assert abs(mean - want) <= 3.0 * float(abs(se)) + 1e-12
    assert abs(want - reference_mean_diagonal(sol)[(t_index,) + node]
               ) < 1e-15


def test_expectation_linearity_over_atoms(two_atoms):
    sol = two_atoms
    total = reference_mean_diagonal(sol)
    parts = sum(sol.measure.p[j] * reference_atom_diag(sol)[j]
                for j in range(sol.size))
    assert np.array_equal(total, parts)


@pytest.mark.parametrize("fixture", ["single_atom", "two_atoms"])
def test_factored_rows_are_the_dense_diagonal_rows(request, fixture):
    # atom_row and moment_row form the dense route's products, row by row
    sol = request.getfixturevalue(fixture)
    diag = reference_atom_diag(sol)
    mean = reference_mean_diagonal(sol)
    second = reference_second_moment_diagonal(sol)
    for ti in range(sol.grid.t_count):
        for j in range(sol.size):
            assert np.array_equal(sol.atom_row(j, ti), diag[j][ti])
        got_mean, got_second = sol.moment_row(ti)
        assert np.array_equal(got_mean, mean[ti])
        assert np.array_equal(got_second, second[ti])


@pytest.mark.parametrize("samples", [0, 2000])
@pytest.mark.parametrize("fixture", ["single_atom", "two_atoms"])
def test_moment_identity_is_the_dense_report(request, fixture, samples):
    # the oracle reduces over the samples, the library over the per-cell
    # draw counts of the same draws: the four sample moments are the same
    # sums in another order, every other entry keeps its bits.  A moment
    # and its standard error are compared relative to the moment, since a
    # deterministic node's error is zero up to the sum's rounding
    sol = request.getfixturevalue(fixture)
    want = reference_moment_identity(sol, samples=samples)
    got = moment_identity(sol, samples=samples)
    assert ("mc" in want) == (samples > 0)
    got_mc, want_mc = got.pop("mc", {}), want.pop("mc", {})
    assert got == want
    assert got_mc.keys() == want_mc.keys()
    for key, w in want_mc.items():
        if key in ("mean", "mean_se", "second", "second_se"):
            scale = abs(want_mc[key.removesuffix("_se")])
            assert abs(got_mc[key] - w) <= 1e-12 * scale
        else:
            assert got_mc[key] == w


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_check_forms_no_sample_sized_value_array(single_atom):
    # the cross-check streams per-cell draw counts in fixed chunks and
    # reduces over them, so its peak stays under one byte per sample: far
    # from a one-shot draw's 16 bytes per sample, or the complex value
    # arrays of `samples` entries a per-sample reduction forms
    samples = 1_000_000
    moment_identity(single_atom, samples=1)  # one-time allocations
    peak = _traced_peak(lambda: moment_identity(single_atom,
                                                samples=samples))
    assert peak < samples


def test_kernel_diagonal_is_the_residual_route_bit_for_bit(two_atoms):
    # the moment identity reads _kdiag and the residuals read
    # _diagonal_terms; both sum K's separated terms in order at x = y
    sol, margin = two_atoms, 2
    win = interior_slices(sol.grid.counts, range(sol.grid.n), margin)
    for kf, kdiag in zip(sol.kernels, sol._kdiag):
        d = _diagonal_terms(kf.terms, kf.config.dirac_spec(), sol.grid,
                            margin)
        assert np.array_equal(kdiag[win], d[0])


def _time_residuals_of(sol, margin, t_rows):
    """_time_residuals with the inputs residual_suite gives it."""
    qphis = [_q_time_apply(phi, sol.grid.tau, sol.spec.c)
             for phi in sol._phi]
    terms = [_diagonal_terms(kf.terms, kf.config.dirac_spec(), sol.grid,
                             margin) for kf in sol.kernels]
    return _time_residuals(sol, margin, t_rows, qphis, terms)


@pytest.mark.parametrize("fixture, margin, t_rows", [
    ("single_atom", 8, 2),
    ("two_atoms", 2, 2),
])
def test_factored_scalar_residuals_match_dense_reference(request, fixture,
                                                         margin, t_rows):
    # the two-atom case has the j != l cross terms of (E u)^2
    sol = request.getfixturevalue(fixture)
    res = _time_residuals_of(sol, margin, t_rows)
    got = (res["diagonal_mean"], res["diagonal_expect"])
    want = reference_scalar_residuals(sol, margin, t_rows)
    for g, w in zip(got, want):
        assert w > 0.0
        assert abs(g - w) <= 1e-6 * w


def test_verify_path_stays_below_one_time_space_array():
    # residual_suite and moment_identity keep E u, (E u)^2 and E u^2 as
    # time and space factors: their peak stays below one complex array on
    # the t_count x N^n diagonal grid
    point = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    measure = measure_for_atoms([point], _SPEC, (1.0,))
    sol = assemble_u([point], measure, _SPEC.grid(41, 129), _SPEC, _W0)
    tracemalloc.start()
    try:
        residual_suite(sol, collar=2.0, t_collar=0.25)
        moment_identity(sol, samples=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 129 * 41 ** 2 * 16


def test_residual_suite_peak_stays_flat_in_t_count(monkeypatch):
    # the time-varying residuals are summed one time row at a time from
    # per-atom time weights and window fields, with Q(d/dt) phi_j formed
    # once per atom: a fourfold t_count leaves the traced peak flat
    point = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    measure = measure_for_atoms([point], _SPEC, (1.0,))
    q_time_apply, calls = cdburgers.workbench._q_time_apply, []
    monkeypatch.setattr(cdburgers.workbench, "_q_time_apply",
                        lambda *a: calls.append(a) or q_time_apply(*a))
    peaks = []
    for t_count in (129, 513):
        sol = assemble_u([point], measure, _SPEC.grid(41, t_count), _SPEC,
                         _W0)
        residual_suite(sol, collar=2.0, t_collar=0.25)  # one-time allocations
        calls.clear()
        peaks.append(_traced_peak(
            lambda: residual_suite(sol, collar=2.0, t_collar=0.25)))
        assert len(calls) == 1
    assert peaks[1] <= 1.1 * peaks[0]


def test_s0f_max_stays_below_one_pair_window_array():
    # the S_0 F max is read at x = y, so the suite's peak stays below one
    # complex array on the window^{2n} nodes
    point = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    measure = measure_for_atoms([point], _SPEC, (1.0,))
    sol = assemble_u([point], measure, _SPEC.grid(41, 17), _SPEC, _W0)
    res = {}
    peak = _traced_peak(lambda: res.update(residual_suite(sol)))
    window = 41 - 2 * res["collar_cells"]
    assert peak < window ** 4 * 16


@pytest.mark.parametrize("layer, n, counts", [
    pytest.param(layer, n, counts, id=f"{n}-counts{n - 2}" if
                 layer == "residual_suite" else f"{layer}-{n}")
    for layer in ("residual_suite", "solve_K", "estimate_A_norm",
                  "moment_identity")
    for n, counts in ((2, (21, 41, 81)), (3, (21, 31, 41)))])
def test_residual_suite_peak_scales_as_n_in_count(layer, n, counts):
    # at collar 0 the window spans all but 16 cells of each axis; every
    # residual is read at x = y from N^n factors, so the first call's traced
    # peak grows as N^n (measured slopes 1.9-2.1 at n = 2, 2.9-3.1 at
    # n = 3), and a pair-window array (N^{2n-1} or more) fails the bound;
    # the kernel solve, its norm bound and the moment identity stay on V
    # too (slopes 1.8-2.0 at n = 2, 2.6-3.0 at n = 3)
    spec = dataclasses.replace(_SPEC, n=n)
    point = SpectralPoint.matched(spec, (1.0, -0.5))
    measure = measure_for_atoms([point], spec, (1.0,))
    cfg = atom_kernel_config(point, spec, (0.0,) * n)
    peaks = []
    for count in counts:
        grid = spec.grid(count, 9)
        if layer in ("solve_K", "estimate_A_norm"):
            call = getattr(cdburgers.kernel, layer)
            peaks.append(_traced_peak(lambda: call(cfg, grid)))
            continue
        sol = assemble_u([point], measure, grid, spec, (0.0,) * n)
        call = (moment_identity if layer == "moment_identity" else
                lambda sol: residual_suite(sol, collar=0.0))
        peaks.append(_traced_peak(lambda: call(sol)))
    slopes = [np.log(p1 / p0) / np.log(c1 / c0) for p0, p1, c0, c1
              in zip(peaks, peaks[1:], counts, counts[1:])]
    assert all(s <= n + 0.5 for s in slopes), slopes


# -- residual suite ------------------------------------------------------------


def test_q_time_apply_lower_coefficients_at_fourth_order():
    # Q(d/dt) e^{mu t} = Q(mu) e^{mu t}, Q(s) = s^2 + c_2 s + c_1: the
    # lower coefficients weigh the lower derivatives, and the rows that no
    # one-sided stencil reaches converge at the stencil's order
    mu, c = -0.7 + 0.5j, (0.3, -0.4)
    errs = []
    for t_count in (33, 65, 129):
        t = np.linspace(0.0, 1.0, t_count)
        got = _q_time_apply(np.exp(mu * t), t[1], c)
        want = (mu * mu + c[1] * mu + c[0]) * np.exp(mu * t)
        errs.append(np.max(np.abs(got - want)[4:-4]))
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    assert min(orders) >= 3.5, orders


def test_residual_suite_window_errors(single_atom):
    with pytest.raises(ValueError, match="grid too coarse"):
        residual_suite(single_atom, collar=3.0)
    with pytest.raises(ValueError, match="too few time samples"):
        residual_suite(single_atom, collar=2.0, t_collar=0.9)


def test_residual_suite_values(single_atom):
    res = residual_suite(single_atom, collar=2.0, t_collar=0.25)
    assert res["collar_cells"] == 8
    assert res["t_rows"] == 2
    assert res["h"] == 0.25
    assert res["tau"] == 0.125
    for key in ("linear", "pair", "expectation", "diagonal_mean",
                "diagonal_expect"):
        assert np.isfinite(res[key])
        assert res[key] >= 0.0
    # coarse-grid magnitudes for this configuration sit well below the
    # kernel scale but above machine precision
    assert res["pair"] < 1e-3
    assert res["pair"] > 1e-12
    assert res["diagonal_mean"] < 1e-2
    # the nonlinear data differ between the two quadratic routes only at
    # the coupling scale, so both diagonal residuals must be close
    assert res["diagonal_expect"] == pytest.approx(res["diagonal_mean"],
                                                   rel=1e-6)


@pytest.mark.parametrize("fixture, margin, t_rows", [
    ("single_atom", 8, 2),
    ("two_atoms", 2, 2),
])
def test_expectation_residual_matches_per_row_reference(request, fixture,
                                                        margin, t_rows):
    # the library takes the window values from K's separated terms; on the
    # count-21 window the h^-4 stencils magnify the rounding of the dense K
    # to about 2e-10 relative, at count 11 they do not
    sol = request.getfixturevalue(fixture)
    want = reference_expectation_residual(sol, margin, t_rows)
    got = _time_residuals_of(sol, margin, t_rows)["expectation"]
    assert want > 0.0
    rtol = 1e-8 if fixture == "single_atom" else 1e-12
    assert abs(got - want) <= rtol * want


def _factored_pair(kf, grid, margin):
    """aux_residual on a window of `margin` cells, any margin."""
    d = _diagonal_terms(kf.terms, kf.config.dirac_spec(), grid, margin)
    return float(np.max(np.abs(_aux_lhs(d, kf.config.a, kf.config.q))))


@pytest.mark.parametrize("fixture, margin", [
    ("single_atom", 8),
    ("two_atoms", 2),
])
def test_pair_residual_matches_dense_reference(request, fixture, margin):
    sol = request.getfixturevalue(fixture)
    for kf in sol.kernels:
        want = reference_aux_residual(kf, sol.grid, margin)
        got = _factored_pair(kf, sol.grid, margin)
        assert want > 0.0
        assert abs(got - want) <= 1e-8 * want


def _extended_lhs(kf, grid, margin):
    """The auxiliary-equation left side at x = y in extended precision:
    K = sum_t u_t v_t formed densely from the separated terms, scalar
    sigma_slot^2 = -sum_c psi^2 D_c D_c per slot, and pi_1 sigma_slot
    = -psi D along the first axis of each slot."""
    n, cfg, h = grid.n, kf.config, grid.spacings
    spec = cfg.dirac_spec()
    K = sum(np.multiply.outer(u.astype(np.clongdouble),
                              v.astype(np.clongdouble)) for u, v in kf.terms)

    def lap(x):
        out = np.zeros_like(x)
        for j in spec.active:
            c, psi = spec.axis_for_basis(j, n), spec.weights[j]
            for ax in (c, n + c):
                out -= _d1(_d1(x, ax, h[c]) * psi, ax, h[c]) * psi
        return out

    lk = lap(K)
    k2 = K * K
    psi = spec.weights[spec.basis_for_axis(0, n)]
    sig = -psi * (_d1(k2, 0, h[0]) + _d1(k2, n, h[0]))
    q1, q2 = cfg.q
    lhs = (cfg.a[0] * lap(lk) + cfg.a[1] * lk + cfg.a[2] * K + q1 * sig
           + q2 * k2)
    return _diagonal_pair(lhs, n, margin, grid.counts)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17,
                    reason="no extended-precision long double here")
def test_factored_pair_residual_is_at_least_as_precise_as_dense(two_atoms):
    # the dense route differentiates the rounded dense K; the factored one
    # differentiates the separated terms the extended value is built from
    sol, margin = two_atoms, 2
    kf = sol.kernels[0]
    ext = float(np.max(np.abs(_extended_lhs(kf, sol.grid, margin))))
    fact = _factored_pair(kf, sol.grid, margin)
    dense = float(np.max(np.abs(_diagonal_pair(
        reference_lhs_field(kf.K, kf.config), 2, margin, sol.grid.counts))))
    assert ext > 0.0
    assert abs(fact - ext) <= abs(dense - ext)


@pytest.mark.parametrize("atoms, collar, oblique", [
    pytest.param(1, 2.0, False, id="1"),
    pytest.param(2, 2.0, False, id="2"),
    pytest.param(1, 0.0, False, id="1-collar0"),
    pytest.param(1, 2.0, True, id="1-oblique"),
    pytest.param(2, 0.0, True, id="2-collar0-oblique"),
])
def test_linear_residual_matches_dense_s0f_reference(single_atom, monkeypatch,
                                                     atoms, collar, oblique):
    # the suite reads S_0 F at x = y from the factors of F = f(x) f(y); the
    # reference applies S_{2,a} to the dense midpoint pair field on all of
    # V x V and takes the max over the whole pair window, also at collar 0
    # (the widest window) and for an oblique kappa of the same length
    sol = single_atom
    if oblique:
        k = -characteristic_kappa(_SPEC)[0] / np.sqrt(2.0)
        monkeypatch.setattr(cdburgers.workbench, "characteristic_kappa",
                            lambda spec: (-k, -k))
    if atoms == 2 or oblique:
        points = [SpectralPoint.matched(_SPEC, lam)
                  for lam in ((1.0, -0.5), (1.0, -1.0))[:atoms]]
        probs = (1.0,) if atoms == 1 else (0.25, 0.75)
        measure = measure_for_atoms(points, _SPEC, probs, seed=5)
        sol = assemble_u(points, measure, _SPEC.grid(21, 9), _SPEC, _W0)
    assert (sol.kernels[0].config.kappa[1] != 0.0) == oblique
    res = residual_suite(sol, collar=collar, t_collar=0.25)
    want = reference_linear_residual(sol, res["collar_cells"], res["t_rows"])
    assert want > 0.0
    assert abs(res["linear"] - want) <= 1e-8 * want


def test_residual_suite_stencil_calls_do_not_grow_with_time_rows(
        single_atom, monkeypatch):
    point = single_atom.atoms[0]
    longer = assemble_u([point], single_atom.measure, _SPEC.grid(21, 13),
                        _SPEC, _W0)
    calls = []
    original = cdburgers.calculus.diff_axis

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (cdburgers.calculus, cdburgers.kernel, cdburgers.workbench):
        monkeypatch.setattr(module, "diff_axis", counted)
    counts = []
    for sol in (single_atom, longer):
        calls.clear()
        residual_suite(sol)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_residual_suite_works_on_v_sized_arrays(single_atom, monkeypatch):
    # every stencil of the suite runs on V (or V x time) arrays, none on
    # the N^{2n} pair grid
    sizes = []
    original = cdburgers.calculus._d1

    def recorded(values, axis, h):
        sizes.append(values.size)
        return original(values, axis, h)

    for module in (cdburgers.calculus, cdburgers.kernel):
        monkeypatch.setattr(module, "_d1", recorded)
    residual_suite(single_atom)
    assert sizes
    assert max(sizes) < 21 ** 4


def test_verify_path_forms_no_pair_sized_array(monkeypatch):
    # assembly, the residual suite and the moment identity read each kernel
    # through its separated terms: no expansion on the N^{2n} pair nodes
    shapes, mids = [], []
    separated = cdburgers.kernel._separated
    midpoint = cdburgers.kernel.midpoint_pair_field

    def expanded(gs, V, index):
        shapes.append(np.broadcast_shapes(*(i.shape for i in index)))
        return separated(gs, V, index)

    def counted(*args, **kwargs):
        mids.append(1)
        return midpoint(*args, **kwargs)

    monkeypatch.setattr(cdburgers.kernel, "_separated", expanded)
    monkeypatch.setattr(cdburgers.kernel, "midpoint_pair_field", counted)
    point = SpectralPoint.matched(_SPEC, (1.0, -0.5))
    measure = measure_for_atoms([point], _SPEC, (1.0,))
    sol = assemble_u([point], measure, _SPEC.grid(21, 9), _SPEC, _W0)
    residual_suite(sol)
    moment_identity(sol)
    assert shapes
    assert max(int(np.prod(s)) for s in shapes) < 21 ** 4
    assert not mids


def test_assemble_rejects_algebra_valued_kernels_before_solving(
        monkeypatch):
    # varsigma != 0 gives p_2 != 0, so the kernels are algebra-valued
    spec = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1e-5,
                              varsigma=2e-6, c=(0.0,), n=2, lo=-0.5, hi=4.5)
    point = SpectralPoint.matched(spec, (1.0, -0.5))
    measure = measure_for_atoms([point], spec, (1.0,))

    def refused(*args, **kwargs):
        raise AssertionError("solve_K ran")

    monkeypatch.setattr(cdburgers.workbench, "solve_K", refused)
    with pytest.raises(ValueError, match="needs scalar kernels"):
        assemble_u([point], measure, spec.grid(11, 7), spec, _W0)


def test_pair_residual_agrees_with_kernel_route(single_atom):
    sol = single_atom
    want = aux_residual(sol.kernels[0], sol.grid, collar=2.0)
    res = residual_suite(sol, collar=2.0, t_collar=0.25)
    assert res["pair"] == want


# -- refinement studies --------------------------------------------------------


def test_refinement_study_repeated_level_is_deterministic():
    rows = refinement_study(_SPEC, (1.0, -0.5), [(21, 9), (21, 9)], _W0,
                            collar=2.0, t_collar=0.25)
    assert len(rows) == 2
    first, second = rows
    for key in ("linear", "pair", "expectation", "diagonal_mean",
                "diagonal_expect"):
        assert second[key] == first[key]
        assert second[f"{key}_ratio"] == 1.0
    assert "linear_ratio" not in first
    assert first["mean_square_exact"] is True
    assert first["structure_gap"] == 0.0


def test_study_csv_layout_and_float_round_trip():
    rows = [
        {"count": 5, "t_count": 5, "h": 0.5, "tau": 0.25,
         "linear": 1.25e-3, "pair": 2.5e-4, "expectation": 3.5e-5,
         "diagonal_mean": 4.5e-6, "diagonal_expect": 5.5e-7},
        {"count": 9, "t_count": 9, "h": 0.25, "tau": 0.125,
         "linear": 6.25e-5, "pair": 1.25e-5, "expectation": 1.75e-6,
         "diagonal_mean": 2.25e-7, "diagonal_expect": 2.75e-8,
         "linear_ratio": 0.05, "pair_ratio": 0.05,
         "expectation_ratio": 0.05, "diagonal_mean_ratio": 0.05,
         "diagonal_expect_ratio": 0.05},
    ]

    def table():
        return _csv_text(REFINEMENT_COLUMNS, (
            [row.get(k) for k in REFINEMENT_COLUMNS] for row in rows))

    text = table()
    lines = text.splitlines()
    assert lines[0].startswith("count,t_count,h,tau,linear,pair")
    assert lines[0].count(",") == 13
    cells = lines[1].split(",")
    assert cells[0] == "5"
    assert float(cells[4]) == 1.25e-3
    assert cells[10] == ""  # no ratios on the first level
    assert float(lines[2].split(",")[10]) == 0.05
    assert table() == text
