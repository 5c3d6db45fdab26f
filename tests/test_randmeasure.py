"""Tests for finite atomic random operator valued measures.

The two-cell distribution is enumerated by hand first (two equally likely
index outcomes) and every Monte Carlo claim is checked against that
enumeration within three standard errors.
"""

import numpy as np
import pytest
from oracles import (
    reference_apply_H,
    reference_coefficients,
    reference_integrate_step,
)

from cdburgers.calculus import DiracSpec, Grid, GridField, dirac_apply
from cdburgers.randmeasure import (
    AtomicRandomMeasure,
    Partition,
    Realizations,
    StructuralMeasure,
    WeightedMeasure,
    expectation,
    fubini_check,
    integrate_step,
    moments,
    sample_H,
    sample_counts,
    structural_function,
    xi_from_rule,
)


def _two_cell(xi=(1.0, 1.0), p=(0.5, 0.5), seed=42, multiplier=None):
    part = Partition(reps=((1.0, 0.5, 0.3, 0.2), (2.0, -0.5, 0.1, 0.4)))
    return AtomicRandomMeasure(partition=part, p=p, xi=xi,
                               multiplier=multiplier, seed=seed)


def _enumerated_moments(measure):
    """Closed-form moments of the coefficient vector, by enumerating the
    index outcomes: E c_j = xi_j p_j, E c_i c_j = delta_ij xi_j^2 p_j."""
    J = measure.size
    first = [measure.xi[j] * measure.p[j] for j in range(J)]
    second = [[(measure.xi[i] ** 2 * measure.p[i] if i == j else 0.0)
               for j in range(J)] for i in range(J)]
    return first, second


# -- sampling ------------------------------------------------------------------


def test_single_cell_is_deterministic():
    part = Partition(reps=((1.0, 1.0, 1.0, 1.0),))
    meas = AtomicRandomMeasure(partition=part, p=(1.0,), xi=(1.0,), seed=3)
    real = sample_H(meas, 50)
    c = real.coefficients()
    assert np.all(c == 1.0)


def test_sampling_is_reproducible_from_the_seed():
    meas = _two_cell()
    a = sample_H(meas, 1000).draws
    b = sample_H(meas, 1000).draws
    assert np.array_equal(a, b)


def test_two_cell_mean_matches_enumeration_within_three_sigma():
    meas = _two_cell()
    real = sample_H(meas, 100000)
    c = real.coefficients()
    first, _ = _enumerated_moments(meas)
    mean, se = expectation(c[:, 0])
    assert abs(mean - first[0]) <= 3.0 * se


def test_disjoint_union_additivity_is_exact_per_sample():
    meas = _two_cell(xi=(0.7, -1.3))
    real = sample_H(meas, 500)
    x = np.array([1.0, 2.0, -0.5])
    joint = real.apply_H((0, 1), x)
    split = real.apply_H((0,), x) + real.apply_H((1,), x)
    assert np.array_equal(joint, split)


def test_empty_set_maps_to_exact_zero():
    meas = _two_cell()
    real = sample_H(meas, 100)
    assert np.all(real.apply_H((), np.array([1.0])) == 0.0)


def test_coefficient_orthogonality_holds_per_sample():
    meas = _two_cell(xi=(1.5, 2.5))
    real = sample_H(meas, 10000)
    c = real.coefficients()
    assert np.all(c[:, 0] * c[:, 1] == 0.0)


def test_delta_identity_analytic_and_monte_carlo():
    meas = _two_cell(xi=(1.5, 0.5), p=(0.3, 0.7))
    first, second = _enumerated_moments(meas)
    for j in range(2):
        # E c_j^2 = xi_j E c_j as numbers
        assert second[j][j] == pytest.approx(meas.xi[j] * first[j],
                                             rel=1e-15)
    real = sample_H(meas, 100000)
    c = real.coefficients()
    for j in range(2):
        mean, se = expectation(c[:, j] ** 2)
        assert abs(mean - second[j][j]) <= 3.0 * se


# -- structural function -------------------------------------------------------


def test_structural_function_restricts_to_the_intersection():
    meas = _two_cell(xi=(1.5, 0.5), p=(0.3, 0.7))
    atoms = meas.structural_cells()
    assert structural_function(meas, (0, 1), (0,)) == atoms[0]
    assert structural_function(meas, (0,), (1,)) == 0.0
    whole = structural_function(meas, (0, 1), (0, 1))
    assert whole == pytest.approx(
        abs(1.5) ** 2 * 0.3 + abs(0.5) ** 2 * 0.7, rel=1e-15)


def test_structural_atoms_are_nonnegative():
    meas = _two_cell(xi=(-2.0, 1.0 + 1.0j), p=(0.4, 0.6))
    for a in meas.structural_cells():
        assert a >= 0.0


def test_structural_additivity_over_disjoint_cells_is_exact():
    meas = _two_cell(xi=(1.5, 0.5))
    sm = StructuralMeasure(meas)
    assert sm.value((0, 1)) == sm.value((0,)) + sm.value((1,))


def test_structural_cauchy_schwarz():
    meas = _two_cell(xi=(1.5, 0.5), p=(0.3, 0.7))
    sm = StructuralMeasure(meas)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mxy = abs(sm.bilinear((0, 1), x, y))
        mxx = sm.bilinear((0, 1), x, x).real
        myy = sm.bilinear((0, 1), y, y).real
        assert mxy <= np.sqrt(mxx * myy) * (1.0 + 1e-12)


def test_structural_function_agrees_with_monte_carlo():
    meas = _two_cell(xi=(1.5, 0.5), p=(0.3, 0.7))
    real = sample_H(meas, 100000)
    x = np.array([1.0])
    prods = (np.conj(real.apply_H((0, 1), x))
             * real.apply_H((0, 1), x))[:, 0]
    mean, se = expectation(prods)
    assert abs(mean - structural_function(meas, (0, 1), (0, 1))) <= 3.0 * se


def test_misaligned_cell_sets_are_rejected():
    meas = _two_cell()
    with pytest.raises(ValueError, match="outside the partition"):
        structural_function(meas, (0, 5), (0,))


# -- step-function integrals ---------------------------------------------------


def test_zero_step_function_integrates_to_zero():
    meas = _two_cell()
    real = sample_H(meas, 200)
    out = integrate_step(meas, real, [0.0, 0.0])
    assert np.all(out == 0.0)


def test_single_cell_step_integral_is_deterministic():
    part = Partition(reps=((1.0, 1.0, 1.0, 1.0),))
    meas = AtomicRandomMeasure(partition=part, p=(1.0,), xi=(0.7,), seed=9)
    real = sample_H(meas, 25)
    a = np.array([2.0, 3.0])
    out = integrate_step(meas, real, [a])
    assert np.all(out == 0.7 * a)


def test_two_cell_isometry_identity_exact_on_exact_floats():
    # with powers of two everywhere both float pipelines are exact
    meas = _two_cell(xi=(2.0, 0.5), p=(0.5, 0.5))
    f = [4.0, 2.0]
    g = [1.0, 8.0]
    lhs = 0.0
    for j in range(2):
        psi_f = meas.xi[j] * f[j]
        psi_g = meas.xi[j] * g[j]
        lhs += meas.p[j] * psi_f * np.conj(psi_g)
    rhs = sum(atom * f[j] * np.conj(g[j])
              for j, atom in enumerate(meas.structural_cells()))
    assert lhs == rhs


def test_isometry_identity_on_random_data():
    meas = _two_cell(xi=(1.3, -0.4), p=(0.25, 0.75))
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = sum(meas.p[j] * (meas.xi[j] * f[j])
                  * np.conj(meas.xi[j] * g[j]) for j in range(2))
        rhs = sum(atom * f[j] * np.conj(g[j])
                  for j, atom in enumerate(meas.structural_cells()))
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)


def test_isometry_against_monte_carlo():
    meas = _two_cell(xi=(1.3, -0.4), p=(0.25, 0.75))
    real = sample_H(meas, 100000)
    f = [1.0 + 0.5j, -0.7]
    g = [0.4, 2.0 - 1.0j]
    pf = integrate_step(meas, real, f)
    pg = integrate_step(meas, real, g)
    mean, se = expectation(pf * np.conj(pg))
    rhs = sum(atom * f[j] * np.conj(g[j])
              for j, atom in enumerate(meas.structural_cells()))
    assert abs(mean - rhs) <= 3.0 * se


def test_integral_linearity_exact_on_exact_floats():
    meas = _two_cell(xi=(2.0, 0.5))
    real = sample_H(meas, 300)
    f = np.array([4.0, -2.0])
    g = np.array([1.0, 8.0])
    a, b = 2.0, -0.5
    combined = integrate_step(meas, real, a * f + b * g)
    split = a * integrate_step(meas, real, f) + b * integrate_step(
        meas, real, g)
    assert np.array_equal(combined, split)


# -- weighted measures ---------------------------------------------------------


def test_unit_weight_reproduces_the_measure():
    meas = _two_cell(xi=(1.5, 0.5))
    real = sample_H(meas, 400)
    wm = WeightedMeasure(meas, [1.0, 1.0])
    eta = wm.eta((0, 1), real)
    direct = real.apply_H((0, 1), np.array(1.0))
    assert np.array_equal(eta, direct)


def test_weighted_structural_of_whole_space():
    meas = _two_cell(xi=(1.5, 0.5), p=(0.3, 0.7))
    wm = WeightedMeasure(meas, [1.0, 1.0])
    assert wm.structural((0, 1)) == pytest.approx(
        sum(meas.structural_cells()), rel=1e-15)


def test_weighted_integral_is_the_same_sum_reordered():
    meas = _two_cell(xi=(1.3, -0.4))
    real = sample_H(meas, 1000)
    g = (1.3 + 0.2j, -0.4)
    f = (0.9, 2.0 - 1.0j)
    wm = WeightedMeasure(meas, g)
    lhs = wm.integrate(f, real)
    rhs = integrate_step(meas, real, [f[j] * np.asarray(g[j])
                                      for j in range(2)])
    assert np.array_equal(lhs, rhs)


# -- iterated integrals --------------------------------------------------------


def test_fubini_zero_weight():
    meas = _two_cell()
    real = sample_H(meas, 50)
    g = np.ones((5, 2))
    rep = fubini_check(meas, real, g, np.zeros(5), np.full(5, 0.2))
    assert np.all(rep["lhs"] == 0.0)
    assert np.all(rep["rhs"] == 0.0)


def test_fubini_single_cell_matches_scalar_quadrature():
    part = Partition(reps=((1.0, 1.0, 1.0, 1.0),))
    meas = AtomicRandomMeasure(partition=part, p=(1.0,), xi=(0.7,), seed=2)
    real = sample_H(meas, 8)
    tau = np.linspace(0.0, 1.0, 6)
    w = np.full(6, 1.0 / 6.0)
    h = np.cos(tau)
    wtau = np.sin(tau) + 0.5
    g = wtau[:, None]
    rep = fubini_check(meas, real, g, h, w)
    scalar = 0.7 * float(np.sum(w * h * wtau))
    assert np.allclose(rep["lhs"], scalar, rtol=1e-13)
    assert rep["max_gap"] <= 1e-12


def test_fubini_random_cellwise_data():
    meas = _two_cell(xi=(1.1, -0.6), p=(0.4, 0.6))
    real = sample_H(meas, 10)
    rng = np.random.default_rng(23)
    g = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    h = rng.standard_normal(7)
    rep = fubini_check(meas, real, g, h, np.full(7, 0.125))
    assert rep["max_gap"] <= 1e-12


# -- expectation reduction -----------------------------------------------------


def test_expectation_of_a_constant():
    mean, se = expectation(np.full(100, 2.5))
    assert mean == 2.5
    assert se == 0.0


def test_expectation_linearity_on_exact_floats():
    rng = np.random.default_rng(2)
    f = rng.integers(-8, 8, size=64).astype(float)
    g = rng.integers(-8, 8, size=64).astype(float)
    mf, _ = expectation(f)
    mg, _ = expectation(g)
    mc, _ = expectation(2.0 * f + 0.5 * g)
    assert mc == 2.0 * mf + 0.5 * mg


def test_expectation_requires_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        expectation(np.zeros((0, 3)))


def _three_cell(seed=9):
    part = Partition(reps=((1.0, 0.5, 0.3, 0.2), (2.0, -0.5, 0.1, 0.4),
                           (0.5, 1.5, -0.2, 0.3)))
    return AtomicRandomMeasure(partition=part, p=(0.2, 0.3, 0.5),
                               xi=(1.0, -0.5j, 2.0), seed=seed)


@pytest.mark.parametrize("count", [2, 7, 5000])
def test_count_moments_match_the_per_sample_reduction(count):
    # the same draws reduced over cell counts instead of over samples
    real = sample_H(_three_cell(), count)
    v = np.array([0.3 - 1.2j, 2.5 + 0.1j, -0.7 + 0.0j])
    for values in (v, v * v):
        mean, se = moments(np.bincount(real.draws, minlength=3), values)
        want_mean, want_se = expectation(values[real.draws])
        assert abs(mean - want_mean) <= 1e-12 * abs(want_mean)
        assert abs(se - want_se) <= 1e-12 * abs(want_se)


def test_count_moments_of_one_draw_have_zero_error():
    real = sample_H(_three_cell(), 1)
    v = np.array([0.3 - 1.2j, 2.5 + 0.1j, -0.7 + 0.0j])
    mean, se = moments(np.bincount(real.draws, minlength=3), v)
    assert mean == v[real.draws[0]]
    assert se == 0.0


@pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 3 * 8192 + 5])
@pytest.mark.parametrize("meas", [
    AtomicRandomMeasure(partition=Partition(reps=((1.0,),)),
                        p=(1.0,), xi=(2.0,), seed=5),
    _two_cell(p=(0.0, 1.0), seed=11),
    _three_cell(),
], ids=["one-cell", "two-cell-zero-p", "three-cell"])
def test_streamed_counts_are_the_counts_of_the_one_shot_draw(meas, count):
    # the chunked stream reads the same uniforms as one draw of `count`,
    # across and at the chunk boundaries
    want = np.bincount(sample_H(meas, count).draws, minlength=meas.size)
    assert np.array_equal(sample_counts(meas, count), want)


# -- operator-valued cells -----------------------------------------------------


def test_gathers_match_the_per_cell_mask_loops_with_array_multipliers():
    # each cell multiplies by its own real field; the gathers of the
    # per-cell table are the mask loops' arrays entry for entry
    rng = np.random.default_rng(31)
    mult = tuple(rng.standard_normal(4) for _ in range(3))
    meas = AtomicRandomMeasure(partition=_three_cell().partition,
                               p=(0.2, 0.3, 0.5), xi=(1.0, -0.5j, 2.0),
                               multiplier=mult, seed=4)
    real = sample_H(meas, 300)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for cells in ((), (1,), (0, 2), (0, 1, 2)):
        got = real.apply_H(cells, x)
        assert got.shape == (300, 4)
        assert np.array_equal(got, reference_apply_H(real, cells, x))
    values = [rng.standard_normal(4), 0.5 - 1.0j, rng.standard_normal(4)]
    got = integrate_step(meas, real, values)
    assert got.shape == (300, 4)
    assert np.array_equal(got, reference_integrate_step(meas, real, values))
    assert np.array_equal(real.coefficients(), reference_coefficients(real))
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    rep = fubini_check(meas, real, g, rng.standard_normal(5),
                       np.full(5, 0.25))
    assert rep["lhs"].shape == (300, 4)
    assert rep["max_gap"] <= 1e-12 * rep["scale"]


# -- commutation with grid operators -------------------------------------------


def test_measure_action_commutes_with_grid_operators():
    # xi a power of two makes both orders bitwise equal
    meas = _two_cell(xi=(2.0, 0.5))
    real = sample_H(meas, 6)
    g = Grid.box(1, 0.0, 1.0, 9)
    spec = DiracSpec.standard(1)
    f = GridField.from_function(g, "x", lambda x: np.sin(2.0 * x))
    sf = dirac_apply(f, spec).values
    for s in range(real.count):
        j = real.draws[s]
        c = meas.xi[j]
        scaled_first = dirac_apply(
            GridField(g, "x", c * f.values), spec).values
        assert np.array_equal(scaled_first, c * sf)


# -- the amplitude rule and serialization --------------------------------------


def test_amplitude_rule_cases():
    rep = (2.0, 1.0, 1.0, 0.5, 0.25)
    assert xi_from_rule(rep, m=2, gamma=3.0) == pytest.approx(1.5)
    assert xi_from_rule(rep, m=2, varsigma=1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="gamma != 0 or varsigma != 0"):
        xi_from_rule(rep, m=2)
    with pytest.raises(ZeroDivisionError):
        xi_from_rule((2.0, 1.0, 1.0, 0.0, 0.25), m=2, gamma=1.0)
    with pytest.raises(ValueError, match="entries"):
        xi_from_rule((1.0, 2.0), m=2, gamma=1.0)
    with pytest.raises(ValueError, match="m >= 1"):
        xi_from_rule((2.0,), m=-2, gamma=1.0)


# -- validation ----------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError, match="at least one cell"):
        Partition(reps=())
    with pytest.raises(ValueError, match="mixed dimensions"):
        Partition(reps=((1.0, 2.0), (1.0,)))


def test_measure_validation():
    part = Partition(reps=((1.0, 1.0), (2.0, 2.0)))
    with pytest.raises(ValueError, match="sum to 1"):
        AtomicRandomMeasure(partition=part, p=(0.5, 0.6), xi=(1.0, 1.0))
    with pytest.raises(ValueError, match="sum to 1"):
        AtomicRandomMeasure(partition=part, p=(-0.5, 1.5), xi=(1.0, 1.0))
    with pytest.raises(ValueError, match="match the cells"):
        AtomicRandomMeasure(partition=part, p=(1.0,), xi=(1.0,))
    with pytest.raises(ValueError, match="real valued"):
        AtomicRandomMeasure(partition=part, p=(0.5, 0.5), xi=(1.0, 1.0),
                            multiplier=(1.0j, 1.0))
    meas = AtomicRandomMeasure(partition=part, p=(0.5, 0.5), xi=(1.0, 1.0))
    with pytest.raises(ValueError, match="positive sample count"):
        sample_H(meas, 0)
    for count in (0, -5):
        with pytest.raises(ValueError, match="positive sample count"):
            sample_counts(meas, count)


@pytest.mark.parametrize("p, xi, message", [
    ((np.nan, 0.5), (1.0, 1.0), "probabilities p must be >= 0 and sum to 1"),
    ((0.5, np.nan), (1.0, 1.0), "probabilities p must be >= 0 and sum to 1"),
    ((np.inf, 0.5), (1.0, 1.0), "probabilities p must be >= 0 and sum to 1"),
    ((0.5, 0.5), (1.0, np.nan), r"amplitudes xi must be finite, got \(1.0, "),
    ((0.5, 0.5), (-np.inf, 1.0), r"amplitudes xi must be finite, got \(-inf"),
    ((0.5, 0.5), (complex(1.0, np.nan), 1.0), "amplitudes xi must be finite"),
], ids=["p-nan", "p-nan-last", "p-inf", "xi-nan", "xi-inf", "xi-complex-nan"])
def test_measure_refuses_non_finite_weights_by_name(p, xi, message):
    # a NaN probability compares False both to 0 and to the sum tolerance,
    # so the sum check is written to fail on it; the field is named
    part = Partition(reps=((1.0, 1.0), (2.0, 2.0)))
    with pytest.raises(ValueError, match=message):
        AtomicRandomMeasure(partition=part, p=p, xi=xi)


def test_refinement_chain_preserves_identities():
    # structurally finer partitions; the atomic identities hold at every
    # level
    for cells in (2, 4, 8):
        reps = tuple((float(j), 1.0, 1.0, 1.0) for j in range(cells))
        p = tuple(1.0 / cells for _ in range(cells))
        meas = AtomicRandomMeasure(
            partition=Partition(reps=reps),
            p=p, xi=tuple(1.0 for _ in range(cells)), seed=7)
        real = sample_H(meas, 2000)
        c = real.coefficients()
        gram = c.conj().T @ c
        assert np.all(gram - np.diag(np.diag(gram)) == 0.0)
        whole = tuple(range(cells))
        assert structural_function(meas, whole, whole) == pytest.approx(
            1.0, rel=1e-12)
