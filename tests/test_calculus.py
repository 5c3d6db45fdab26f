from __future__ import annotations

import numpy as np
import pytest

from cdburgers.calculus import (
    DiracSpec,
    Grid,
    GridField,
    PathError,
    cumulative_integral,
    diff_axis,
    dirac_apply,
    dump_field,
    interior_slices,
    interval_increments,
    line_integral,
    load_field,
    quad_weights,
    segment_integral,
    sobolev_norm,
    tail_integral,
)
from oracles import laplace_apply


def observed_order(errs, ratio):
    return [np.log(errs[i] / errs[i + 1]) / np.log(ratio)
            for i in range(len(errs) - 1)]


# -- grids -------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(((0.0, 0.0),), (5,))
    with pytest.raises(ValueError):
        Grid(((0.0, 1.0),), (1,))
    with pytest.raises(ValueError):
        Grid(((0.0, 1.0),), (5,), t_max=1.0)  # t_count missing
    with pytest.raises(ValueError, match="bounds must be finite"):
        Grid(((0.0, np.inf),), (5,))
    with pytest.raises(ValueError, match="bad time axis"):
        Grid(((0.0, 1.0),), (5,), t_max=np.inf, t_count=5)
    g = Grid.box(2, 0.0, 1.0, 5)
    assert g.spacings == (0.25, 0.25)
    assert g.node_index((0.5, 0.75)) == (2, 3)
    with pytest.raises(ValueError):
        g.node_index((0.6, 0.0))  # off-lattice
    with pytest.raises(ValueError):
        g.node_index((1.5, 0.0))  # outside


def test_field_shape_checks():
    g = Grid.box(2, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridField(g, "x", np.zeros((5, 4)))
    f = GridField.zeros(g, "xy")
    assert f.values.shape == (5, 5, 5, 5)
    fa = f.as_algebra(2)
    assert fa.values.shape == (5, 5, 5, 5, 4)
    with pytest.raises(ValueError):
        GridField.zeros(g, "txy")  # no time axis


# -- dirac / laplace ----------------------------------------------------------


def test_dirac_linear_function_exact():
    g = Grid.box(2, 0.0, 1.0, 9)
    f = GridField.from_function(g, "x", lambda x1, x2: x1 + 0 * x2)
    spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
    out = dirac_apply(f, spec)
    # sigma f = i_1^* = -i_1 at every node
    np.testing.assert_allclose(out.values[..., 1], -1.0, atol=1e-12)
    others = np.delete(out.values, 1, axis=-1)
    np.testing.assert_allclose(others, 0.0, atol=1e-12)


def test_dirac_constant_is_zero():
    g = Grid.box(2, 0.0, 1.0, 9)
    f = GridField.from_function(g, "x", lambda x1, x2: 3.0 + 0 * x1 * x2)
    out = dirac_apply(f, DiracSpec.standard(2))
    assert out.max_abs() < 1e-12


def test_dirac_squared_vs_half_laplace():
    # psi_j = 2^{-1/2}: sigma^2 f ~ -1/2 Delta f at 4th order
    errs = []
    for nn in (16, 32, 64):
        g = Grid.box(2, 0.0, 3.0, nn)
        f = GridField.from_function(
            g, "x", lambda x1, x2: np.sin(x1) * np.sin(x2)
        )
        spec = DiracSpec.standard(2)
        s2 = dirac_apply(dirac_apply(f, spec), spec)
        resid = s2.values[..., 0] + 0.5 * laplace_apply(f).values
        sl = interior_slices(resid.shape, (0, 1), 4)
        errs.append(np.max(np.abs(resid[sl])))
        # the mixed i_j i_k terms cancel identically, not just to O(h^4)
        assert np.max(np.abs(s2.values[sl][..., 1:])) < 1e-12
    orders = observed_order(errs, 2.0)
    assert min(orders) > 3.5


def test_dirac_unit_weights_vs_laplace():
    g = Grid.box(2, 0.0, 3.0, 48)
    f = GridField.from_function(
        g, "x", lambda x1, x2: np.exp(0.3 * x1) * np.cos(x2)
    )
    spec = DiracSpec(2, (0.0, 1.0, 1.0, 0.0))
    s2 = dirac_apply(dirac_apply(f, spec), spec)
    resid = s2.values[..., 0] + laplace_apply(f).values
    sl = interior_slices(resid.shape, (0, 1), 4)
    assert np.max(np.abs(resid[sl])) < 2e-4


def test_dirac_slots_on_two_point_field():
    g = Grid.box(2, 0.0, 1.0, 9)
    f = GridField.from_function(
        g, "xy", lambda x1, x2, y1, y2: y1 + 0 * x1 * x2 * y2
    )
    spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
    out_x = dirac_apply(f, spec, slot="x")
    out_y = dirac_apply(f, spec, slot="y")
    assert out_x.max_abs() < 1e-12
    np.testing.assert_allclose(out_y.values[..., 1], -1.0, atol=1e-12)


def test_dirac_real_unit_is_not_conjugated():
    # i_0^* = i_0: a weight on the real unit adds psi_0 df/dx on i_0,
    # where a unit j >= 1 subtracts it on i_j
    g = Grid.box(1, 0.0, 1.0, 9)
    f = GridField.from_function(g, "x", lambda x: 2.0 * x)
    for j, sign in ((0, 1.0), (1, -1.0)):
        weights = tuple(0.5 * (k == j) for k in range(4))
        out = dirac_apply(f, DiracSpec(2, weights, xi=(1, 1, 1, 1)))
        np.testing.assert_allclose(out.values[..., j], sign, atol=1e-12)
        assert not np.any(np.delete(out.values, j, axis=-1))


def test_grid_too_coarse():
    g = Grid.box(1, 0.0, 1.0, 4)
    f = GridField.zeros(g, "x")
    with pytest.raises(ValueError):
        dirac_apply(f, DiracSpec(2, (0.0, 1.0, 0.0, 0.0)))


def test_laplace_polynomials_exact():
    g = Grid.box(2, -1.0, 1.0, 11)
    f = GridField.from_function(g, "x", lambda x1, x2: x1 ** 2 + 0 * x2)
    np.testing.assert_allclose(laplace_apply(f).values, 2.0, atol=1e-11)
    harm = GridField.from_function(g, "x", lambda x1, x2: x1 ** 2 - x2 ** 2)
    np.testing.assert_allclose(laplace_apply(harm).values, 0.0, atol=1e-11)


def test_diff_axis_composes_first_derivatives_above_order_two():
    # order 3 applies the first-derivative stencil three times, exact on a
    # cubic in every row that no one-sided boundary row reaches
    x = np.linspace(-1.0, 1.0, 41)
    d3 = diff_axis(x ** 3, 0, x[1] - x[0], 3)
    np.testing.assert_allclose(d3[6:-6], 6.0, rtol=0, atol=1e-10)
    assert np.max(np.abs(d3[:6] - 6.0)) > 1e-3


def test_laplace_exponential_eigenvalue():
    kappa = np.array([-0.7, 0.4])
    errs = []
    for nn in (24, 48):
        g = Grid.box(2, 0.0, 2.0, nn)
        f = GridField.from_function(
            g, "x",
            lambda x1, x2: np.exp(kappa[0] * x1 + kappa[1] * x2),
        )
        ratio = laplace_apply(f).values / f.values
        sl = interior_slices(ratio.shape, (0, 1), 2)
        errs.append(np.max(np.abs(ratio[sl] - np.dot(kappa, kappa))))
    assert min(observed_order(errs, 2.0)) > 3.5


# -- quadrature ---------------------------------------------------------------


def test_increments_exact_for_cubics():
    h = 0.1
    x = np.arange(12) * h
    f = 2 * x ** 3 - x ** 2 + 4 * x - 1
    inc = interval_increments(f, h)
    exact = np.diff(0.5 * x ** 4 - x ** 3 / 3 + 2 * x ** 2 - x)
    np.testing.assert_allclose(inc, exact, atol=1e-13)


def test_segment_integral_signed_and_additive():
    h = 0.05
    x = np.arange(41) * h
    f = np.exp(-x)
    a = segment_integral(f, h, 0, 40)
    b = segment_integral(f, h, 0, 17) + segment_integral(f, h, 17, 40)
    assert a == b  # additive at quadrature level, bitwise
    assert segment_integral(f, h, 30, 10) == -segment_integral(f, h, 10, 30)
    np.testing.assert_allclose(a, 1 - np.exp(-2.0), atol=1e-7)


def test_cumulative_matches_segment():
    h = 0.1
    rng = np.random.default_rng(3)
    f = rng.standard_normal(23)
    cum = cumulative_integral(f, h)
    for k in (0, 1, 5, 22):
        np.testing.assert_allclose(cum[k], segment_integral(f, h, 0, k),
                                   atol=1e-14)


def test_quad_weights_match_increment_sum():
    h = 0.2
    rng = np.random.default_rng(4)
    for m in (2, 3, 4, 7, 12):
        f = rng.standard_normal(m)
        w = quad_weights(m, h)
        np.testing.assert_allclose(
            np.dot(w, f), interval_increments(f, h).sum(), atol=1e-13
        )


def test_quadrature_order():
    errs = []
    for m in (33, 65, 129):
        x = np.linspace(0.0, 2.0, m)
        f = np.exp(x) * np.sin(2 * x)
        exact = (np.exp(2.0) * (np.sin(4.0) - 2 * np.cos(4.0)) + 2) / 5
        errs.append(abs(segment_integral(f, x[1] - x[0], 0, m - 1) - exact))
    assert min(observed_order(errs, 2.0)) > 3.5


# -- line integrals -----------------------------------------------------------


def test_line_integral_zero_field():
    g = Grid.box(2, 0.0, 1.0, 9)
    f = GridField.zeros(g, "x")
    out = line_integral(f, (0.0, 0.0), (1.0, 0.5), DiracSpec.standard(2))
    assert out.norm_sq() == 0.0


def test_line_integral_constant_path_lengths():
    # f = 1 along the two-segment path: each segment contributes
    # i_b * psi^-1 N^-1 * length
    g = Grid.box(2, 0.0, 2.0, 21)
    f = GridField.from_function(g, "x", lambda x1, x2: 1.0 + 0 * x1 * x2)
    spec = DiracSpec.standard(2)  # psi = 2^-1/2, N = 2
    out = line_integral(f, (0.0, 0.0), (1.5, 0.7), spec)
    scale = np.sqrt(2.0) / 2.0
    want = np.zeros(4, dtype=complex)
    want[1] = scale * 1.5
    want[2] = scale * 0.7
    np.testing.assert_allclose(out.complex_coeffs, want, atol=1e-12)


def test_line_integral_fundamental_theorem():
    # single-coordinate f, path along axis 1, psi_1 = 1:
    # sigma(prefix integral) recovers f at 4th order
    errs = []
    for nn in (21, 41, 81):
        g = Grid.box(2, 0.0, 2.0, nn)
        f = GridField.from_function(
            g, "x", lambda x1, x2: np.exp(-x1) * np.cos(x1) + 0 * x2
        )
        spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
        prefix = np.array([
            line_integral(f, (0.0, 0.0), (x1, 0.0), spec).complex_coeffs
            for x1 in g.axis(0)
        ])
        field = GridField(
            g, "x",
            np.broadcast_to(prefix[:, None, :], (nn, nn, 4)).copy(),
            level=2,
        )
        sig = dirac_apply(field, spec)
        err = np.abs(sig.values[..., 0] - f.values)
        errs.append(err[3:-3, :].max())
    assert min(observed_order(errs, 2.0)) > 3.5


def test_line_integral_reversal_cancels():
    g = Grid.box(2, 0.0, 1.0, 11)
    f = GridField.from_function(g, "x", lambda x1, x2: x1 * x2 + 1.0)
    spec = DiracSpec.standard(2)
    fwd1 = line_integral(f, (0.0, 0.2), (0.8, 0.2), spec)
    back1 = line_integral(f, (0.8, 0.2), (0.0, 0.2), spec)
    assert (fwd1 + back1).norm_sq() == 0.0
    # the reversed polyline takes the opposite corner, so fwd + back is the
    # circulation around the rectangle; for f = x1 x2 + 1 that has the closed
    # form below, and the quadrature is exact on per-segment linear integrands
    fwd = line_integral(f, (0.0, 0.2), (0.8, 0.9), spec)
    back = line_integral(f, (0.8, 0.9), (0.0, 0.2), spec)
    total = (fwd + back).complex_coeffs
    scale = np.sqrt(2.0) / 2.0
    assert total[1] == pytest.approx(scale * (0.2 - 0.9) * 0.8 ** 2 / 2,
                                     abs=1e-13)
    assert total[2] == pytest.approx(scale * 0.8 * (0.9 ** 2 - 0.2 ** 2) / 2,
                                     abs=1e-13)


def test_line_integral_concatenation_exact():
    g = Grid.box(2, 0.0, 2.0, 21)
    f = GridField.from_function(
        g, "x", lambda x1, x2: np.sin(x1) + np.cos(x2)
    )
    spec = DiracSpec.standard(2)
    whole = line_integral(f, (0.0, 0.0), (2.0, 0.0), spec)
    parts = (
        line_integral(f, (0.0, 0.0), (0.9, 0.0), spec)
        + line_integral(f, (0.9, 0.0), (2.0, 0.0), spec)
    )
    np.testing.assert_array_equal(
        whole.complex_coeffs, parts.complex_coeffs
    )


def test_line_integral_zero_weight_axis_error():
    g = Grid.box(2, 0.0, 1.0, 9)
    f = GridField.zeros(g, "x")
    spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
    with pytest.raises(PathError):
        line_integral(f, (0.0, 0.0), (0.5, 0.5), spec)


def test_line_integral_endpoint_checks():
    g = Grid.box(2, 0.0, 1.0, 9)
    f = GridField.zeros(g, "x")
    with pytest.raises(ValueError):
        line_integral(f, (0.0, 0.0), (2.0, 0.0), DiracSpec.standard(2))


# -- tail integrals -----------------------------------------------------------


def test_tail_integral_exponential():
    g = Grid.box(1, 0.0, 25.0, 1001)
    f = GridField.from_function(g, "x", lambda s: np.exp(-s))
    spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
    value, report = tail_integral(f, (0.0,), 0, spec, decay_rate=1.0)
    want = np.zeros(4, dtype=complex)
    want[1] = 1.0 - np.exp(-25.0)
    np.testing.assert_allclose(value.complex_coeffs, want, atol=1e-9)
    assert report.r_covered == pytest.approx(25.0)
    assert report.bound == pytest.approx(np.exp(-25.0), rel=1e-6)


def test_tail_integral_zero_field():
    g = Grid.box(1, 0.0, 4.0, 41)
    f = GridField.zeros(g, "x")
    spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
    value, report = tail_integral(f, (0.0,), 0, spec, decay_rate=1.0)
    assert value.norm_sq() == 0.0
    assert report.certificate_c == 0.0


def test_tail_truncation_error_halves():
    # f = exp(-2 s): truncation error e^{-2R}/2 halves when R grows by ln(2)/2
    g = Grid.box(1, 0.0, 8.0, 3201)
    f = GridField.from_function(g, "x", lambda s: np.exp(-2.0 * s))
    spec = DiracSpec(2, (0.0, 1.0, 0.0, 0.0))
    h = g.spacings[0]
    ln2_half = 0.5 * np.log(2.0)
    r1 = round(4.0 / h) * h
    r2 = round((4.0 + ln2_half) / h) * h
    v1, _ = tail_integral(f, (0.0,), 0, spec, decay_rate=2.0, r_inf=r1 + h / 2)
    v2, _ = tail_integral(f, (0.0,), 0, spec, decay_rate=2.0, r_inf=r2 + h / 2)
    e1 = abs(v1.complex_coeffs[1] - 0.5)
    e2 = abs(v2.complex_coeffs[1] - 0.5)
    # quadrature error is ~1e-12 here, truncation dominates
    assert e2 / e1 == pytest.approx(np.exp(-2.0 * (r2 - r1)), rel=1e-3)
    assert e2 / e1 == pytest.approx(0.5, rel=0.02)


def test_tail_integral_rejects_bad_rate():
    g = Grid.box(1, 0.0, 4.0, 41)
    f = GridField.zeros(g, "x")
    with pytest.raises(ValueError):
        tail_integral(f, (0.0,), 0, DiracSpec(2, (0.0, 1.0, 0.0, 0.0)),
                      decay_rate=0.0)


# -- sobolev norm --------------------------------------------------------------


def _txy_grid(n_nodes, t_nodes):
    return Grid.box(1, 0.0, 1.0, n_nodes, t_max=1.0, t_count=t_nodes)


def test_sobolev_zero_and_constant():
    g = _txy_grid(9, 9)
    z = GridField.zeros(g, "txy")
    assert sobolev_norm(z, 1, 1) == 0.0
    c = GridField(g, "txy", np.full(g.shape("txy"), 2.5 + 0j))
    # (m,k) = (0,0): norm = c * (T |V|^2)^{1/s}; here T = |V| = 1
    assert sobolev_norm(c, 0, 0, s=2.0) == pytest.approx(2.5, rel=1e-12)
    assert sobolev_norm(c, 0, 0, s=3.0) == pytest.approx(2.5, rel=1e-12)


def test_sobolev_separable_closed_form():
    # f = sin(t) sin(x_1) on the unit (t, x, y) box with m = k = 1, s = 2:
    # the t- and x-term pairs sum to int (sin^2 + cos^2) = 1 each, so the
    # squared norm telescopes to exactly 1
    g = _txy_grid(64, 64)
    f = GridField.from_function(
        g, "txy", lambda t, x, y: np.sin(t) * np.sin(x) + 0.0 * y
    )
    got = sobolev_norm(f, 1, 1, s=2.0)
    assert got == pytest.approx(1.0, abs=1e-4)


def test_sobolev_rejects_bad_input():
    g = Grid.box(1, 0.0, 1.0, 9)
    f = GridField.zeros(g, "x")
    with pytest.raises(ValueError):
        sobolev_norm(f, 0, 0)
    gt = _txy_grid(4, 4)
    z = GridField.zeros(gt, "txy")
    with pytest.raises(ValueError):
        sobolev_norm(z, 1, 1)


# -- dump format ----------------------------------------------------------------


def test_dump_round_trip(tmp_path):
    g = Grid.box(2, -1.0, 2.0, 6, t_max=0.5, t_count=4)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(g.shape("txy")) + 1j * rng.standard_normal(
        g.shape("txy")
    )
    f = GridField(g, "txy", vals)
    p = tmp_path / "f.cdgf"
    dump_field(f, str(p))
    back = load_field(str(p))
    assert back.arity == "txy"
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)
    # byte determinism
    p2 = tmp_path / "f2.cdgf"
    dump_field(f, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_dump_algebra_valued(tmp_path):
    g = Grid.box(1, 0.0, 1.0, 5)
    f = GridField.zeros(g, "x", level=2)
    f.values[..., 1] = 1.25j
    p = tmp_path / "a.cdgf"
    dump_field(f, str(p))
    back = load_field(str(p))
    assert back.level == 2
    np.testing.assert_array_equal(back.values, f.values)
