"""Tests for the integral-equation kernel module.

The admissibility condition used by build_F is re-derived symbolically here
(quaternion table written out literally, sympy doing the calculus) before
any test trusts the library's closed form.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import cdburgers
from cdburgers.algebra import basis_mul_coeffs
from cdburgers.calculus import (DiracSpec, Grid, GridField, _segment_factor,
                                dump_field, interior_slices, line_integral,
                                load_field)
from cdburgers.cli import _json_text
from cdburgers.kernel import (
    KernelConfig,
    PicardDivergence,
    _collar_cells,
    _f_half,
    _ray_tables,
    _separated,
    _separated_sup,
    _term_rays,
    _x_factors,
    _y_factors,
    admissible_kappa,
    apply_A,
    aux_residual,
    build_F,
    characteristic_lhs,
    estimate_A_norm,
    midpoint_pair_field,
    prefix_line_integrals,
    run_report,
    s1_apply,
    s2a_apply,
    solve_K,
)
import oracles
from oracles import (
    _symbolic_dirac,
    reference_apply_A,
    reference_aux_residual,
    reference_inner_tail,
    reference_s1_apply,
    reference_s2a_apply,
    reference_solve_K,
)


# -- symbolic oracle for the admissibility condition ---------------------------


def _symbolic_characteristic(n):
    """Polynomial in k^2 that S_{2,a} exp(kappa . (x+y)/2) must satisfy."""
    xs = sp.symbols(f"x1:{n + 1}", real=True)
    ys = sp.symbols(f"y1:{n + 1}", real=True)
    ks = sp.symbols(f"k1:{n + 1}", real=True)
    a1, a2, a3 = sp.symbols("a1 a2 a3", real=True)
    psi = 1 / sp.sqrt(2)
    f = sp.exp(sum(k * (x + y) / 2 for k, x, y in zip(ks, xs, ys)))
    comp = [f, sp.Integer(0), sp.Integer(0), sp.Integer(0)]

    def lap_pair(c):
        sx = _symbolic_dirac(_symbolic_dirac(c, xs, psi), xs, psi)
        sy = _symbolic_dirac(_symbolic_dirac(c, ys, psi), ys, psi)
        return [sp.expand(u + v) for u, v in zip(sx, sy)]

    l1 = lap_pair(comp)
    for c in l1[1:]:
        assert sp.simplify(c) == 0
    l2 = lap_pair(l1)
    for c in l2[1:]:
        assert sp.simplify(c) == 0
    s2f = a1 * l2[0] + a2 * l1[0] + a3 * f
    condition = sp.expand(sp.simplify(s2f / f))
    ksq = sp.Symbol("ksq", positive=True)
    # rewrite in terms of k^2 = sum k_j^2 by eliminating the last component
    last_sq = ksq - sum(k**2 for k in ks[:-1])
    condition = sp.expand(condition.subs(ks[-1] ** 2, last_sq))
    return sp.simplify(condition), (a1, a2, a3), ksq


def test_characteristic_condition_matches_symbolic_derivation():
    for n in (1, 2):
        cond, (a1, a2, a3), ksq = _symbolic_characteristic(n)
        target = a1 * ksq**2 / 16 - a2 * ksq / 4 + a3
        assert sp.simplify(cond - target) == 0


def test_characteristic_lhs_numeric_freeze():
    cond, (a1, a2, a3), ksq = _symbolic_characteristic(1)
    fn = sp.lambdify((a1, a2, a3, ksq), cond, "numpy")
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-3, 3, size=3)
        k2 = rng.uniform(0.1, 9.0)
        assert characteristic_lhs(tuple(a), k2) == pytest.approx(
            fn(*a, k2), rel=1e-12, abs=1e-12
        )


def test_admissible_kappa_picks_smallest_positive_root():
    kap = admissible_kappa((1.0, 0.0, -1.0), 1)
    assert kap == (-2.0,)
    assert characteristic_lhs((1.0, 0.0, -1.0), 4.0) == 0.0
    # both k^2 = 4 and k^2 = 16 solve this one; the smaller wins
    kap2 = admissible_kappa((1.0, 5.0, 4.0), 2)
    assert kap2 == (-2.0, 0.0)
    assert abs(characteristic_lhs((1.0, 5.0, 4.0), 4.0)) < 1e-12


def test_admissible_kappa_rejects_rootless_coefficients():
    with pytest.raises(ValueError, match="no real positive"):
        admissible_kappa((1.0, 0.0, 1.0), 1)


def _np_roots_kappa(a):
    """admissible_kappa's first entry by the companion-matrix eigensolve of
    np.roots (the oracle), with the same selection rule; None if rootless."""
    roots = [complex(r) for r in np.roots([a[0] / 16.0, -a[1] / 4.0, a[2]])]
    real = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 1e-14]
    return -float(np.sqrt(min(real))) if real else None


def _closed_form_kappa(a):
    try:
        return admissible_kappa(a, 1)[0]
    except ValueError as exc:
        assert "no real positive" in str(exc)
        return None


def test_admissible_kappa_keeps_the_bits_of_np_roots_when_a3_vanishes():
    # C = 0: np.roots strips the trailing zero and returns -B/A and 0
    vals = [-7.5, -3.0, -1.0, -0.3, 1e-3, 0.25, 1.0, 2.0, 1.0 / 3.0, 5e4]
    for a in [(a1, a2, 0.0) for a1 in vals for a2 in vals + [0.0]]:
        assert _closed_form_kappa(a) == _np_roots_kappa(a), a


def test_admissible_kappa_matches_np_roots_off_a3_zero():
    vals = [-6.0, -2.5, -1.0, -0.2, 0.3, 1.0, 1.7, 4.0]
    seen = 0
    for a1 in vals:
        for a2 in vals + [0.0]:
            for a3 in vals:
                A, B, C = a1 / 16.0, -a2 / 4.0, a3
                if abs(B * B - 4 * A * C) < 1e-6 * max(B * B, abs(A * C)):
                    continue  # a near-double root: the eigensolve is off
                want = _np_roots_kappa((a1, a2, a3))
                got = _closed_form_kappa((a1, a2, a3))
                assert (got is None) == (want is None), (a1, a2, a3)
                if want is not None:
                    seen += 1
                    assert abs(got - want) <= 4e-15 * abs(want), (a1, a2, a3)
    assert seen > 100


def test_admissible_kappa_edge_cases():
    assert admissible_kappa((1.0, 2.0, 1.0), 1) == (-2.0,)  # double root
    with pytest.raises(ValueError, match="a_1 must be nonzero"):
        admissible_kappa((0.0, -1.0, 0.0), 2)
    with pytest.raises(ValueError, match="a must be finite"):
        admissible_kappa((1.0, float("nan"), 0.0), 2)


# -- building F ----------------------------------------------------------------


def test_build_f_constant_kernel():
    cfg = KernelConfig(a=(1.0, 0.0, 0.0), p=(0.0, 0.0), kappa=(0.0,), w0=(0.0,))
    g = Grid.box(1, -0.4, 3.4, 20)
    kf = build_F(cfg, g)
    assert np.all(kf.F.values == 1.0)


def test_build_f_rejects_inadmissible_kappa():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-1.0,), w0=(0.0,))
    with pytest.raises(ValueError, match="inadmissible"):
        build_F(cfg, Grid.box(1, -0.4, 3.4, 20))


def test_build_f_requires_decay_when_coupled():
    cfg = KernelConfig(a=(1.0, 0.0, 0.0), p=(0.1, 0.0), kappa=(0.0,), w0=(0.0,))
    with pytest.raises(ValueError, match="decay"):
        build_F(cfg, Grid.box(1, -0.4, 3.4, 20))


@pytest.mark.parametrize("p", [((0.01, 0.0, 0.0, 0.002), 0.0), (0.1, "x"),
                               (None, 0.0)], ids=["tuple", "str", "none"])
def test_config_refuses_a_weight_that_is_not_a_number(p):
    # the weights are complex numbers; anything else is refused by name
    with pytest.raises(ValueError, match=r"^p entries must be numbers"):
        KernelConfig(a=(1.0, 0.0, -1.0), p=p, kappa=(-2.0,), w0=(0.0,))


def test_build_f_requires_lattice_basepoint():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,), w0=(0.03,))
    with pytest.raises(ValueError):
        build_F(cfg, Grid.box(1, -0.4, 3.4, 20))


# -- the two-argument operators ------------------------------------------------


def test_s1_annihilates_midpoint_fields_in_the_interior():
    for n, box in ((1, (-0.4, 3.4, 20)), (2, (-0.5, 2.25, 12))):
        kap = tuple([-2.0] + [0.0] * (n - 1))
        cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=kap,
                           w0=(0.0,) * n)
        g = Grid.box(n, *box)
        fp = midpoint_pair_field(cfg, g).as_algebra(2)
        s1 = s1_apply(fp, cfg.dirac_spec())
        sl = interior_slices(s1.values.shape, range(2 * n), 4)
        assert np.max(np.abs(s1.values[sl])) < 1e-12


def test_s2a_annihilates_admissible_midpoint_field_at_stencil_order():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    resid = []
    hs = []
    for count in (20, 39):
        g = Grid.box(1, -0.4, 3.4, count)
        fp = midpoint_pair_field(cfg, g).as_algebra(2)
        s2 = s2a_apply(fp, cfg.dirac_spec(), cfg.a)
        margin = max(8, int(np.ceil(1.6 / g.spacings[0] - 1e-9)))
        sl = interior_slices(s2.values.shape, range(2), margin)
        resid.append(float(np.max(np.abs(s2.values[sl]))))
        hs.append(g.spacings[0])
    order = math.log(resid[0] / resid[1]) / math.log(hs[0] / hs[1])
    assert order >= 3.5


# "promoted" is a scalar field viewed as algebra-valued at level 2
@pytest.mark.parametrize("level, field_level, n", [
    (2, None, 1), (2, None, 2), (2, "promoted", 2), (2, 2, 2), (3, 3, 3),
], ids=["scalar-n1", "scalar-n2", "promoted-n2", "quaternion-n2",
        "octonion-n3"])
def test_pair_operators_match_composed_dirac_reference(level, field_level, n):
    g = Grid.box(n, -0.5, 1.5, {1: 9, 2: 7, 3: 5}[n])
    lev = field_level if isinstance(field_level, int) else None
    shape = g.shape("xy", lev)
    rng = np.random.default_rng(11)
    f = GridField(g, "xy", rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape), level=lev)
    if field_level == "promoted":
        f = f.as_algebra(2)
    spec = DiracSpec.standard(n, level)
    a = (1.0, -0.7, 0.3)
    for got, want in ((s1_apply(f, spec), reference_s1_apply(f, spec)),
                      (s2a_apply(f, spec, a),
                       reference_s2a_apply(f, spec, a))):
        assert got.level == want.level == level
        err = np.max(np.abs(got.values - want.values))
        assert err <= 1e-13 * np.max(np.abs(want.values))


def test_pair_operators_make_no_dirac_calls(monkeypatch):
    calls = []
    original = cdburgers.calculus.dirac_apply

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (cdburgers.calculus, cdburgers.kernel, oracles):
        if hasattr(module, "dirac_apply"):
            monkeypatch.setattr(module, "dirac_apply", counted)
    g = Grid.box(2, -0.5, 1.5, 6)
    f = GridField.from_function(g, "xy", lambda *c: np.exp(c[0] - c[3]))
    spec = DiracSpec.standard(2)
    counts = []
    for op in (s1_apply, reference_s1_apply):
        calls.clear()
        op(f, spec)
        counts.append(len(calls))
    for op in (s2a_apply, reference_s2a_apply):
        calls.clear()
        op(f, spec, (1.0, 0.0, -1.0))
        counts.append(len(calls))
    assert counts == [0, 4, 0, 8]


def test_s2a_rejects_fields_outside_the_sigma_sq_identity():
    g = Grid.box(1, -0.5, 1.5, 9)
    a = (1.0, 0.0, -1.0)
    with pytest.raises(ValueError, match="sigma\\^2 identity"):
        s2a_apply(GridField.zeros(g, "xy", level=4),
                  DiracSpec.standard(1, 4), a)
    real_unit = DiracSpec(2, (1.0, 1.0, 0.0, 0.0), xi=(1, 1, 2, 3))
    with pytest.raises(ValueError, match="sigma\\^2 identity"):
        s2a_apply(GridField.zeros(g, "xy"), real_unit, a)


# -- quadrature stages ---------------------------------------------------------


def test_prefix_line_integrals_match_pointwise_routine():
    g = Grid.box(2, -0.5, 2.0, 6)
    spec = DiracSpec.standard(2)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape("x")) + 1j * rng.standard_normal(
        g.shape("x"))
    f = GridField(g, "x", vals)
    w0 = (0.0, 0.0)
    w0_idx = g.node_index(w0)
    pref = prefix_line_integrals(vals, g, w0_idx, spec, group_offset=0)
    for target in [(-0.5, -0.5), (2.0, 1.0), (1.5, 2.0), (0.0, 0.0)]:
        z = line_integral(f, w0, target, spec)
        want = z.re_part.coeffs + 1j * z.im_part.coeffs
        got = pref[g.node_index(target)]
        assert np.max(np.abs(got - want)) < 1e-13


def _rays_into_x_factors(monkeypatch):
    """Record the ray integrals of every _x_factors call."""
    rays, x_factors = [], cdburgers.kernel._x_factors

    def recorded(ray, *args):
        rays.append(ray)
        return x_factors(ray, *args)

    monkeypatch.setattr(cdburgers.kernel, "_x_factors", recorded)
    return rays


def _inner_table(ray, cfg, g):
    """I(w, v) = ray(w) f(v/2) on (w, v), coefficients last: the ray
    integrals on coefficient 0 when scalar, under the tail axis's segment
    factor i_b psi_b^-1 N^-1."""
    n, level = cfg.n, cfg.level
    if ray.ndim == n:
        ray = ray[..., None] * np.eye(1 << level)[0]
    b, scale = _segment_factor(cfg.dirac_spec(), cfg.tail_axis, n)
    ray = basis_mul_coeffs(b, ray * scale, level)
    fv = cfg.f_midpoint(*np.ix_(*[0.5 * g.axis(c) for c in range(n)]))
    return ray.reshape(g.counts + (1,) * n + (-1,)) * fv[..., None]


@pytest.mark.parametrize("algebra", [False, True])
def test_inner_tail_matches_unfactored_reference(algebra, monkeypatch):
    # apply_A's dense route; tail on axis 1 with a nonzero off-axis kappa,
    # so the off-axis factor exp(kappa_0 w_0 / 2) rides along every ray;
    # unequal axes catch mixups
    g = Grid(((-0.5, 2.0), (-0.75, 2.25)), (8, 11))
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.2, 0.1), kappa=(-0.5, -2.0),
                       w0=(g.axis(0)[2], g.axis(1)[2]))
    rng = np.random.default_rng(17)
    lev = 2 if algebra else None
    shape = g.shape("xy", lev)
    K = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rays, info = _rays_into_x_factors(monkeypatch), {}
    apply_A(GridField(g, "xy", K, level=lev), None, cfg, g, info=info)
    got = _inner_table(rays[0], cfg, g)
    want, want_bound = reference_inner_tail(K, cfg, g)
    assert got.shape == want.shape == g.shape("xy", 2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert info["tail_bound"] == pytest.approx(want_bound, rel=1e-13)


# -- applying the integral operator --------------------------------------------


def _pair_exponential(g, mu):
    def fn(x, y):
        return np.exp(mu * (x + y) / 2.0)

    return GridField.from_function(g, "xy", fn)


def test_apply_a_vanishes_without_coupling():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 3.0, 8)
    K = _pair_exponential(g, -2.0)
    F = build_F(cfg, g).F
    out = apply_A(K, F, cfg, g)
    assert np.all(out.values == 0.0)


def test_apply_a_matches_nested_exponential_closed_form():
    # F(m) = exp(kappa m) and K(w, z) = exp(mu (w + z)/2) integrate in
    # closed form through all three stages; the basis factors collapse to
    # (i1 sqrt2)^3 = -2 sqrt2 i1, and the projection reads off that slot.
    kappa, mu, w0 = -6.0, -2.0, 0.0
    p1 = 0.7
    cfg = KernelConfig(a=(1.0, 0.0, 0.0), p=(p1, 0.0), kappa=(kappa,),
                       w0=(w0,))
    g = Grid.box(1, -0.25, 5.45, 457)
    K = _pair_exponential(g, mu)
    out = apply_A(K, None, cfg, g).values

    c1 = -2.0 / (kappa + mu)
    rate = kappa / 2.0 + mu
    x = g.axis(0)[:, None]
    y = g.axis(0)[None, :]
    ry = (2.0 / kappa) * (np.exp(kappa * y / 2) - np.exp(kappa * w0 / 2))
    rx = (np.exp(rate * x) - np.exp(rate * w0)) / rate
    want = p1 * (-2.0 * np.sqrt(2.0)) * c1 * ry * rx
    assert np.max(np.abs(out - want)) < 1e-6


def test_apply_a_is_linear_in_the_field():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.2, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 7.5, 33)
    F = build_F(cfg, g).F
    rng = np.random.default_rng(11)
    k1 = rng.standard_normal(g.shape("xy")) + 1j * rng.standard_normal(
        g.shape("xy"))
    k2 = rng.standard_normal(g.shape("xy"))
    alpha = 1.7 - 0.3j
    lhs = apply_A(GridField(g, "xy", alpha * k1 + k2), F, cfg, g).values
    rhs = alpha * apply_A(GridField(g, "xy", k1), F, cfg, g).values + apply_A(
        GridField(g, "xy", k2.astype(complex)), F, cfg, g).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_apply_a_scales_linearly_in_the_weights():
    g = Grid.box(1, -0.5, 3.0, 8)
    K = _pair_exponential(g, -2.0)
    out = {}
    for fac in (1.0, 2.0):
        cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(fac * 0.2, fac * 0.1),
                           kappa=(-2.0,), w0=(0.0,))
        out[fac] = apply_A(K.as_algebra(2), None, cfg, g).values
    assert np.array_equal(out[2.0], 2.0 * out[1.0])


def test_apply_a_reports_tail_truncation_bound():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.2, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 7.5, 33)
    K = _pair_exponential(g, -2.0)
    info = {}
    apply_A(K, None, cfg, g, info=info)
    assert 0.0 < info["tail_bound"] < 1e-3


def test_apply_a_rejects_exhausted_quadrature():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.2, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 1.0, 3)
    K = _pair_exponential(g, -2.0)
    with pytest.raises(ValueError, match="quadrature nodes exhausted"):
        apply_A(K, None, cfg, g)


# -- the separated operator against the dense oracles --------------------------

# admissible kappa for these grids; in 2-D the tail runs along axis 1
_SOLVE = {1: (dict(a=(1.0, 0.0, -1.0), kappa=(-2.0,), w0=(0.0,)),
              Grid.box(1, -0.5, 4.5, 11)),
          2: (dict(a=(1.0, 0.0, -1.0), kappa=(-1.2, -1.6), w0=(0.0, 0.0)),
              Grid.box(2, -0.5, 1.5, 9)),
          4: (dict(a=(1.0, 0.0, -1.0), kappa=(-1.2, -1.6, 0.0, 0.0),
                   w0=(0.0,) * 4), Grid.box(4, -0.5, 1.0, 4))}
_PARITY = pytest.mark.parametrize("kw, n", [
    (dict(p=(0.1, 0.0)), 1),
    (dict(p=(0.03, 0.015)), 1),
    (dict(p=(0.1, 0.05)), 2),
    (dict(p=(0.2, 0.0)), 2),
], ids=["scalar", "p2", "n2-p2", "n2-tail-axis1"])
# n = 4 derives level 3, the octonions, whose units do not associate; the
# dense oracles nest the unit products as the code does, so this checks
# the factoring, not the product order
_PARITY_L3 = pytest.mark.parametrize("kw, n", [
    *_PARITY.args[1], (dict(p=(0.1, 0.05)), 4)],
    ids=[*_PARITY.kwargs["ids"], "n4-octonion"])


@_PARITY_L3
def test_apply_a_matches_dense_reference(kw, n):
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    lev = None if cfg.scalar_closed() else cfg.level
    shape = g.shape("xy", lev)
    rng = np.random.default_rng(23)
    K = GridField(g, "xy", rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape), level=lev)
    info, want_info = {}, {}
    got = apply_A(K, None, cfg, g, info=info)
    want = reference_apply_A(K, cfg, g, want_info)
    assert got.level == want.level
    err = np.max(np.abs(got.values - want.values))
    assert err <= 1e-13 * np.max(np.abs(want.values))
    assert info["tail_bound"] == pytest.approx(want_info["tail_bound"],
                                               rel=1e-13)


@pytest.mark.parametrize("kw, n", [
    pytest.param(kw, n, id=name)
    for (kw, n), name in zip(_PARITY.args[1], _PARITY.kwargs["ids"])
    if not KernelConfig(**kw, **_SOLVE[n][0]).scalar_closed()])
def test_apply_a_lifts_a_scalar_field_off_the_scalar_line(kw, n):
    # _x_factors takes a scalar ray only under a scalar-closed config, so
    # apply_A puts a scalar K on i_0 here: bit for bit the lifted field
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    rng = np.random.default_rng(23)
    shape = g.shape("xy")
    K = GridField(g, "xy", rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape))
    got = apply_A(K, None, cfg, g)
    want = reference_apply_A(K, cfg, g)
    assert got.level == want.level == cfg.level
    lifted = apply_A(K.as_algebra(cfg.level), None, cfg, g)
    assert np.array_equal(got.values, lifted.values)
    err = np.max(np.abs(got.values - want.values))
    assert err <= 1e-13 * np.max(np.abs(want.values))


@_PARITY_L3
def test_solver_matches_dense_picard_reference(kw, n):
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    kf = solve_K(cfg, g)
    K, report = reference_solve_K(cfg, g)
    assert np.max(np.abs(kf.K.values - K)) <= 1e-13 * np.max(np.abs(K))
    assert kf.report["iterations"] == report["iterations"]
    assert kf.report["converged"] == report["converged"]
    assert kf.report["tail_bound"] == pytest.approx(report["tail_bound"],
                                                    rel=1e-13)


@_PARITY
def test_y_factors_are_the_prefix_sweep_coefficients(kw, n):
    # Y_c is segment c of f(v/2), Q_{c'' c} segment c'' of Y_c: bit for bit
    # the i_{b_c} coefficients of the public prefix sweeps
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    assert np.array_equal(_y_factors(cfg, g),
                          oracles.reference_y_factors(cfg, g))


# a scalar ray stands for its value on i_0 and needs a scalar-closed config
_X_FACTOR_CASES = [
    pytest.param(kw, n, algebra, id=f"{kind}-ray-{name}")
    for algebra, kind in ((False, "scalar"), (True, "algebra"))
    for (kw, n), name in zip(_PARITY.args[1], _PARITY.kwargs["ids"])
    if algebra or KernelConfig(**kw, **_SOLVE[n][0]).scalar_closed()]


@pytest.mark.parametrize("kw, n, algebra", _X_FACTOR_CASES)
def test_x_factors_match_the_per_axis_prefix_sweeps(kw, n, algebra):
    # the ray's n segments are integrated once and then permuted; the
    # reference integrates them once per axis on the coefficient axis
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    shape = g.counts + ((1 << cfg.level,) if algebra else ())
    rng = np.random.default_rng(29)
    ray = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, _ = _x_factors(ray, ray, cfg, g)
    want = oracles.reference_x_factors(ray, cfg, g)
    assert len(got) == len(want) == (n if cfg.p[1] == 0.0 else n + n * n)
    assert all(np.array_equal(u, w) for u, w in zip(got, want))


@pytest.mark.parametrize("kw, n", [
    (dict(p=(0.1, 0.0)), 1),
    (dict(p=(0.03, 0.015)), 1),
    (dict(p=(0.1, 0.05)), 2),
    (dict(p=(0.2, 0.0)), 2),
], ids=["scalar", "p2", "n2-p2", "n2-tail-axis1"])
def test_separated_ray_matches_unfactored_reference(kw, n, monkeypatch):
    # the table ray of the solved terms: solve_K's last _x_factors call
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    rays = _rays_into_x_factors(monkeypatch)
    kf = solve_K(cfg, g)
    got = _inner_table(rays[-1], cfg, g)
    want, want_bound = reference_inner_tail(kf.K.values, cfg, g)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert kf.report["tail_bound"] == pytest.approx(want_bound, rel=1e-13)


@pytest.mark.parametrize("p", [(5e-6, 0.0), (5e-6, 2e-6)],
                         ids=["p2-zero", "p2"])
def test_solver_sweeps_no_pair_sized_array(p, monkeypatch):
    # the solve carries K as separated factors and takes the tail ray from
    # tables on V, so no quadrature sweep (ray tables, prefix sweeps, norm)
    # acts on N^{n+1} nodes or more and nothing is expanded on pair nodes;
    # reading kf.K expands it once
    sizes, shapes, mids = [], [], []
    original = cdburgers.kernel.cumulative_integral
    separated = cdburgers.kernel._separated
    midpoint = cdburgers.kernel.midpoint_pair_field

    def recorded(values, *args, **kwargs):
        sizes.append(values.size)
        return original(values, *args, **kwargs)

    def expanded(gs, V, index):
        shapes.append(np.broadcast_shapes(*(i.shape for i in index)))
        return separated(gs, V, index)

    def counted(*args, **kwargs):
        mids.append(1)
        return midpoint(*args, **kwargs)

    monkeypatch.setattr(cdburgers.kernel, "cumulative_integral", recorded)
    monkeypatch.setattr(cdburgers.kernel, "_separated", expanded)
    monkeypatch.setattr(cdburgers.kernel, "midpoint_pair_field", counted)
    a = (-1.0, -1.0, 0.0)
    cfg = KernelConfig(a=a, p=p, kappa=admissible_kappa(a, 2), w0=(0.0, 0.0))
    kf = solve_K(cfg, Grid.box(2, -0.5, 4.5, 11))
    assert kf.report["converged"]
    assert sizes and max(sizes) < 11 ** 3
    assert not shapes and not mids
    assert kf.K.arity == "xy"
    assert shapes == [(11,) * 4] and not mids


def test_solver_peak_memory_stays_on_V():
    # every stage of the solve works on V's N^n nodes: at N = 81 it peaks
    # near 15 MiB, and a ray stage on N^{n+1} nodes needs about 168 MiB
    a = (-1.0, -1.0, 0.0)
    cfg = KernelConfig(a=a, p=(5e-6, 0.0), kappa=admissible_kappa(a, 2),
                       w0=(0.0, 0.0))
    tracemalloc.start()
    try:
        kf = solve_K(cfg, Grid.box(2, -0.5, 4.5, 81))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kf.report["converged"]
    assert peak < 40 * 2 ** 20


def test_scalar_closed_x_factors_form_no_coefficient_axis():
    # each scalar factor takes the one signed segment that lands on i_1,
    # so the call peaks near its output; segments lifted onto a 2^level
    # coefficient axis would peak near 11 times it
    cfg, g = _gate_config(3, 5e-6), Grid.box(3, -0.5, 4.5, 21)
    rng = np.random.default_rng(31)
    ray = rng.standard_normal(g.counts) + 1j * rng.standard_normal(g.counts)
    tracemalloc.start()
    try:
        gs, _ = _x_factors(ray, ray, cfg, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [u.shape for u in gs] == [g.counts] * 3
    assert peak <= 4 * sum(u.nbytes for u in gs)


@pytest.mark.parametrize("kw, n", [
    (dict(p=(0.1, 0.0)), 1),
    (dict(p=(0.2, 0.0)), 2),
    (dict(p=(0.1, 0.05)), 2),
], ids=["scalar", "n2-tail-axis1", "n2-p2"])
def test_diagonal_is_the_dense_diagonal_bit_for_bit(kw, n):
    base, g = _SOLVE[n]
    cfg = KernelConfig(**kw, **base)
    assert cfg.tail_axis == n - 1
    kf = solve_K(cfg, g)
    ix = np.ix_(*[np.arange(k) for k in g.counts])
    assert np.array_equal(kf.diagonal(), kf.K.values[ix + ix])


@pytest.mark.parametrize("kw, n", [
    (dict(p=(0.1, 0.0)), 1),
    (dict(p=(0.2, 0.0)), 2),
    (dict(p=(0.03, 0.015)), 1),
    (dict(p=(0.1, 0.05)), 2),
], ids=["scalar", "n2-tail-axis1", "p2", "n2-p2"])
def test_K_terms_dump_round_trips_to_the_dense_K(kw, n, tmp_path):
    base, g = _SOLVE[n]
    kf = solve_K(KernelConfig(**kw, **base), g)
    K = kf.K
    one, two = tmp_path / "one.cdgf", tmp_path / "two.cdgf"
    kf.dump_K(str(one))
    kf.dump_K(str(two))
    assert one.read_bytes() == two.read_bytes()
    back = load_field(str(one))
    assert (back.arity, back.level) == ("xy", K.level)
    assert back.values.shape == K.values.shape
    # load_field sums the dumped terms in K's order, so the gap is 0.0
    # (test_K_dump_loads_back_K_bit_for_bit)
    gap = np.max(np.abs(back.values - K.values)) / np.max(np.abs(K.values))
    assert gap <= 1e-15
    # a dense (version 1) dump still loads; an unknown version does not
    dump_field(K, str(one))
    assert np.array_equal(load_field(str(one)).values, K.values)
    data = bytearray(two.read_bytes())
    data[4:8] = (3).to_bytes(4, "little")
    two.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unsupported dump version 3"):
        load_field(str(two))


@pytest.mark.parametrize("kw, n", [
    (dict(p=(0.1, 0.0)), 1),
    (dict(p=(0.2, 0.0)), 2),
    (dict(p=(0.03, 0.015)), 1),
    (dict(p=(0.1, 0.05)), 2),
], ids=["n1", "n2", "n1-p2", "n2-p2"])
def test_K_dump_loads_back_K_bit_for_bit(kw, n, tmp_path):
    # K, diagonal() and the dump all read the one stored term list, whose
    # first term already carries F's lift onto i_0
    base, g = _SOLVE[n]
    kf = solve_K(KernelConfig(**kw, **base), g)
    kf.dump_K(str(tmp_path / "K.cdgf"))
    back = load_field(str(tmp_path / "K.cdgf"))
    assert np.array_equal(back.values, kf.K.values)
    assert np.ndim(kf.terms[0][0]) == n + (not kf.config.scalar_closed())


def _picard_steps(cfg, g):
    """The factor steps dg_s of solve_K's iteration, until the step's sup
    norm falls under 1e-13, with the y factors V_s."""
    lev = None if cfg.scalar_closed() else cfg.level
    f, V = _f_half(cfg, g), _y_factors(cfg, g)
    tables = _ray_tables(np.stack([f, *V], axis=-1), cfg, g)
    f0 = f if lev is None else f[..., None] * np.eye(1 << lev)[0]
    pairs = np.ix_(*[np.arange(k) for k in g.counts * 2])
    gs, steps, sup = [], [], 1.0
    while sup >= 1e-13:
        new, _ = _x_factors(*_term_rays([f0] + gs, tables), cfg, g)
        steps.append([u - w for u, w in zip(new, gs or [0.0] * len(new))])
        gs = new
        sup = np.max(np.abs(_separated(steps[-1], V, pairs)))
    return steps, V, pairs


# the _PARITY configs on count-11 grids
@pytest.mark.parametrize("kw, n", [
    (dict(p=(0.1, 0.0)), 1),
    (dict(p=(0.03, 0.015)), 1),
    (dict(p=(0.1, 0.05)), 2),
], ids=["scalar", "p2", "n2-p2"])
def test_separated_norms_match_the_dense_expansion(kw, n):
    base = _SOLVE[n][0]
    g = Grid.box(1, -0.5, 4.5, 11) if n == 1 else Grid.box(2, -0.5, 2.0, 11)
    steps, V, pairs = _picard_steps(KernelConfig(**kw, **base), g)
    assert len(steps) > 2
    for ds in (steps[0], steps[-1]):  # the first step and a late one
        sup = _separated_sup(ds, V)
        assert sup == np.max(np.abs(_separated(ds, V, pairs)))
    assert 0.0 < sup < 1e-13
    no_p, _ = _x_factors(np.ones((11,) * n), np.ones((11,) * n),
                         KernelConfig(p=(0.0, 0.0), **base), g)
    assert _separated_sup(no_p, V) == 0.0


def test_separated_norms_report_a_nan_factor():
    # a NaN row bound is never >= the running sup, so the search skipped it
    # and reported sup 0.0
    V = np.ones((1, 3), dtype=complex)
    for d in (np.full(3, np.nan + 0j), np.array([1.0, np.nan, 2.0]) + 0j):
        assert math.isnan(_separated_sup([d], V))


def test_separated_norms_search_past_rows_whose_bound_overstates():
    # rows 0..99 have the largest bound, but their two terms nearly cancel;
    # the max sits in rows the first chunks do not reach
    rng = np.random.default_rng(7)
    v = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    V = np.stack([v, v * (1 + 1e-9)])
    d = rng.uniform(0.5, 1.0, (2, 11, 11, 4)) + 0j
    rows = d.reshape(2, -1)
    rows[1, :100] = -rows[0, :100]
    rows[:, 100:] *= 0.1
    dense = _separated(list(d), V, np.ix_(*[np.arange(11)] * 4))
    row_max = np.max(np.moveaxis(np.abs(dense), 4, 2).reshape(484, -1), axis=1)
    assert np.argmax(row_max) >= 100
    assert _separated_sup(list(d), V) == np.max(np.abs(dense))


def test_separated_sup_peak_stays_under_four_step_terms(monkeypatch):
    # the row bound is summed one term at a time and the rows are read from
    # the terms in place: the first step's sup at n = 3, N = 31 peaks near
    # 3 step terms' bytes, and stacking the terms with their moduli took 6
    class Captured(Exception):
        pass

    def capture(ds, V):
        raise Captured(ds, V)

    monkeypatch.setattr(cdburgers.kernel, "_separated_sup", capture)
    with pytest.raises(Captured) as caught:
        solve_K(_gate_config(3, 5e-6), Grid.box(3, -0.5, 4.5, 31))
    ds, V = caught.value.args
    tracemalloc.start()
    try:
        sup = _separated_sup(ds, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 3 and 0.0 < sup < 1.0
    assert peak <= 4 * ds[0].nbytes


@pytest.mark.parametrize("kw, n", [(dict(p=(0.1, 0.0)), 1),
                                   (dict(p=(0.1, 0.05)), 2)],
                         ids=["scalar", "n2-p2"])
def test_fixed_point_bound_covers_the_distance_to_a_tight_solve(kw, n):
    base, g = _SOLVE[n]
    loose = solve_K(KernelConfig(**kw, **base, tol=1e-6), g)
    tight = solve_K(KernelConfig(**kw, **base, tol=1e-14), g)
    bound = loose.report["fixed_point_bound"]
    dist = np.max(np.abs(loose.K.values - tight.K.values))
    scale = np.max(np.abs(tight.K.values))
    assert 0.0 < dist <= bound + 1e-14 * scale


# -- operator norm estimate ----------------------------------------------------


def _dense_operator(cfg, g):
    lev = None if cfg.scalar_closed() else cfg.level
    shape = g.shape("xy", lev)

    def A(v):
        return apply_A(GridField(g, "xy", v, level=lev), None, cfg, g).values

    # A reads its input only on the paired-diagonal slice x_c = y_c of every
    # axis c off the tail axis; the columns off it are exactly zero
    idx = np.indices(shape)
    read = np.ones(shape, dtype=bool)
    for c in range(g.n):
        if c != cfg.tail_axis:
            read &= idx[c] == idx[g.n + c]
    rng = np.random.default_rng(5)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(A(v), A(np.where(read, v, 0.0)))
    m = int(np.prod(shape))
    M = np.zeros((m, m), dtype=complex)
    for k in np.flatnonzero(read):
        e = np.zeros(m, dtype=complex)
        e[k] = 1.0
        M[:, k] = A(e.reshape(shape)).ravel()
    return M


def test_norm_estimate_vanishes_without_coupling():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 3.0, 8)
    assert estimate_A_norm(cfg, g) == 0.0


def test_norm_estimate_scales_linearly_in_the_weights():
    g = Grid.box(1, -0.5, 3.0, 8)
    vals = []
    for fac in (1.0, 2.0):
        cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(fac * 0.35, 0.0),
                           kappa=(-2.0,), w0=(0.0,))
        vals.append(estimate_A_norm(cfg, g))
    assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-12)


_N1 = dict(a=(1.0, 0.0, -1.0), kappa=(-2.0,), w0=(0.0,))
_N2 = dict(a=(1.0, 0.0, -1.0), kappa=(-0.5, -2.0), w0=(0.0, 0.0))


_G1 = Grid.box(1, -0.5, 3.0, 8)
_G2 = Grid.box(2, -0.5, 1.5, 5)


@pytest.mark.parametrize("kw, g", [
    (dict(p=(0.35, 0.0)), _G1),
    (dict(p=(0.35, 0.2)), _G1),
    (dict(p=(0.35, 0.0)), _G2),
    (dict(p=(0.35, 0.2)), _G2),
    # a count equal to 2^level, the algebra dimension
    (dict(p=(0.35, 0.2)), Grid.box(1, -0.5, 1.0, 4)),
], ids=["scalar", "p2", "n2-tail-axis1", "n2-p2", "count4"])
def test_norm_estimate_dominates_the_dense_sup_norm(kw, g):
    # the estimate must dominate ||A||_inf, the max row sum of |M|, which
    # is what bounds every Picard step ratio; it is exact, to rounding,
    # for n = 1 with p_2 = 0
    cfg = KernelConfig(**kw, **(_N1 if g.n == 1 else _N2))
    M = _dense_operator(cfg, g)
    est = estimate_A_norm(cfg, g)
    assert est >= np.max(np.sum(np.abs(M), axis=1)) * (1.0 - 1e-12)


def _gate_config(n, p1):
    a = (-1.0, -1.0, 0.0)
    return KernelConfig(a=a, p=(p1, 0.0), kappa=admissible_kappa(a, n),
                        w0=(0.0,) * n)


def test_norm_estimate_is_flat_in_the_count():
    # A is a Volterra operator in x, bounded in the sup norm: the bound
    # does not grow under refinement, where the Frobenius norm grows as
    # N^(n-1)
    cfg = _gate_config(2, 1e-3)
    coarse, fine = (estimate_A_norm(cfg, Grid.box(2, -0.5, 4.5, count))
                    for count in (21, 161))
    assert fine == pytest.approx(coarse, rel=0.01)


def test_solver_admits_n3_at_count_41():
    # A's Frobenius norm is 0.997 here, its sup-norm bound 0.0116
    cfg = _gate_config(3, 1e-3)
    kf = solve_K(cfg, Grid.box(3, -0.5, 4.5, 41))
    assert kf.report["norm_estimate"] < 0.02
    assert kf.report["converged"]


@pytest.mark.parametrize("n, count", [(2, 81), (3, 21)])
def test_norm_estimate_peak_stays_under_one_ray_table(n, count):
    # Sx is a product over axes of 1-D sums and L comes from unit
    # segments, so the certificate forms nothing on N^(n+1) nodes: its
    # peak stays under one complex array of that size
    cfg = _gate_config(n, 5e-6)
    g = Grid.box(n, -0.5, 4.5, count)
    tracemalloc.start()
    try:
        est = estimate_A_norm(cfg, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < est < 1.0
    assert peak < 16 * count ** (n + 1)


# -- the Picard solver ---------------------------------------------------------


def test_solver_returns_f_without_coupling():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 3.0, 8)
    kf = solve_K(cfg, g)
    assert np.array_equal(kf.K.values, midpoint_pair_field(cfg, g).values)
    assert kf.report["iterations"] == 1
    assert kf.report["final_residual"] == 0.0
    assert kf.report["norm_estimate"] == 0.0


def test_solver_converges_when_the_count_equals_the_algebra_dimension():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.2, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 1.0, 4)
    assert g.counts[0] == 1 << cfg.level
    kf = solve_K(cfg, g)
    assert kf.report["converged"]
    assert 0.0 < kf.report["norm_estimate"] < 1.0


def _half_contraction_config(g):
    ref = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.35, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    est = estimate_A_norm(ref, g)
    return KernelConfig(a=(1.0, 0.0, -1.0), p=(0.35 * 0.5 / est, 0.0),
                        kappa=(-2.0,), w0=(0.0,))


def test_solver_contraction_profile_at_half_norm():
    g = Grid.box(1, -0.5, 3.0, 8)
    cfg = _half_contraction_config(g)
    kf = solve_K(cfg, g)
    rho = kf.report["norm_estimate"]
    assert rho == pytest.approx(0.5, abs=1e-10)
    ratios = [t["ratio"] for t in kf.trace if t["ratio"] is not None]
    assert ratios and max(ratios) <= 0.6
    assert kf.report["final_residual"] <= 10.0 * cfg.tol
    # geometric tail bound from the norm estimate, checked against the trace
    diffs = [t["diff"] for t in kf.trace]
    for m in range(len(diffs)):
        tail = sum(diffs[m + 1:])
        assert tail <= rho**m / (1.0 - rho) * diffs[0] * (1.0 + 1e-9) + 1e-30


def test_solver_refuses_above_unit_estimate_unless_forced():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.5, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 7.5, 33)
    with pytest.raises(ValueError, match="not a contraction"):
        solve_K(cfg, g)
    # the gate is conservative: forcing this configuration still converges
    kf = solve_K(cfg, g, force=True)
    assert kf.report["converged"]
    assert kf.report["final_residual"] <= 10.0 * cfg.tol
    assert kf.report["fixed_point_bound"] is None


def test_solver_refuses_a_nan_certificate():
    # f(x/2) overflows on this box, so the certificate is NaN; build_F
    # refuses the box before any exp, forced or not
    cfg = KernelConfig(a=(-1.0, -1.0, 0.0), p=(5e-6, 0.0), kappa=(-2.0, 0.0),
                       w0=(0.0, 0.0))
    g = Grid.box(2, -800.0, 800.0, 11)
    with np.errstate(all="ignore"):
        assert math.isnan(estimate_A_norm(cfg, g))
    for force in (False, True):
        with pytest.raises(ValueError, match=r"exp\(kappa \. x\) overflows"):
            solve_K(cfg, g, force=force)


def test_solver_divergence_carries_the_trace():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(9.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 3.0, 8)
    with pytest.raises(PicardDivergence) as err:
        solve_K(cfg, g, force=True)
    trace = err.value.trace
    assert len(trace) >= 4
    late = [t["ratio"] for t in trace[-3:]]
    assert all(r is not None and r >= 1.0 for r in late)


def test_solver_reports_iteration_budget_exhaustion():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.15, 0.0), kappa=(-2.0,),
                       w0=(0.0,), max_iter=3)
    g = Grid.box(1, -0.5, 3.0, 8)
    with pytest.raises(PicardDivergence, match="within 3 iterations"):
        solve_K(cfg, g)


# -- the residual on the diagonal ----------------------------------------------


def test_residual_is_exactly_zero_for_the_flat_configuration():
    cfg = KernelConfig(a=(1.0, 0.0, 0.0), p=(0.0, 0.0), kappa=(0.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.4, 3.4, 20)
    kf = solve_K(cfg, g)
    assert aux_residual(kf, g) == 0.0


def test_residual_refines_at_stencil_order_without_coupling():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    resid = []
    hs = []
    for count in (20, 39):
        g = Grid.box(1, -0.4, 3.4, count)
        kf = solve_K(cfg, g)
        resid.append(aux_residual(kf, g, collar=1.6))
        hs.append(g.spacings[0])
    order = math.log(resid[0] / resid[1]) / math.log(hs[0] / hs[1])
    assert order >= 3.5


def test_residual_level_stabilizes_under_refinement_with_coupling():
    # With coupling on, the diagonal residual converges to a fixed level
    # proportional to the weights rather than to zero; on a fixed physical
    # window the two finest grids must agree to a few percent and stay
    # below the raw scale of the nonlinear terms.
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.04, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    vals = []
    for count in (33, 65):
        g = Grid.box(1, -0.5, 7.5, count)
        kf = solve_K(cfg, g)
        vals.append(aux_residual(kf, g, collar=2.0))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.05
    assert vals[1] < 0.1


def test_residual_rejects_grids_thinner_than_the_stencil():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 3.0, 8)
    kf = solve_K(cfg, g)
    with pytest.raises(ValueError, match="too coarse"):
        aux_residual(kf, g)


@pytest.mark.parametrize("a, p, kappa, box, collar", [
    ((1.0, 0.0, 0.0), (0.0, 0.0), (0.0,), (-0.4, 3.4, 20), None),
    ((1.0, 0.0, -1.0), (0.04, 0.0), (-2.0,), (-0.5, 7.5, 33), 2.0),
], ids=["flat", "coupled"])
def test_residual_matches_dense_reference_in_one_dimension(a, p, kappa, box,
                                                           collar):
    # aux_residual works on K's separated terms; the reference applies the
    # pair operators to the dense, algebra-promoted K on all of V x V
    cfg = KernelConfig(a=a, p=p, kappa=kappa, w0=(0.0,))
    g = Grid.box(1, *box)
    kf = solve_K(cfg, g)
    got = aux_residual(kf, g, collar=collar)
    want = reference_aux_residual(kf, g, _collar_cells(g, collar))
    if cfg.p_total == 0.0:  # the flat configuration: both exactly 0
        assert got == want == 0.0
    else:
        assert want > 0.0
        assert abs(got - want) <= 1e-8 * want


@pytest.mark.parametrize("p", [(0.01, 0.005)], ids=["p2"])
def test_residual_rejects_algebra_valued_factors(p):
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=p, kappa=(-2.0,), w0=(0.0,))
    g = Grid.box(1, -0.5, 7.5, 33)
    kf = solve_K(cfg, g)
    assert kf.K.is_algebra_valued
    with pytest.raises(ValueError, match="scalar factors"):
        aux_residual(kf, g)


# -- reports -------------------------------------------------------------------


def test_report_serialization_is_deterministic():
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.05, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    g = Grid.box(1, -0.5, 3.0, 8)
    blobs = []
    for _ in range(2):
        kf = solve_K(cfg, g)
        blobs.append(_json_text(run_report(kf, g)))
    assert blobs[0] == blobs[1]
    assert '"norm_estimate"' in blobs[0]


# -- static guard: no BLAS or LAPACK call on a CLI stage's path ----------------
#
# OpenBLAS splits a long dot product across threads, so the order of its
# partial sums, and with it the last bits of the result, follows the thread
# count; and a stage that calls BLAS or LAPACK once faults in their code
# pages for that one call.  So no function a CLI stage reaches calls them:
# reductions are numpy sums, and the characteristic quadratic is solved in
# closed form.  The exceptions are sites no CLI stage reaches, each with
# its reason.  Every np.linalg.* name counts, as do the LAPACK-routed
# np.roots and np.polyfit.

_BLAS_CALLS = {"roots", "polyfit", "dot", "vdot", "inner", "tensordot",
               "matmul"}

_BLAS_ALLOWED = {
    ("algebra_ext", "CdElement.norm_sq"): "one element, at most 64 entries; "
                                          "no CLI stage calls it",
    ("calculus_ext", "_box_integral"): "sobolev_norm, which no CLI stage "
                                       "calls",
    ("randmeasure_ext", "fubini_check"): "a check that no CLI stage calls",
}


def _numpy_name(node):
    """'linalg.norm' for np.linalg.norm (or numpy.linalg.norm), else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id in ("np", "numpy"):
        return ".".join(reversed(parts))
    return None


def _sites(tree, label):
    """(enclosing qualified name, label(node)) of every node that `label`
    names (returns a truthy value for)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            what = label(child)
            if what:
                sites.append((".".join(scope) or "<module>", what))
            visit(child, scope)

    visit(tree, ())
    return sites


def _blas_construct(node):
    """The BLAS-routed construct that `node` is, or None."""
    if isinstance(node, ast.Call):
        name = _numpy_name(node.func)
        if name in _BLAS_CALLS or (name or "").startswith("linalg."):
            return f"np.{name}"
        if name == "einsum" and any(k.arg == "optimize"
                                    for k in node.keywords):
            return "np.einsum(optimize=...)"
    elif (isinstance(node, (ast.BinOp, ast.AugAssign))
          and isinstance(node.op, ast.MatMult)):
        return "@"
    return None


def _blas_sites(tree):
    """(enclosing qualified name, construct) of every BLAS-routed call."""
    return _sites(tree, _blas_construct)


def test_blas_guard_flags_each_construct():
    src = (
        "def f(a, b):\n"
        "    x = np.linalg.norm(a) + numpy.dot(a, b) + np.vdot(a, b)\n"
        "    y = np.inner(a, b) + np.tensordot(a, b) + np.matmul(a, b)\n"
        "    z = np.roots(a) + np.polyfit(a, b, 1) + numpy.linalg.eigvals(a)\n"
        "    a @= b\n"
        "    return a @ b + np.einsum('i,i', a, b, optimize=True)\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        return np.einsum('i,i', a, a) + np.sum(np.abs(a) ** 2)\n"
    )
    sites = _blas_sites(ast.parse(src))
    assert sorted(w for _, w in sites) == sorted([
        "np.linalg.norm", "np.dot", "np.vdot", "np.inner", "np.tensordot",
        "np.matmul", "np.roots", "np.polyfit", "np.linalg.eigvals", "@", "@",
        "np.einsum(optimize=...)"])
    assert {s for s, _ in sites} == {"f"}


def test_no_blas_reductions_outside_the_audited_sites():
    found, bad = set(), []
    for path in sorted(Path(cdburgers.__file__).parent.glob("*.py")):
        for scope, what in _blas_sites(ast.parse(path.read_text())):
            if (path.stem, scope) in _BLAS_ALLOWED:
                found.add((path.stem, scope))
            else:
                bad.append(f"{path.stem}.{scope}: {what}")
    assert not bad, f"BLAS or LAPACK calls outside the audited sites: {bad}"
    assert found == set(_BLAS_ALLOWED), (
        f"exceptions with no site left: {set(_BLAS_ALLOWED) - found}")


def test_f_midpoint_has_one_route_per_job():
    # F is sampled at the midpoint once (build_F) and K's terms take its
    # half argument factor (_f_half); every reader of K goes through the
    # terms
    found = {f"{path.stem}.{scope}"
             for path in Path(cdburgers.__file__).parent.glob("*.py")
             for scope, _ in _sites(ast.parse(path.read_text()),
                                    lambda n: _ref_name(n) == "f_midpoint")}
    assert found == {"kernel.build_F", "kernel._f_half"}


# -- static guard: no unused module-level imports ----------------------------


def _unused_imports(tree):
    """Names bound by module-level imports that the module never reads; a
    name listed in ``__all__`` counts as read."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return bound - used


def test_unused_import_guard_flags_only_unread_names():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d, e, f\n"
        "__all__ = ['e']\n"
        "def g():\n"
        "    return np.zeros(1), d\n"
    )
    assert _unused_imports(ast.parse(src)) == {"os", "b", "f"}


def test_no_unused_module_level_imports():
    unused = {}
    for path in sorted(Path(cdburgers.__file__).parent.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text()))
        if names:
            unused[path.stem] = sorted(names)
    assert not unused, f"unused module-level imports: {unused}"


def _ref_name(node):
    """The name a Name, Attribute or import alias node refers to."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or (
        node.name if isinstance(node, ast.alias) else None)


def _orphan_private_functions(trees: dict) -> set:
    """module.name of each private module-level function that no code in
    `trees` refers to outside its own definition."""
    refs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            refs[_ref_name(node)] = refs.get(_ref_name(node), 0) + 1
    return {f"{mod}.{fn.name}" for mod, tree in trees.items()
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            and not fn.name.startswith("__")
            and refs.get(fn.name, 0) == sum(_ref_name(n) == fn.name
                                            for n in ast.walk(fn))}


def test_orphan_guard_flags_only_unreferenced_private_functions():
    trees = {"a": ast.parse("def _used():\n    pass\n"
                            "def _alone(n):\n    return _alone(n - 1)\n"
                            "def public():\n    pass\n"),
             "b": ast.parse("from .a import _used\n")}
    assert _orphan_private_functions(trees) == {"a._alone"}


# only bench/spans.py wraps it; ROADMAP item 2 unblocks its removal
_ORPHANS_ALLOWED = {"kernel._diagonal_pair"}


def test_every_private_function_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(cdburgers.__file__).parent.glob("*.py"))}
    assert _orphan_private_functions(trees) == _ORPHANS_ALLOWED


# -- static guard: no default that nothing sets ------------------------------
#
# A defaulted parameter or dataclass field that no call in src/, demos/ or
# bench/ passes is a settable value with one value in use: a constant.  A
# call in a test does not make it a setting.

_ROOT = Path(cdburgers.__file__).resolve().parents[2]


def _defaults(tree, mod):
    """(label, call name, name, position) of each defaulted parameter of a
    public module-level function or a public class's method (or
    __init__), and of each defaulted field of a public dataclass; a
    constructor's call name is its class, and the position counts the
    arguments a call passes first (None when only a keyword reaches it)."""
    out = []

    def params(fn, label, call, first):
        args = fn.args.posonlyargs + fn.args.args
        start = len(args) - len(fn.args.defaults)
        out.extend((f"{label}.{a.arg}", call, a.arg, i - first)
                   for i, a in enumerate(args[start:], start))
        out.extend((f"{label}.{a.arg}", call, a.arg, None)
                   for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            params(node, f"{mod}.{node.name}", node.name, 0)
        if not isinstance(node, ast.ClassDef) or node.name[0] == "_":
            continue
        cls = f"{mod}.{node.name}"
        if any(_ref_name(getattr(d, "func", d)) == "dataclass"
               for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            out.extend((f"{cls}.{s.target.id}", node.name, s.target.id, i)
                       for i, s in enumerate(fields) if s.value is not None)
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and (
                    fn.name == "__init__" or fn.name[0] != "_"):
                static = any(_ref_name(d) == "staticmethod"
                             for d in fn.decorator_list)
                params(fn, f"{cls}.{fn.name}", node.name
                       if fn.name == "__init__" else fn.name, 1 - static)
    return out


def _unset_defaults(src: dict, callers: list) -> set:
    """Labels of the _defaults in `src` ({module: tree}) that no call in
    `callers` passes by keyword or position; a call with * or ** passes
    every parameter of the name it calls."""
    keywords, positions, star = set(), {}, set()
    for tree in callers:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _ref_name(call.func)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                star.add(name)
            keywords |= {(name, k.arg) for k in call.keywords}
            positions[name] = max(positions.get(name, 0), len(call.args))
    return {label for mod, tree in src.items()
            for label, name, param, pos in _defaults(tree, mod)
            if name not in star and (name, param) not in keywords
            and (pos is None or positions.get(name, 0) <= pos)}


def test_default_guard_flags_only_unset_values():
    src = {"a": ast.parse(
        "def f(x, y=1, *, z=2):\n    pass\n"
        "def g(x=1):\n    pass\n"
        "def _h(x=1):\n    pass\n"
        "class C:\n"
        "    def __init__(self, u=0):\n        pass\n"
        "    def _p(self, t=0):\n        pass\n"
        "    def m(self, v=0, w=0):\n        pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n    p: int\n    q: int = 0\n    r: int = 1\n"
        "@dataclass\n"
        "class _E:\n    s: int = 0\n")}
    callers = [src["a"], ast.parse(
        "f(0, 5)\ng(*xs)\nC().m(1)\nD(0, r=2)\n")]
    assert _unset_defaults(src, callers) == {
        "a.f.z", "a.C.__init__.u", "a.C.m.w", "a.D.q"}


# the defaults no call outside the tests sets, each with its reason to stay
# settable
_UNSET_ALLOWED = {
    "kernel.KernelField.trace": "filled by solve_K",
    "kernel.KernelField.report": "filled by solve_K",
    "kernel.KernelField.terms": "filled by solve_K",
    "kernel.apply_A.info": "the dense operator's tail bound, which the "
                           "oracle parity tests read",
    "kernel.aux_residual.collar": "the physical window of a paper-facing "
                                  "residual, which refinement checks fix",
    "translate.apply_pdo_on_grid.coeff_fields": "the coefficient-operator "
                                                "path of a paper-facing "
                                                "evaluator",
    "translate.apply_pdo_on_grid.maps": "the translated-form route of the "
                                        "same evaluator",
    "translate.lower_function.emb": "the embedding check of the paper's "
                                    "lowering map",
    **{f"translate.translate_system.{k}": "the paper's free choice of "
       "algebra level and index sets; the default is the standard one"
       for k in ("level", "q_indices", "l_indices")},
    "algebra_ext.euclid_products.cross": "the paper's n = 3 cross product "
                                         "through the algebra",
    "calculus.DiracSpec.xi": "the paper's sigma takes any basis-to-axis "
                             "map; the default is the identity",
    "calculus_ext.dirac_apply.slot": "sigma_y of the paper's pair "
                                     "operators, which the oracles apply",
    "calculus_ext.segment_integral.axis": "a paper-facing quadrature along "
                                          "any array axis",
    "calculus_ext.sobolev_norm.s": "the exponent s of the paper's "
                                   "W_{s,m,k} norm",
    "calculus_ext.tail_integral.r_inf": "the truncation radius of the "
                                        "paper-facing ray integral",
    "randmeasure.AtomicRandomMeasure.multiplier": "the paper's "
                                                  "multiplication operators; "
                                                  "1 on every stage's path",
}


def test_every_default_is_set_somewhere():
    src = {path.stem: ast.parse(path.read_text()) for path in
           sorted(Path(cdburgers.__file__).parent.glob("*.py"))}
    callers = [ast.parse(path.read_text())
               for top in ("src", "demos", "bench")
               for path in sorted((_ROOT / top).rglob("*.py"))]
    assert _unset_defaults(src, callers) == set(_UNSET_ALLOWED)
