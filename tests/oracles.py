"""Independent reference implementations used only by the test suite.

These are deliberately written in the most literal style possible (recursive
pairs, no tables, no vectorization) so they can serve as oracles for the
optimized library code.  The other references instead keep a library
computation in its unreduced form: the reference inner tail keeps the
product F(z, v) K(w, z) whole on its full broadcast grid instead of
factoring F, the reference expectation residual rebuilds the full pair
fields and applies the operators once per time row, the reference
S_1 and S_{2,a} compose Dirac applications instead of using the sigma^2
identity, the reference kernel operator and Picard solve sweep dense
pair fields over all of V x V instead of carrying separated factors, and
the reference linear residual applies S_{2,a} to the dense midpoint pair
field F instead of to the factors of F = f(x) f(y), the reference
auxiliary residual applies S_{2,a} and the Dirac operators to the dense,
algebra-promoted K on all of V x V instead of to K's separated terms, and
the reference pair moments form E u and E u^2 on all of V x V.  The
reference Cayley-Dickson product runs one einsum per output slot instead of
one einsum over a gather table.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cdburgers.calculus import (
    DiracSpec,
    GridField,
    diff_axis,
    dirac_apply,
    interior_slices,
    segment_integral,
)
from cdburgers.algebra import _mul_tables, mul_coeffs
from cdburgers.kernel import (
    _diagonal_pair,
    _p_coeffs,
    _pnorm,
    _scalar_weight,
    _weigh,
    _weigh_q,
    midpoint_pair_field,
    prefix_line_integrals,
    s2a_apply,
)
from cdburgers.workbench import _q_time_apply


class PairNumber:
    """Recursive doubled number: a scalar at depth 0, a pair (a, b) above.

    Multiplication uses the doubling rule

        (a, b) (c, d) = (a c - d* b, d a + b c*)

    with conjugation (a, b)* = (a*, -b) and scalar* = scalar.  Integer
    scalars stay int, so basis products stay exact without Fraction.
    """

    __slots__ = ("depth", "a", "b", "value")

    def __init__(self, depth, a=None, b=None, value=None):
        self.depth = depth
        if depth == 0:
            self.a = self.b = None
            self.value = value if type(value) is int else Fraction(value)
        else:
            assert a.depth == depth - 1 and b.depth == depth - 1
            self.a, self.b, self.value = a, b, None

    @classmethod
    def scalar(cls, depth, value):
        if depth == 0:
            return cls(0, value=value)
        half = cls.scalar(depth - 1, value)
        zero = cls.zero(depth - 1)
        return cls(depth, half, zero)

    @classmethod
    def zero(cls, depth):
        return cls.scalar(depth, 0)

    @classmethod
    def basis(cls, depth, index):
        """The basis element with 1 in coefficient slot `index`."""
        coeffs = [0] * (2 ** depth)
        coeffs[index] = 1
        return cls.from_coeffs(coeffs)

    @classmethod
    def from_coeffs(cls, coeffs):
        n = len(coeffs)
        if n == 1:
            return cls(0, value=coeffs[0])
        a = cls.from_coeffs(coeffs[: n // 2])
        b = cls.from_coeffs(coeffs[n // 2:])
        depth = a.depth + 1
        return cls(depth, a, b)

    def coeffs(self):
        if self.depth == 0:
            return [self.value]
        return self.a.coeffs() + self.b.coeffs()

    def conj(self):
        if self.depth == 0:
            return PairNumber(0, value=self.value)
        return PairNumber(self.depth, self.a.conj(), -self.b)

    def __neg__(self):
        if self.depth == 0:
            return PairNumber(0, value=-self.value)
        return PairNumber(self.depth, -self.a, -self.b)

    def __add__(self, other):
        if self.depth == 0:
            return PairNumber(0, value=self.value + other.value)
        return PairNumber(self.depth, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.depth == 0:
            return PairNumber(0, value=self.value * other.value)
        a, b, c, d = self.a, self.b, other.a, other.b
        return PairNumber(
            self.depth,
            a * c - d.conj() * b,
            d * a + b * c.conj(),
        )


def laplace_apply(f: GridField, slot: str = "x") -> GridField:
    """Sum of second derivatives over the axes of the chosen slot."""
    axes = f._spatial_axes(slot)
    h = f.grid.spacings
    out = np.zeros_like(f.values)
    for a, ax in enumerate(axes):
        out += diff_axis(f.values, ax, h[a], order=2)
    return GridField(f.grid, f.arity, out, f.level)


def oracle_basis_product(level, j, k):
    """(index, sign) of i_j i_k at the given doubling level, or the raw
    coefficient list if the product is not a signed basis element."""
    prod = PairNumber.basis(level, j) * PairNumber.basis(level, k)
    coeffs = prod.coeffs()
    nonzero = [(i, c) for i, c in enumerate(coeffs) if c != 0]
    assert len(nonzero) == 1, coeffs
    index, sign = nonzero[0]
    assert sign in (1, -1)
    return index, int(sign)


def oracle_mul(level, xs, ys):
    """Coefficient list of the product of two coefficient lists."""
    prod = PairNumber.from_coeffs(list(xs)) * PairNumber.from_coeffs(list(ys))
    assert prod.depth == level
    return prod.coeffs()


def reference_mul_coeffs(a, b, level):
    """The Cayley-Dickson product as one einsum per output slot: out[m] is
    the sum over the (j, k) with i_j i_k = ±i_m of sgn[j,k] a[j] b[k]."""
    idx, sgn = _mul_tables(level)
    a = np.asarray(a)
    b = np.asarray(b)
    n = 1 << level
    out_shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n,)
    out = np.zeros(out_shape, dtype=np.result_type(a.dtype, b.dtype,
                                                   np.float64))
    for m in range(n):
        j, k = np.nonzero(idx == m)
        s = sgn[j, k].astype(np.float64)
        out[..., m] = np.einsum("...j,...j->...", a[..., j] * s, b[..., k])
    return out


def reference_inner_tail(kvals, config, grid):
    """Innermost stage of the kernel operator, I(w, v) = int_w^inf F(z, v)
    K(w, z) dz, with F(z, v) = exp(kappa . (z + v)/2) left unfactored.

    The ray runs along the tail axis a of the config from z_a = w_a to the
    box edge, or to the last node within r_inf (at least one cell); off
    that axis z equals w.  The product F K is formed on the full broadcast
    (w_1 .. w_n, zeta, v_1 .. v_n, coeff), each ray is integrated on its
    own, and the segment factor i_b psi_b^-1 N^-1 comes from the pair
    product.  Returns the table over (w, v) with a trailing coefficient
    axis, and the tail bound |psi_b^-1 N^-1| max |F K| at the outgoing edge
    divided by the decay rate -kappa_a / 2.
    """
    n, a, level = config.n, config.tail_axis, config.level
    counts, m, h = grid.counts, grid.counts[a], grid.spacings[a]
    spec = config.dirac_spec()
    b = spec.basis_for_axis(a, n)
    scale = 1.0 / (spec.weights[b] * spec.n_active)
    coeffs = kvals if kvals.ndim == 2 * n + 1 else kvals[..., None]

    # K(w, z) on (w_1 .. w_n, zeta, 1 .. 1, coeff)
    ix = [np.arange(counts[c]).reshape([-1 if d == c else 1
                                        for d in range(n + 1)])
          for c in range(n)]
    zeta = np.arange(m).reshape([1] * n + [-1])
    kz = coeffs[tuple(ix) + tuple(zeta if c == a else ix[c]
                                  for c in range(n))]
    kz = kz.reshape(kz.shape[:n + 1] + (1,) * n + kz.shape[-1:])

    # F(z, v) on (w_1 .. w_n, zeta, v_1 .. v_n)
    tot = 2 * n + 1
    expo = np.zeros((1,) * tot)
    for c in range(n):
        x = grid.axis(c)
        z = x.reshape([-1 if d == (n if c == a else c) else 1
                       for d in range(tot)])
        v = x.reshape([-1 if d == n + 1 + c else 1 for d in range(tot)])
        expo = expo + config.kappa[c] * (z + v) / 2
    fk = np.exp(expo)[..., None] * kz

    rays = np.zeros(counts + counts + kz.shape[-1:], dtype=np.complex128)
    for i in range(m):
        end = m - 1
        if config.r_inf is not None:
            end = min(end, i + max(int(np.floor(config.r_inf / h + 1e-9)), 1))
        at_w = (slice(None),) * a + (slice(i, i + 1),)
        rays[at_w] = segment_integral(fk[at_w], h, i, end, axis=n)

    out = np.zeros(rays.shape[:-1] + (1 << level,), dtype=np.complex128)
    for k in range(rays.shape[-1]):
        j, sign = oracle_basis_product(level, b, k)
        out[..., j] += sign * scale * rays[..., k]
    edge = np.max(np.abs(fk[(slice(None),) * n + (m - 1,)]))
    bound = abs(scale) * edge / (-0.5 * config.kappa[a])
    return out, float(bound)


def reference_apply_A(K, config, grid, info=None):
    """The kernel operator on dense pair fields: reference_inner_tail's
    table over (w, v), then the line-integral prefix sweeps over all of
    V x V, in the y slot, the x slot and (p_2 != 0) the y slot again, each
    weighted as in the library.  `info` receives the tail bound."""
    n, level = config.n, config.level
    scalar_out = config.scalar_closed() and not K.is_algebra_valued
    lev = None if scalar_out else level
    if config.p_total == 0.0:
        return GridField.zeros(grid, "xy", level=lev)
    spec = config.dirac_spec()
    w0_idx = grid.node_index(config.w0)
    inner, bound = reference_inner_tail(K.values, config, grid)
    if info is not None:
        info["tail_bound"] = bound
    mid = prefix_line_integrals(inner, grid, w0_idx, spec, group_offset=n)
    T = prefix_line_integrals(mid, grid, w0_idx, spec, group_offset=0)
    out = _weigh(T, config, scalar_out)
    if _pnorm(config.p[1]) > 0:
        out = out + _weigh_q(prefix_line_integrals(
            T, grid, w0_idx, spec, group_offset=n), config)
    return GridField(grid, "xy", out, level=lev)


def reference_solve_K(config, grid):
    """Dense Picard iteration K_0 = F, K_{m+1} = F + A K_m on all of
    V x V with reference_apply_A, until the sup-norm step falls under
    config.tol or max_iter runs out.  Returns K and the report entries
    (iterations, converged, tail_bound, final_residual)."""
    lev = None if config.scalar_closed() else config.level
    base = midpoint_pair_field(config, grid)
    base = (base if lev is None else base.as_algebra(lev)).values
    K, info = base.copy(), {"tail_bound": 0.0}
    iterations, converged = 0, False
    while iterations < config.max_iter and not converged:
        Knew = base + reference_apply_A(GridField(grid, "xy", K, level=lev),
                                        config, grid, info).values
        converged = float(np.max(np.abs(Knew - K))) < config.tol
        K, iterations = Knew, iterations + 1
    AK = reference_apply_A(GridField(grid, "xy", K, level=lev), config, grid,
                           info).values
    return K, {"iterations": iterations, "converged": converged,
               "tail_bound": info["tail_bound"],
               "final_residual": float(np.max(np.abs(K - base - AK)))}


def reference_expectation_residual(sol, margin, t_rows):
    """Max norm over the diagonal window of the expectation residual

        E{ Q(d/dt) S_0 u + gamma pi_1 (sigma_x + sigma_y)(u^2)
           + sigma u^2 } |_{x=y},

    one time row at a time: the pair fields sum_j xi_j p_j Q(d/dt)phi_j(t)
    S_0 K_j and sum_j xi_j^2 p_j phi_j(t)^2 K_j^2 are formed on all of V^2,
    sigma_x + sigma_y is applied to the second, and only then is the
    diagonal window taken.
    """
    spec = sol.spec
    grid = sol.grid
    n = grid.n
    dirac = DiracSpec.standard(n, spec.level)
    base_a = (-1.0, -spec.alpha, spec.beta)

    s0k = []
    qphi = []
    k2 = []
    for j in range(sol.size):
        s0k.append(s2a_apply(sol.kernels[j].K, dirac, base_a).values)
        qphi.append(_q_time_apply(sol._phi[j], grid.tau, spec.c))
        k2.append(sol.kernels[j].K.values * sol.kernels[j].K.values)

    worst = 0.0
    for ti in range(t_rows, grid.t_count - t_rows):
        acc = None
        for j in range(sol.size):
            w = (sol.measure.xi[j] * sol.measure.p[j]) * qphi[j][ti]
            term = w * s0k[j]
            acc = term if acc is None else acc + term
        w2 = None
        for j in range(sol.size):
            cj = (sol.measure.xi[j] ** 2 * sol.measure.p[j]
                  * sol._phi[j][ti] ** 2)
            term = cj * k2[j]
            w2 = term if w2 is None else w2 + term
        w2f = GridField(grid, "xy", w2)
        sig = (dirac_apply(w2f, dirac, slot="x").values
               + dirac_apply(w2f, dirac, slot="y").values)
        acc[..., 0] += spec.gamma * sig[..., 1] + spec.varsigma * w2
        diag = _diagonal_pair(acc, n, margin, grid.counts)
        worst = max(worst, float(np.max(np.abs(diag))))
    return worst


def reference_lhs_field(K, config):
    """The auxiliary-equation left side on all of V^2, as algebra
    coefficients: S_{2,a} v + q_1 pi_1 (sigma_x + sigma_y)(v^2) + q_2 v^2,
    with v = K promoted to the config's algebra."""
    spec, level = config.dirac_spec(), config.level
    v = K.as_algebra(level).values
    v2f = GridField(K.grid, "xy", mul_coeffs(v, v, level), level=level)
    out = s2a_apply(K, spec, config.a).values
    sig = (dirac_apply(v2f, spec, slot="x").values
           + dirac_apply(v2f, spec, slot="y").values)
    out[..., 0] += _scalar_weight(config.q[0]) * sig[..., 1]
    out += mul_coeffs(v2f.values, _p_coeffs(config.q[1], level), level)
    return out


def reference_aux_residual(kf, grid, margin):
    """Max norm of reference_lhs_field on the diagonal x = y over the
    window that drops `margin` cells at each end of every axis."""
    lhs = reference_lhs_field(kf.K, kf.config)
    return float(np.max(np.abs(_diagonal_pair(lhs, grid.n, margin,
                                              grid.counts))))


def reference_mean_pair(sol, t_index):
    """E u(t, x, y) at one time sample, on the full pair grid."""
    out = None
    for j in range(sol.size):
        w = sol.measure.xi[j] * sol._phi[j][t_index]
        term = sol.measure.p[j] * (w * sol.kernels[j].K.values)
        out = term if out is None else out + term
    return out


def reference_second_pair(sol, t_index):
    """E u^2(t, x, y) at one time sample, on the full pair grid."""
    out = None
    for j in range(sol.size):
        w = sol.measure.xi[j] * sol._phi[j][t_index]
        field = w * sol.kernels[j].K.values
        term = sol.measure.p[j] * (field * field)
        out = term if out is None else out + term
    return out


def reference_linear_residual(sol, margin, t_rows):
    """The linear residual max_j |xi_j p_j| max_t |Q(d/dt) phi_j(t)| times
    the window max of |S_0 F|, with S_0 = S_{2,a} at a = (-1, -alpha, beta)
    applied to the midpoint pair field F on all of V x V."""
    spec, grid = sol.spec, sol.grid
    dirac = DiracSpec.standard(grid.n, spec.level)
    fpair = midpoint_pair_field(sol.kernels[0].config, grid)
    s0f = s2a_apply(fpair, dirac, (-1.0, -spec.alpha, spec.beta)).values
    win = interior_slices(s0f.shape[:-1], range(2 * grid.n), margin)
    s_norm = float(np.max(np.abs(s0f[win + (slice(None),)])))
    linear = 0.0
    for j in range(sol.size):
        qphi = _q_time_apply(sol._phi[j], grid.tau, spec.c)
        q_norm = float(np.max(np.abs(qphi[t_rows:-t_rows])))
        weight = abs(sol.measure.xi[j] * sol.measure.p[j])
        linear = max(linear, weight * q_norm * s_norm)
    return linear


def reference_s1_apply(f, spec):
    """S_1 f = sigma_x^2 f - sigma_y^2 f on a pair field."""
    sx = dirac_apply(dirac_apply(f, spec, slot="x"), spec, slot="x")
    sy = dirac_apply(dirac_apply(f, spec, slot="y"), spec, slot="y")
    return GridField(f.grid, f.arity, sx.values - sy.values, level=sx.level)


def reference_s2a_apply(f, spec, a):
    """S_{2,a} f = a_1 (sigma_x^2 + sigma_y^2)^2 f + a_2 (...) f + a_3 f."""
    sx = dirac_apply(dirac_apply(f, spec, slot="x"), spec, slot="x")
    sy = dirac_apply(dirac_apply(f, spec, slot="y"), spec, slot="y")
    s = GridField(f.grid, f.arity, sx.values + sy.values, level=sx.level)
    sx2 = dirac_apply(dirac_apply(s, spec, slot="x"), spec, slot="x")
    sy2 = dirac_apply(dirac_apply(s, spec, slot="y"), spec, slot="y")
    base = f.as_algebra(spec.level).values
    vals = a[0] * (sx2.values + sy2.values) + a[1] * s.values + a[2] * base
    return GridField(f.grid, f.arity, vals, level=spec.level)
