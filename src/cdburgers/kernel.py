"""Integral-equation kernel: build F, apply the operator A, solve K = F + AK.

The auxiliary pair problem couples two constant-coefficient operators on
V x V,

    S_1     = sigma_x^2 - sigma_y^2,
    S_{2,a} = a_1 (sigma_x^2 + sigma_y^2)^2 + a_2 (sigma_x^2 + sigma_y^2) + a_3,

with an integral operator built from noncommutative line integrals.  Both of
its weighted terms factor through the same triple integral

    T(x, e) = int_{w0}^x [ int_{w0}^e [ int_w^inf F(z, v) K(w, z) dz ] dv ] dw,

the first term being p_1 pi_1(T(x, y)) and the second p_2 times one more
line-integral prefix of T(x, .) in the second slot, taken up to y.  In the
quaternion variant p_1 and p_2 multiply on the right and no projection is
taken.

F(z, v) = f(z/2) f(v/2), f(s) = exp(kappa . s), so A K(x, y) = sum_s
g_s(x) V_s(y).  A line integral from w0 is a sum of n staircase segments
under left units i_{b_c}, each integrated once (_segments): the y factors
V_s are segments of f(v/2), and the x factors g_s signed permutations
(_chain) of the segments of K's tail ray.  K is kept as its terms
u_t(x) v_t(y), f(x/2) f(y/2) and g_s(x) V_s(y); its ray is sum_t u_t(w)
R_t(w), R_t tail-ray integrals of f(z/2) v_t(z), free of K.  So the
Picard solve builds the R_t once, every sweep acts on N^n nodes, none on
N^{n+1} or N^{2n}, and the sup-norm certificate takes its algebra from
the same _chain.  The terms are K's only definition: the dump writes them,
the dense K and its diagonal expand them, and the residual at x = y is
evaluated from them one V factor at a time (Beylkin & Mohlenkamp, 2005).

F comes from the closed family F(x, y) = exp(kappa . (x + y)/2).  Any
function of the midpoint alone is annihilated by S_1, and membership in the
kernel of S_{2,a} reduces to the scalar characteristic condition

    a_1 k^4 / 16  -  a_2 k^2 / 4  +  a_3 = 0,        k^2 = sum_j kappa_j^2,

under the weight-2^{-1/2} Dirac spec.  build_F enforces the condition to
1e-10; the test suite re-derives it independently with sympy before trusting
this module.

The ray of the innermost integral runs along the axis where kappa is most
negative, truncated at the box edge under an exponential decay
certificate, mirroring calculus.tail_integral.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import _mul_tables, basis_mul_coeffs, level_for
from .calculus import (
    DiracSpec,
    Grid,
    GridField,
    cumulative_integral,
    diff_axis,
    dump_terms,
    interior_slices,
    _d1,
    _segment_factor,
    _separated,
)

__all__ = [
    "KernelConfig",
    "KernelField",
    "PicardDivergence",
    "characteristic_lhs",
    "admissible_kappa",
    "build_F",
    "midpoint_pair_field",
    "s1_apply",
    "s2a_apply",
    "apply_A",
    "estimate_A_norm",
    "solve_K",
    "aux_residual",
    "aux_diagnostics",
    "run_report",
    "prefix_line_integrals",
]

# S_{2,a} stacks four first differences per axis; its stencil reaches 8
# cells, which dominates every other operator in this module.
S2_REACH = 8


def characteristic_lhs(a, ksq) -> complex:
    """Left side of the admissibility condition for exp(kappa . s) kernels."""
    a1, a2, a3 = a
    return a1 * ksq * ksq / 16.0 - a2 * ksq / 4.0 + a3


def admissible_kappa(a, n: int):
    """A decay vector satisfying the characteristic condition.

    Solves A k^4 + B k^2 + C = 0 (A = a_1/16, B = -a_2/4, C = a_3) in closed
    form, roots q/A and C/q with q = -(B +- d)/2, d = sqrt(B^2 - 4AC), the
    sign that avoids cancellation (complex a too); exactly 0 and -B/A when
    C = 0.  Takes the smallest real positive root and points the vector
    down the first axis as (-k, 0, ..., 0) so the tail ray decays.  Raises
    if a does not have 3 entries, a_1 = 0, an entry is not finite, or no
    real positive root exists.
    """
    _check_length("a", a, 3)
    _check_finite("a", a)
    if a[0] == 0:
        raise ValueError("a_1 must be nonzero")
    A, B, C = a[0] / 16.0, -a[1] / 4.0, a[2]
    d = complex(np.sqrt(complex(B * B - 4 * A * C)))
    q = -(B + d) / 2 if (B.conjugate() * d).real >= 0 else -(B - d) / 2
    # q = 0 only if B = d = 0; for C = 0 this keeps np.roots' exact -B/A
    roots = [q / A, C / q] if C != 0 and q != 0 else [0j, complex(-B / A)]
    real = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 1e-14]
    if not real:
        raise ValueError(f"no real positive k^2 root for a = {a}")
    kappa = np.zeros(n)
    kappa[0] = -float(np.sqrt(min(real)))
    return tuple(kappa)


def _check_length(name: str, values, count: int) -> None:
    if len(values) != count:
        raise ValueError(f"{name} must have {count} entries, got {values}")


def _check_finite(name: str, values) -> None:
    entries = values if isinstance(values, (tuple, list)) else [values]
    if not all(v is None or np.isfinite(np.asarray(v, dtype=complex)).all()
               for v in entries):
        raise ValueError(f"{name} must be finite, got {values}")


def _pnorm(p_j) -> float:
    """Largest coefficient modulus of a weight (callers test it against 0)."""
    return float(np.max(np.abs(np.asarray(p_j, dtype=complex)), initial=0.0))


def _p_coeffs(p_j, level: int) -> np.ndarray:
    """Coefficient vector of a weight: a scalar, or an explicit coefficient
    tuple, embedded in the level-`level` algebra."""
    arr = np.atleast_1d(np.asarray(p_j, dtype=np.complex128))
    out = np.zeros(1 << level, dtype=np.complex128)
    out[: arr.size] = arr
    return out


@dataclass(frozen=True)
class KernelConfig:
    """Data of one auxiliary problem: operator coefficients a, integral
    weights p, kernel decay kappa, basepoint w0, and the solver's iteration
    cap max_iter, step tolerance tol and weight variant.  The algebra level
    is derived from n and p (see `level`)."""

    a: tuple  # (a_1, a_2, a_3), a_1 != 0
    p: tuple  # (p_1, p_2); entries scalar or coefficient tuples
    kappa: tuple  # decay vector of F, one entry per spatial axis
    w0: tuple  # basepoint, an interior lattice node of V
    max_iter: int = 40
    tol: float = 1e-10
    variant: str = "complex"  # "complex" or "quaternion"

    def __post_init__(self):
        _check_length("a", self.a, 3)
        _check_length("p", self.p, 2)
        for name in ("a", "p", "kappa", "w0"):
            _check_finite(name, getattr(self, name))
        if self.a[0] == 0:
            raise ValueError("a_1 must be nonzero")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.variant not in ("complex", "quaternion"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.w0) != len(self.kappa):
            raise ValueError("w0 and kappa dimensions differ")
        if self.variant == "complex" and any(np.size(w) != 1 for w in self.p):
            raise ValueError("complex-scalar variant takes scalar weights p")

    @property
    def q(self) -> tuple:
        """Nonlinearity weights, tied to p exactly."""
        out = []
        for p_j in self.p:
            arr = np.atleast_1d(np.asarray(p_j, dtype=complex))
            scaled = (-2 * self.a[0] * arr).tolist()
            out.append(scaled[0] if arr.size == 1 else tuple(scaled))
        return tuple(out)

    @property
    def n(self) -> int:
        return len(self.kappa)

    @property
    def level(self) -> int:
        """The smallest algebra holding i_0..i_n and every coefficient of
        p_1 and p_2."""
        return level_for(max(self.n + 1, *(np.size(w) for w in self.p)))

    @property
    def p_total(self) -> float:
        return _pnorm(self.p[0]) + _pnorm(self.p[1])

    @property
    def ksq(self) -> float:
        return float(np.sum(np.square(self.kappa)))

    @property
    def tail_axis(self) -> int:
        return int(np.argmin(self.kappa))

    @property
    def decay_rate(self) -> float:
        """Decay rate of F along the tail ray, in the ray coordinate."""
        return -0.5 * float(self.kappa[self.tail_axis])

    def dirac_spec(self) -> DiracSpec:
        return DiracSpec.standard(self.n, self.level)

    def f_midpoint(self, *coords):
        """Closed form of F in the midpoint variable, exact off-lattice."""
        out = coords[0] * self.kappa[0]
        for c, k in zip(coords[1:], self.kappa[1:]):
            out = out + c * k
        return np.exp(out)

    def scalar_closed(self) -> bool:
        """Whether the operator maps scalar pair fields to scalar ones.

        The projected first term is scalar; only the second term (or the
        quaternion right weights) leaves the scalar line.
        """
        return self.variant == "complex" and _pnorm(self.p[1]) == 0.0


@dataclass
class KernelField:
    """F (midpoint samples over V) and K's separated terms (u_t, v_t) on V,
    K = sum_t u_t(x) v_t(y): _f_term's (f(x/2), f(y/2)), then the solve's
    (g_s, V_s).  The terms are K's one definition: dump_K writes them, and
    K and diagonal() evaluate them at pair nodes by _separated."""

    F: GridField
    config: KernelConfig
    trace: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    terms: list = field(default_factory=list)

    @property
    def K(self) -> GridField:
        """K on V x V.  Allocates a V x V array on each read, which only the
        tests make; dump_K writes the terms instead."""
        return _pair_field(self.terms, self.config, self.F.grid)

    def dump_K(self, path: str) -> None:
        """Write K as its terms (calculus.dump_terms), as stored; load_field
        reads back K.values bit for bit."""
        cfg = self.config
        dump_terms(path, self.F.grid,
                   None if cfg.scalar_closed() else cfg.level, self.terms)

    def diagonal(self) -> np.ndarray:
        """K(x, x) on V, bit for bit the x = y entries of K.values."""
        ix = np.ix_(*[np.arange(k) for k in self.F.grid.counts])
        return _separated(*zip(*self.terms), ix + ix)


class PicardDivergence(RuntimeError):
    """Iteration stopped contracting; carries the trace so far."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


def build_F(config: KernelConfig, grid: Grid) -> KernelField:
    """Midpoint samples of F on V, gated by the characteristic condition;
    a box where exp(kappa . x) overflows is refused before any exp."""
    resid = abs(characteristic_lhs(config.a, config.ksq))
    if resid > 1e-10:
        raise ValueError(
            f"kappa is inadmissible: characteristic residual {resid:.3e}"
        )
    if grid.n != config.n:
        raise ValueError("grid dimension does not match kappa")
    if config.p_total > 0 and min(config.kappa) >= 0:
        raise ValueError("kappa has no decaying ray direction for the tail")
    grid.node_index(config.w0)
    for c, (lo, hi) in zip(config.w0, grid.bounds):
        if not (lo < c < hi):
            raise ValueError("w0 must lie in the interior of V")
    top = sum(max(k * lo, k * hi) for k, (lo, hi) in zip(config.kappa,
                                                         grid.bounds))
    if top > np.log(np.finfo(float).max):
        raise ValueError("exp(kappa . x) overflows on this box")
    F = GridField.from_function(grid, "x", config.f_midpoint)
    return KernelField(F=F, config=config)


def _f_half(config: KernelConfig, grid: Grid) -> np.ndarray:
    """f(x/2) = exp(kappa . x/2) on V, so F(x, y) = f(x/2) f(y/2)."""
    n = config.n
    return config.f_midpoint(*np.ix_(*[0.5 * grid.axis(c) for c in range(n)]))


def _f_term(config: KernelConfig, grid: Grid) -> tuple:
    """K's first term (f(x/2), f(y/2)), its x factor on i_0 unless
    scalar-closed."""
    f = _f_half(config, grid)
    if config.scalar_closed():
        return f, f
    return f[..., None] * np.eye(1 << config.level)[0], f


def _pair_field(terms, config: KernelConfig, grid: Grid) -> GridField:
    """sum_t u_t(x) v_t(y) on V x V by _separated, algebra-valued unless
    scalar-closed."""
    pairs = np.ix_(*[np.arange(k) for k in grid.counts * 2])
    return GridField(grid, "xy", _separated(*zip(*terms), pairs),
                     None if config.scalar_closed() else config.level)


def midpoint_pair_field(config: KernelConfig, grid: Grid) -> GridField:
    """F as a pair field on V^2, F(x, y) = f(x/2) f(y/2) from _f_term: the
    Picard start K_0, algebra-valued unless scalar-closed."""
    return _pair_field([_f_term(config, grid)], config, grid)


# ---------------------------------------------------------------------------
# the two-argument operators
# ---------------------------------------------------------------------------


def _sigma_sq(f: GridField, spec: DiracSpec, slot: str) -> np.ndarray:
    """sigma_slot^2 f = -sum_j psi_j^2 D_j D_j f, coefficient by coefficient.

    Generators square to -1 and anticommute, and i_j (i_k u) + i_k (i_j u)
    = (i_j i_k + i_k i_j) u in an alternative algebra, so the mixed terms
    cancel: on scalar fields at any level and on algebra-valued ones up to
    level 3 (octonions), with no active real unit; elsewhere ValueError.  D
    is dirac_apply's stencil, in its operation order; values keep f's shape.
    """
    if (f.is_algebra_valued and f.level > 3) or 0 in spec.active:
        raise ValueError("sigma^2 identity needs level <= 3, no real unit")
    axes, h = f._spatial_axes(slot), f.grid.spacings
    out = np.zeros_like(f.values)
    for j in spec.active:
        a, psi = spec.axis_for_basis(j, f.grid.n), spec.weights[j]
        out -= _d1(_d1(f.values, axes[a], h[a]) * psi, axes[a], h[a]) * psi
    return out


def s1_apply(f: GridField, spec: DiracSpec) -> GridField:
    """S_1 f = sigma_x^2 f - sigma_y^2 f on a pair field."""
    vals = _sigma_sq(f, spec, "x") - _sigma_sq(f, spec, "y")
    return GridField(f.grid, f.arity, vals, f.level).as_algebra(spec.level)


def s2a_apply(f: GridField, spec: DiracSpec, a) -> GridField:
    """S_{2,a} f = a_1 (sigma_x^2 + sigma_y^2)^2 f + a_2 (...) f + a_3 f."""
    s = GridField(f.grid, f.arity,
                  _sigma_sq(f, spec, "x") + _sigma_sq(f, spec, "y"), f.level)
    s2 = _sigma_sq(s, spec, "x") + _sigma_sq(s, spec, "y")
    vals = a[0] * s2 + a[1] * s.values + a[2] * f.values
    return GridField(f.grid, f.arity, vals, f.level).as_algebra(spec.level)


# ---------------------------------------------------------------------------
# vectorized quadrature stages
# ---------------------------------------------------------------------------


def _segments(values: np.ndarray, grid: Grid, w0_idx, spec,
              group_offset: int) -> list:
    """The n staircase segments of the line integrals from w0 over the grid
    axes of `values` from `group_offset` on: seg_c is the cumulative rule
    along axis c from w0, axes before c at the endpoint and after c at w0
    (kept with length 1), times psi_b^-1 N^-1; the line integral is
    sum_c i_{b_c} seg_c.  Every other axis, coefficients too, rides along."""
    n, segs = grid.n, []
    for c in range(n):
        ax, part = group_offset + c, values
        for b2 in range(c + 1, n):  # axes after c still at w0
            part = np.take(part, [w0_idx[b2]], axis=group_offset + b2)
        cum = cumulative_integral(part, grid.spacings[c], axis=ax)
        segs.append((cum - np.take(cum, [w0_idx[c]], axis=ax))
                    * _segment_factor(spec, c, n)[1])
    return segs


def prefix_line_integrals(values: np.ndarray, grid: Grid, w0_idx, spec,
                          group_offset: int) -> np.ndarray:
    """Line integrals from w0 over one argument group, sum_c i_{b_c} seg_c
    of the _segments: node for node calculus.line_integral.  A trailing
    axis of length 2^level holds algebra coefficients (added when absent).
    Only the bench and the test oracles call it; the solve reads segments.
    """
    n, level = grid.n, spec.level
    if not (values.ndim > group_offset + n and values.shape[-1] == 1 << level):
        values = values[..., None] * np.eye(1 << level)[0]  # coefficient 0
    segs = _segments(values, grid, w0_idx, spec, group_offset)
    return sum((basis_mul_coeffs(spec.basis_for_axis(c, n), seg, level)
                for c, seg in enumerate(segs)), np.zeros(values.shape))


def _ray_tables(h: np.ndarray, config: KernelConfig, grid: Grid):
    """Ray integrals R of f(z/2) h(z) along the tail axis a, on V.

    Off axis a the ray z equals w, so for K = sum_t u_t(x) v_t(y) the
    innermost stage int_w^inf F(z, v) K(w, z) dz is ray(w) f(v/2), ray(w)
    = sum_t u_t(w) R_t(w) with h = v_t: the prefix integral at the box
    edge minus that at w_a.  Trailing axes of h ride along.  Also returns
    the edge slice f h at z_a = m - 1 (axis a kept), which the tail
    certificate reads."""
    n, a = config.n, config.tail_axis
    f = _f_half(config, grid)
    g = f.reshape(f.shape + (1,) * (h.ndim - n)) * h
    cum = cumulative_integral(g, grid.spacings[a], axis=a)
    edge = (slice(None),) * a + (slice(-1, None),)
    return cum[edge] - cum, g[edge]


def _weigh(T: np.ndarray, config: KernelConfig):
    """The p_1 term of A K from the T sweep: p_1 pi_1(T) on i_0 in the
    complex variant, right multiplication by p_1 in the quaternion one."""
    p1, level = config.p[0], config.level
    if config.variant == "quaternion":
        from .algebra_ext import mul_coeffs  # no CLI stage runs this variant
        return mul_coeffs(T, _p_coeffs(p1, level), level)
    out = np.zeros_like(T)
    out[..., 0] = _scalar_weight(p1) * T[..., 1]
    return out


def _weigh_q(Q: np.ndarray, config: KernelConfig) -> np.ndarray:
    """The p_2 term of A K from the Q sweep, under the variant's weight."""
    if config.variant == "complex":
        return _scalar_weight(config.p[1]) * Q
    from .algebra_ext import mul_coeffs  # no CLI stage runs this variant
    return mul_coeffs(Q, _p_coeffs(config.p[1], config.level), config.level)


def _y_factors(config: KernelConfig, grid: Grid) -> np.ndarray:
    """The y factors V_s of A K = sum_s g_s(x) V_s(y), shape (r,) + counts:
    the n y segments Y_c of f(v/2) (the i_{b_c} coefficients of its line
    integral), and when p_2 != 0 the n^2 segments Q_{c'' c} of the Y_c
    (s = n + c'' n + c)."""
    n, spec = config.n, config.dirac_spec()
    w0_idx = grid.node_index(config.w0)
    Y = _segments(_f_half(config, grid), grid, w0_idx, spec, 0)
    Y = np.stack(np.broadcast_arrays(*Y))
    if _pnorm(config.p[1]) == 0:
        return Y
    Q = np.stack(np.broadcast_arrays(*_segments(Y, grid, w0_idx, spec, 1)))
    return np.concatenate([Y, Q.reshape((n * n,) + Y.shape[1:])])


def _chain(segs, config: KernelConfig, unit: int | None = None) -> list:
    """The x factors g_s, in _y_factors' order, from the x segments seg_c'
    of i_b scale ray, coefficients last or scalars on i_unit: G_c = sum_c'
    i_{b_c'} i_{b_c} seg_c' (from +0.0 zeros) pairs with Y_c under _weigh
    or p_1 pi_1, and when p_2 != 0 _weigh_q(i_{b_c''} G_c) with Q_{c'' c}."""
    n, level, spec = config.n, config.level, config.dirac_spec()
    bs = [spec.basis_for_axis(c, n) for c in range(n)]
    if unit is not None:  # units permute signed: one seg_c' lands on i_1
        idx, sgn = _mul_tables(level)
        return [_scalar_weight(config.p[0]) * sum(
            (sgn[b, unit] * sgn[b2, k] * seg
             for b2, seg in zip(bs, segs) if idx[b2, k] == 1),
            np.zeros(segs[-1].shape)) for b, k in zip(bs, idx[bs, unit])]
    G = [sum((basis_mul_coeffs(b2, basis_mul_coeffs(b, seg, level), level)
              for b2, seg in zip(bs, segs)), np.zeros(segs[-1].shape))
         for b in bs]
    gs = [_weigh(Gc, config) for Gc in G]
    if _pnorm(config.p[1]) > 0:
        gs += [_weigh_q(basis_mul_coeffs(b, Gc, level), config)
               for b in bs for Gc in G]
    return gs


def _x_factors(ray: np.ndarray, edge: np.ndarray, config: KernelConfig,
               grid: Grid):
    """The x factors g_s of A K = sum_s g_s(x) V_s(y), in _y_factors' order,
    from K's ray integrals (see _ray_tables) under the tail axis's segment
    factor, plus the tail bound from `edge`, f(z/2) K(w, z) at z_a = m - 1
    in any layout (only its largest modulus is read).

    The y sweep of ray(w) f(v/2) falls on the scalar Y_c, so T = sum_c
    G_c(x) Y_c(y).  The ray's n x segments are integrated once (a scalar
    ray's on i_b i_0 = i_b, only under a scalar-closed config, where apply_A
    does not lift K), and _chain permutes them.  No factors when p = 0.
    """
    if min(grid.counts) < 4:
        raise ValueError("quadrature nodes exhausted: need at least 4 nodes "
                         "per axis")
    if config.p_total == 0.0:
        return [], 0.0
    if min(config.kappa) >= 0:
        raise ValueError("decay certificate missing: kappa has no decaying "
                         "ray")
    n, level, spec = config.n, config.level, config.dirac_spec()
    b, scale = _segment_factor(spec, config.tail_axis, n)
    scalar = ray.ndim == n
    ray = ray * scale if scalar else basis_mul_coeffs(b, ray * scale, level)
    segs = _segments(ray, grid, grid.node_index(config.w0), spec, 0)
    # decay certificate measured at the outgoing edge slice; the v factor
    # is positive, so its maximum scales the edge maximum exactly
    rate = config.decay_rate
    cert = float(np.max(np.abs(edge))) * float(np.max(_f_half(config, grid)))
    bound = abs(scale) * cert / rate if rate > 0 else float("inf")
    return _chain(segs, config, b if scalar else None), bound


def _separated_sup(ds, V: np.ndarray) -> float:
    """Sup norm of sum_s d_s(x) V_s(y) on V x V, without forming it.

    Visits (x, coefficient) rows in decreasing order of the bound sum_s
    |d_s| max |V_s| (summed one term at a time, inflated to cover
    rounding) in chunks of 1, 2, 4, ... up to 64 rows, reads them from
    the d_s in place, forms their entries in _separated's order, so the max
    keeps its bits, and stops once no row left can exceed it; a NaN row
    bound makes the sup NaN.  Fixed-order numpy sums; 0.0 without factors.
    """
    if not ds:
        return 0.0
    Vf = V[:len(ds)].reshape(len(ds), -1)
    B = np.zeros(ds[0].shape)  # rows (x, coefficient), C order
    for d, v in zip(ds, Vf):  # one term at a time, in order of s
        B += np.abs(d) * np.max(np.abs(v))
    B *= 1.0 + 1e-12
    B = B.ravel()
    order = np.argsort(-B, kind="stable")
    sup, i, step = (np.nan if np.isnan(B).any() else 0.0), 0, 1
    while i < order.size and B[order[i]] >= sup:
        rows = np.unravel_index(order[i:i + step], ds[0].shape)
        out = 0.0
        for d, v in zip(ds, Vf):
            out = out + d[rows][:, None] * v
        sup = max(sup, float(np.max(np.abs(out))))
        i, step = i + step, min(2 * step, 64)
    return sup


def _term_rays(us, tables):
    """The ray integrals and edge slice of K = sum_t u_t(x) v_t(y) from the
    _ray_tables of the v_t (term axis last): sum_t u_t T_t, in order."""
    return tuple(sum(u * T[(..., t) + (None,) * (u.ndim - T.ndim + 1)]
                     for t, u in enumerate(us)) for T in tables)


def apply_A(K: GridField, F, config: KernelConfig, grid: Grid,
            info: dict | None = None) -> GridField:
    """One application of the integral operator to a pair field.

    K is dense, so _ray_tables integrates H(z, j) = K((z with z_a -> j), z)
    along z_a (N^n x N nodes); the diagonal j = w_a is K's ray at w.  Forms
    the x factors and expands sum_s g_s(x) V_s(y) on V x V.  A scalar K
    is put on i_0 unless the operator is scalar-closed (complex variant
    with p_2 = 0), so only a scalar-closed one maps it to a scalar field.
    The `info` dict, when given, receives the tail truncation bound.
    """
    if K.arity != "xy":
        raise ValueError("apply_A expects a pair field over V^2")
    if K.grid.counts != grid.counts or K.grid.bounds != grid.bounds:
        raise ValueError("field grid does not match")
    if K.is_algebra_valued and K.level != config.level:
        raise ValueError("field level does not match the config")
    K = K if config.scalar_closed() else K.as_algebra(config.level)
    n, a = config.n, config.tail_axis
    ix = np.ix_(*[np.arange(k) for k in grid.counts + (grid.counts[a],)])
    xz = tuple(ix[n] if c == a else ix[c] for c in range(n))  # z_a -> j
    R, edge = _ray_tables(K.values[xz + ix[:n]], config, grid)
    gs, bound = _x_factors(np.moveaxis(np.diagonal(R, 0, a, n), -1, a),
                           edge, config, grid)
    if info is not None:
        info["tail_bound"] = bound
    if not gs:
        return GridField.zeros(grid, "xy", level=K.level)
    pairs = np.ix_(*[np.arange(k) for k in grid.counts * 2])
    out = _separated(gs, _y_factors(config, grid), pairs)
    return GridField(grid, "xy", out, level=K.level)


# ---------------------------------------------------------------------------
# operator norm estimate and the Picard solver
# ---------------------------------------------------------------------------


def estimate_A_norm(config: KernelConfig, grid: Grid) -> float:
    """Certified bound on the sup-norm operator norm of the discretized A.

    A = B R: the ray stage R reads K(w, z) along w's tail ray with weight
    scale W(w_a, z_a) f(z/2) (W the cumulative rule's rows from w_a to the
    box edge); B is separable, A K(x, y) = sum_{c, s} L_{c, s}[X_c[R K](x)]
    V_s(y), X_c the x segment along axis c, V_s the y factors and L the
    solve's own _chain run once on unit segments (seg_j the unit at index j
    of a leading axis, k over the input slots).  X_c R is a Kronecker
    product of 1-D maps (the identity before c, the rule rows from w0 on c,
    w0 after c), each weighted by |f_ax|, or on the tail axis by sum_z
    |W(w_a, z) f_a(z)|, so its max row sum Sx[c] = |scale| times the
    product of the factors' max row sums (Van Loan, 2000).  The triangle
    inequality over the chain terms gives the bound max_e sum_{c, s, k}
    |L[c, s, k, e]| Sx[c] max |V_s|: it dominates ||A||_inf, so a gate on
    it certifies every Picard sup-norm step ratio, and it stays flat in N
    (A is a Volterra operator in x).  Fixed-order numpy sums; NaN when f
    overflows.
    """
    if config.p_total == 0.0:
        return 0.0
    n, a, level = config.n, config.tail_axis, config.level
    spec, w0_idx = config.dirac_spec(), grid.node_index(config.w0)
    b, scale = _segment_factor(spec, a, n)
    Sx = np.full(n, abs(scale))
    for ax, k in enumerate(grid.counts):
        d = np.abs(np.exp(0.5 * grid.axis(ax) * config.kappa[ax]))
        R = cumulative_integral(np.eye(k), grid.spacings[ax])
        if ax == a:
            d = np.sum(np.abs(R[-1] - R) * d, axis=1)
        X = np.abs(_segment_factor(spec, ax, n)[1] * (R - R[w0_idx[ax]]))
        Sx = Sx * [d[w0_idx[ax]] if ax > c else np.max(d) if ax < c else
                   np.max(np.sum(X * d, axis=1)) for c in range(n)]
    unit = b if config.scalar_closed() else None  # one scalar slot, on i_b
    E = np.eye(1 << level if unit is None else 1, dtype=np.complex128)
    L = np.stack(_chain([np.eye(n)[:, c, None, None] * E for c in range(n)],
                        config, unit), axis=1)
    V = np.max(np.abs(_y_factors(config, grid).reshape(L.shape[1], -1)),
               axis=1)
    return float(np.max(np.einsum("cske,c,s->e", np.abs(L), Sx, V)))


def solve_K(config: KernelConfig, grid: Grid,
            force: bool = False) -> KernelField:
    """Picard iteration K_0 = F, K_{m+1} = F + A K_m, to the fixed point.

    Iterates on the x factors of K_m = F + sum_s g_s(x) V_s(y): K_m's tail
    ray comes from the _ray_tables of f(y/2) and the V_s, built once, so
    no array reaches N^{n+1} nodes: kf.terms keeps K's terms, _f_term's,
    then the final (g_s, V_s).  Every norm is the sup norm over V x V and
    coefficients, from the factors by _separated_sup: each step's diff and
    ratio, and final_residual, that of sum_s (g_s - (A K)_s) V_s.

    Stops when the step falls under config.tol; raises PicardDivergence
    after three consecutive step ratios >= 1.  Refuses to start, unless
    forced, when the bound q on ||A||_inf (estimate_A_norm) is not below 1
    (or NaN); below 1 every step contracts by q, and fixed_point_bound =
    q / (1 - q) times the last step bounds the sup distance to the fixed
    point.
    """
    kf = build_F(config, grid)
    est = estimate_A_norm(config, grid)
    if not est < 1.0 and not force:
        raise ValueError(
            f"operator norm estimate {est:.4g} is not below 1: Picard "
            "iteration is not a contraction (pass force=True to try anyway)"
        )
    (f0, f), V = _f_term(config, grid), _y_factors(config, grid)
    tables = _ray_tables(np.stack([f, *V], axis=-1), config, grid)
    gs, trace, prev, consec = [], [], None, 0
    for it in range(config.max_iter):
        new, _ = _x_factors(*_term_rays([f0] + gs, tables), config, grid)
        diff = _separated_sup(
            [u - w for u, w in zip(new, gs or [0.0] * len(new))], V)
        ratio = None if prev in (None, 0.0) else diff / prev
        trace.append({"iter": it, "diff": diff, "ratio": ratio})
        gs = new
        if diff < config.tol:
            break
        consec = consec + 1 if ratio is not None and ratio >= 1.0 else 0
        if consec >= 3:
            raise PicardDivergence(
                f"no contraction: step ratio >= 1 for 3 consecutive "
                f"iterations (last diff {diff:.3e})", trace)
        prev = diff
    else:
        raise PicardDivergence(
            f"no convergence within {config.max_iter} iterations "
            f"(last diff {trace[-1]['diff']:.3e})", trace)
    AK, bound = _x_factors(*_term_rays([f0] + gs, tables), config, grid)
    residual = _separated_sup([u - w for u, w in zip(gs, AK)], V)
    kf.terms = [(f0, f)] + list(zip(gs, V))
    kf.trace = trace
    kf.report = {
        "characteristic_residual": abs(
            characteristic_lhs(config.a, config.ksq)),
        "norm_estimate": est,
        "iterations": len(trace),
        "converged": True,
        "final_residual": residual,
        "tail_bound": bound,
        "fixed_point_bound": (est / (1.0 - est) * trace[-1]["diff"]
                              if est < 1.0 else None),
    }
    return kf


# ---------------------------------------------------------------------------
# residual of the auxiliary equation on the diagonal
# ---------------------------------------------------------------------------


def _diagonal_pair(values, n: int, margin: int, counts) -> np.ndarray:
    """Restrict a dense pair field to x = y over the interior window (the
    oracles' route; bench/spans.py counts the nodes it reads)."""
    ix = np.ix_(*[np.arange(margin, counts[c] - margin) for c in range(n)])
    return values[ix + ix]


def _scalar_weight(q_j) -> complex:
    arr = np.atleast_1d(np.asarray(q_j, dtype=complex))
    return complex(arr.reshape(-1)[0])


def _diagonal_terms(terms, spec: DiracSpec, grid: Grid, margin: int) -> tuple:
    """K, L K, L^2 K and pi_1 (sigma_x + sigma_y)(K^2) at x = y on the
    window, L = sigma_x^2 + sigma_y^2, from K = sum_t u_t(x) v_t(y) given
    as its terms (u_t, v_t), by
    L (u v) = s u v + u s v, L^2 (u v) = s^2 u v + 2 s u s v + u s^2 v
    (s = sigma^2 on V), K^2 = sum_{s,t} (u_s u_t)(x) (v_s v_t)(y) and
    sigma_x (a(x) b(y)) = (sigma a)(x) b(y): every operator acts on V, with
    the pair operators' stencils.  Algebra-valued factors raise ValueError.
    """
    n = grid.n
    if any(np.ndim(u) > n for u, _ in terms):
        raise ValueError("the factored residual needs scalar factors")
    win = interior_slices(grid.counts, range(n), margin)

    def sq(u):
        return _sigma_sq(GridField(grid, "x", u), spec, "x")

    # pi_1 sigma u = -psi_1 du/dx_{xi(1)} for scalar u: the one component
    # of dirac_apply the residual keeps, zero when psi_1 = 0
    psi, ax = spec.weights[1], spec.axis_for_basis(1, n)

    def sig(u):
        return -(diff_axis(u, ax, grid.spacings[ax]) * psi)[win]

    k = lk = l2k = sk2 = 0.0
    for u, v in terms:
        su, sv = sq(u), sq(v)
        s2u, s2v = sq(su)[win], sq(sv)[win]
        u, v, su, sv = u[win], v[win], su[win], sv[win]
        k = k + u * v
        lk = lk + (su * v + u * sv)
        l2k = l2k + (s2u * v + 2 * su * sv + u * s2v)
    for us, vs in terms:
        for ut, vt in terms:
            uu, vv = us * ut, vs * vt
            sk2 = sk2 + (sig(uu) * vv[win] + uu[win] * sig(vv))
    return k, lk, l2k, sk2


def _aux_lhs(d: tuple, a, q=(0.0, 0.0)) -> np.ndarray:
    """S_{2,a} K + q_1 pi_1 (sigma_x + sigma_y)(K^2) + q_2 K^2 on the
    window, from the _diagonal_terms d."""
    k, lk, l2k, sk2 = d
    q1, q2 = (_scalar_weight(w) for w in q)
    return a[0] * l2k + a[1] * lk + a[2] * k + q1 * sk2 + q2 * (k * k)


def _margin(reach: int, width: float | None, step: float, name: str) -> int:
    """Margin in steps: at least ``reach``, and at least ``width`` units
    when given; ValueError (naming ``name``) when the width is negative or
    not finite."""
    if width is None:
        return reach
    if not 0 <= width < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {width}")
    return max(reach, int(np.ceil(width / step - 1e-9)))


def _collar_cells(grid: Grid, collar: float | None) -> int:
    """Interior margin in cells: at least the composed stencil reach, and
    at least ``collar`` physical units when given (_margin); ValueError
    also when the grid leaves no node inside it.

    Refinement studies should pass the same ``collar`` at every level so
    the residual is compared over an identical physical window; the
    default cell-count margin shrinks physically as h does.
    """
    cells = _margin(S2_REACH, collar, min(grid.spacings), "collar")
    if min(grid.counts) <= 2 * cells + 1:
        raise ValueError("grid too coarse for the fourth-order stencil: "
                         f"need more than {2 * cells + 1} nodes per axis")
    return cells


def aux_residual(kf: KernelField, grid: Grid,
                 collar: float | None = None) -> float:
    """Max-norm of the auxiliary-equation left side on diagonal nodes.

    Evaluates S_{2,a} K + q_1 pi_1 (sigma_x + sigma_y)(K^2) + q_2 K^2 at
    x = y, inside the stencil collar of the fourth-order operator (or a
    wider window of ``collar`` physical units), from kf.terms on V only.
    """
    d = _diagonal_terms(kf.terms, kf.config.dirac_spec(), grid,
                        _collar_cells(grid, collar))
    return float(np.max(np.abs(_aux_lhs(d, kf.config.a, kf.config.q))))


def aux_diagnostics(kf: KernelField, grid: Grid,
                    collar: float | None = None) -> dict:
    """Residual plus the first-order consistency diagnostic, whose right
    side is -2 F(x, y) K(x, x).

    The diagnostic is computed two ways on pairs whose midpoint is a
    lattice node: looking F up in its stored midpoint samples, and
    re-evaluating the closed form at the same node coordinates.  Both
    routes feed identical floats to exp, so they agree exactly.
    """
    config = kf.config
    n = config.n
    counts = grid.counts
    resid = aux_residual(kf, grid, collar=collar)  # K is scalar past here

    ix = np.ix_(*[np.arange(c) for c in counts * 2])
    sums = [ix[c] + ix[n + c] for c in range(n)]
    mid_ok = np.all(np.broadcast_arrays(*[s % 2 == 0 for s in sums]), axis=0)
    mids = np.broadcast_arrays(*[s // 2 for s in sums])
    lookup = kf.F.values[tuple(mids)]
    formula = config.f_midpoint(*[grid.axis(c)[mids[c]] for c in range(n)])

    kx = kf.diagonal().reshape(tuple(counts) + (1,) * n)
    route_lookup = -2.0 * lookup * kx
    route_formula = -2.0 * formula * kx
    mask = np.broadcast_to(mid_ok, route_lookup.shape)
    gap = float(np.max(np.abs(route_lookup[mask] - route_formula[mask])))
    return {
        "diagonal_residual": resid,
        "first_order_rhs_gap": gap,
        "first_order_rhs_max": float(np.max(np.abs(route_lookup[mask]))),
    }


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


def run_report(kf: KernelField, grid: Grid) -> dict:
    """Record of one solve: config echo, gates, trace."""
    c = kf.config
    return {
        "config": {**asdict(c), "level": c.level, "q": c.q},
        "grid": {"bounds": grid.bounds, "counts": grid.counts},
        "trace": kf.trace,
        **kf.report,
    }
