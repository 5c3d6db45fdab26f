"""End-to-end assembly and verification of stochastic PDE solutions.

The target equation is the scalar Sobolev-Burgers problem

    Q(d/dt)(-Lap^2 + alpha Lap + beta) u + gamma d(u^2)/dx_1 + sigma u^2 = 0

posed over a box in R^n.  Candidate solutions are built from three factors
tied to a parameter vector lambda: a temporal profile phi(t, lambda), a
spatial kernel K(x, y) solving the auxiliary pair equation, and a finite
atomic random measure whose cells carry the lambda vectors.  The assembled
random field is

    u(t, x, y; omega) = sum_j c_j(omega) phi_j(t) K_j(x, y),

and the verification suite evaluates the doubled-variable equation in
expectation, its diagonal restriction, and the scalar equation satisfied by
the mean, all with independent finite-difference routes.

Scaling chain (derived symbolically, frozen in the test oracle): with the
weight choice psi_j = 2^{-1/2} the pair operator acts on functions of the
midpoint (x + y)/2 as

    (sigma_x^2 + sigma_y^2) G = -(1/4) Lap G,

so the fourth-order pair operator with (a, b) = (-alpha, beta) restricts on
the diagonal to (1/16)(-Lap^2 + 4 alpha Lap + 16 beta).  The scalar equation
verified for the diagonal mean therefore carries the effective coefficients

    alpha_eff = 4 alpha,   beta_eff = 16 beta,
    gamma_eff = -8 sqrt(2) gamma,   sigma_eff = 16 sigma.

Coupling-weight choice: the expectation identity closes exactly when the
amplitude rule value xi equals q_1 / gamma.  With the published amplitude
rule xi = gamma / (2 lambda_1 lambda_{m+2}) that forces the kernel weight
p_1 = gamma / (2 lambda_1), making xi = 1; `SpectralPoint.matched` encodes
this choice (and the analogous p_2 = sigma / (2 lambda_1), which satisfies
the cross constraint p_2 gamma = p_1 sigma automatically).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import Grid, diff_axis, interior_slices
from .kernel import (
    KernelConfig,
    _collar_cells,
    _aux_lhs,
    _check_finite,
    _diagonal_terms,
    _margin,
    admissible_kappa,
    solve_K,
)
from .randmeasure import (
    AtomicRandomMeasure,
    Partition,
    moments,
    sample_counts,
    xi_from_rule,
)
from .temporal import CauchySpec, solve_cauchy

__all__ = [
    "SobolevBurgersSpec",
    "SpectralPoint",
    "AtomParams",
    "SolutionField",
    "lambda_to_params",
    "characteristic_kappa",
    "atom_kernel_config",
    "measure_for_atoms",
    "assemble_u",
    "moment_identity",
    "residual_suite",
    "refinement_study",
    "REFINEMENT_COLUMNS",
]


_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class SobolevBurgersSpec:
    """Scalar problem data: operator coefficients, nonlinearity weights,
    temporal polynomial, box, and horizon."""

    alpha: complex
    beta: complex
    gamma: complex
    varsigma: complex
    c: tuple  # lower coefficients (c_0, ..., c_{m-1}) of the monic Q
    n: int = 2
    lo: float = 0.0
    hi: float = 1.0
    horizon: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "varsigma", "c", "lo", "hi",
                     "horizon"):
            _check_finite(name, getattr(self, name))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if abs(self.gamma) + abs(self.varsigma) == 0:
            raise ValueError("need |gamma| + |varsigma| > 0")
        if self.n < 2:
            raise ValueError("spatial dimension must be at least 2")
        if len(self.c) < 1:
            raise ValueError("temporal polynomial needs degree >= 1")
        if not self.hi > self.lo:
            raise ValueError("degenerate box")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def m(self) -> int:
        return len(self.c)

    @property
    def base_a(self) -> tuple:
        """Operator coefficients (-1, -alpha, beta): each atom's a is lambda_1
        times these, so the characteristic equation and S_0 read them."""
        return (-1.0, -self.alpha, self.beta)

    def grid(self, count: int, t_count: int) -> Grid:
        return Grid.box(self.n, self.lo, self.hi, count,
                        t_max=self.horizon, t_count=t_count)

    def effective_coefficients(self) -> dict:
        """Coefficients of the scalar equation satisfied by the diagonal
        restriction of a midpoint-form pair solution (derivation in the
        module docstring; the constant chain is frozen by a symbolic
        oracle test)."""
        return {
            "alpha": 4.0 * self.alpha,
            "beta": 16.0 * self.beta,
            "gamma": -8.0 * _SQRT2 * self.gamma,
            "varsigma": 16.0 * self.varsigma,
        }


@dataclass(frozen=True)
class SpectralPoint:
    """One parameter vector lambda = (lambda_1, ..., lambda_{m+3})."""

    lam: tuple

    def __post_init__(self):
        if len(self.lam) < 4:
            raise ValueError("lambda needs at least 4 entries (m >= 1)")
        _check_finite("lambda", self.lam)
        if self.lam[0] == 0:
            raise ValueError("lambda_1 must be nonzero")

    @property
    def m(self) -> int:
        return len(self.lam) - 3

    @property
    def lam_prime(self) -> tuple:
        return self.lam[: self.m + 1]

    @property
    def p(self) -> tuple:
        return (self.lam[self.m + 1], self.lam[self.m + 2])

    @classmethod
    def matched(cls, spec: SobolevBurgersSpec,
                lam_prime: tuple) -> "SpectralPoint":
        """Extend a temporal parameter vector by the coupling weights that
        close the expectation identity exactly (amplitude rule value 1)."""
        if len(lam_prime) != spec.m + 1:
            raise ValueError(
                f"temporal vector needs {spec.m + 1} entries")
        lam1 = lam_prime[0]
        p1 = spec.gamma / (2.0 * lam1) if spec.gamma != 0 else 0.0
        p2 = spec.varsigma / (2.0 * lam1) if spec.varsigma != 0 else 0.0
        return cls(lam=tuple(lam_prime) + (p1, p2))


@dataclass(frozen=True)
class AtomParams:
    """Kernel-side parameters of one atom."""

    a: tuple
    q: tuple
    p: tuple
    xi: complex


def lambda_to_params(point: SpectralPoint,
                     spec: SobolevBurgersSpec) -> AtomParams:
    """Map a parameter vector to operator coefficients, coupling weights,
    and the amplitude-rule value.

    a = (-lambda_1, -alpha lambda_1, beta lambda_1); the nonlinearity
    weights satisfy q_j = -2 a_1 p_j exactly (same float association as
    the kernel configuration uses).
    """
    if point.m != spec.m:
        raise ValueError("temporal degree of lambda does not match Q")
    lam1 = point.lam[0]
    p1, p2 = point.p
    gap = abs(p2 * spec.gamma - p1 * spec.varsigma)
    scale = max(abs(p1 * spec.varsigma), abs(p2 * spec.gamma), 1.0)
    if gap > 1e-12 * scale:
        raise ValueError(
            "constraint p_2 gamma = p_1 varsigma violated "
            f"(gap {gap:.3e})")
    if (spec.gamma == 0) != (p1 == 0):
        raise ValueError("p_1 must vanish exactly when gamma does")
    if (spec.varsigma == 0) != (p2 == 0):
        raise ValueError("p_2 must vanish exactly when varsigma does")
    a = (-lam1, -spec.alpha * lam1, spec.beta * lam1)
    q = (-2.0 * a[0] * p1, -2.0 * a[0] * p2)
    xi = xi_from_rule(point.lam, point.m,
                      gamma=spec.gamma, varsigma=spec.varsigma)
    return AtomParams(a=a, q=q, p=(p1, p2), xi=xi)


def characteristic_kappa(spec: SobolevBurgersSpec) -> tuple:
    """Decay vector admissible for every atom: lambda_1 scales all three
    operator coefficients, so the characteristic equation does not depend
    on it."""
    return admissible_kappa(spec.base_a, spec.n)


def atom_kernel_config(point: SpectralPoint, spec: SobolevBurgersSpec,
                       w0) -> KernelConfig:
    params = lambda_to_params(point, spec)
    return KernelConfig(a=params.a, p=params.p,
                        kappa=characteristic_kappa(spec), w0=tuple(w0))


def measure_for_atoms(atoms, spec: SobolevBurgersSpec, p, *,
                      seed: int = 0) -> AtomicRandomMeasure:
    """Atomic measure whose cells are the lambda vectors, with amplitudes
    from the published rule."""
    reps = []
    xis = []
    for point in atoms:
        row = []
        for v in point.lam:
            z = complex(v)
            if z.imag != 0.0:
                raise ValueError(
                    "measure cells need real lambda representatives")
            row.append(z.real)
        reps.append(tuple(row))
        xis.append(lambda_to_params(point, spec).xi)
    return AtomicRandomMeasure(
        partition=Partition(reps=tuple(reps)),
        p=tuple(p), xi=tuple(xis), seed=seed)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass
class SolutionField:
    """Assembled random field with its per-atom factors.

    When cell j fires, u on the diagonal is xi_j phi_j(t) k_j(x), a time
    factor _phi[j] times a space factor _kdiag[j] = K_j(x, x); no array
    spans both.  With w_j = p_j xi_j, E u = sum_j w_j phi_j k_j, (E u)^2 =
    sum_{j,l} w_j w_l phi_j phi_l k_j k_l and E u^2 = sum_j p_j xi_j^2
    phi_j^2 k_j^2; outcomes are enumerated one time row at a time.
    """

    spec: SobolevBurgersSpec
    grid: Grid
    atoms: tuple
    measure: AtomicRandomMeasure
    trajectories: tuple
    kernels: tuple

    def __post_init__(self):
        self._phi = [np.asarray(tr.values) for tr in self.trajectories]
        self._kdiag = [kf.diagonal() for kf in self.kernels]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def atom_row(self, j: int, t_index: int) -> np.ndarray:
        """u on the diagonal at one time sample when cell j fires."""
        return (self.measure.xi[j] * self._phi[j])[t_index] * self._kdiag[j]

    def moment_row(self, t_index: int) -> tuple:
        """E u and E u^2 on the diagonal at one time sample, by exact
        enumeration of the outcome fields."""
        rows = [self.atom_row(j, t_index) for j in range(self.size)]
        p = self.measure.p
        return (sum(p[j] * a for j, a in enumerate(rows)),
                sum(p[j] * (a * a) for j, a in enumerate(rows)))

    def enumerate_node(self, t_index: int, node):
        """Outcome values and weights at one diagonal node."""
        vals = np.array([self.atom_row(j, t_index)[tuple(node)]
                         for j in range(self.size)])
        return vals, np.asarray(self.measure.p)


def assemble_u(atoms, measure: AtomicRandomMeasure, grid: Grid,
               spec: SobolevBurgersSpec, w0) -> SolutionField:
    """Solve the temporal and kernel factors for every atom, each distinct
    kernel config once, and bundle the assembled random field.  The
    diagonal fields need scalar kernels, so varsigma != 0 (p_2 != 0) is
    rejected before any solve."""
    atoms = tuple(atoms)
    if measure.size != len(atoms):
        raise ValueError("measure cells do not match the atom list")
    if grid.t_count is None:
        raise ValueError("assembly needs a grid with a time axis")
    for rep, point in zip(measure.partition.reps, atoms):
        want = [complex(v).real for v in point.lam]
        if list(rep) != want:
            raise ValueError("measure cells do not match the atom list")
    cfgs = [atom_kernel_config(point, spec, w0) for point in atoms]
    if not all(cfg.scalar_closed() for cfg in cfgs):
        raise ValueError("assembly of diagonal fields needs scalar kernels")

    trajectories, kernels = [], {}  # equal configs share one solve
    t_axis = grid.t_axis()
    for point, cfg in zip(atoms, cfgs):
        cs = CauchySpec(m=spec.m, c=spec.c, lam=point.lam_prime,
                        horizon=spec.horizon, tau=grid.tau)
        tr = solve_cauchy(cs)
        if tr.blew_up:
            raise RuntimeError(
                f"temporal factor blew up at t = {tr.blowup_time:.6g} "
                "inside the horizon")
        if len(tr.times) != grid.t_count or (
                np.max(np.abs(tr.times - t_axis)) > 1e-9 * grid.t_max):
            raise RuntimeError("trajectory samples missed the time grid")
        trajectories.append(tr)
        if cfg not in kernels:
            kernels[cfg] = solve_K(cfg, grid)
    return SolutionField(spec=spec, grid=grid, atoms=atoms,
                         measure=measure,
                         trajectories=tuple(trajectories),
                         kernels=tuple(kernels[cfg] for cfg in cfgs))


# ---------------------------------------------------------------------------
# moment identities
# ---------------------------------------------------------------------------


def moment_identity(sol: SolutionField, *, samples: int = 0) -> dict:
    """Check the second-moment structure of the assembled field.

    Analytic part: E u^2 computed by outcome enumeration must match the
    structural form sum_j (xi_j p_j) xi_j (phi_j k_j)^2 up to float
    reassociation, and the report states whether E(u^2) = (E u)^2 holds
    (it does exactly for a single atom, and fails for generic mixtures).
    Both are formed one time row at a time (SolutionField.moment_row).
    With samples > 0 a Monte Carlo cross-check runs at the centre node of
    the middle time row: u there takes one value per cell, so its sample
    moments reduce over per-cell draw counts streamed from the seeded draw
    (sample_counts); nothing of length `samples` is formed.  samples < 0
    is rejected.
    """
    second_max = structure_gap = square_gap = 0.0
    for ti in range(sol.grid.t_count):
        mean, enum = sol.moment_row(ti)
        struct = 0.0
        for j in range(sol.size):
            base = sol._phi[j][ti] * sol._kdiag[j]
            struct = struct + (sol.measure.xi[j] * sol.measure.p[j]) * (
                sol.measure.xi[j] * (base * base))
        second_max = max(second_max, float(np.max(np.abs(enum))))
        structure_gap = max(structure_gap,
                            float(np.max(np.abs(enum - struct))))
        square_gap = max(square_gap,
                         float(np.max(np.abs(enum - mean * mean))))
    scale = max(second_max, 1.0)
    report = {
        "second_moment_max": second_max,
        "structure_gap": structure_gap,
        "structure_ok": bool(structure_gap <= 1e-12 * scale),
        "mean_square_gap": square_gap,
        "mean_square_exact": bool(square_gap == 0.0),
    }

    if samples:
        t_index = sol.grid.t_count // 2
        node = tuple(c // 2 for c in sol.grid.counts)
        counts = sample_counts(sol.measure, samples)
        vals, _ = sol.enumerate_node(t_index, node)
        m1, se1 = moments(counts, vals)
        m2, se2 = moments(counts, vals * vals)
        mean, enum = (r[tuple(node)] for r in sol.moment_row(t_index))
        # the 1e-12 floors absorb summation roundoff when a cell value is
        # deterministic and the standard error is exactly zero
        tol1 = 3.0 * float(abs(se1)) + 1e-12 * max(abs(mean), 1.0)
        tol2 = 3.0 * float(abs(se2)) + 1e-12 * max(abs(enum), 1.0)
        report["mc"] = {
            "t_index": t_index,
            "node": list(node),
            "samples": samples,
            "mean": complex(m1),
            "mean_se": float(abs(se1)),
            "mean_analytic": complex(mean),
            "mean_ok": bool(abs(m1 - mean) <= tol1),
            "second": complex(m2),
            "second_se": float(abs(se2)),
            "second_analytic": complex(enum),
            "second_ok": bool(abs(m2 - enum) <= tol2),
        }
    return report


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------


def _q_time_apply(values: np.ndarray, tau: float, c: tuple) -> np.ndarray:
    """Q(d/dt) along axis 0 by composed fourth-order stencils."""
    m = len(c)
    derivs = [values]
    for _ in range(m):
        derivs.append(diff_axis(derivs[-1], 0, tau, 1))
    out = derivs[m].astype(np.complex128, copy=True)
    for i, ci in enumerate(c):
        if ci != 0:
            out += ci * derivs[i]
    return out


def _scalar_operator(k: np.ndarray, grid: Grid, eff: dict) -> np.ndarray:
    """-Lap^2 + alpha_eff Lap + beta_eff on a field over V."""
    hs = grid.spacings
    lap = sum(diff_axis(k, ax, hs[ax], 2) for ax in range(grid.n))
    lap2 = sum(diff_axis(lap, ax, hs[ax], 2) for ax in range(grid.n))
    return -lap2 + eff["alpha"] * lap + eff["beta"] * k


def _time_residuals(sol: SolutionField, margin: int, t_rows: int,
                    qphis: list, terms: list) -> dict:
    """Window max norms of the three residuals that vary in time, from
    qphis[j] = Q(d/dt) phi_j and terms[j] = kernel._diagonal_terms of K_j.
    expectation is E{Q(d/dt) S_0 u + gamma pi_1 (sigma_x + sigma_y)(u^2) +
    sigma u^2} at x = y, with E c_j = w_j = p_j xi_j and E c_j^2 = p_j
    xi_j^2; diagonal_mean and diagonal_expect are Q(d/dt) L E u +
    gamma_eff d(v)/dx_1 + sigma_eff v for v = (E u)^2 and v = E u^2, L the
    scalar operator.  Every operator is linear, so each is a list of (time
    weight, window field) pairs, with the weights w_j Q(d/dt) phi_j and
    e_j = p_j xi_j^2 phi_j^2 formed once per atom; every stencil runs on V
    or on the time axis, and one window row at a time is summed.
    """
    spec, grid = sol.spec, sol.grid
    eff = spec.effective_coefficients()
    win = interior_slices(grid.counts, range(grid.n), margin)
    ks, phis, p, xi = sol._kdiag, sol._phi, sol.measure.p, sol.measure.xi
    atoms = range(sol.size)
    w = [p[j] * xi[j] for j in atoms]
    wq = [w[j] * qphis[j] for j in atoms]
    e = [p[j] * xi[j] * xi[j] * (phis[j] * phis[j]) for j in atoms]

    def quad(k):
        return (eff["gamma"] * diff_axis(k, 0, grid.spacings[0], 1)
                + eff["varsigma"] * k)[win]

    # linear terms before quadratic ones: interleaving them moves an ulp
    expectation = (
        [(wq[j], _aux_lhs(terms[j], spec.base_a)) for j in atoms]
        + [(e[j], spec.gamma * terms[j][3]
            + spec.varsigma * (terms[j][0] * terms[j][0])) for j in atoms])
    lin = [(wq[j], _scalar_operator(ks[j], grid, eff)[win]) for j in atoms]
    pairs = [(j, l) for j in atoms for l in range(j, sol.size)]
    mean = [((2 - (j == l)) * w[j] * w[l] * (phis[j] * phis[l]),
             quad(ks[j] * ks[l])) for j, l in pairs]
    expect = [(e[j], x) for (j, l), (_, x) in zip(pairs, mean) if j == l]

    def worst(fields):
        return max(float(np.max(np.abs(sum(t[ti] * x for t, x in fields))))
                   for ti in range(t_rows, grid.t_count - t_rows))

    return {"expectation": worst(expectation),
            "diagonal_mean": worst(lin + mean),
            "diagonal_expect": worst(lin + expect)}


def residual_suite(sol: SolutionField, *, collar: float | None = None,
                   t_collar: float | None = None) -> dict:
    """Residual max-norms of the assembled solution.

    linear: the separated product Q(d/dt)phi * S_0 F per atom, weighted by
      E c_j (zero in the continuum since F satisfies the characteristic
      condition and the product separates); F is the same for every atom.
      Like pair and expectation it is read at x = y: inside the window
      every stencil is translation invariant, so it acts on each factor of
      F = f(x) f(y), f = exp(kappa . x/2), as multiplication by its symbol;
      S_0 F = c_h F there, and |F| = |f(x)| |f(y)| peaks at x = y.
    pair: the auxiliary pair-equation diagonal residual of each kernel.
    expectation: the doubled-variable equation in expectation, diagonal.
      All three take their window values of K, L K, L^2 K and
      pi_1 (sigma_x + sigma_y)(K^2) from kernel._diagonal_terms: linear
      on F, the first separated term of every kernel, the others on each
      kernel's terms.
    diagonal_mean: the scalar equation with effective coefficients for the
      deterministic mean, with (E u)^2 in the nonlinear terms.
    diagonal_expect: same linear part, with E(u^2) in the nonlinear terms.
    The last three vary in time: _time_residuals sums them one time row at
    a time from per-atom time weights (Q(d/dt) phi_j is formed once, here)
    and window fields, so no array spans both the time rows and the window.
    """
    grid = sol.grid
    spec = sol.spec
    margin = _collar_cells(grid, collar)
    # at least the one-sided time stencil's 2 rows; pass the same t_collar
    # at every level of a refinement ladder for a fixed slab of [0, T]
    t_rows = _margin(2, t_collar, grid.tau, "t_collar")
    if grid.t_count < max(5, 2 * t_rows + 1):
        raise ValueError("too few time samples for the window")
    dirac = sol.kernels[0].config.dirac_spec()

    # S_0 F = S_{2,a} F at a = base_a and q = 0
    s0f = _aux_lhs(_diagonal_terms(sol.kernels[0].terms[:1], dirac, grid,
                                   margin), spec.base_a)
    s_norm = float(np.max(np.abs(s0f)))
    linear = 0.0
    pair = 0.0
    terms = [_diagonal_terms(kf.terms, dirac, grid, margin)
             for kf in sol.kernels]
    qphis = [_q_time_apply(phi, grid.tau, spec.c) for phi in sol._phi]
    for j, qphi in enumerate(qphis):
        q_norm = float(np.max(np.abs(qphi[t_rows:-t_rows])))
        weight = abs(sol.measure.xi[j] * sol.measure.p[j])
        linear = max(linear, weight * q_norm * s_norm)
        cfg = sol.kernels[j].config
        pair = max(pair, float(np.max(np.abs(_aux_lhs(terms[j], cfg.a,
                                                      cfg.q)))))

    return {
        "collar_cells": margin,
        "t_rows": t_rows,
        "h": max(grid.spacings),
        "tau": grid.tau,
        "linear": linear,
        "pair": pair,
        **_time_residuals(sol, margin, t_rows, qphis, terms),
    }


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------


_STUDY_KEYS = ("linear", "pair", "expectation", "diagonal_mean",
               "diagonal_expect")
# the columns of the refinement table, in order
REFINEMENT_COLUMNS = ("count", "t_count", "h", "tau", *_STUDY_KEYS,
                      *(f"{k}_ratio" for k in _STUDY_KEYS))


def refinement_study(spec: SobolevBurgersSpec, lam_prime, levels, w0, *,
                     collar: float, t_collar: float | None = None,
                     seed: int = 0, samples: int = 0) -> list:
    """Assemble a single-atom solution on a ladder of (count, t_count)
    grids and tabulate the residual suite on a fixed physical window.

    Returns one row per level with the residual norms, plus decrease
    ratios relative to the previous level.
    """
    point = SpectralPoint.matched(spec, lam_prime)
    measure = measure_for_atoms([point], spec, (1.0,), seed=seed)
    rows = []
    prev = None
    for count, t_count in levels:
        grid = spec.grid(count, t_count)
        sol = assemble_u([point], measure, grid, spec, w0)
        res = residual_suite(sol, collar=collar, t_collar=t_collar)
        row = {"count": count, "t_count": t_count, **res}
        mom = moment_identity(sol, samples=samples)
        row["mean_square_exact"] = mom["mean_square_exact"]
        row["structure_gap"] = mom["structure_gap"]
        if prev is not None:
            for key in _STUDY_KEYS:
                row[f"{key}_ratio"] = (
                    res[key] / prev[key] if prev[key] > 0 else float("inf"))
        rows.append(row)
        prev = res
    return rows
