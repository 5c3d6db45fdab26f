"""Acceptance checklist for the assembled package.

One test per acceptance item, each printing a single pass or fail line so
that a verbose run reads as a checklist.  Every numerical claim is measured
from scratch in this module (with its own symbolic oracles where needed)
rather than imported from the unit suites, and the tolerances sit inline
next to the checks they guard.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import sympy as sp

from cdburgers.algebra import CdElement, cd_mul, pi_project
from cdburgers.calculus import (
    DiracSpec,
    Grid,
    GridField,
    dirac_apply,
    interior_slices,
)
from cdburgers.cli import _csv_text, cli_run
from cdburgers.kernel import (
    KernelConfig,
    admissible_kappa,
    characteristic_lhs,
    estimate_A_norm,
    midpoint_pair_field,
    s1_apply,
    s2a_apply,
    solve_K,
)
from cdburgers.pdelang import parse_pde
from cdburgers.randmeasure import (
    AtomicRandomMeasure,
    Partition,
    StructuralMeasure,
    WeightedMeasure,
    expectation,
    fubini_check,
    integrate_step,
    sample_H,
    structural_function,
)
from cdburgers.temporal import CauchySpec, solve_cauchy
from cdburgers.translate import SymbolicEnv, theorem1_gap, translate_system
from cdburgers.workbench import (
    REFINEMENT_COLUMNS,
    SobolevBurgersSpec,
    SpectralPoint,
    assemble_u,
    measure_for_atoms,
    moment_identity,
    refinement_study,
)
from oracles import riccati_oracle

GOLDEN = Path(__file__).parent / "golden" / "refinement_burgers.csv"
TRANSLATE_GOLDEN = GOLDEN.with_name("translate_report.json")

BURGERS = SobolevBurgersSpec(alpha=1.0, beta=0.0, gamma=1e-5, varsigma=0.0,
                             c=(0.0,), n=2, lo=-0.5, hi=4.5, horizon=1.0)


def _verdict(label, failures):
    print(f"acceptance [{label}]: {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(failures)


def _check(failures, cond, label):
    if not cond:
        failures.append(label)


def _order(coarse, fine, h_coarse, h_fine):
    return math.log(coarse / fine) / math.log(h_coarse / h_fine)


# -- 1. algebra identities -----------------------------------------------------


def test_1_algebra_identities():
    failures = []
    for level in (2, 3, 4):
        dim = 1 << level
        one = CdElement.basis(level, 0)
        for j in range(1, dim):
            ij = CdElement.basis(level, j)
            _check(failures, cd_mul(ij, ij) == -one,
                   f"generator square is not -1 at level {level}, j={j}")
            for k in range(j + 1, dim):
                ik = CdElement.basis(level, k)
                _check(failures, cd_mul(ij, ik) == -cd_mul(ik, ij),
                       f"anticommutation fails at level {level} ({j},{k})")

    rng = np.random.default_rng(2026)
    for level in (2, 3):
        for _ in range(500):
            a = CdElement(level, rng.standard_normal(1 << level))
            b = CdElement(level, rng.standard_normal(1 << level))
            left = cd_mul(cd_mul(a, a), b) - cd_mul(a, cd_mul(a, b))
            right = cd_mul(cd_mul(b, a), a) - cd_mul(b, cd_mul(a, a))
            scale = max(1.0, a.norm() ** 2 * b.norm())
            _check(failures, left.norm() / scale < 1e-10
                   and right.norm() / scale < 1e-10,
                   f"alternativity fails at level {level}")

    for level in (2, 3, 4, 5):
        for _ in range(250):
            z = CdElement(level, rng.standard_normal(1 << level))
            powers = [CdElement.basis(level, 0)]
            for _k in range(8):
                powers.append(cd_mul(powers[-1], z))
            for phi, psi in ((1, 3), (2, 2), (3, 4), (4, 4)):
                lhs = cd_mul(powers[phi], powers[psi])
                scale = max(1.0, lhs.norm())
                _check(failures,
                       (lhs - powers[phi + psi]).norm() / scale < 1e-10,
                       f"power associativity fails at level {level}")

    for level in (2, 3, 4):
        dim = 1 << level
        for k in range(dim):
            z = CdElement.basis(level, k)
            for j in range(dim):
                want = 1.0 if j == k else 0.0
                _check(failures, abs(pi_project(j, z) - want) <= 1e-12,
                       f"basis projection off at level {level} ({j},{k})")
    for level, reps in ((2, 334), (3, 333), (4, 333)):
        dim = 1 << level
        for _ in range(reps):
            w = CdElement(level, rng.standard_normal(dim))
            for j in range(dim):
                _check(failures,
                       abs(pi_project(j, w) - w.coeffs[j]) <= 1e-12,
                       f"random projection off at level {level}, j={j}")
    _verdict("algebra identities", failures)


# -- 2. dirac square vs half laplacian -----------------------------------------


def test_2_dirac_square_matches_half_laplacian():
    # with psi = 2^{-1/2} the squared operator must reproduce -1/2 Delta;
    # on sin(x1)sin(x2) that is the function itself, an exact oracle
    failures = []
    errs, hs = [], []
    spec = DiracSpec.standard(2)
    for nn in (32, 64, 128):
        g = Grid.box(2, 0.0, 3.0, nn)
        f = GridField.from_function(
            g, "x", lambda x1, x2: np.sin(x1) * np.sin(x2))
        s2 = dirac_apply(dirac_apply(f, spec), spec)
        sl = interior_slices(f.values.shape, (0, 1), 4)
        resid = s2.values[..., 0] - f.values
        errs.append(float(np.max(np.abs(resid[sl]))))
        hs.append(g.spacings[0])
        _check(failures,
               float(np.max(np.abs(s2.values[sl][..., 1:]))) < 1e-12,
               f"mixed generator components survive at {nn} nodes/axis")
    for i in range(2):
        order = _order(errs[i], errs[i + 1], hs[i], hs[i + 1])
        _check(failures, order >= 3.5,
               f"operator identity order {order:.2f} < 3.5 "
               f"({errs[i]:.3e} -> {errs[i + 1]:.3e})")
    _verdict("dirac square vs half laplacian", failures)


# -- 3. translation preserves residuals ----------------------------------------


SECOND_ORDER = """
dim 2
unknown u
source f
coeff nu
dt(u) - nu*(dx1(dx1(u)) + dx2(dx2(u))) = f
"""


def test_3_translation_preserves_residuals():
    failures = []
    prog = parse_pde(SECOND_ORDER)
    tp = translate_system(prog)
    t, x1, x2 = sp.symbols("t x1 x2")
    u = t**2 * x1**3 + x2**2 * x1 - 3 * t * x2
    exact = u.diff(t) - 2 * (u.diff(x1, 2) + u.diff(x2, 2))
    # manufactured exact source: both residual routes vanish together
    env = SymbolicEnv.build(prog, u, coeffs={"nu": 2}, sources=exact)
    gap = theorem1_gap(prog, tp, env)
    _check(failures, gap <= 1e-10,
           f"residual gap {gap:.3e} for the exact source")
    # mismatched source: both routes must agree on the nonzero residual
    env2 = SymbolicEnv.build(prog, u, coeffs={"nu": 2},
                             sources=x1 * t + 1)
    gap2 = theorem1_gap(prog, tp, env2)
    _check(failures, gap2 <= 1e-10,
           f"residual gap {gap2:.3e} for the perturbed source")
    _verdict("translation equivalence", failures)


# -- 4. kernel solver ------------------------------------------------------------
#
# The admissibility oracle is re-derived here from a hand-written quaternion
# table: sigma acts symbolically on exp(k (x + y) / 2), the two-argument
# polynomial is composed, and the surviving scalar is compared with the
# library's gate.

_QTABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def _qmul(u, v):
    out = [sp.Integer(0)] * 4
    for i in range(4):
        for j in range(4):
            k, sign = _QTABLE[(i, j)]
            out[k] += sign * u[i] * v[j]
    return out


def _sym_dirac(components, coords, psi):
    out = [sp.Integer(0)] * 4
    for j, xj in enumerate(coords, start=1):
        ej_conj = [sp.Integer(0)] * 4
        ej_conj[j] = sp.Integer(-1)
        df = [sp.diff(c, xj) * psi for c in components]
        term = _qmul(ej_conj, df)
        out = [a + b for a, b in zip(out, term)]
    return out


def _oracle_characteristic():
    """Scalar S_{2,a} exp(k (x + y) / 2) / exp as a polynomial in k^2."""
    x, y, k = sp.symbols("x y k", real=True)
    a1, a2, a3 = sp.symbols("a1 a2 a3", real=True)
    psi = 1 / sp.sqrt(2)
    f = sp.exp(k * (x + y) / 2)
    comp = [f, sp.Integer(0), sp.Integer(0), sp.Integer(0)]

    def lap_pair(c):
        sx = _sym_dirac(_sym_dirac(c, (x,), psi), (x,), psi)
        sy = _sym_dirac(_sym_dirac(c, (y,), psi), (y,), psi)
        return [sp.expand(u + v) for u, v in zip(sx, sy)]

    l1 = lap_pair(comp)
    l2 = lap_pair(l1)
    assert all(sp.simplify(c) == 0 for c in l1[1:] + l2[1:])
    scalar = sp.expand(sp.simplify((a1 * l2[0] + a2 * l1[0] + a3 * f) / f))
    ksq = sp.Symbol("ksq", positive=True)
    return sp.simplify(scalar.subs(k**2, ksq)), (a1, a2, a3), ksq


def test_4_kernel_solver():
    failures = []
    cond, (a1, a2, a3), ksq = _oracle_characteristic()

    # gate vs oracle on exact rational coefficient draws
    rng = np.random.default_rng(4)
    trials = 0
    while trials < 24:
        avals = [sp.Rational(int(v), 4) for v in rng.integers(-8, 9, size=3)]
        if avals[0] == 0:
            continue
        trials += 1
        poly = cond.subs({a1: avals[0], a2: avals[1], a3: avals[2]})
        roots = [r for r in sp.solve(sp.Eq(poly, 0), ksq)
                 if r.is_real and r > 0]
        a = tuple(float(v) for v in avals)
        if roots:
            want = -math.sqrt(float(min(roots)))
            try:
                kap = admissible_kappa(a, 1)
            except ValueError:
                failures.append(f"gate rejected admissible a={a}")
                continue
            _check(failures, abs(kap[0] - want) <= 1e-12 * max(1, -want),
                   f"gate root {kap[0]} vs oracle {want} for a={a}")
            _check(failures,
                   abs(characteristic_lhs(a, kap[0] ** 2)) <= 1e-10,
                   f"gate polynomial not annihilated for a={a}")
        else:
            try:
                admissible_kappa(a, 1)
                failures.append(f"gate accepted rootless a={a}")
            except ValueError:
                pass

    # zero coupling: the fixed point is the lifted source itself, bitwise
    cfg0 = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.0, 0.0), kappa=(-2.0,),
                        w0=(0.0,))
    g0 = Grid.box(1, -0.4, 3.4, 20)
    kf0 = solve_K(cfg0, g0)
    _check(failures,
           np.array_equal(kf0.K.values,
                          midpoint_pair_field(cfg0, g0).values),
           "K != F at zero coupling")

    # contraction profile at measured norm one half
    g = Grid.box(1, -0.5, 3.0, 8)
    ref = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.35, 0.0), kappa=(-2.0,),
                       w0=(0.0,))
    est = estimate_A_norm(ref, g)
    cfg = KernelConfig(a=(1.0, 0.0, -1.0), p=(0.35 * 0.5 / est, 0.0),
                       kappa=(-2.0,), w0=(0.0,))
    kf = solve_K(cfg, g)
    rho = kf.report["norm_estimate"]
    _check(failures, abs(rho - 0.5) <= 1e-10,
           f"norm estimate {rho} missed the 0.5 target")
    ratios = [t["ratio"] for t in kf.trace if t["ratio"] is not None]
    _check(failures, bool(ratios) and max(ratios) <= 0.6,
           f"iteration ratios exceed 0.6: {ratios}")
    _check(failures, kf.report["final_residual"] <= 10.0 * cfg.tol,
           f"fixed point residual {kf.report['final_residual']:.3e}")

    # operator residuals on the source under refinement; the symmetric
    # second-order difference annihilates midpoint fields exactly, so its
    # residual sits at the roundoff floor below any measurable order, and
    # the quartic polynomial residual must decrease at stencil order
    s1r, s2r, hs = [], [], []
    for count in (20, 39):
        gl = Grid.box(1, -0.4, 3.4, count)
        fp = midpoint_pair_field(cfg0, gl).as_algebra(2)
        margin = max(8, int(np.ceil(1.6 / gl.spacings[0] - 1e-9)))
        s1 = s1_apply(fp, cfg0.dirac_spec())
        s2 = s2a_apply(fp, cfg0.dirac_spec(), cfg0.a)
        sl = interior_slices(s1.values.shape, range(2), margin)
        s1r.append(float(np.max(np.abs(s1.values[sl]))))
        s2r.append(float(np.max(np.abs(s2.values[sl]))))
        hs.append(gl.spacings[0])
    _check(failures, max(s1r) <= 1e-12 or _order(*s1r, *hs) >= 3.5,
           f"symmetric-difference residual stalled: {s1r}")
    _check(failures, _order(*s2r, *hs) >= 3.5,
           f"polynomial residual order {_order(*s2r, *hs):.2f} < 3.5")
    _verdict("kernel solver", failures)


# -- 5. temporal solver ----------------------------------------------------------


def test_5_temporal_solver():
    failures = []
    spec = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.5, tau=1e-3)
    traj = solve_cauchy(spec)
    worst = max(abs(traj.values[k] - riccati_oracle(1.0, 1.0, traj.times[k]))
                for k in range(len(traj.times)))
    _check(failures, worst <= 1e-8,
           f"closed-form error {worst:.3e} > 1e-8 at tau = 1e-3")
    errs = []
    for tau in (4e-3, 2e-3, 1e-3):
        s = CauchySpec(m=1, c=(0.0,), lam=(1.0, 1.0), horizon=0.5, tau=tau)
        tr = solve_cauchy(s)
        errs.append(abs(tr.values[-1] - riccati_oracle(1.0, 1.0, 0.5)))
    for i in range(2):
        order = math.log2(errs[i] / errs[i + 1])
        _check(failures, 3.7 <= order <= 4.3,
               f"step-halving order {order:.2f} outside 4 +/- 0.3")
    _verdict("temporal solver", failures)


# -- 6. random measure identities ------------------------------------------------


def test_6_random_measure_identities():
    failures = []
    part = Partition(reps=((1.0, 0.5, 0.3, 0.2), (2.0, -0.5, 0.1, 0.4)))
    meas = AtomicRandomMeasure(partition=part, p=(0.25, 0.75),
                               xi=(1.5, 0.5), seed=11)
    atoms = meas.structural_cells()
    sm = StructuralMeasure(meas)

    # structural function restricts to the intersection, cells stay
    # nonnegative, and disjoint additivity is exact
    _check(failures, structural_function(meas, (0,), (1,)) == 0.0,
           "disjoint cells have nonzero structural value")
    _check(failures, structural_function(meas, (0, 1), (0,)) == atoms[0],
           "intersection restriction fails")
    _check(failures, all(a >= 0.0 for a in atoms),
           "negative structural atom")
    neg = AtomicRandomMeasure(partition=part, p=(0.4, 0.6),
                              xi=(-2.0, 1.0 + 1.0j), seed=3)
    _check(failures, all(a >= 0.0 for a in neg.structural_cells()),
           "negative structural atom for signed amplitudes")
    _check(failures, sm.value((0, 1)) == sm.value((0,)) + sm.value((1,)),
           "structural additivity is not exact")

    # bilinear bound on exact dyadic data: both sides evaluate exactly
    dy = AtomicRandomMeasure(partition=part, p=(0.5, 0.5), xi=(2.0, 0.5),
                             seed=5)
    dsm = StructuralMeasure(dy)
    x = np.array([4.0, 2.0])
    y = np.array([1.0, 8.0])
    mxy = dsm.bilinear((0, 1), x, y)
    mxx = dsm.bilinear((0, 1), x, x).real
    myy = dsm.bilinear((0, 1), y, y).real
    _check(failures, abs(mxy) ** 2 <= mxx * myy,
           "bilinear bound fails on exact data")

    # per-sample set identities
    real = sample_H(meas, 2000)
    probe = np.array([1.0, 2.0, -0.5])
    joint = real.apply_H((0, 1), probe)
    split = real.apply_H((0,), probe) + real.apply_H((1,), probe)
    _check(failures, np.array_equal(joint, split),
           "disjoint-union additivity is not exact per sample")
    _check(failures, np.all(real.apply_H((), probe) == 0.0),
           "empty set does not map to zero")
    c = real.coefficients()
    _check(failures, np.all(c[:, 0] * c[:, 1] == 0.0),
           "cross products of coefficients do not vanish per sample")

    # two analytic routes to the second moment agree within rearrangement
    rng = np.random.default_rng(6)
    for _ in range(50):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gvals = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = sum(meas.p[j] * (meas.xi[j] * f[j])
                  * np.conj(meas.xi[j] * gvals[j]) for j in range(2))
        rhs = sum(atom * f[j] * np.conj(gvals[j])
                  for j, atom in enumerate(atoms))
        _check(failures, abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0),
               "isometry identity off beyond rearrangement error")

    # weighted measure: the same finite sum in either order, per sample
    gw = (1.3 + 0.2j, -0.4)
    fw = (0.9, 2.0 - 1.0j)
    wm = WeightedMeasure(meas, gw)
    lhs = wm.integrate(fw, real)
    rhs = integrate_step(meas, real, [fw[j] * np.asarray(gw[j])
                                      for j in range(2)])
    _check(failures, float(np.max(np.abs(lhs - rhs))) <= 1e-12,
           "weighted integral differs from the reordered sum")

    # iterated integral: cell-wise data, quadrature in the outer variable
    gtau = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    htau = rng.standard_normal(7)
    rep = fubini_check(meas, sample_H(meas, 10), gtau, htau,
                       np.full(7, 0.125))
    _check(failures, rep["max_gap"] <= 1e-12,
           f"iterated-integral gap {rep['max_gap']:.3e}")

    # delta moment rule: exact enumeration, then Monte Carlo at 1e5 draws
    first = [meas.xi[j] * meas.p[j] for j in range(2)]
    for j in range(2):
        _check(failures, meas.xi[j] ** 2 * meas.p[j]
               == meas.xi[j] * first[j],
               f"second moment of c_{j} is not xi * first moment")
    mc = sample_H(meas, 100000).coefficients()
    for j in range(2):
        mean, se = expectation(mc[:, j] ** 2)
        _check(failures,
               abs(mean - meas.xi[j] ** 2 * meas.p[j]) <= 3.0 * se,
               f"Monte Carlo second moment of c_{j} outside 3 sigma")
    cross, _se = expectation(mc[:, 0] * mc[:, 1])
    _check(failures, cross == 0.0, "Monte Carlo cross moment is nonzero")

    # assembled-field moment identity: exact structure, Monte Carlo within
    # 3 standard errors at 1e5 draws, for one atom and for a mixture
    grid = BURGERS.grid(11, 7)
    one = [SpectralPoint.matched(BURGERS, (1.0, -0.5))]
    m1 = measure_for_atoms(one, BURGERS, (1.0,), seed=0)
    sol1 = assemble_u(one, m1, grid, BURGERS, (0.0, 0.0))
    mom1 = moment_identity(sol1, samples=100000)
    _check(failures, mom1["structure_gap"] == 0.0,
           "single-atom second-moment structure is not exact")
    _check(failures, mom1["mc"]["mean_ok"] and mom1["mc"]["second_ok"],
           "single-atom Monte Carlo moments outside 3 sigma")
    two = [SpectralPoint.matched(BURGERS, (1.0, -0.5)),
           SpectralPoint.matched(BURGERS, (1.0, -1.0))]
    m2 = measure_for_atoms(two, BURGERS, (0.25, 0.75), seed=0)
    sol2 = assemble_u(two, m2, grid, BURGERS, (0.0, 0.0))
    mom2 = moment_identity(sol2, samples=100000)
    _check(failures, mom2["structure_ok"],
           "mixture second-moment structure beyond rearrangement error")
    _check(failures, mom2["mc"]["mean_ok"] and mom2["mc"]["second_ok"],
           "mixture Monte Carlo moments outside 3 sigma")
    _verdict("random measure identities", failures)


# -- 7. end-to-end refinement study ----------------------------------------------


def test_7_end_to_end_refinement_study():
    failures = []
    rows = refinement_study(BURGERS, (1.0, -0.5),
                            [(21, 9), (31, 13), (41, 17)], (0.0, 0.0),
                            collar=2.0, t_collar=0.25, seed=0)
    hs = [row["h"] for row in rows]
    for i in (1, 2):
        order = _order(rows[i - 1]["linear"], rows[i]["linear"],
                       hs[i - 1], hs[i])
        _check(failures, order >= 3.5,
               f"linear residual order {order:.2f} < 3.5 at level {i}")
    keys = ("linear", "pair", "expectation", "diagonal_mean",
            "diagonal_expect")
    for i in (1, 2):
        for key in keys:
            _check(failures, rows[i][f"{key}_ratio"] < 1.0,
                   f"{key} residual grew at level {i}")
    table = _csv_text(REFINEMENT_COLUMNS, (
        [row.get(k) for k in REFINEMENT_COLUMNS] for row in rows))
    _check(failures, table == GOLDEN.read_text(),
           "refinement table deviates from the golden copy")
    for row in rows:
        _check(failures,
               row["mean_square_exact"] and row["structure_gap"] == 0.0,
               "single-atom moment identity is not exact on some level")
    _verdict("end-to-end refinement study", failures)


# -- 8. deterministic artifacts --------------------------------------------------


_KERNEL_8 = {
    "a": [-1.0, -1.0, 0.0], "p": [5e-06, 0.0], "w0": [0.0, 0.0],
    "grid": {"n": 2, "lo": -0.5, "hi": 4.5, "count": 11},
}
_PROBLEM_8 = {"alpha": 1.0, "beta": 0.0, "gamma": 1e-5, "varsigma": 0.0,
              "c": [0.0], "n": 2, "lo": -0.5, "hi": 4.5, "horizon": 1.0}
# the stages that solve for K, as (stage, name, config)
_NUMERIC_STAGES = (
    ("kernel", "kernel", _KERNEL_8),
    # p_2 != 0: the algebra-valued factors and the sup search
    ("kernel", "kernel-p2", {**_KERNEL_8, "p": [5e-06, 2e-06]}),
    # n = 3, tail on axis 1: the three-segment chain, its c' != c pairs and
    # the certificate's three-operand einsum
    ("kernel", "kernel-n3", {
        "a": [1.0, 0.0, -1.0], "p": [5e-04, 2e-04], "kappa": [0.0, -2.0, 0.0],
        "w0": [0.0, 0.0, 0.0],
        "grid": {"n": 3, "lo": -0.5, "hi": 4.5, "count": 11},
    }),
    ("assemble", "assemble", {
        "problem": _PROBLEM_8,
        "matched": [[1.0, -0.5], [1.0, -1.0]], "p": [0.25, 0.75],
        "w0": [0.0, 0.0], "grid": {"count": 11, "t_count": 7},
        "samples": 512,
    }),
    ("verify", "verify", {"problem": _PROBLEM_8, "lam_prime": [1.0, -0.5],
                          "w0": [0.0, 0.0], "levels": [[21, 9]],
                          "collar": 2.0, "t_collar": 0.25}),
)


def test_8_byte_identical_artifacts(tmp_path):
    failures = []
    # 20000 draws span three chunks of the streamed count
    measure_cfg = {"reps": [[1.0, 0.5, 0.3, 0.2], [2.0, -0.5, 0.1, 0.4],
                            [0.5, 1.5, -0.2, 0.3]],
                   "p": [0.2, 0.3, 0.5], "gamma": 1.0, "seed": 3,
                   "samples": 20000}
    algebra_cfg = {"levels": [2, 3], "trials": 20}
    translate_cfg = {
        "source": json.loads(TRANSLATE_GOLDEN.read_text())["source"]}
    stages = _NUMERIC_STAGES + (("measure-check", "measure", measure_cfg),
                                ("algebra-check", "algebra", algebra_cfg),
                                ("translate", "translate", translate_cfg))
    for _, name, cfg in stages:
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))

    def run(outdir, threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = str(threads)
        for stage, name, _ in stages:
            res = subprocess.run(
                [sys.executable, "-m", "cdburgers.cli", stage,
                 "--config", str(tmp_path / f"{name}.json"),
                 "--out", str(outdir / name)],
                capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr

    run(tmp_path / "one", 1)
    run(tmp_path / "two", 1)
    run(tmp_path / "four", 4)
    files = sorted(p.relative_to(tmp_path / "one")
                   for p in (tmp_path / "one").rglob("*") if p.is_file())
    _check(failures, len(files) >= 6, f"artifacts missing: {files}")
    for rel in files:
        want = (tmp_path / "one" / rel).read_bytes()
        for other in ("two", "four"):
            got = (tmp_path / other / rel).read_bytes()
            _check(failures, want == got,
                   f"{rel} differs between runs 'one' and '{other}'")
    _verdict("deterministic artifacts", failures)


def test_8_stages_raise_no_floating_point_error(tmp_path):
    # an overflow, invalid operation or division by zero in a certificate
    # or a solve fails here instead of printing a numpy warning
    failures = []
    for stage, name, cfg in _NUMERIC_STAGES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_run([stage, "--config", str(path),
                            "--out", str(tmp_path / name)])
        _check(failures, code == 0, f"{name} exited {code}")
    _verdict("no floating-point errors", failures)
