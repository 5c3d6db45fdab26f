"""The algebra-check, translate, ode and measure-check handlers, which the
dispatcher of cdburgers.cli imports only when one of these stages runs.
"""

from __future__ import annotations

import sys

from .cli import _csv_text, _emit, _finish, _load_config, _outdir, _write_text


def _run_algebra_check(args) -> int:
    import numpy as np

    from .algebra import MAX_LEVEL
    from .algebra_ext import CdElement, cd_mul, pi_project

    read = _load_config(args)
    levels = read("levels", [int], (2, 3, 4))
    trials = read("trials", int, 200, low=1)
    if not all(0 <= r <= MAX_LEVEL for r in levels):
        raise ValueError("algebra-check 'levels' must be a non-empty list "
                         f"of levels in [0, {MAX_LEVEL}], got {list(levels)}")
    seed = read("seed", int, 0, low=0)
    rng = np.random.default_rng(seed)

    anticommutation_exact = True
    squares_exact = True
    for r in levels:
        dim = 1 << r
        for j in range(1, dim):
            ij = CdElement.basis(r, j)
            sq = cd_mul(ij, ij)
            if not np.array_equal(sq.coeffs, -CdElement.basis(r, 0).coeffs):
                squares_exact = False
            for k in range(j + 1, dim):
                ik = CdElement.basis(r, k)
                anti = cd_mul(ij, ik).coeffs + cd_mul(ik, ij).coeffs
                if np.any(anti != 0.0):
                    anticommutation_exact = False

    alternativity_max = 0.0
    for r in (2, 3):
        for _ in range(trials):
            x = CdElement(r, rng.standard_normal(1 << r))
            y = CdElement(r, rng.standard_normal(1 << r))
            left = cd_mul(cd_mul(x, x), y).coeffs - cd_mul(
                x, cd_mul(x, y)).coeffs
            right = cd_mul(y, cd_mul(x, x)).coeffs - cd_mul(
                cd_mul(y, x), x).coeffs
            alternativity_max = max(
                alternativity_max,
                float(np.max(np.abs(left))), float(np.max(np.abs(right))))

    power_max = 0.0
    for r in (2, 3, 4, 5):
        for _ in range(trials):
            x = CdElement(r, rng.standard_normal(1 << r))
            x2 = cd_mul(x, x)
            x3a = cd_mul(x2, x)
            gap4 = cd_mul(x3a, x).coeffs - cd_mul(x2, x2).coeffs
            gap3 = x3a.coeffs - cd_mul(x, x2).coeffs
            power_max = max(power_max, float(np.max(np.abs(gap3))),
                            float(np.max(np.abs(gap4))))

    projection_max = 0.0
    for r in levels:
        dim = 1 << r
        for _ in range(trials):
            z = CdElement(r, rng.standard_normal(dim))
            for j in range(dim):
                projection_max = max(
                    projection_max,
                    float(abs(pi_project(j, z) - z.coeffs[j])))

    ok = bool(anticommutation_exact and squares_exact
              and alternativity_max <= 1e-10 and power_max <= 1e-10
              and projection_max <= 1e-12)
    _emit(_outdir(args), "algebra_report.json", {
        "levels": levels,
        "trials": trials,
        "seed": seed,
        "anticommutation_exact": anticommutation_exact,
        "squares_exact": squares_exact,
        "alternativity_max": alternativity_max,
        "power_associativity_max": power_max,
        "projection_max": projection_max,
        "pass": ok,
    })
    return _finish(ok, "algebra-check")


def _run_translate(args) -> int:
    source = _load_config(args)("source", str)
    from .pdelang import parse_pde
    from .translate import translate_system  # sympy: only this stage

    program = parse_pde(source)
    tp = translate_system(program)
    _emit(_outdir(args), "translate_report.json", {
        "source": source,
        "dim": program.dim,
        "unknown_components": program.unknown[1],
        "level": tp.level,
        "pretty": tp.pretty(),
        "tree": tp.to_tree(),
    })
    print(tp.pretty())
    return 0


def _run_ode(args) -> int:
    read = _load_config(args)
    lam = read("lambda", [float])
    m = len(lam) - 1
    from .temporal import CauchySpec, solve_cauchy

    spec = CauchySpec(m=m, c=read("c", [float], (0.0,) * m), lam=lam,
                      horizon=read("horizon", float, 0.5),
                      tau=read("tau", float, None))
    traj = solve_cauchy(spec)
    out = _outdir(args)
    _write_text(out, "trajectory.csv", _csv_text(
        ("t", "re_phi", "im_phi", "residual"),
        ((float(t), float(v.real), float(v.imag), float(r))
         for t, v, r in zip(traj.times, traj.values, traj.residuals))))
    _emit(out, "ode_report.json", {
        "m": m, "c": spec.c, "lambda": lam,
        "horizon": spec.horizon, "tau": spec.step,
        "samples": len(traj.times),
        "blew_up": traj.blew_up,
        "blowup_time": traj.blowup_time,
        "max_residual": float(traj.residuals.max()),
    })
    if traj.blew_up:
        print(f"numerical failure: trajectory blew up at "
              f"t = {traj.blowup_time:.6g}", file=sys.stderr)
        return 2
    return 0


def _run_measure_check(args) -> int:
    import numpy as np

    from .randmeasure import (AtomicRandomMeasure, Partition, moments,
                              sample_counts, xi_from_rule)
    from .randmeasure_ext import structural_function

    read = _load_config(args)
    reps = read("reps", [[float]])
    xi = read("xi", [float], None)
    if xi is None:
        rule = {key: read(key, float, 0.0) for key in ("gamma", "varsigma")}
        xi = tuple(xi_from_rule(rep, len(reps[0]) - 3, **rule)
                   for rep in reps)
    measure = AtomicRandomMeasure(partition=Partition(reps=reps),
                                  p=read("p", [float]), xi=xi,
                                  seed=read("seed", int, 0, low=0))
    samples = read("samples", int, 100_000, low=1)
    counts = sample_counts(measure, samples)
    size = measure.size
    p = np.asarray(measure.p)
    xi_arr = np.asarray(measure.xi, dtype=np.complex128)
    # c_j is a function of the drawn cell: row j of diag(xi)
    coeff = np.diag(xi_arr)

    # per-sample orthogonality of distinct cells is structural: at most one
    # coefficient is nonzero per draw
    cross_max = 0.0
    for i in range(size):
        for j in range(i + 1, size):
            cross_max = max(cross_max, float(np.max(np.abs(
                coeff[i] * coeff[j]))))

    # first and second moments against the closed forms xi p and xi^2 p,
    # reduced over the per-cell draw counts
    mean_gap = delta_gap = 0.0
    mean_pass = delta_pass = True
    for j in range(size):
        m1, se1 = moments(counts, coeff[j])
        m2, se2 = moments(counts, coeff[j] * coeff[j])
        want1 = xi_arr[j] * p[j]
        want2 = xi_arr[j] ** 2 * p[j]
        mean_gap = max(mean_gap, float(abs(m1 - want1)))
        delta_gap = max(delta_gap, float(abs(m2 - want2)))
        mean_pass &= bool(
            abs(m1 - want1) <= 3.0 * float(abs(se1)) + 1e-12)
        delta_pass &= bool(
            abs(m2 - want2) <= 3.0 * float(abs(se2)) + 1e-12)

    # structural function: whole-space diagonal atom sum vs |xi|^2 p
    whole = list(range(size))
    struct_gap = float(abs(structural_function(measure, whole, whole)
                           - float(np.sum(np.abs(xi_arr) ** 2 * p))))
    ok = bool(cross_max == 0.0 and mean_pass and delta_pass
              and struct_gap <= 1e-12)
    _emit(_outdir(args), "measure_report.json", {
        "cells": size,
        "samples": samples,
        "seed": measure.seed,
        "cross_moment_max": cross_max,
        "mean_gap": mean_gap,
        "mean_within_3se": bool(mean_pass),
        "second_moment_gap": delta_gap,
        "second_moment_within_3se": bool(delta_pass),
        "structural_gap": struct_gap,
        "pass": ok,
    })
    return _finish(ok, "measure-check")


HANDLERS = {"algebra-check": _run_algebra_check, "translate": _run_translate,
            "ode": _run_ode, "measure-check": _run_measure_check}
