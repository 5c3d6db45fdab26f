"""Command line front end: one subcommand per pipeline stage.

Usage::

    cdburgers <subcommand> [--config FILE] [--out DIR]

Every stage reads its inputs from the --config file alone.  Subcommands and
their JSON config schemas (all keys optional unless noted):

algebra-check
    {"levels": [2, 3, 4], "trials": 200, "seed": 0}
                            (levels non-empty, each in [0, 6]; trials >= 1)
translate
    {"source": "<equation text>"}                              (required)
kernel
    {"a": [a1, a2, a3],                 (required)
     "p": [p1, p2],                     (required)
     "w0": [w, ...],                    (required)
     "grid": {"n": 2, "lo": 0.0, "hi": 1.0, "count": 9},       (required)
     "kappa": [...],        default: smallest admissible root
     "tol": 1e-10, "max_iter": 40, "force": false}
ode
    {"lambda": [lambda_1, ..., lambda_{m+1}],                  (required)
     "c": [c_0, ..., c_{m-1}],  default: all 0
     "horizon": 0.5, "tau": null}       (tau null: horizon / 1000)
measure-check
    {"reps": [[...], ...], "p": [...],  (required)
     "gamma": 0.0, "varsigma": 0.0,     (or explicit "xi": [...])
     "seed": 0, "samples": 100000}      (samples > 0)
assemble
    {"problem": {"alpha": .., "beta": .., "gamma": .., "varsigma": ..,
                 "c": [..], "n": 2, "lo": .., "hi": .., "horizon": ..},
                                                               (required)
     "atoms": [[lam, ...], ...] or "matched": [[lam_prime], ...],
     "p": [...], "w0": [...],                                  (required)
     "grid": {"count": .., "t_count": ..},                     (required)
     "seed": 0, "samples": 0}           (samples >= 0; 0 skips it)
verify
    {"problem": {...},                                         (required)
     "lam_prime": [...], "w0": [...],                          (required)
     "levels": [[count, t_count], ...],                        (required)
     "collar": 2.0,                                      (required, >= 0)
     "t_collar": null,                                  (>= 0 when given)
     "seed": 0, "samples": 0}           (samples >= 0; 0 skips it)

Keys a stage does not read are ignored.  Two values are derived, not
read: the Cayley-Dickson level of kernel, assemble and verify is the
smallest that holds the n coordinate units and the weights p
(KernelConfig.level), and the degree m of Q is len(lambda) - 1 for ode and
len(reps[0]) - 3 for measure-check.

Artifacts are written into --out (default "."): JSON manifests, CSV
tables, and binary field dumps in the documented calculus byte layout, so
a fixed config and seed produce byte-identical outputs.  The numeric
layers return plain dicts and rows; _json_text (sorted keys, fixed
separators, complex as [re, im]) and _csv_text (floats by repr, None as an
empty field, "\n" after every line) are the only encoders of --out text.
The kernel dumps (K.cdgf, atom*_K.cdgf) hold K's separated terms (layout
version 2), not its N^{2n} pair values; calculus.load_field expands them.

Exit codes: 0 success, 1 validation error (bad flags, bad config, a
config value of the wrong type or a non-finite integer, missing file), 2
numerical failure (divergence, blow-up, or a failed check).

Each stage imports numpy and the numeric modules it uses only when it
runs, so --help and usage errors load no numeric module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["cli_run", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this artifact reserves 2 for
    numerical failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    text = Path(args.config).read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text)
    print(f"wrote {out / name}")


def _json_text(report: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, complex as [re, im],
    numpy scalars as their Python values, so equal runs write equal bytes."""

    def plain(x):
        if isinstance(x, complex):
            return [x.real, x.imag]
        if getattr(x, "ndim", None) == 0:  # a numpy scalar; no numpy import
            return x.item()
        raise TypeError(f"{type(x).__name__} is not JSON serializable")

    return json.dumps(report, default=plain, sort_keys=True,
                      separators=(",", ":"))


def _csv_text(header, rows) -> str:
    """CSV table: the header line, then one line per row with None as an
    empty field and every other value by repr, each line ended by "\n"."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else repr(v) for v in row)
              for row in rows]
    return "".join(line + "\n" for line in lines)


def _emit(out: Path, name: str, report: dict) -> None:
    _write_text(out, name, _json_text(report))


def _require(cfg: dict, stage: str, keys) -> None:
    for key in keys:
        if key not in cfg:
            raise ValueError(f"{stage} config needs '{key}'")


def _finish(ok: bool, what: str) -> int:
    print(f"{what}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# algebra-check
# ---------------------------------------------------------------------------


def _run_algebra_check(args) -> int:
    import numpy as np

    from .algebra import MAX_LEVEL, CdElement, cd_mul, pi_project

    cfg = _load_config(args)
    levels = cfg.get("levels", [2, 3, 4])
    trials = int(cfg.get("trials", 200))
    if trials < 1:
        raise ValueError(f"algebra-check 'trials' must be >= 1, got {trials}")
    if not levels or not all(0 <= int(r) <= MAX_LEVEL for r in levels):
        raise ValueError("algebra-check 'levels' must be a non-empty list "
                         f"of levels in [0, {MAX_LEVEL}], got {levels}")
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)

    anticommutation_exact = True
    squares_exact = True
    for r in levels:
        dim = 1 << int(r)
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
        dim = 1 << int(r)
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
        "levels": [int(r) for r in levels],
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


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def _run_translate(args) -> int:
    cfg = _load_config(args)
    _require(cfg, "translate", ("source",))
    source = cfg["source"]
    if not isinstance(source, str):
        raise ValueError(f"translate source must be a string, got {source!r}")
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


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def _write_trace(out: Path, trace: list) -> None:
    keys = ("iter", "diff", "ratio")
    _write_text(out, "kernel_trace.csv",
                _csv_text(keys, ([t[k] for k in keys] for t in trace)))


def _run_kernel(args) -> int:
    from .calculus import Grid, dump_field
    from .kernel import (KernelConfig, PicardDivergence, admissible_kappa,
                         run_report, solve_K)

    cfg = _load_config(args)
    _require(cfg, "kernel", ("a", "p", "w0", "grid"))
    g = cfg["grid"]
    grid = Grid.box(int(g.get("n", 2)), float(g["lo"]), float(g["hi"]),
                    int(g["count"]))
    a = tuple(cfg["a"])
    kappa = tuple(cfg["kappa"]) if "kappa" in cfg else admissible_kappa(
        a, grid.n)
    config = KernelConfig(
        a=a, p=tuple(cfg["p"]), kappa=kappa, w0=tuple(cfg["w0"]),
        max_iter=int(cfg.get("max_iter", 40)),
        tol=float(cfg.get("tol", 1e-10)))
    try:
        kf = solve_K(config, grid, force=bool(cfg.get("force", False)))
    except PicardDivergence as exc:
        _write_trace(_outdir(args), exc.trace)
        raise
    out = _outdir(args)
    _emit(out, "kernel_report.json", run_report(kf, grid))
    _write_trace(out, kf.trace)
    dump_field(kf.F, str(out / "F.cdgf"))
    print(f"wrote {out / 'F.cdgf'}")
    kf.dump_K(str(out / "K.cdgf"))
    print(f"wrote {out / 'K.cdgf'}")
    return 0


# ---------------------------------------------------------------------------
# ode
# ---------------------------------------------------------------------------


def _run_ode(args) -> int:
    cfg = _load_config(args)
    _require(cfg, "ode", ("lambda",))
    lam = tuple(float(v) for v in cfg["lambda"])
    m = len(lam) - 1
    c = tuple(float(v) for v in cfg.get("c", [0.0] * m))
    horizon = float(cfg.get("horizon", 0.5))
    tau = cfg.get("tau")
    from .temporal import CauchySpec, solve_cauchy

    spec = CauchySpec(m=m, c=c, lam=lam, horizon=horizon,
                      tau=None if tau is None else float(tau))
    traj = solve_cauchy(spec)
    out = _outdir(args)
    _write_text(out, "trajectory.csv", _csv_text(
        ("t", "re_phi", "im_phi", "residual"),
        ((float(t), float(v.real), float(v.imag), float(r))
         for t, v, r in zip(traj.times, traj.values, traj.residuals))))
    _emit(out, "ode_report.json", {
        "m": m, "c": list(c), "lambda": list(lam),
        "horizon": horizon, "tau": spec.step,
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


# ---------------------------------------------------------------------------
# measure-check
# ---------------------------------------------------------------------------


def _run_measure_check(args) -> int:
    import numpy as np

    from .randmeasure import (AtomicRandomMeasure, Partition, moments,
                              sample_counts, structural_function,
                              xi_from_rule)

    cfg = _load_config(args)
    _require(cfg, "measure-check", ("reps", "p"))
    reps = tuple(tuple(float(v) for v in row) for row in cfg["reps"])
    partition = Partition(reps=reps)
    if "xi" in cfg:
        xi = tuple(complex(v) for v in cfg["xi"])
    else:
        m = len(reps[0]) - 3
        xi = tuple(
            xi_from_rule(rep, m, gamma=complex(cfg.get("gamma", 0.0)),
                         varsigma=complex(cfg.get("varsigma", 0.0)))
            for rep in reps)
    measure = AtomicRandomMeasure(partition=partition,
                                  p=tuple(float(v) for v in cfg["p"]),
                                  xi=xi, seed=int(cfg.get("seed", 0)))
    samples = int(cfg.get("samples", 100_000))
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


# ---------------------------------------------------------------------------
# assemble / verify
# ---------------------------------------------------------------------------


def _problem(cfg: dict):
    from .workbench import SobolevBurgersSpec

    if "problem" not in cfg:
        raise ValueError("config needs a 'problem' section")
    pr = cfg["problem"]
    return SobolevBurgersSpec(
        alpha=pr["alpha"], beta=pr["beta"], gamma=pr["gamma"],
        varsigma=pr["varsigma"], c=tuple(pr["c"]), n=int(pr.get("n", 2)),
        lo=float(pr.get("lo", 0.0)), hi=float(pr.get("hi", 1.0)),
        horizon=float(pr.get("horizon", 1.0)))


def _run_assemble(args) -> int:
    from .kernel import run_report
    from .workbench import (SpectralPoint, assemble_u, measure_for_atoms,
                            moment_identity)

    cfg = _load_config(args)
    spec = _problem(cfg)
    if "atoms" in cfg:
        atoms = [SpectralPoint(tuple(row)) for row in cfg["atoms"]]
    elif "matched" in cfg:
        atoms = [SpectralPoint.matched(spec, tuple(row))
                 for row in cfg["matched"]]
    else:
        raise ValueError("config needs 'atoms' or 'matched'")
    _require(cfg, "assemble", ("p", "w0", "grid"))
    grid = spec.grid(int(cfg["grid"]["count"]), int(cfg["grid"]["t_count"]))
    measure = measure_for_atoms(atoms, spec, tuple(cfg["p"]),
                                seed=int(cfg.get("seed", 0)))
    sol = assemble_u(atoms, measure, grid, spec, tuple(cfg["w0"]))
    out = _outdir(args)
    report = {
        "atoms": [list(a.lam) for a in atoms],
        "p": list(measure.p),
        "xi": list(measure.xi),
        "grid": {"count": grid.counts[0], "t_count": grid.t_count},
        "kernels": [run_report(kf, grid) for kf in sol.kernels],
        "moment_identity": moment_identity(
            sol, samples=int(cfg.get("samples", 0))),
    }
    _emit(out, "assemble_report.json", report)
    for j, kf in enumerate(sol.kernels):
        kf.dump_K(str(out / f"atom{j}_K.cdgf"))
        print(f"wrote {out / f'atom{j}_K.cdgf'}")
    return 0


def _run_verify(args) -> int:
    from .workbench import REFINEMENT_COLUMNS, refinement_study

    cfg = _load_config(args)
    spec = _problem(cfg)
    _require(cfg, "verify", ("lam_prime", "w0", "levels", "collar"))
    levels = [tuple(int(v) for v in row) for row in cfg["levels"]]
    for row in levels:
        if len(row) != 2:
            raise ValueError(f"verify level {list(row)} is not "
                             "[count, t_count]")
    if not levels:
        raise ValueError("verify config needs at least one level")
    rows = refinement_study(
        spec, tuple(cfg["lam_prime"]), levels, tuple(cfg["w0"]),
        collar=float(cfg["collar"]),
        t_collar=(None if cfg.get("t_collar") is None
                  else float(cfg["t_collar"])),
        seed=int(cfg.get("seed", 0)), samples=int(cfg.get("samples", 0)))
    out = _outdir(args)
    csv_text = _csv_text(REFINEMENT_COLUMNS, (
        [row.get(k) for k in REFINEMENT_COLUMNS] for row in rows))
    _write_text(out, "refinement.csv", csv_text)
    ratios = [row[key] for row in rows for key in row
              if key.endswith("_ratio")]
    monotone = all(r < 1.0 for r in ratios)
    _emit(out, "verify_report.json", {
        "levels": [list(l) for l in levels],
        "collar": float(cfg["collar"]),
        "t_collar": cfg.get("t_collar"),
        "rows": rows,
        "monotone": monotone,
    })
    print(csv_text, end="")
    if len(levels) < 2:
        return 0
    return _finish(monotone, "verify (residuals decrease)")


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdburgers",
                     description="Sobolev-Burgers solution workbench")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def stage(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="artifact directory")
        p.set_defaults(handler=handler)

    stage("algebra-check", _run_algebra_check,
          "doubling-algebra property sweep")
    stage("translate", _run_translate,
          "lower a PDE over the doubling algebra")
    stage("kernel", _run_kernel, "solve the auxiliary kernel equation")
    stage("ode", _run_ode, "integrate the temporal Cauchy problem")
    stage("measure-check", _run_measure_check,
          "atomic random measure identity checks")
    stage("assemble", _run_assemble,
          "assemble a stochastic solution field")
    stage("verify", _run_verify,
          "residual refinement study of an assembled solution")
    return parser


def cli_run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 validation error,
    2 numerical failure)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.handler(args))
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: missing config key '{exc.args[0]}'", file=sys.stderr)
        return 1
    except (TypeError, AttributeError) as exc:
        print(f"error: config value of the wrong type: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:  # a RuntimeError subclass: caught first
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
