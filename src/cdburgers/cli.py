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
     "grid": {"n": 2, "lo": lo, "hi": hi, "count": count},
                                 (lo, hi, count required; n >= 1, count >= 2)
     "kappa": null,         default: smallest admissible root
     "tol": 1e-10, "max_iter": 40, "force": false}
ode
    {"lambda": [lambda_1, ..., lambda_{m+1}],                  (required)
     "c": [c_0, ..., c_{m-1}],  default: all 0
     "horizon": 0.5, "tau": null}       (tau null: horizon / 1000)
measure-check
    {"reps": [[...], ...], "p": [...],  (required)
     "gamma": 0.0, "varsigma": 0.0,     (or explicit "xi": [...])
     "seed": 0, "samples": 100000}      (seed >= 0, samples >= 1)
assemble
    {"problem": {"alpha": .., "beta": .., "gamma": .., "varsigma": ..,
                 "c": [..],                                    (required)
                 "n": 2, "lo": 0.0, "hi": 1.0, "horizon": 1.0},  (n >= 2)
     "atoms": [[lam, ...], ...] or "matched": [[lam_prime], ...],
     "p": [...], "w0": [...],                                  (required)
     "grid": {"count": .., "t_count": ..},             (required, both >= 2)
     "seed": 0, "samples": 0}       (both >= 0; samples 0 skips it)
verify
    {"problem": {...},                                         (required)
     "lam_prime": [...], "w0": [...],                          (required)
     "levels": [[count, t_count], ...],                (required, all >= 2)
     "collar": 2.0,                                      (required, >= 0)
     "t_collar": null}                                  (>= 0 when given)

One reader (_load_config) reads every key, before --out is created and
before any solve, and names the key by its path (grid.count, problem.gamma,
levels[0][1]) in each refusal (exit 1):
- a real is a JSON number, not true or false, and finite; it reads as a
  float;
- an integer is a JSON number with an integral value of magnitude at most
  2**53 (a float beyond that names no single integer);
- a list is a non-empty JSON list, a pair is a list of two entries, and
  the reader checks each entry; lists read as tuples;
- force is true or false, source a string, grid and problem JSON objects;
- a key with a simple range of its own (the >= bounds above) is checked
  against it;
- an absent key takes its default, and a key whose default is null (tau,
  t_collar, kappa, xi) also takes an explicit null.
The layers keep the checks of their own API, including every check that
ties one key to another.

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

Exit codes: 0 success, 1 validation error (bad flags, bad config, missing
file), 2 numerical failure (divergence, blow-up, or a failed check).

Each stage imports numpy and the numeric modules it uses only when it
runs, so --help and usage errors load no numeric module.  The handlers of
algebra-check, translate, ode and measure-check live in cli_ext, which the
dispatcher imports only when one of those stages runs.  After cli_run,
main freezes the heap (gc.freeze), so interpreter shutdown leaves it to
the OS instead of freeing it object by object; every --out file is closed
by then, and cli_run, which tests run in-process, changes no GC state.
"""

from __future__ import annotations

import argparse
import gc
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


def _load_config(args):
    """The stage's one reader of its --config keys, read(path, kind,
    default=..., low=None), under the rules of the module docstring; a
    default of ... marks a key that the stage needs."""
    data = {} if args.config is None else json.loads(
        Path(args.config).read_text())
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")

    def bad(name, what, value):
        raise ValueError(
            f"{args.subcommand} '{name}' must be {what}, got {value!r}")

    def typed(value, kind, name, low):
        if type(kind) is list:  # [k]: a non-empty list; [k, k]: a pair
            if type(value) is not list or not value or (
                    len(value) != len(kind) > 1):
                bad(name, f"a list of {len(kind)} entries" if len(kind) > 1
                    else "a non-empty list", value)
            return tuple(typed(v, kind[0], f"{name}[{i}]", low)
                         for i, v in enumerate(value))
        # bool and str by type; a number finite, and an int integral too
        if not (type(value) is kind if kind in (bool, str) else
                type(value) in (int, float)
                and abs(value) <= sys.float_info.max
                and (kind is float or -2**53 <= value == int(value) <= 2**53)):
            bad(name, {bool: "true or false", str: "a string",
                       int: "an integer within 2**53",
                       float: "a finite number"}[kind], value)
        value = kind(value)
        if low is not None and value < low:
            bad(name, f">= {low}", value)
        return value

    def read(path, kind, default=..., low=None):
        section, _, key = path.rpartition(".")
        node = data.get(section, {}) if section else data
        if type(node) is not dict:
            bad(section, "a JSON object", node)
        value = node.get(key, default)
        if value is ...:
            raise ValueError(f"{args.subcommand} config needs '{path}'")
        return value if value is default else typed(value, kind, path, low)

    return read


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


def _finish(ok: bool, what: str) -> int:
    print(f"{what}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


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

    read = _load_config(args)
    grid = Grid.box(read("grid.n", int, 2, low=1), read("grid.lo", float),
                    read("grid.hi", float), read("grid.count", int, low=2))
    a = read("a", [float])
    config = KernelConfig(
        a=a, p=read("p", [float]),
        kappa=read("kappa", [float], None) or admissible_kappa(a, grid.n),
        w0=read("w0", [float]),
        max_iter=read("max_iter", int, 40), tol=read("tol", float, 1e-10))
    try:
        kf = solve_K(config, grid, force=read("force", bool, False))
    except PicardDivergence as exc:
        _write_trace(_outdir(args), exc.trace)
        raise
    out = _outdir(args)
    _emit(out, "kernel_report.json", run_report(kf, grid))
    _write_trace(out, kf.trace)
    dump_field(kf.F, out / "F.cdgf")
    print(f"wrote {out / 'F.cdgf'}")
    kf.dump_K(out / "K.cdgf")
    print(f"wrote {out / 'K.cdgf'}")
    return 0


# ---------------------------------------------------------------------------
# assemble / verify
# ---------------------------------------------------------------------------


def _problem(read):
    from .workbench import SobolevBurgersSpec

    return SobolevBurgersSpec(
        **{key: read(f"problem.{key}", float)
           for key in ("alpha", "beta", "gamma", "varsigma")},
        c=read("problem.c", [float]), n=read("problem.n", int, 2, low=2),
        lo=read("problem.lo", float, 0.0), hi=read("problem.hi", float, 1.0),
        horizon=read("problem.horizon", float, 1.0))


def _run_assemble(args) -> int:
    from .kernel import run_report
    from .workbench import (SpectralPoint, assemble_u, measure_for_atoms,
                            moment_identity)

    read = _load_config(args)
    spec = _problem(read)
    atoms = [SpectralPoint(row) for row in read("atoms", [[float]], ())] or [
        SpectralPoint.matched(spec, row) for row in read("matched", [[float]])]
    samples = read("samples", int, 0, low=0)
    grid = spec.grid(read("grid.count", int, low=2),
                     read("grid.t_count", int, low=2))
    measure = measure_for_atoms(atoms, spec, read("p", [float]),
                                seed=read("seed", int, 0, low=0))
    sol = assemble_u(atoms, measure, grid, spec, read("w0", [float]))
    out = _outdir(args)
    report = {
        "atoms": [a.lam for a in atoms],
        "p": measure.p,
        "xi": measure.xi,
        "grid": {"count": grid.counts[0], "t_count": grid.t_count},
        "kernels": [run_report(kf, grid) for kf in sol.kernels],
        "moment_identity": moment_identity(sol, samples=samples),
    }
    _emit(out, "assemble_report.json", report)
    for j, kf in enumerate(sol.kernels):
        kf.dump_K(out / f"atom{j}_K.cdgf")
        print(f"wrote {out / f'atom{j}_K.cdgf'}")
    return 0


def _run_verify(args) -> int:
    from .workbench import REFINEMENT_COLUMNS, refinement_study

    read = _load_config(args)
    spec = _problem(read)
    levels = read("levels", [[int, int]], low=2)
    collar, t_collar = read("collar", float), read("t_collar", float, None)
    rows = refinement_study(spec, read("lam_prime", [float]), levels,
                            read("w0", [float]), collar=collar,
                            t_collar=t_collar)
    out = _outdir(args)
    csv_text = _csv_text(REFINEMENT_COLUMNS, (
        [row.get(k) for k in REFINEMENT_COLUMNS] for row in rows))
    _write_text(out, "refinement.csv", csv_text)
    monotone = all(row[key] < 1.0 for row in rows for key in row
                   if key.endswith("_ratio"))
    _emit(out, "verify_report.json", {
        "levels": levels,
        "collar": collar,
        "t_collar": t_collar,
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


def _run_ext(args) -> int:
    from .cli_ext import HANDLERS

    return HANDLERS[args.subcommand](args)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdburgers",
                     description="Sobolev-Burgers solution workbench")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def stage(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="artifact directory")
        p.set_defaults(handler=handler)

    stage("algebra-check", _run_ext, "doubling-algebra property sweep")
    stage("translate", _run_ext, "lower a PDE over the doubling algebra")
    stage("kernel", _run_kernel, "solve the auxiliary kernel equation")
    stage("ode", _run_ext, "integrate the temporal Cauchy problem")
    stage("measure-check", _run_ext,
          "atomic random measure identity checks")
    stage("assemble", _run_assemble,
          "assemble a stochastic solution field")
    stage("verify", _run_verify,
          "residual refinement study of an assembled solution")
    return parser


def cli_run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 validation error,
    2 numerical failure)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    code = cli_run()
    gc.freeze()  # shutdown then leaves the heap to the OS (module docstring)
    sys.exit(code)


if __name__ == "__main__":
    # so that cli_ext's import of cdburgers.cli reuses this module
    sys.modules.setdefault("cdburgers.cli", sys.modules[__name__])
    main()
