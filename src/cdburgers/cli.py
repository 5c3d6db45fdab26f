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
     "seed": 0, "samples": 0}       (both >= 0; samples 0 skips it)
verify
    {"problem": {...},                                         (required)
     "lam_prime": [...], "w0": [...],                          (required)
     "levels": [[count, t_count], ...],                        (required)
     "collar": 2.0,                                      (required, >= 0)
     "t_collar": null,                                  (>= 0 when given)
     "seed": 0, "samples": 0}       (both >= 0; samples 0 skips it)

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


def _samples_seed(cfg: dict) -> list:
    """samples and seed (default 0) as ints >= 0, read before any solve or
    write, so that a bad value leaves no --out behind."""
    counts = []
    for key, what in (("samples", "0 or a positive sample count"),
                      ("seed", "an integer >= 0")):
        try:
            counts.append(int(cfg.get(key, 0)))
        except (TypeError, ValueError, OverflowError):
            counts.append(-1)
        if counts[-1] < 0:
            raise ValueError(f"{key} must be {what}, got {cfg[key]!r}")
    return counts


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
    samples, seed = _samples_seed(cfg)
    grid = spec.grid(int(cfg["grid"]["count"]), int(cfg["grid"]["t_count"]))
    measure = measure_for_atoms(atoms, spec, tuple(cfg["p"]), seed=seed)
    sol = assemble_u(atoms, measure, grid, spec, tuple(cfg["w0"]))
    out = _outdir(args)
    report = {
        "atoms": [list(a.lam) for a in atoms],
        "p": list(measure.p),
        "xi": list(measure.xi),
        "grid": {"count": grid.counts[0], "t_count": grid.t_count},
        "kernels": [run_report(kf, grid) for kf in sol.kernels],
        "moment_identity": moment_identity(sol, samples=samples),
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
    samples, seed = _samples_seed(cfg)
    rows = refinement_study(
        spec, tuple(cfg["lam_prime"]), levels, tuple(cfg["w0"]),
        collar=float(cfg["collar"]),
        t_collar=(None if cfg.get("t_collar") is None
                  else float(cfg["t_collar"])),
        seed=seed, samples=samples)
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
        p.add_argument("--config", default=None, help="JSON config file")
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
    code = cli_run()
    gc.freeze()  # shutdown then leaves the heap to the OS (module docstring)
    sys.exit(code)


if __name__ == "__main__":
    # so that cli_ext's import of cdburgers.cli reuses this module
    sys.modules.setdefault("cdburgers.cli", sys.modules[__name__])
    main()
