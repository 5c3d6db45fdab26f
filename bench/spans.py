"""Traced in-process run of one cdburgers CLI stage, and the aggregation of
its spans into per-layer metrics.

As a program it imports cdburgers, wraps the public functions listed in
LAYERS, runs one stage through ``cdburgers.cli.cli_run`` and writes the
spans as JSON::

    python3 bench/spans.py --spans SPANS.json -- kernel --config C --out D

With ``--exponent`` it instead times ``kernel.apply_A`` on the scalar
kernel config at N = 21 and N = 31, for the log-log slope of its self time::

    python3 bench/spans.py --spans SPANS.json --exponent

A wrapper is installed by replacing every binding of the function in every
loaded ``cdburgers.*`` module, because ``cli`` and ``workbench`` import by
name. A function missing at the commit under test is reported as absent.
Spans stay in memory and are written when the run ends; each records its
name, start, end, parent and, for a few functions, a count taken from its
arguments or result.

Imported (by ``bench/run.py``) this module only aggregates span files, and
never imports cdburgers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import time
from pathlib import Path

# layer (cdburgers module) -> wrapped public functions
LAYERS = {
    "cli": ("cli_run",),
    "workbench": ("assemble_u", "residual_suite", "moment_identity",
                  "refinement_study"),
    "kernel": ("solve_K", "estimate_A_norm", "apply_A",
               "prefix_line_integrals", "s2a_apply", "aux_residual",
               "build_F", "midpoint_pair_field"),
    "calculus": ("dirac_apply", "diff_axis", "cumulative_integral",
                 "dump_field"),
    "algebra": ("mul_coeffs", "basis_mul_coeffs"),
    "temporal": ("solve_cauchy",),
    "randmeasure": ("sample_H",),
}

# Not a reported layer: wrapped only to count the diagonal-window nodes
# that the residual path reads.
DIAG_READ = ("kernel", "_diagonal_pair")

EXPONENT_SIZES = (21, 31)
EXPONENT_REPEATS = 3


# ---------------------------------------------------------------------------
# recording (runs in the traced process)
# ---------------------------------------------------------------------------


def _prod(shape) -> int:
    return math.prod(int(s) for s in shape)


def _apply_A_data(args, out):
    return {"bytes": args[0].values.nbytes + out.values.nbytes,
            "N": args[3].counts[0]}


def _solve_K_data(args, out):
    return {"iters": len(out.trace)}


def _dirac_apply_data(args, out):
    if out.arity != "xy":
        return None
    return {"pair_nodes": _prod(out.values.shape[:2 * out.grid.n])}


def _diagonal_pair_data(args, out):
    return {"diag_nodes": _prod(out.shape[:args[1]])}


HOOKS = {
    "kernel.apply_A": _apply_A_data,
    "kernel.solve_K": _solve_K_data,
    "calculus.dirac_apply": _dirac_apply_data,
    "kernel._diagonal_pair": _diagonal_pair_data,
}


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, data]
        self._stack = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, None])
            self._stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[i][2] = time.perf_counter()
            if hook is not None:
                try:
                    self.spans[i][4] = hook(args, out)
                except (AttributeError, IndexError, TypeError):
                    pass  # the function's signature drifted; skip the count
            return out

        return wrapper

    def install(self) -> list:
        """Wrap every listed function; return the names found absent."""
        import importlib

        import cdburgers.cli  # noqa: F401  (loads every layer module)

        absent = []
        targets = [(layer, fn) for layer, fns in LAYERS.items() for fn in fns]
        for layer, fn in targets + [DIAG_READ]:
            name = f"{layer}.{fn}"
            try:
                module = importlib.import_module(f"cdburgers.{layer}")
                original = getattr(module, fn)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cdburgers"
                                       or mod_name.startswith("cdburgers.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return absent


def _run_exponent() -> None:
    """apply_A on the scalar-closed kernel config, alternating N."""
    from cdburgers import calculus, kernel

    a = (-1.0, -1.0, 0.0)
    config = kernel.KernelConfig(a=a, p=(5e-6, 0.0),
                                 kappa=kernel.admissible_kappa(a, 2),
                                 w0=(0.0, 0.0))
    cases = []
    for count in EXPONENT_SIZES:
        grid = calculus.Grid.box(2, -0.5, 4.5, count)
        cases.append((kernel.midpoint_pair_field(config, grid),
                      kernel.build_F(config, grid).F, grid))
    for _ in range(EXPONENT_REPEATS):
        for K, F, grid in cases:
            kernel.apply_A(K, F, config, grid)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spans", required=True, help="span JSON to write")
    ap.add_argument("--exponent", action="store_true",
                    help="time apply_A at N = 21 and 31 instead of a stage")
    ap.add_argument("cli_args", nargs="*",
                    help="cdburgers CLI arguments, after --")
    args = ap.parse_args(argv)
    tracer = Tracer()
    absent = tracer.install()
    code = 0
    if args.exponent:
        try:
            _run_exponent()
        except (AttributeError, TypeError):
            tracer.spans = []  # the kernel API drifted: no exponent
    else:
        from cdburgers import cli

        code = cli.cli_run(args.cli_args)
    Path(args.spans).write_text(json.dumps(
        {"absent": absent, "spans": tracer.spans}))
    return code


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process)
# ---------------------------------------------------------------------------


# derived per-layer metrics; trace.overhead_s is computed by bench/run.py
DERIVED = ("kernel.picard_iters", "kernel.probe_share",
           "kernel.apply_A.pair_bytes", "workbench.residual.diag_fraction",
           "kernel.apply_A.n_exponent", "kernel.apply_A.n_exponent_spread",
           "trace.overhead_s")


def layer_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Every per-layer metric of a traced run in which nothing is absent."""
    return [f"{name}.{kind}" for name in layer_names()
            for kind in ("calls", "total_s", "self_s")] + list(DERIVED)


def _self_times(spans):
    """Span duration minus the time its direct child spans cover (spans of
    one thread nest, so the children never overlap)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _under(spans, i: int, name: str) -> bool:
    i = spans[i][3]
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced stage run, as {name: (value, unit)}.
    Functions absent at this commit, and metrics derived from them, are
    left out."""
    spans = trace["spans"]
    absent = set(trace["absent"])
    selfs = _self_times(spans)
    out = {}
    for name in layer_names():
        if name in absent:
            continue
        mine = [i for i, s in enumerate(spans) if s[0] == name]
        out[f"{name}.calls"] = (len(mine), "count")
        out[f"{name}.total_s"] = (
            sum(spans[i][2] - spans[i][1] for i in mine), "s")
        out[f"{name}.self_s"] = (sum(selfs[i] for i in mine), "s")

    def data(name, key):
        return [s[4][key] for s in spans if s[0] == name and s[4]]

    if "kernel.solve_K" not in absent:
        out["kernel.picard_iters"] = (
            sum(data("kernel.solve_K", "iters")), "count")
    applies = [i for i, s in enumerate(spans) if s[0] == "kernel.apply_A"]
    if not absent & {"kernel.apply_A", "kernel.estimate_A_norm"}:
        probes = sum(_under(spans, i, "kernel.estimate_A_norm")
                     for i in applies)
        out["kernel.probe_share"] = (
            probes / len(applies) if applies else 0.0, "ratio")
    if "kernel.apply_A" not in absent:
        nbytes = data("kernel.apply_A", "bytes")
        out["kernel.apply_A.pair_bytes"] = (
            sum(nbytes) / len(nbytes) if nbytes else 0.0, "B")
    if not absent & {"workbench.residual_suite", "calculus.dirac_apply",
                     "kernel._diagonal_pair"}:
        computed = read = 0
        for i, s in enumerate(spans):
            if s[4] and _under(spans, i, "workbench.residual_suite"):
                computed += s[4].get("pair_nodes", 0)
                read += s[4].get("diag_nodes", 0)
        out["workbench.residual.diag_fraction"] = (
            read / computed if computed else 0.0, "ratio")
    return out


def exponent_metrics(trace: dict) -> dict:
    """Median log-log slope of apply_A self time between the two sizes,
    with the spread (max - min) over the repeats."""
    spans = trace["spans"]
    selfs = _self_times(spans)
    by_size = {n: [] for n in EXPONENT_SIZES}
    for i, s in enumerate(spans):
        if s[0] == "kernel.apply_A" and s[4] and s[4]["N"] in by_size:
            by_size[s[4]["N"]].append(selfs[i])
    small, large = (by_size[n] for n in EXPONENT_SIZES)
    if not small or len(small) != len(large):
        return {}
    ratio = math.log(EXPONENT_SIZES[1] / EXPONENT_SIZES[0])
    slopes = [math.log(b / a) / ratio for a, b in zip(small, large)]
    return {"kernel.apply_A.n_exponent": (statistics.median(slopes), "slope"),
            "kernel.apply_A.n_exponent_spread": (
                max(slopes) - min(slopes), "slope")}


if __name__ == "__main__":
    sys.exit(main())
