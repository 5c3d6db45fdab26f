"""Benchmark of the cdburgers CLI stages.

    python3 bench/run.py --workload assemble-mix --seed 1 --seconds 25
    python3 bench/run.py --trace 1          # every workload, traced

Each workload is one CLI stage on the acceptance-test BURGERS box
(n = 2, [-0.5, 4.5]^2), with a config generated from the seed (the seed is
written into the config; the ``kernel`` stage has no seeded input):

  assemble-mix    ``assemble`` of two matched atoms, count 21, t_count 9,
                  probes 8, 100000 Monte Carlo samples. The scalar-closed
                  kernel path (24 ``apply_A`` calls) does almost all the work.
  kernel-algebra  ``kernel`` with p_2 != 0, count 21, probes 4: the
                  algebra-valued branch of the same layer (4 coefficient
                  components, a third prefix sweep, ``algebra.mul_coeffs``).
  verify-long-t   ``verify`` at count 21, t_count 129: the residual suite,
                  whose sigma-term is recomputed per time row, dominates.

Untraced (``--trace 0``): a closed loop with one client. Each run is a fresh
child ``python -m cdburgers.cli <stage> --config <json> --out <tmp>`` with
BLAS pinned to one thread; the next starts when the last has exited, until
``--seconds`` have passed. End-to-end metrics: medians of ``wall_s`` (spawn
to exit), ``cpu_s`` (user + system, from ``os.wait4``) and ``peak_rss_mb``
(``ru_maxrss``), and ``setup_s``, the median wall time of the same stage
run with ``--help``. ``fail_frac`` is ``failed / attempted``: a run fails on
a non-zero exit or on any failed output check (``bench/checks.py``).

Traced (``--trace 1``): one untraced child, then the same stage in-process
under the span recorder of ``bench/spans.py``, then the ``apply_A`` scaling
run. Per-layer metrics are ``<layer>.<fn>.calls``, ``.total_s`` and
``.self_s``, a few derived counts, and ``trace.overhead_s``: traced minus
untraced wall time.

The measured children run the CLI unmodified; this process imports only
``cdburgers.calculus``, to load the written fields for the output checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file with
provenance (commit, Python, numpy, BLAS, the children's thread setup, CPU)
is written under ``.bench/results/``; scratch output goes to
``.bench/work/`` and is removed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # one workload's run ends within 180 s

BURGERS = {"alpha": 1.0, "beta": 0.0, "gamma": 1e-5, "varsigma": 0.0,
           "c": [0.0], "n": 2, "lo": -0.5, "hi": 4.5, "horizon": 1.0}
W0 = [0.0, 0.0]
KERNEL_ALGEBRA = {"a": [-1.0, -1.0, 0.0], "p": [5e-6, 2e-6], "w0": W0,
                  "grid": {"n": 2, "lo": -0.5, "hi": 4.5, "count": 21},
                  "probes": 4}

# name -> (CLI stage, config without the seed); "kernel-tiny" is the
# self-test's config, not a workload
CONFIGS = {
    "assemble-mix": ("assemble", {
        "problem": BURGERS, "matched": [[1.0, -0.5], [1.0, -1.0]],
        "p": [0.25, 0.75], "w0": W0, "grid": {"count": 21, "t_count": 9},
        "probes": 8, "samples": 100000}),
    "kernel-algebra": ("kernel", KERNEL_ALGEBRA),
    "verify-long-t": ("verify", {
        "problem": BURGERS, "lam_prime": [1.0, -0.5], "w0": W0,
        "levels": [[21, 129]], "collar": 2.0, "t_collar": 0.25,
        "probes": 4}),
    "kernel-tiny": ("kernel", {
        **KERNEL_ALGEBRA, "grid": {**KERNEL_ALGEBRA["grid"], "count": 11}}),
}
WORKLOADS = ("assemble-mix", "kernel-algebra", "verify-long-t")

# Predicted shares of the traced stage wall time (cli.cli_run.total_s).
PREDICTIONS = {
    "assemble-mix": ("kernel.apply_A", 0.80),
    "kernel-algebra": ("kernel.apply_A", 0.80),
    "verify-long-t": ("workbench.residual_suite", 0.60),
}


def make_config(name: str, seed: int):
    stage, cfg = CONFIGS[name]
    return stage, {**cfg, "seed": seed}


def work_root() -> Path:
    path = ROOT / ".bench" / "work"
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(argv: list, env: dict, log: Path, limit_s: float) -> ChildRun:
    """Run one child to completion and return its wall time and rusage.
    A child still running after ``limit_s`` is killed."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(max(1, math.ceil(limit_s)))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode)


def _left(deadline: float) -> float:
    return deadline - time.perf_counter()


def run_stage(stage: str, cfg: dict, tmp: Path, env: dict,
              deadline: float | None = None, prefix=None):
    """One stage child (or, with ``prefix``, the stage under that launcher)
    writing into ``tmp/out``; returns the run and the output directory."""
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = prefix or [sys.executable, "-m", "cdburgers.cli"]
    argv = argv + [stage, "--config", str(cfg_path), "--out", str(out)]
    limit = TIME_LIMIT_S if deadline is None else _left(deadline)
    return spawn(argv, env, tmp / "child.log", limit), out


def _checked(name, stage, res: ChildRun, out: Path, refs) -> list:
    problems = [f"exit code {res.code}"] if res.code != 0 else []
    problems += checks.check_outputs(name, stage, out, refs)
    shutil.rmtree(out, ignore_errors=True)
    return problems


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------


def measure(name, seed, seconds, tmp, env, refs, deadline) -> dict:
    stage, cfg = make_config(name, seed)
    help_argv = [sys.executable, "-m", "cdburgers.cli", stage, "--help"]
    setup = []
    for i in range(SETUP_REPEATS + 1):  # the first fills __pycache__
        res = spawn(help_argv, env, tmp / "help.log", _left(deadline))
        if res.code != 0:
            raise RuntimeError(f"{stage} --help exited {res.code}")
        if i:
            setup.append(res.wall_s)
    runs, problems = [], []
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start < seconds
                       and _left(deadline) > 0):
        res, out = run_stage(stage, cfg, tmp, env, deadline)
        runs.append(res)
        problems.append(_checked(name, stage, res, out, refs))
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs),
                        "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return {"metrics": metrics, "runs": [asdict(r) for r in runs],
            "problems": problems, "setup_samples": setup,
            "wall_tail": tail_percentile([r.wall_s for r in runs])}


def traced(name, seed, tmp, env, refs, deadline) -> dict:
    stage, cfg = make_config(name, seed)
    plain, out = run_stage(stage, cfg, tmp, env, deadline)
    problems = [_checked(name, stage, plain, out, refs)]
    launcher = [sys.executable, str(BENCH / "spans.py"),
                "--spans", str(tmp / "spans.json"), "--"]
    res, out = run_stage(stage, cfg, tmp, env, deadline, prefix=launcher)
    problems.append(_checked(name, stage, res, out, refs))
    exp_spans = tmp / "exponent.json"
    exp = spawn([sys.executable, str(BENCH / "spans.py"), "--spans",
                 str(exp_spans), "--exponent"], env, tmp / "exponent.log",
                _left(deadline))
    problems.append([f"exit code {exp.code}"] if exp.code != 0 else [])

    metrics = {}
    if res.code == 0:
        metrics.update(spans.layer_metrics(
            json.loads((tmp / "spans.json").read_text())))
    if exp.code == 0:
        metrics.update(spans.exponent_metrics(
            json.loads(exp_spans.read_text())))
    metrics["trace.overhead_s"] = (res.wall_s - plain.wall_s, "s")
    return {"metrics": metrics, "runs": [asdict(plain), asdict(res),
                                         asdict(exp)],
            "problems": problems,
            "absent": [n for n in spans.metric_names() if n not in metrics]}


def tail_percentile(values) -> dict:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond
    it, or None when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            k = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            return {"percentile": p, "value": ordered[k], "samples": n}
    return {"percentile": None, "value": None, "samples": n}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

_PROBE = r"""
import ctypes, json, os, platform, sys
import numpy
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "thread_env": {v: os.environ.get(v) for v in %r}}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
except (KeyError, TypeError, AttributeError):
    info["blas"] = None
info["blas_threads"] = None
try:
    from numpy._core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
except (ImportError, OSError):
    pass
print(json.dumps(info))
"""


def provenance(env: dict) -> dict:
    """What produced a result: commit, interpreter, numpy and BLAS as the
    children see them, their thread setup, and the machine."""
    info = {"commit": None, "cpu_model": None,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "platform": platform.platform()}
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        info["commit"] = git.stdout.strip() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", _PROBE % (THREAD_VARS,)],
                           env=env, capture_output=True, text=True,
                           timeout=60)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    return info


def _describe(prov: dict) -> str:
    blas = prov.get("blas") or {}
    return (f"commit {prov['commit'] or 'unknown (not a git checkout)'}; "
            f"python {prov.get('python')}; numpy {prov.get('numpy')}; "
            f"blas {blas.get('name')} {blas.get('version')} "
            f"threads={prov.get('blas_threads')} "
            f"env={prov.get('thread_env')}; "
            f"cpu {prov['cpu_model']} x{prov['nproc']}; "
            f"load {prov['loadavg_start']}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _print_untraced(name, res) -> None:
    n = len(res["runs"])
    for metric, (value, unit) in res["metrics"].items():
        count = SETUP_REPEATS if metric == "setup_s" else n
        print(f"{name} {metric} {value:.6g} {unit} (median of {count})")
    tail = res["wall_tail"]
    if tail["percentile"] is None:
        print(f"{name} wall_s tail: none ({n} samples; p50 needs 20)")
    else:
        print(f"{name} wall_s p{tail['percentile']:g} {tail['value']:.6g} s "
              f"({n} samples)")


def _print_traced(name, res) -> None:
    m = res["metrics"]
    for layer in spans.layer_names():
        if f"{layer}.calls" in m:
            print(f"{name} {layer} calls {m[layer + '.calls'][0]} "
                  f"total_s {m[layer + '.total_s'][0]:.6f} "
                  f"self_s {m[layer + '.self_s'][0]:.6f}")
    for metric, (value, unit) in m.items():
        if not metric.endswith((".calls", ".total_s", ".self_s")):
            print(f"{name} {metric} {value:.6g} {unit}")
    for metric in res["absent"]:
        print(f"{name} {metric} absent")
    layer, floor = PREDICTIONS[name]
    if f"{layer}.total_s" in m and "cli.cli_run.total_s" in m:
        share = m[f"{layer}.total_s"][0] / m["cli.cli_run.total_s"][0]
        verdict = "holds" if share >= floor else "does not hold"
        print(f"{name} {layer} share of traced stage wall {share:.3f} "
              f"(predicted >= {floor:g}: {verdict})")


def run_workload(name, args, env, refs) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    work = work_root()
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        if args.trace:
            res = traced(name, args.seed, tmp, env, refs, deadline)
        else:
            res = measure(name, args.seed, args.seconds, tmp, env, refs,
                          deadline)
    for i, problems in enumerate(res["problems"]):
        for p in problems:
            print(f"{name} run {i} FAILED CHECK: {p}", file=sys.stderr)
    failed = sum(1 for p in res["problems"] if p)
    res["attempted"] = len(res["problems"])
    res["failed"] = failed
    print(f"{name} fail_frac {failed / res['attempted']:.6g} "
          f"({failed} of {res['attempted']} runs)")
    (_print_traced if args.trace else _print_untraced)(name, res)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark of the cdburgers CLI stages.")
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cdburgers" / "cli.py").is_file():
        print(f"error: no cdburgers sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # checks load fields with calculus

    env = child_env()
    prov = provenance(env)
    print(f"provenance: {_describe(prov)}")
    refs = checks.load_refs()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, env, refs)
               for name in names}

    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in res["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    result_dir = ROOT / ".bench" / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    result_file = (result_dir / f"{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}-{stamp}.json")
    result_file.write_text(json.dumps(
        {"args": vars(args), "provenance": prov, "results": results},
        indent=1, default=str))
    print(f"wrote {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
