"""Output checks for benchmark runs, against reference values captured at
the commit that defined the benchmark (``bench/refs.npz``).

Checked, per workload:

* every written ``K.cdgf`` / ``atom*_K.cdgf``, loaded with
  ``calculus.load_field``, matches its reference within 1e-9 relative to the
  reference max |K|: on the whole diagonal x = y, on every 5th node of the
  pair grid, and in its max and l2 norms;
* ``converged`` holds in every kernel report;
* ``assemble``: ``structure_ok`` holds, and each Monte Carlo moment lies
  within 5 standard errors of its analytic value (the program's own
  ``mean_ok``/``second_ok`` flags use 3, which a correct run misses on about
  1 seed in 300);
* ``verify``: the five residuals match within 1e-6 relative.

``norm_estimate`` and the bytes of ``kernel_trace.csv`` are not compared:
an exact norm or a reordered sum changes them legitimately.

To capture the references again from the code in ``src/``::

    python3 bench/checks.py --capture
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs.npz"

FIELD_RTOL = 1e-9
RESIDUAL_RTOL = 1e-6
MC_STANDARD_ERRORS = 5.0
SUBSAMPLE = 5
RESIDUAL_KEYS = ("linear", "pair", "expectation", "diagonal_mean",
                 "diagonal_expect")

REPORTS = {"kernel": "kernel_report.json",
           "assemble": "assemble_report.json",
           "verify": "verify_report.json"}


def load_refs() -> dict:
    with np.load(REFS, allow_pickle=False) as data:
        return dict(data)


def fingerprint(path: Path) -> dict:
    """Diagonal, strided sub-grid and norms of a dumped pair field."""
    from cdburgers.calculus import load_field

    f = load_field(str(path))
    v = f.values
    idx = tuple(np.indices(f.grid.counts))
    stride = (slice(None, None, SUBSAMPLE),) * (2 * f.grid.n)
    return {"diag": v[idx + idx], "sub": v[stride],
            "norms": np.array([np.max(np.abs(v)),
                               np.sqrt(np.sum(np.abs(v) ** 2))])}


def _field_written(stage: str, out: Path) -> list:
    if stage == "kernel":
        return [out / "K.cdgf"]
    if stage == "assemble":
        return sorted(out.glob("atom*_K.cdgf"))
    return []


def _check_field(path: Path, key: str, refs: dict) -> list:
    ref = {part: refs.get(f"{key}/{part}")
           for part in ("diag", "sub", "norms")}
    if any(v is None for v in ref.values()):
        return [f"{path.name}: no reference"]
    got = fingerprint(path)
    scale = ref["norms"][0]
    problems = []
    for part in ("diag", "sub"):
        if got[part].shape != ref[part].shape:
            problems.append(f"{path.name} {part}: shape {got[part].shape} "
                            f"!= {ref[part].shape}")
            continue
        err = float(np.max(np.abs(got[part] - ref[part])))
        if err > FIELD_RTOL * scale:
            problems.append(f"{path.name} {part}: max error {err:.3e} > "
                            f"{FIELD_RTOL:g} * {scale:.6g}")
    gap = np.abs(got["norms"] - ref["norms"])
    if np.any(gap > FIELD_RTOL * ref["norms"]):
        problems.append(f"{path.name} norms {got['norms'].tolist()} != "
                        f"{ref['norms'].tolist()}")
    return problems


def _mc_problems(mc: dict) -> list:
    problems = []
    for moment in ("mean", "second"):
        got = complex(*mc[moment])
        want = complex(*mc[f"{moment}_analytic"])
        limit = (MC_STANDARD_ERRORS * mc[f"{moment}_se"]
                 + 1e-12 * max(abs(want), 1.0))
        if abs(got - want) > limit:
            problems.append(f"mc {moment} {got} is more than "
                            f"{MC_STANDARD_ERRORS:g} SE from {want}")
    return problems


def _report_problems(stage: str, report: dict, key: str, refs: dict) -> list:
    problems = []
    if stage == "kernel":
        kernels = [report]
    elif stage == "assemble":
        kernels = report["kernels"]
        mom = report["moment_identity"]
        if not mom["structure_ok"]:
            problems.append("moment identity structure_ok is false")
        if "mc" in mom:
            problems += _mc_problems(mom["mc"])
    else:
        kernels = []
        row = report["rows"][0]
        ref = refs.get(f"{key}/residuals")
        if ref is None:
            return ["residuals: no reference"]
        for name, want in zip(RESIDUAL_KEYS, ref.tolist()):
            got = row[name]
            if not abs(got - want) <= RESIDUAL_RTOL * abs(want):
                problems.append(f"residual {name} {got!r} != {want!r} "
                                f"(rtol {RESIDUAL_RTOL:g})")
    for j, k in enumerate(kernels):
        if k.get("converged") is not True:
            problems.append(f"kernel {j} did not converge")
    return problems


def check_outputs(key: str, stage: str, out: Path, refs: dict) -> list:
    """Problems found in one run's output directory (empty when it passes).
    ``key`` names the reference set, normally the workload."""
    try:
        report = json.loads((out / REPORTS[stage]).read_text())
        problems = _report_problems(stage, report, key, refs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"{REPORTS[stage]}: {type(exc).__name__}: {exc}"]
    written = _field_written(stage, out)
    if not written and stage != "verify":
        problems.append("no K field written")
    for path in written:
        try:
            problems += _check_field(path, f"{key}/{path.name}", refs)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {type(exc).__name__}: {exc}")
    return problems


def capture(keys) -> None:
    """Run each config once (seed 0) and store its reference values."""
    import tempfile

    import run

    refs = {}
    env = run.child_env()
    for key in keys:
        stage, cfg = run.make_config(key, seed=0)
        with tempfile.TemporaryDirectory(dir=run.work_root()) as tmp:
            tmp = Path(tmp)
            res, _ = run.run_stage(stage, cfg, tmp, env)
            if res.code != 0:
                raise SystemExit(f"{key}: exit code {res.code}")
            out = tmp / "out"
            for path in _field_written(stage, out):
                for part, arr in fingerprint(path).items():
                    refs[f"{key}/{path.name}/{part}"] = arr
            if stage == "verify":
                report = json.loads((out / REPORTS[stage]).read_text())
                refs[f"{key}/residuals"] = np.array(
                    [report["rows"][0][name] for name in RESIDUAL_KEYS])
        print(f"captured {key}")
    np.savez_compressed(REFS, **refs)
    print(f"wrote {REFS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    import run

    sys.path.insert(0, str(run.SRC))
    capture(list(run.CONFIGS))
