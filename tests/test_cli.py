"""Tests for the command line front end: exit codes, artifacts, and the
byte determinism of written reports."""

import argparse
import ast
import csv
import gc
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cdburgers.kernel
import cdburgers.workbench
from cdburgers.calculus import load_field
from cdburgers.cli import _build_parser, cli_run
from oracles import riccati_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"

_KERNEL_CFG = {
    "a": [-1.0, -1.0, 0.0],
    "p": [5e-06, 0.0],
    "w0": [0.0, 0.0],
    "grid": {"n": 2, "lo": -0.5, "hi": 4.5, "count": 11},
}

_PROBLEM = {
    "alpha": 1.0, "beta": 0.0, "gamma": 1e-05, "varsigma": 0.0,
    "c": [0.0], "n": 2, "lo": -0.5, "hi": 4.5, "horizon": 1.0,
}


def _write_cfg(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_missing_config_exits_one(tmp_path, capsys):
    code = cli_run(["translate", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert cli_run(["frobnicate"]) == 1
    capsys.readouterr()


def test_no_arguments_exits_one(capsys):
    assert cli_run([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_run(["--help"]) == 0
    assert "algebra-check" in capsys.readouterr().out


def test_every_stage_reads_its_config_alone():
    # each value has one route, its config key: no stage takes an argument
    # besides --config and --out
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, stage in sub.choices.items():
        flags = [f for a in stage._actions
                 for f in a.option_strings or [a.dest]]
        assert sorted(flags) == ["--config", "--help", "--out", "-h"], name


def test_algebra_check_report(tmp_path):
    cfg = _write_cfg(tmp_path / "alg.json", {"trials": 20, "seed": 1})
    assert cli_run(["algebra-check", "--config", cfg,
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["pass"] is True
    assert report["anticommutation_exact"] is True
    assert report["squares_exact"] is True
    assert report["alternativity_max"] <= 1e-10
    assert report["power_associativity_max"] <= 1e-10
    assert report["projection_max"] <= 1e-12


@pytest.mark.parametrize("extra, message", [
    ({"trials": 0}, "'trials' must be >= 1, got 0"),
    ({"trials": -1}, "'trials' must be >= 1, got -1"),
    ({"levels": []}, "'levels' must be a non-empty list, got []"),
    ({"levels": [-1]}, "'levels' must be a non-empty list of levels in "
                       "[0, 6], got [-1]"),
    ({"levels": [2, 7]}, "'levels' must be a non-empty list of levels in "
                         "[0, 6], got [2, 7]"),
], ids=["trials-0", "trials-negative", "levels-empty", "level-negative",
        "level-7"])
def test_algebra_check_refuses_a_sweep_that_checks_nothing(extra, message,
                                                          tmp_path, capsys):
    # a sweep with no trials or no levels checks nothing and must not pass
    path = _write_cfg(tmp_path / "alg.json", {"trials": 2, **extra})
    out = tmp_path / "run"
    assert cli_run(["algebra-check", "--config", path, "--out", str(out)]) == 1
    assert f"error: algebra-check {message}\n" == capsys.readouterr().err
    assert not out.exists()


def test_translate_writes_lowered_tree(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "tr.json",
                     {"source": "dt(u) + u*dx1(u) - dx1(dx1(u)) = 0"})
    assert cli_run(["translate", "--config", cfg,
                    "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "dz0" in out
    report = json.loads((tmp_path / "translate_report.json").read_text())
    assert report["dim"] == 2
    assert report["tree"]["level"] == report["level"]


def test_translate_rejects_malformed_source(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "bad.json", {"source": "dx1( = 0"})
    assert cli_run(["translate", "--config", cfg,
                    "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("depth, code", [(50, 0), (200, 1)])
@pytest.mark.parametrize("open_, close", [("(", ")"), ("dt(", ")")],
                         ids=["brackets", "dt"])
def test_translate_deep_nesting_is_an_input_error(tmp_path, capsys, depth,
                                                  code, open_, close):
    # past Python's recursion limit the parser's RecursionError is an
    # input error (exit 1), not a numerical failure (exit 2)
    source = f"dt(u) = {open_ * depth}u{close * depth}"
    cfg = _write_cfg(tmp_path / "deep.json", {"source": source})
    out = tmp_path / "out"
    assert cli_run(["translate", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: input nested too deeply")
        assert not out.exists()
    else:
        assert (out / "translate_report.json").exists()


def test_translate_report_matches_golden(tmp_path, capsys):
    # a program with poly, macro, vector unknown and source, coefficients
    # and a power; its source is stored in the golden report itself
    golden = (GOLDEN_DIR / "translate_report.json").read_bytes()
    cfg = _write_cfg(tmp_path / "tr.json",
                     {"source": json.loads(golden)["source"]})
    assert cli_run(["translate", "--config", cfg,
                    "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "translate_report.json").read_bytes() == golden


def test_ode_matches_closed_form(tmp_path):
    cfg = _write_cfg(tmp_path / "ode.json", {"lambda": [1.0, 1.0]})
    out = tmp_path / "ode"
    assert cli_run(["ode", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["t"]) == pytest.approx(0.5)
    worst = max(
        abs(complex(float(r["re_phi"]), float(r["im_phi"]))
            - riccati_oracle(1.0, 1.0, float(r["t"])))
        for r in rows)
    assert worst <= 1e-8
    report = json.loads((out / "ode_report.json").read_text())
    assert report["blew_up"] is False


def test_ode_blowup_exits_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "ode.json",
                     {"lambda": [8.0, 1.0], "horizon": 2.0})
    code = cli_run(["ode", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "blew up" in capsys.readouterr().err
    report = json.loads((tmp_path / "ode_report.json").read_text())
    assert report["blew_up"] is True
    assert report["blowup_time"] < 2.0


def test_ode_requires_lambda(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "ode.json", {"c": [0.0], "horizon": 0.5})
    out = tmp_path / "run"
    assert cli_run(["ode", "--config", cfg, "--out", str(out)]) == 1
    assert "error: ode config needs 'lambda'" in capsys.readouterr().err
    assert not out.exists()


_ASSEMBLE_CFG = {"problem": _PROBLEM, "matched": [[1.0, -0.5]], "p": [1.0],
                 "w0": [0.0, 0.0], "grid": {"count": 11, "t_count": 7}}


@pytest.mark.parametrize("stage, cfg, message", [
    ("ode", {"lambda": [1.0, 1.0], "tau": math.inf},
     "ode 'tau' must be a finite number, got inf"),
    ("ode", {"lambda": [1.0, 1.0], "tau": math.nan},
     "ode 'tau' must be a finite number, got nan"),
    ("ode", {"lambda": [1.0, 1.0], "horizon": math.inf},
     "ode 'horizon' must be a finite number, got inf"),
    ("ode", {"lambda": [1.0, 1.0], "c": [math.nan]},
     "ode 'c[0]' must be a finite number, got nan"),
    ("ode", {"lambda": [math.nan, 1.0]},
     "ode 'lambda[0]' must be a finite number, got nan"),
    ("assemble", dict(_ASSEMBLE_CFG, problem=dict(_PROBLEM, c=[math.nan])),
     "assemble 'problem.c[0]' must be a finite number, got nan"),
    ("assemble", dict(_ASSEMBLE_CFG, matched=[[1.0, math.nan]]),
     "assemble 'matched[0][1]' must be a finite number, got nan"),
    ("verify", {"problem": _PROBLEM, "lam_prime": [1.0, math.inf],
                "w0": [0.0, 0.0], "levels": [[11, 7]], "collar": 0.0},
     "verify 'lam_prime[1]' must be a finite number, got inf"),
], ids=["ode-tau-inf", "ode-tau-nan", "ode-horizon-inf", "ode-c-nan",
        "ode-lambda-nan", "assemble-c-nan", "assemble-matched-nan",
        "verify-lam_prime-inf"])
def test_non_finite_temporal_inputs_exit_one(stage, cfg, message, tmp_path,
                                              capsys):
    # JSON NaN and Infinity parse as floats; the config reader refuses them
    # by their key path before any stage work, so nothing is written
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert cli_run([stage, "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("beta", math.inf), ("gamma", math.nan),
    ("varsigma", -math.inf), ("c", [0.5, math.nan]), ("lo", -math.inf),
    ("hi", math.nan), ("horizon", math.inf),
])
def test_problem_refuses_non_finite_fields(field, value, tmp_path, capsys):
    # the config reader names the field by its path, before any derived
    # value (the box, a matched lambda, the time axis) fails under another
    # name
    cfg = dict(_ASSEMBLE_CFG, problem=dict(_PROBLEM, **{field: value}))
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert cli_run(["assemble", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: assemble 'problem.{field}" in err
    assert "' must be a finite number, got " in err
    assert "Traceback" not in err
    assert not out.exists()


_VERIFY_CFG = {"problem": _PROBLEM, "lam_prime": [1.0, -0.5],
               "w0": [0.0, 0.0], "levels": [[21, 9]], "collar": 2.0,
               "t_collar": 0.25}


@pytest.mark.parametrize("stage", ["assemble"])
@pytest.mark.parametrize("key, value", [
    ("samples", math.nan), ("samples", math.inf), ("samples", -1),
    ("samples", "x"), ("seed", -1),
])
def test_samples_and_seed_are_read_before_any_solve(stage, key, value,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    def solved(*args, **kwargs):
        raise AssertionError(f"{stage} solved a kernel with a bad {key}")

    monkeypatch.setattr(cdburgers.workbench, "solve_K", solved)
    path = _write_cfg(tmp_path / "cfg.json",
                      dict(_ASSEMBLE_CFG, **{key: value}))
    out = tmp_path / "run"
    assert cli_run([stage, "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {stage} '{key}' must be " in err
    assert "Traceback" not in err
    assert not out.exists()


_MEASURE_CFG = {
    "reps": [[1.0, 0.5, 0.3, 0.2], [2.0, -0.5, 0.1, 0.4]],
    "p": [0.25, 0.75], "gamma": 1.0, "seed": 4, "samples": 4000,
}


def test_measure_check_two_cell_report(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "meas.json", _MEASURE_CFG)
    assert cli_run(["measure-check", "--config", cfg,
                    "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "measure_report.json").read_text())
    assert report["pass"] is True
    assert report["cross_moment_max"] == 0.0
    assert report["cells"] == 2
    assert report["samples"] == 4000


def test_measure_check_requires_p(tmp_path, capsys):
    cfg = {k: v for k, v in _MEASURE_CFG.items() if k != "p"}
    path = _write_cfg(tmp_path / "meas.json", cfg)
    assert cli_run(["measure-check", "--config", path,
                    "--out", str(tmp_path)]) == 1
    assert "needs 'p'" in capsys.readouterr().err
    assert not (tmp_path / "measure_report.json").exists()


def test_measure_check_rejects_m_below_one(tmp_path, capsys):
    # one entry per representative derives m = 1 - 3 = -2
    cfg = {"reps": [[2.0], [4.0]], "p": [0.5, 0.5], "gamma": 1.0}
    path = _write_cfg(tmp_path / "meas.json", cfg)
    assert cli_run(["measure-check", "--config", path,
                    "--out", str(tmp_path)]) == 1
    assert "need m >= 1, got m = -2" in capsys.readouterr().err
    assert not (tmp_path / "measure_report.json").exists()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("key, value", [
    ("gamma", math.nan), ("gamma", -math.inf), ("varsigma", math.nan),
    ("varsigma", math.inf), ("varsigma", -math.inf),
])
def test_measure_check_refuses_non_finite_rule_inputs(key, value, tmp_path,
                                                      capsys):
    # the amplitude rule reads both keys, even where gamma != 0 leaves
    # varsigma out of xi
    path = _write_cfg(tmp_path / "meas.json", dict(_MEASURE_CFG,
                                                   **{key: value}))
    out = tmp_path / "run"
    assert cli_run(["measure-check", "--config", path,
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: measure-check '{key}' must be a finite number, got " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_measure_check_forms_no_sample_sized_array(tmp_path, capsys):
    # the stage streams per-cell draw counts in fixed chunks and reduces
    # each cell's moments over them, so its peak stays under one byte per
    # sample: far from a one-shot draw's 16 bytes per sample, or the
    # samples x cells coefficient matrix
    samples = 1_000_000
    path = _write_cfg(tmp_path / "meas.json",
                      dict(_MEASURE_CFG, samples=samples))
    argv = ["measure-check", "--config", path, "--out", str(tmp_path)]
    assert cli_run(argv) == 0  # one-time allocations
    peak = _traced_peak(lambda: cli_run(argv))
    capsys.readouterr()
    assert peak < samples


def test_kernel_artifacts_and_determinism(tmp_path):
    cfg = _write_cfg(tmp_path / "k.json", _KERNEL_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_run(["kernel", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_run(["kernel", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("kernel_report.json", "kernel_trace.csv", "F.cdgf",
                 "K.cdgf"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "kernel_report.json").read_text())
    assert report["converged"] is True
    kf = load_field(str(out1 / "K.cdgf"))
    assert kf.arity == "xy"
    assert kf.values.shape == (11, 11, 11, 11)
    assert np.all(np.isfinite(kf.values))


def test_kernel_divergence_exits_two(tmp_path, capsys):
    cfg = dict(_KERNEL_CFG, p=[50.0, 0.0], force=True)
    path = _write_cfg(tmp_path / "bad.json", cfg)
    assert cli_run(["kernel", "--config", path,
                    "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # the failure still leaves its trace, and no solved kernel
    rows = (tmp_path / "kernel_trace.csv").read_text().splitlines()
    assert rows[0] == "iter,diff,ratio"
    assert len(rows) >= 2
    assert not (tmp_path / "K.cdgf").exists()


def test_kernel_refuses_noncontractive_weight(tmp_path, capsys):
    cfg = dict(_KERNEL_CFG, p=[50.0, 0.0])
    path = _write_cfg(tmp_path / "bad.json", cfg)
    assert cli_run(["kernel", "--config", path,
                    "--out", str(tmp_path)]) == 1
    assert "contraction" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (dict(max_iter=0), "max_iter must be >= 1, got 0"),
    (dict(tol=-1.0), "tol must be positive, got -1.0"),
    (dict(tol=0), "tol must be positive, got 0.0"),
    (dict(tol=math.nan), "kernel 'tol' must be a finite number, got nan"),
    (dict(p=[math.nan, 0.0]), "kernel 'p[0]' must be a finite number, got nan"),
    (dict(a=[-1.0, math.inf, 0.0]),
     "kernel 'a[1]' must be a finite number, got inf"),
    (dict(kappa=[math.nan, 0.0]),
     "kernel 'kappa[0]' must be a finite number, got nan"),
    (dict(w0=[0.0, -math.inf]),
     "kernel 'w0[1]' must be a finite number, got -inf"),
    (dict(a=[0, -1, 0]), "a_1 must be nonzero"),
    # a bound far above 1 prints in exponent form, not as 300 digits
    (dict(kappa=[-2.0, 0.0],
          grid={"n": 2, "lo": -354.0, "hi": 354.0, "count": 11}),
     "operator norm estimate 1.617e+308 is not below 1"),
    (dict(grid={**_KERNEL_CFG["grid"], "hi": math.inf}),
     "kernel 'grid.hi' must be a finite number, got inf"),
    (dict(grid={**_KERNEL_CFG["grid"], "count": math.inf}),
     "kernel 'grid.count' must be an integer within 2**53, got inf"),
    (dict(grid={**_KERNEL_CFG["grid"], "n": 0}, w0=[]),
     "kernel 'grid.n' must be >= 1, got 0"),
    (dict(kappa=[], w0=[]), "kernel 'kappa' must be a non-empty list, got []"),
    (dict(kappa=[-2.0], w0=[0.0]), "grid dimension does not match kappa"),
], ids=["max_iter-0", "tol-negative", "tol-0", "tol-nan", "p-nan", "a-inf",
        "kappa-nan", "w0-inf", "a1-0",
        "estimate-huge", "hi-inf", "count-inf", "n-0", "kappa-empty",
        "kappa-short"])
def test_kernel_rejects_bad_inputs(extra, message, tmp_path, capsys):
    path = _write_cfg(tmp_path / "k.json", dict(_KERNEL_CFG, **extra))
    out = tmp_path / "run"
    assert cli_run(["kernel", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not list(out.glob("*"))


def test_kernel_refuses_a_nan_certificate(tmp_path, capsys):
    # F overflows on this box, where the certificate would be NaN; the box
    # is refused before any exp, so numpy warns of nothing
    path = _write_cfg(tmp_path / "k.json", dict(
        _KERNEL_CFG, grid={"n": 2, "lo": -800.0, "hi": 800.0, "count": 11}))
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_run(["kernel", "--config", path, "--out", str(out)])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err
    assert err == "error: exp(kappa . x) overflows on this box\n"
    assert not list(out.glob("*"))


def test_assemble_report_and_dumps(tmp_path):
    cfg = _write_cfg(tmp_path / "a.json", {
        "problem": _PROBLEM,
        "matched": [[1.0, -0.5], [1.0, -1.0]],
        "p": [0.25, 0.75],
        "w0": [0.0, 0.0],
        "grid": {"count": 11, "t_count": 7},
        "samples": 2000,
    })
    out = tmp_path / "asm"
    assert cli_run(["assemble", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "assemble_report.json").read_text())
    assert len(report["kernels"]) == 2
    assert report["xi"] == [1.0, 1.0]
    assert report["moment_identity"]["structure_ok"] is True
    assert report["moment_identity"]["mc"]["mean_ok"] is True
    kf = load_field(str(out / "atom1_K.cdgf"))
    assert kf.arity == "xy"


def test_assemble_blowup_exits_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "a.json", {
        "problem": _PROBLEM,
        "matched": [[10000.0, 1.0]],
        "p": [1.0],
        "w0": [0.0, 0.0],
        "grid": {"count": 7, "t_count": 9},
    })
    assert cli_run(["assemble", "--config", cfg,
                    "--out", str(tmp_path)]) == 2
    assert "blew up" in capsys.readouterr().err


def test_assemble_rejects_algebra_valued_kernels(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "a.json", {
        "problem": {**_PROBLEM, "varsigma": 2e-06},
        "matched": [[1.0, -0.5]],
        "p": [1.0],
        "w0": [0.0, 0.0],
        "grid": {"count": 11, "t_count": 7},
    })
    assert cli_run(["assemble", "--config", cfg,
                    "--out", str(tmp_path)]) == 1
    assert "needs scalar kernels" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.cdgf"))


@pytest.mark.parametrize("stage, cfg, key", [
    ("kernel", dict(_KERNEL_CFG, grid={"n": 2, "lo": -0.5, "hi": 4.5}),
     "grid.count"),
    ("assemble", {"problem": {k: v for k, v in _PROBLEM.items()
                              if k != "alpha"},
                  "matched": [[1.0, -0.5]], "p": [1.0], "w0": [0.0, 0.0],
                  "grid": {"count": 11, "t_count": 7}}, "problem.alpha"),
    ("assemble", {"problem": _PROBLEM, "matched": [[1.0, -0.5]], "p": [1.0],
                  "w0": [0.0, 0.0], "grid": {"count": 11}}, "grid.t_count"),
], ids=["kernel-grid-count", "assemble-problem-alpha",
        "assemble-grid-t_count"])
def test_missing_nested_config_key_exits_one(stage, cfg, key, tmp_path,
                                             capsys):
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    assert cli_run([stage, "--config", path, "--out", str(tmp_path)]) == 1
    assert (f"error: {stage} config needs '{key}'\n"
            == capsys.readouterr().err)


@pytest.mark.parametrize("stage, cfg", [
    ("translate", {"source": 5}),
    ("kernel", dict(_KERNEL_CFG, grid=[1])),
    ("kernel", dict(_KERNEL_CFG, a=-1)),
    ("kernel", dict(_KERNEL_CFG, a=[-1, -1])),
    ("kernel", dict(_KERNEL_CFG, p=[5e-06])),
    ("kernel", dict(_KERNEL_CFG, w0=0)),
    ("measure-check", dict(_MEASURE_CFG, reps=[1, 2])),
    ("assemble", {"problem": dict(_PROBLEM, c=0), "matched": [[1.0, -0.5]],
                  "p": [1.0], "w0": [0.0, 0.0],
                  "grid": {"count": 11, "t_count": 7}}),
    ("verify", {"problem": _PROBLEM, "lam_prime": [1.0, -0.5],
                "w0": [0.0, 0.0], "levels": 21, "collar": 2.0}),
    ("ode", {"lambda": [1.0, 1.0], "c": 5}),
    ("algebra-check", {"levels": 2}),
    # a JSON Infinity where an integer is read
    ("verify", {"problem": _PROBLEM, "lam_prime": [1.0, -0.5],
                "w0": [0.0, 0.0], "levels": [[math.inf, 9]], "collar": 2.0}),
    ("assemble", {"problem": _PROBLEM, "matched": [[1.0, -0.5]], "p": [1.0],
                  "w0": [0.0, 0.0],
                  "grid": {"count": math.inf, "t_count": 7}}),
    ("measure-check", dict(_MEASURE_CFG, seed=math.inf)),
    ("algebra-check", {"trials": math.inf}),
], ids=["translate-source", "kernel-grid", "kernel-a-scalar",
        "kernel-a-short", "kernel-p-short", "kernel-w0-scalar",
        "measure-check-reps", "assemble-problem-c", "verify-levels",
        "ode-c", "algebra-check-levels", "verify-levels-inf",
        "assemble-count-inf", "measure-check-seed-inf",
        "algebra-check-trials-inf"])
def test_config_value_of_the_wrong_type_exits_one(stage, cfg, tmp_path,
                                                  capsys):
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert cli_run([stage, "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err
    assert not list(out.glob("*"))


def test_assemble_rejects_negative_samples(tmp_path, capsys):
    # samples = 0 skips the Monte Carlo check; a negative count is an error
    cfg = _write_cfg(tmp_path / "a.json", {
        "problem": _PROBLEM, "matched": [[1.0, -0.5]], "p": [1.0],
        "w0": [0.0, 0.0], "grid": {"count": 11, "t_count": 7},
        "samples": -5,
    })
    out = tmp_path / "asm"
    assert cli_run(["assemble", "--config", cfg, "--out", str(out)]) == 1
    assert ("error: assemble 'samples' must be >= 0, got -5"
            in capsys.readouterr().err)
    assert not (out / "assemble_report.json").exists()


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 385. GiB")

    monkeypatch.setattr(cdburgers.kernel, "solve_K", exhausted)
    path = _write_cfg(tmp_path / "k.json", _KERNEL_CFG)
    assert cli_run(["kernel", "--config", path,
                    "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: out of memory: Unable to allocate 385. GiB" in err
    assert "Traceback" not in err


def test_assemble_validates_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "a.json", {"problem": _PROBLEM})
    assert cli_run(["assemble", "--config", cfg,
                    "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    cfg = _write_cfg(root / "v.json", {
        "problem": _PROBLEM,
        "lam_prime": [1.0, -0.5],
        "w0": [0.0, 0.0],
        "levels": [[21, 9], [31, 13]],
        "collar": 2.0,
        "t_collar": 0.25,
    })
    out = root / "run"
    code = cli_run(["verify", "--config", cfg, "--out", str(out)])
    return code, out


def test_verify_two_level_table(verify_run, capsys):
    code, out = verify_run
    capsys.readouterr()
    assert code == 0
    lines = (out / "refinement.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two levels
    report = json.loads((out / "verify_report.json").read_text())
    assert report["monotone"] is True
    assert len(report["rows"]) == 2
    for key in ("linear", "pair", "expectation", "diagonal_mean",
                "diagonal_expect"):
        assert report["rows"][1][f"{key}_ratio"] < 1.0


def test_verify_rejects_an_empty_ladder(tmp_path, capsys, monkeypatch):
    def solved(*args, **kwargs):
        raise AssertionError("an empty ladder reached the solve")

    monkeypatch.setattr(cdburgers.workbench, "refinement_study", solved)
    cfg = _write_cfg(tmp_path / "v.json", {
        "problem": _PROBLEM, "lam_prime": [1.0, -0.5], "w0": [0.0, 0.0],
        "levels": [], "collar": 2.0,
    })
    out = tmp_path / "run"
    assert cli_run(["verify", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: verify 'levels' must be a non-empty list, got []" in err
    assert not list(out.glob("*"))


def test_verify_requires_a_collar(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "v.json", {
        "problem": _PROBLEM, "lam_prime": [1.0, -0.5], "w0": [0.0, 0.0],
        "levels": [[21, 9]],
    })
    out = tmp_path / "run"
    assert cli_run(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "error: verify config needs 'collar'" in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("extra, message", [
    (dict(collar=-1.0), "collar must be finite and >= 0, got -1.0"),
    (dict(collar=math.inf), "verify 'collar' must be a finite number, got inf"),
    (dict(t_collar=-3), "t_collar must be finite and >= 0, got -3.0"),
    (dict(t_collar=math.inf),
     "verify 't_collar' must be a finite number, got inf"),
    (dict(levels=[[21]]), "verify 'levels[0]' must be a list of 2 entries, "
                          "got [21]"),
    (dict(levels=[[21, 9, 5]]),
     "verify 'levels[0]' must be a list of 2 entries, got [21, 9, 5]"),
], ids=["collar-negative", "collar-inf", "t_collar-negative", "t_collar-inf",
        "levels-row-1", "levels-row-3"])
def test_verify_rejects_bad_window_inputs(extra, message, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "v.json", {
        "problem": _PROBLEM, "lam_prime": [1.0, -0.5], "w0": [0.0, 0.0],
        "levels": [[21, 9]], "collar": 2.0, **extra,
    })
    out = tmp_path / "run"
    assert cli_run(["verify", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not list(out.glob("*"))


def test_module_invocation_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path / "ode.json", {"lambda": [1.0, -1.0]})
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "cdburgers.cli", "ode", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "trajectory.csv").exists()


def test_cli_import_leaves_sympy_unloaded():
    # each stage imports the modules only it needs when it runs: numpy and
    # the numeric layers, sympy and the PDE parser for translate, workbench,
    # randmeasure and temporal for the stages that use them; neither the
    # imports, any stage's --help nor a usage error loads any of them, and
    # the package serves its algebra names on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "lazy = {'numpy', 'sympy'} | {'cdburgers.' + m for m in\n"
         "    ('algebra', 'calculus', 'kernel', 'pdelang', 'workbench',\n"
         "     'randmeasure', 'temporal', 'algebra_ext', 'calculus_ext',\n"
         "     'randmeasure_ext', 'cli_ext')}\n"
         "def check(when):\n"
         "    assert not lazy & set(sys.modules), (when, sorted(sys.modules))\n"
         "import cdburgers\n"
         "check('import cdburgers')\n"
         "import cdburgers.cli\n"
         "check('import cdburgers.cli')\n"
         "for stage in ('algebra-check', 'translate', 'kernel', 'ode',\n"
         "              'measure-check', 'assemble', 'verify'):\n"
         "    assert cdburgers.cli.cli_run([stage, '--help']) == 0, stage\n"
         "    check(stage + ' --help')\n"
         "assert cdburgers.cli.cli_run(['kernel', '--bogus']) == 1\n"
         "check('kernel --bogus')\n"
         "from cdburgers import CdElement, cd_mul\n"
         "import cdburgers.algebra as algebra\n"
         "assert CdElement is algebra.CdElement and cd_mul is algebra.cd_mul\n"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_LAYER_PROBE = """
import json, sys
from cdburgers.cli import cli_run

for argv, absent in json.loads(sys.argv[1]):
    assert cli_run(argv) == 0, argv
    loaded = {'cdburgers.' + m for m in absent} & set(sys.modules)
    assert not loaded, (argv[0], sorted(loaded))
"""


def test_stages_that_solve_no_kernel_load_no_kernel(tmp_path):
    # cli alone encodes the reports, so writing one loads no numeric layer:
    # ode, measure-check and algebra-check load neither kernel nor calculus,
    # and translate (which lowers derivatives through calculus) no kernel
    cfgs = {
        "ode": {"lambda": [1.0, 1.0], "horizon": 0.05},
        "measure-check": dict(_MEASURE_CFG, samples=1000),
        "algebra-check": {"levels": [2], "trials": 2},
        "translate": {"source": "dt(u) + u*dx1(u) = 0"},
    }
    runs = []
    for stage, cfg in cfgs.items():
        path = _write_cfg(tmp_path / f"{stage}.json", cfg)
        runs.append([[stage, "--config", path, "--out", str(tmp_path / stage)],
                     ["kernel"] if stage == "translate"
                     else ["kernel", "calculus"]])
    proc = subprocess.run(
        [sys.executable, "-c", _LAYER_PROBE, json.dumps(runs)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "translate" / "translate_report.json").exists()


_MODULE_PROBE = """
import json, sys
from cdburgers.cli import cli_run

assert cli_run(sys.argv[1:]) == 0, sys.argv[1:]
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition('.')[0] in ('cdburgers', 'sympy'))))
"""

# Summed AST nodes of the cdburgers modules that each numeric stage loads.
# Without cached bytecode a stage child compiles all of them (ROADMAP item
# 22); a change that raises a ceiling says why in CHANGES.md.
_NODE_CEILINGS = {"kernel": 11945, "assemble": 17955, "verify": 17955}


@pytest.mark.parametrize("stage", sorted(_NODE_CEILINGS))
def test_numeric_stage_compiles_only_the_code_it_runs(stage, tmp_path):
    # a fresh process per stage: what it loads is what a stage child
    # compiles; the paper-facing siblings (*_ext), the PDE parser,
    # translate and sympy stay off every numeric stage's path
    cfg = {"kernel": _KERNEL_CFG, "assemble": _ASSEMBLE_CFG,
           "verify": _VERIFY_CFG}[stage]
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, stage, "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    off_path = [m for m in loaded if m.endswith("_ext") or m in (
        "cdburgers.pdelang", "cdburgers.translate") or m.startswith("sympy")]
    assert not off_path
    root = Path(cdburgers.kernel.__file__).parent
    nodes = sum(len(list(ast.walk(ast.parse(
        (root / f"{m.partition('.')[2] or '__init__'}.py").read_text()))))
        for m in loaded)
    assert nodes <= _NODE_CEILINGS[stage], (loaded, nodes)


def test_exit_path_keeps_codes_messages_and_gc_state(tmp_path):
    # main freezes the heap after cli_run returns, so that shutdown skips
    # the teardown; cli_run itself, as run in-process here, changes no GC
    # state, and a module child keeps its exit codes and messages
    before = gc.get_freeze_count()
    path = _write_cfg(tmp_path / "k.json", _KERNEL_CFG)
    assert cli_run(["kernel", "--config", path,
                    "--out", str(tmp_path / "k")]) == 0
    assert gc.get_freeze_count() == before
    for cfg, code, line in [
        (dict(_KERNEL_CFG, p=[math.nan, 0.0]), 1,
         "error: kernel 'p[0]' must be a finite number, got nan"),
        (dict(_KERNEL_CFG, p=[50.0, 0.0], force=True), 2,
         "numerical failure: "),
    ]:
        path = _write_cfg(tmp_path / f"bad{code}.json", cfg)
        out = tmp_path / f"run{code}"
        proc = subprocess.run(
            [sys.executable, "-m", "cdburgers.cli", "kernel", "--config",
             path, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(line), proc.stderr
        assert "Traceback" not in proc.stderr
    # the divergent child's trace reached the disk whole
    rows = (tmp_path / "run2" / "kernel_trace.csv").read_text()
    assert rows.startswith("iter,diff,ratio\n") and rows.endswith("\n")
    assert len(rows.splitlines()) >= 2


def test_only_cli_imports_json_or_csv():
    # the artifact text formats have one owner: the numeric layers return
    # plain dicts and rows, and cli encodes them
    importers = set()
    for path in sorted(Path(cdburgers.kernel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if {n.split(".")[0] for n in names} & {"json", "csv"}:
                importers.add(path.stem)
    assert importers == {"cli"}


@pytest.mark.parametrize("stage, cfg", [
    ("kernel", dict(_KERNEL_CFG, p=[5e-06, 2e-06])),
    ("assemble", {"problem": _PROBLEM, "matched": [[1.0, -0.5]], "p": [1.0],
                  "w0": [0.0, 0.0], "grid": {"count": 11, "t_count": 7}}),
], ids=["kernel-p2", "assemble"])
def test_stage_forms_no_pair_sized_array(stage, cfg, tmp_path, monkeypatch):
    # the stage solves and dumps K as its separated terms: the kernel stage
    # evaluates K at no pair node, and no expansion reaches the N^{2n} ones
    shapes = []
    separated = cdburgers.kernel._separated

    def expanded(gs, V, index):
        shapes.append(np.broadcast_shapes(*(i.shape for i in index)))
        return separated(gs, V, index)

    monkeypatch.setattr(cdburgers.kernel, "_separated", expanded)
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    assert cli_run([stage, "--config", path, "--out", str(tmp_path)]) == 0
    if stage == "kernel":
        assert not shapes
        return
    assert shapes
    assert max(map(math.prod, shapes)) < 11 ** 4


@pytest.mark.parametrize("p, r, width", [
    ([5e-06, 0.0], 3, 1),
    ([5e-06, 2e-06], 7, 4),
], ids=["scalar-closed", "p2"])
def test_kernel_dump_is_the_size_of_its_terms(p, r, width, tmp_path):
    # count 41, n = 2: r terms of N^n (u_t, width_u wide, and v_t) complex
    # values after the header and the term count, where the dense dump
    # would take N^{2n} width_u of them (45 MB and 181 MB)
    n, count = 2, 41
    cfg = dict(_KERNEL_CFG, p=p, grid=dict(_KERNEL_CFG["grid"], count=count))
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    assert cli_run(["kernel", "--config", path, "--out", str(tmp_path)]) == 0
    header = 4 + 4 + 4 + n * 24
    size = header + 4 + r * count ** n * (width + 1) * 16
    assert (tmp_path / "K.cdgf").stat().st_size == size


_LIB_PAGES = r"openblas|mkl|blas|lapack|_umath_linalg"

_PAGE_PROBE = """
import json, re, sys
import numpy
import cdburgers.kernel, cdburgers.workbench, cdburgers.randmeasure
import cdburgers.temporal
from cdburgers.cli import cli_run

def lib_rss():
    total, found, lib = 0, False, False
    with open('/proc/self/smaps') as fh:
        for line in fh:
            if re.match(r'[0-9a-f]+-[0-9a-f]+ ', line):
                lib = re.search(sys.argv[1], line) is not None
                found = found or lib
            elif lib and line.startswith('Rss:'):
                total += int(line.split()[1])
    return total if found else None

growth = {}
for argv in json.loads(sys.argv[2]):
    before = lib_rss()
    if before is None:
        break
    assert cli_run(argv) == 0, argv
    growth[argv[0]] = lib_rss() - before
print(json.dumps(growth))
"""


def test_no_cli_stage_faults_in_blas_or_lapack_pages(tmp_path):
    # the runtime side of tests/test_kernel.py's static BLAS guard: in one
    # fresh process, no stage makes resident a page of the BLAS or LAPACK
    # libraries (or numpy's _umath_linalg) that was not resident before it;
    # the CLI loads numpy only when a stage runs, so the probe imports it
    # and the stage layers before its first reading
    if not Path("/proc/self/smaps").exists():
        pytest.skip("no /proc/self/smaps")
    cfgs = {
        "kernel": _KERNEL_CFG,
        "assemble": {"problem": _PROBLEM, "matched": [[1.0, -0.5]],
                     "p": [1.0], "w0": [0.0, 0.0],
                     "grid": {"count": 11, "t_count": 7}, "samples": 2000},
        "verify": {"problem": _PROBLEM, "lam_prime": [1.0, -0.5],
                   "w0": [0.0, 0.0], "levels": [[21, 9]], "collar": 2.0,
                   "t_collar": 0.25},
        "ode": {"lambda": [1.0, 1.0], "c": [0.3]},
        "measure-check": _MEASURE_CFG,
        "algebra-check": {"levels": [2, 3], "trials": 20},
    }
    runs = []
    for stage, cfg in cfgs.items():
        path = _write_cfg(tmp_path / f"{stage}.json", cfg)
        runs.append([stage, "--config", path,
                     "--out", str(tmp_path / stage)])
    proc = subprocess.run(
        [sys.executable, "-c", _PAGE_PROBE, _LIB_PAGES, json.dumps(runs)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    growth = json.loads(proc.stdout.splitlines()[-1])
    if not growth:
        pytest.skip("no BLAS or LAPACK library is mapped")
    assert growth == dict.fromkeys(growth, 0), f"resident KiB gained: {growth}"
