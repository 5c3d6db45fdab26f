"""Hostile-value sweep of every config key that a CLI stage reads.

Each stage starts from a small valid config; one key at a time is set to
each of twelve hostile JSON values, and the stage runs in-process through
cli_run with warnings raised as errors.  A case must exit 1, name the key on
the last stderr line and leave --out uncreated.  The config reader names a
key by its dotted path (grid.count, problem.gamma, levels[0]); a layer that
refuses a value names its own field, which is the path's last part.  The
exceptions are listed with their reasons: VALID values exit 0, and
REFUSED_WHOLE values are fine on their own but a layer refuses the config
they make.
"""

import json
import math
import re
import signal
import warnings

import pytest

from cdburgers.cli import cli_run

HOSTILE = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0,
    "1e300": 1e300, "[]": [], "'x'": "x", "null": None, "true": True,
    "{}": {}, "[nan]": [math.nan],
}

_PROBLEM = {"alpha": 1.0, "beta": 0.0, "gamma": 1e-05, "varsigma": 0.0,
            "c": [0.0], "n": 2, "lo": -0.5, "hi": 4.5, "horizon": 1.0}
_PROBLEM_KEYS = tuple(f"problem.{k}" for k in _PROBLEM)

# stage -> (a valid base config, the key paths the stage reads)
STAGES = {
    "algebra-check": ({"levels": [2], "trials": 2, "seed": 0},
                      ("levels", "trials", "seed")),
    "translate": ({"source": "dt(u) + u*dx1(u) = 0"}, ("source",)),
    "kernel": ({"a": [-1.0, -1.0, 0.0], "p": [5e-06, 0.0], "w0": [0.0, 0.0],
                "grid": {"n": 2, "lo": -0.5, "hi": 4.5, "count": 11}},
               ("a", "p", "w0", "grid", "grid.n", "grid.lo", "grid.hi",
                "grid.count", "kappa", "tol", "max_iter", "force")),
    "ode": ({"lambda": [1.0, 1.0], "c": [0.0], "horizon": 0.05},
            ("lambda", "c", "horizon", "tau")),
    "measure-check": ({"reps": [[1.0, 0.5, 0.3, 0.2], [2.0, -0.5, 0.1, 0.4]],
                       "p": [0.25, 0.75], "gamma": 1.0, "varsigma": 0.0,
                       "seed": 4, "samples": 100},
                      ("reps", "p", "gamma", "varsigma", "xi", "seed",
                       "samples")),
    "assemble": ({"problem": _PROBLEM, "matched": [[1.0, -0.5]], "p": [1.0],
                  "w0": [0.0, 0.0], "grid": {"count": 11, "t_count": 7},
                  "seed": 0, "samples": 100},
                 ("problem", *_PROBLEM_KEYS, "atoms", "matched", "p", "w0",
                  "grid", "grid.count", "grid.t_count", "seed", "samples")),
    "verify": ({"problem": _PROBLEM, "lam_prime": [1.0, -0.5],
                "w0": [0.0, 0.0], "levels": [[21, 9]], "collar": 2.0},
               ("problem", *_PROBLEM_KEYS, "lam_prime", "w0", "levels",
                "collar", "t_collar")),
}
_SPECTRAL = ("assemble", "verify")

# (stage, key path, value) -> why the value is valid: the stage exits 0
VALID = {
    ("algebra-check", "seed", "0"): "any integer >= 0 seeds the draws",
    ("measure-check", "seed", "0"): "any integer >= 0 seeds the draws",
    ("assemble", "seed", "0"): "any integer >= 0 seeds the draws",
    ("assemble", "samples", "0"): "samples 0 skips the Monte Carlo check",
    ("kernel", "kappa", "null"): "null reads as the default admissible root",
    ("kernel", "tol", "1e300"): "any positive tolerance stops the iteration",
    ("kernel", "force", "true"): "force skips the contraction gate",
    ("ode", "tau", "null"): "null reads as the default step horizon / 1000",
    ("ode", "tau", "1e300"): "a step past the horizon ends at the horizon",
    ("measure-check", "xi", "null"): "null reads as the amplitude rule",
    ("measure-check", "gamma", "-1"): "any finite gamma != 0 sets xi",
    **{("measure-check", "varsigma", v): "gamma != 0 sets xi; varsigma "
       "need only be finite" for v in ("-1", "0", "1e300")},
    **{(s, "problem.beta", "0"): "beta = 0 drops the zeroth-order term"
       for s in _SPECTRAL},
    **{(s, "problem.varsigma", "0"): "varsigma = 0 keeps the kernels scalar"
       for s in _SPECTRAL},
    ("verify", "collar", "0"): "collar 0 keeps only the stencil margin",
    ("verify", "t_collar", "0"): "t_collar 0 keeps only the stencil margin",
    ("verify", "t_collar", "null"): "null keeps only the stencil margin",
}

# (stage, key path, value) -> the layer's message: the value is fine on its
# own, but the config it makes has no solution path, which a layer finds and
# names in its own terms; the stage exits 1 and writes nothing
_W0_OFF = "point not on a grid node along axis 0"
_W0_EDGE = "w0 must lie in the interior of V"
_NO_ROOT = "no real positive k^2 root for a = "
_GATE = "is not below 1: Picard iteration is not a contraction"
REFUSED_WHOLE = {
    ("translate", "source", "'x'"): "an equation needs exactly one '='",
    ("kernel", "grid.lo", "-1"): _W0_OFF,
    ("kernel", "grid.lo", "0"): _W0_EDGE,
    ("kernel", "grid.lo", "1e300"): "degenerate axis bounds",
    ("kernel", "grid.hi", "-1"): "degenerate axis bounds",
    ("kernel", "grid.hi", "0"): _W0_EDGE,
    **{key: msg for s in _SPECTRAL for key, msg in {
        (s, "problem.alpha", "-1"): _NO_ROOT,
        (s, "problem.alpha", "1e300"): "exp(kappa . x) overflows on this box",
        (s, "problem.beta", "-1"): _NO_ROOT,
        (s, "problem.beta", "1e300"): "kappa is inadmissible: characteristic",
        (s, "problem.gamma", "-1"): _GATE,
        (s, "problem.gamma", "1e300"): _GATE,
        (s, "problem.varsigma", "-1"): "needs scalar kernels",
        (s, "problem.varsigma", "1e300"): "needs scalar kernels",
        (s, "problem.lo", "-1"): _W0_OFF,
        (s, "problem.lo", "0"): _W0_EDGE,
        (s, "problem.lo", "1e300"): "degenerate box",
        (s, "problem.hi", "-1"): "degenerate box",
        (s, "problem.hi", "0"): _W0_EDGE,
    }.items()},
    ("verify", "collar", "1e300"): "grid too coarse for the fourth-order",
    ("verify", "t_collar", "1e300"): "too few time samples for the window",
}


def _with(cfg: dict, path: str, value) -> dict:
    out = json.loads(json.dumps(cfg))
    *outer, last = path.split(".")
    node = out
    for key in outer:
        node = node[key]
    node[last] = value
    return out


class _Hung(BaseException):
    """Raised by the per-case alarm; cli_run catches no BaseException."""


def _raise_hung(signum, frame):
    raise _Hung


def _run(stage, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    handler = signal.signal(signal.SIGALRM, _raise_hung)
    signal.alarm(30)  # a loop over a huge count fails here, not the suite
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_run([stage, "--config", str(path), "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    return code, capsys.readouterr().err, out


CASES = [(stage, path, name) for stage, (_, paths) in STAGES.items()
         for path in paths for name in HOSTILE]


def test_lists_name_only_swept_cases():
    for stage, path, name in [*VALID, *REFUSED_WHOLE]:
        assert (stage, path, name) in CASES
    assert not set(VALID) & set(REFUSED_WHOLE)


def test_every_base_config_runs(tmp_path, capsys):
    for stage, (cfg, _) in STAGES.items():
        (tmp_path / stage).mkdir()
        code, err, _ = _run(stage, cfg, tmp_path / stage, capsys)
        assert code == 0, (stage, err)


@pytest.mark.parametrize("stage, path, name", CASES,
                         ids=[f"{s}-{p}-{n}" for s, p, n in CASES])
def test_hostile_value_is_refused_by_name(stage, path, name, tmp_path,
                                          capsys):
    cfg = _with(STAGES[stage][0], path, HOSTILE[name])
    code, err, out = _run(stage, cfg, tmp_path, capsys)
    assert "Traceback" not in err
    if (stage, path, name) in VALID:
        assert code == 0, err
        return
    assert code == 1, err
    assert not out.exists()
    last = err.splitlines()[-1]
    assert last.startswith("error: "), err
    if (stage, path, name) in REFUSED_WHOLE:
        assert REFUSED_WHOLE[stage, path, name] in last, err
        return
    leaf = path.rpartition(".")[2]
    assert any(re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", last)
               for key in (path, leaf)), err
