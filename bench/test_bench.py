"""Self-test of the benchmark: config generation, output checks and metric
names, on a tiny kernel config (count 11).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"] for m in DECLARED[kind]}


def test_configs_carry_the_seed():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    for name in run.CONFIGS:
        stage, cfg = run.make_config(name, 7)
        assert stage in checks.REPORTS
        assert cfg["seed"] == 7
        assert run.make_config(name, 7) == (stage, cfg)


def test_checks_pass_and_catch_a_changed_field(tmp_path):
    refs = checks.load_refs()
    stage, cfg = run.make_config("kernel-tiny", 3)
    res, out = run.run_stage(stage, cfg, tmp_path, run.child_env())
    assert res.code == 0
    assert checks.check_outputs("kernel-tiny", stage, out, refs) == []

    # one node off by 1e-8 of max |K| must be caught
    from cdburgers.calculus import dump_field, load_field

    field = load_field(str(out / "K.cdgf"))
    field.values[0, 0, 0, 0, 0] += 1e-8 * np.max(np.abs(field.values))
    dump_field(field, str(out / "K.cdgf"))
    assert checks.check_outputs("kernel-tiny", stage, out, refs)

    (out / "kernel_report.json").unlink()
    problems = checks.check_outputs("kernel-tiny", stage, out, refs)
    assert any("kernel_report.json" in p for p in problems)


def test_mc_gate_uses_standard_errors():
    mc = {"mean": [1.0, 0.0], "mean_analytic": [1.0 + 4e-3, 0.0],
          "mean_se": 1e-3, "second": [2.0, 0.0],
          "second_analytic": [2.0, 0.0], "second_se": 1e-3}
    assert checks._mc_problems(mc) == []
    mc["mean_analytic"] = [1.0 + 6e-3, 0.0]
    assert len(checks._mc_problems(mc)) == 1


def test_printed_metric_names_are_declared(tmp_path):
    env = run.child_env()
    refs = checks.load_refs()
    res = run.measure("kernel-tiny", 0, 0.0, tmp_path, env, refs,
                      deadline=time.perf_counter() + 60)
    assert res["problems"] == [[]]
    assert set(res["metrics"]) == _declared("end_to_end")

    launcher = [sys.executable, str(BENCH / "spans.py"),
                "--spans", str(tmp_path / "spans.json"), "--"]
    stage, cfg = run.make_config("kernel-tiny", 0)
    traced, _ = run.run_stage(stage, cfg, tmp_path, env, prefix=launcher)
    assert traced.code == 0
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["absent"] == []
    names = set(spans.layer_metrics(trace))
    fake = {"absent": [], "spans": [
        ["kernel.apply_A", 0.0, t, -1, {"N": n, "bytes": 1}]
        for n, t in ((21, 1.0), (31, 7.0))]}
    names |= set(spans.exponent_metrics(fake))
    names.add("trace.overhead_s")
    assert names == set(spans.metric_names()) == _declared("per_layer")
