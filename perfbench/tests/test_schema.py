"""BENCHMARK.json and the benchmark's output keep their contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import tracer
from workloads import WORKLOADS, RepResult

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_spec_matches_the_tracer():
    produced = dict(tracer.layer_metrics([]))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]
                if not m["name"].startswith("trace.")}
    assert declared == {k: unit for k, (_, unit) in produced.items()}


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema(trace, key):
    result = _result(_run(ROOT, "two-layer-60", trace))
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.hooks_absent"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = _run(tmp_path, "two-layer-60", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(30, 0, -1)]
    assert run.tail(samples) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail(samples[:5]) == (30.0, 100.0)


class _Setup:
    def __init__(self, fail):
        self.fail = fail

    def setup(self):
        if self.fail:
            raise RuntimeError("set-up failed")


@pytest.mark.parametrize("fail", [False, True])
def test_setup_probes_time_or_count_failures(fail):
    probes = run.SetupProbes(lambda: _Setup(fail))
    try:
        probes.take(2)
        probes.take(1)
    finally:
        probes.close()
    assert probes.failures == (3 if fail else 0)
    assert len(probes.times) == 3 - probes.failures
    assert all(t >= 0.0 for t in probes.times)


def test_setup_probes_pair_each_probe_with_a_kernel_time():
    probes = run.SetupProbes(lambda: _Setup(False))
    try:
        kernel_s = [probes.calibrate(), probes.calibrate()]
        probes.take(1)
    finally:
        probes.close()
    assert probes.failures == 0 and probes.requests == 4
    assert len(probes.times) == len(probes.kernel_s) == 1
    assert all(t > 0 for t in kernel_s + probes.kernel_s)


def test_timed_samples_are_scaled_by_their_kernel_times(tmp_path):
    bench = run.Run(WORKLOADS["two-layer-60"], {}, 1.0, False, 1, tmp_path)
    ref = hostspeed.REFERENCE_KERNEL_S
    bench.reps = [(False, RepResult(
        run_s=2.0, run_kernel_s=[ref, 2 * ref, 4 * ref],
        startup_s=[0.4], startup_kernel_s=[2 * ref],
        step_s=[0.3, 0.6], step_kernel_s=[ref, 4 * ref],
        dof_steps=100, fingerprint={}))]
    metrics, raw, _ = bench.end_to_end([0.2], [0.5 * ref])
    assert metrics["setup_s"][0] == pytest.approx(0.4)
    assert metrics["run_s"][0] == pytest.approx(1.0)
    assert metrics["startup_s"][0] == pytest.approx(0.2)
    assert metrics["step_s.p50"][0] == pytest.approx((0.3 + 0.15) / 2)
    assert metrics["dof_steps_per_s"][0] == pytest.approx(100.0)
    assert raw["run_s"][0] == 2.0 and raw["dof_steps_per_s"][0] == 50.0
    assert metrics["peak_rss_mb"][0] == pytest.approx(raw["peak_rss_mb"][0])
    with pytest.raises(ValueError):
        hostspeed.scale([1.0, 2.0], [ref])
