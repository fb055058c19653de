import json
import shutil
import subprocess
import sys
import time

import pytest
from conftest import HERE

import run
import workload
from repro.kernels.registry import kernel_wrapper

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _values(result):
    return {name: m.value for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", ["serve_hit", "serve_churn"])
def test_timed_phase_counts_match_the_workload_claim(run_small, name):
    result = run_small(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    m = _values(result)
    ops = result["metrics"]["trace.op_ms"].samples
    assert m["serving.cache_lookups"] == ops
    if name == "serve_hit":
        assert m["serving.cache_hit_ratio"] == 1.0
        assert m["core.select_calls"] == 0.0 and m["core.compile_ms"] == 0.0
    else:
        assert m["serving.cache_hit_ratio"] == 0.0
        assert m["core.select_calls"] == 1.0
        assert m["serving.cache_evictions"] > 0


def test_metric_names_match_benchmark_json(run_small):
    e2e = run_small("serve_hit", trace=False, seconds=1.0)
    layers = run_small("serve_hit", trace=True, seconds=1.0)
    assert {(n, m.unit) for n, m in e2e["metrics"].items()} == {
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    }
    # the launcher adds the traceback count to the traced result
    printed = {(n, m.unit) for n, m in layers["metrics"].items()}
    printed.add(("kernels.sharded_exit_tracebacks", "count"))
    assert printed == {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}


def _sleep_in_spmm(primitive, next_call, tag):
    if primitive in ("spmm", "spmm_unweighted"):
        time.sleep(0.02)
    return next_call()


def test_a_sleeping_kernel_raises_spmm_time_and_step_latency(run_small):
    base_e2e = _values(run_small("train_large", trace=False))
    base = _values(run_small("train_large", trace=True))
    with kernel_wrapper(_sleep_in_spmm):
        slow_e2e = _values(run_small("train_large", trace=False))
        slow = _values(run_small("train_large", trace=True))
    spmm_calls = base["kernels.spmm_calls"] + base["kernels.spmm_unweighted_calls"]
    added_ms = 20.0 * spmm_calls
    assert spmm_calls > 0
    spmm_ms = lambda m: m["kernels.spmm_ms"] + m["kernels.spmm_unweighted_ms"]  # noqa: E731
    assert spmm_ms(slow) - spmm_ms(base) >= 0.9 * added_ms
    assert slow_e2e["latency_p50_ms"] - base_e2e["latency_p50_ms"] >= 0.5 * added_ms


def _perturb_gemm(primitive, next_call, tag):
    out = next_call()
    return out * 2.0 if primitive == "gemm" else out


def test_a_perturbed_output_is_reported_as_failed(run_small):
    with kernel_wrapper(_perturb_gemm):
        result = run_small("serve_hit", trace=False, seconds=1.0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["success_frac"].value == 0.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_hit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_tracebacks_are_counted():
    stderr = "x\nTraceback (most recent call last):\n  File ...\nKeyError: 'a'\n" * 3
    assert run.count_tracebacks(stderr) == 3
