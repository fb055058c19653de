"""Run one benchmark workload in this process and print its result.

    python3 perfbench/workload.py --workload serve_hit --seed 0 \\
        --seconds 20 --trace 0 --cost-model-dir perfbench/.cache/<key>

``perfbench/run.py`` starts this in a fresh process per workload with
every ``REPRO_*`` variable unset; run it directly only to debug.

A run: build the seeded inputs and their references, and the cost-model
cache on first use, in a helper process (so their memory never counts
toward ``peak_rss_mb``); set up several times from cold and keep the
median (``setup_s``); then drive a closed loop for ``--seconds``.  With ``--trace 1`` the loop alternates
untraced slices and slices with every layer wrapped, half the time
each; the per-layer metrics come from the traced slices and the tracing
overhead is the difference in mean operation time between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs as bench_inputs  # noqa: E402
import tracing  # noqa: E402
from repro import GRANII  # noqa: E402
from repro.core.codegen import clear_compile_cache, clear_plan_compile_cache  # noqa: E402
from repro.core.costmodel import clear_cost_model_cache, get_cost_models  # noqa: E402
from repro.core.runtime import GraniiEngine  # noqa: E402
from repro.errors import GraniiError  # noqa: E402
from repro.hardware.device import bytes_moved  # noqa: E402
from repro.kernels.sharded import drain_pool, release_segments  # noqa: E402
from repro.serving import GraniiService, ServeRequest  # noqa: E402
from repro.tensor import Adam, cross_entropy  # noqa: E402

CLIENTS = 2  # closed-loop clients and service threads (= nproc of the reference host)
SETUP_REPS = 3
REQUEST_TIMEOUT_S = 60.0
# untimed closed-loop time between set-up and the timed phase: the first
# second after set-up runs measurably slower (lazy pools and allocator
# growth), which is set-up work, not steady state
SETTLE_S = 1.0
TRACE_SLICES = 4
LEARNING_RATE = 0.01

KERNELS = (
    "gemm", "spmm", "spmm_unweighted", "row_broadcast", "elementwise",
    "sddmm_diag", "spadd_diag", "attention", "spmm_fused",
)
STRATEGIES = (
    "row_segment", "gather_scatter", "blocked", "blocked_parallel",
    "spmm_sharded", "spmm_fused",
)
# span name -> per-layer metric reporting its self time per operation
SELF_TIME_METRICS = {
    "serving.submit": "serving.submit_ms",
    "serving.validate": "serving.validate_ms",
    "serving.fingerprint": "serving.fingerprint_ms",
    "serving.cache_lookup": "serving.cache_lookup_ms",
    "serving.worker": "serving.worker_self_ms",
    "core.compile": "core.compile_ms",
    "core.select": "core.select_self_ms",
    "core.featurize": "core.featurize_ms",
    "core.costmodel_predict": "core.costmodel_predict_ms",
    "analysis.planlint": "analysis.planlint_ms",
    "core.make_executor": "core.make_executor_ms",
    "core.binding": "core.binding_ms",
    "core.guard": "core.guard_self_ms",
    "core.plan_execute": "core.plan_execute_self_ms",
    "sparse.transpose": "sparse.transpose_ms",
    "tensor.backward": "tensor.backward_self_ms",
    "tensor.optimizer": "tensor.optimizer_ms",
    "train.step": "train.step_self_ms",
    **{f"kernels.{k}": f"kernels.{k}_ms" for k in KERNELS},
    "kernels.other": "kernels.other_ms",
}
# span name -> per-layer metric reporting its calls per operation
CALL_METRICS = {
    "core.select": "core.select_calls",
    "core.featurize": "core.featurize_calls",
    "core.costmodel_predict": "core.costmodel_predict_calls",
    "sparse.transpose": "sparse.transpose_calls",
    **{f"kernels.{k}": f"kernels.{k}_calls" for k in KERNELS},
    "kernels.other": "kernels.other_calls",
}


@dataclass
class Op:
    """One timed operation: a request or a training step."""

    seconds: float
    ok: bool
    entry: int = -1  # serve: index into the timed pool
    retries: int = 0
    demotions: int = 0


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


def info(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def cold_start() -> None:
    """Drop the process-wide caches set-up fills, so every set-up
    repetition pays what a fresh process pays."""
    clear_cost_model_cache()
    clear_compile_cache()
    clear_plan_compile_cache()


def train_cost_models(cache_dir: Path) -> Optional[float]:
    """Train the cpu cost models into ``cache_dir`` unless already there;
    returns the training seconds, or None when the cache was warm.
    Training is deterministic, so the cache changes nothing but time."""
    if (cache_dir / "costmodels_cpu_default.json").exists():
        return None
    t0 = time.perf_counter()
    get_cost_models("cpu", cache_dir=cache_dir)
    return time.perf_counter() - t0


def prepare(workload: str, seed: int, spec: Optional[Dict], cost_dir: Path):
    """Fill the cost-model cache and build the inputs and references in
    a helper process, so neither counts toward this process's memory."""
    args = (seed,) if spec is None else (seed, spec)
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        trained = pool.submit(train_cost_models, cost_dir)
        inputs = pool.submit(WORKLOADS[workload].inputs, *args)
        if trained.result() is not None:
            info(
                f"trained the cpu cost models in {trained.result():.1f} s "
                f"(information only: set-up loads them from the cache)"
            )
        return inputs.result()


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class ServeRun:
    def __init__(self, inputs: bench_inputs.ServeInputs, cost_dir: Path, fresh_graphs: bool) -> None:
        self.inputs = inputs
        self.cost_dir = cost_dir
        # serve_churn: every request carries a new Graph object, as from
        # a client that deserialises each request; serve_hit reuses a
        # fixed pool of objects
        self.fresh_graphs = fresh_graphs
        self.service: Optional[GraniiService] = None
        self.graphs: Dict[int, object] = {}
        # the position in the timed pool carries over from one drive to
        # the next, so a later phase never revisits a recently cached key
        self._cursor = 0
        self._cursor_lock = threading.Lock()

    def setup(self) -> Callable[[], bool]:
        """Load cost models, build the service, register the models and
        fill the plan cache.  Returns the warm-up correctness check."""
        cost_models = get_cost_models("cpu", cache_dir=self.cost_dir)
        service = GraniiService(device="cpu", cost_models=cost_models, num_threads=CLIENTS)
        for name, (model, in_size, out_size, factory) in self.inputs.models.items():
            service.register_model(name, in_size, out_size, model=model, factory=factory)
        if not self.fresh_graphs:
            self.graphs = {id(e.raw): e.raw.graph() for e in self.inputs.timed}
        warmup = self.inputs.warmup or self.inputs.timed
        results = [
            service.serve(self._request(i % CLIENTS, entry), timeout=REQUEST_TIMEOUT_S)
            for i, entry in enumerate(warmup)
        ]
        self.service = service

        def check() -> bool:
            return all(r.ok and e.matches(r.value) for r, e in zip(results, warmup))

        return check

    def teardown(self) -> None:
        if self.service is not None:
            self.service.shutdown(save=False)
            self.service = None

    def _request(self, client: int, entry: bench_inputs.ServeEntry) -> ServeRequest:
        graph = entry.raw.graph() if self.fresh_graphs else self.graphs[id(entry.raw)]
        return ServeRequest(
            tenant=f"client-{client}", model=entry.model_name, graph=graph, feats=entry.feats
        )

    def drive(self, seconds: float, tracer=None) -> List[Op]:
        """``CLIENTS`` closed-loop clients walk the timed pool in order.
        A request's spans all come from the wrapped layers, so ``tracer``
        adds none here."""
        entries = self.inputs.timed
        stop_at = time.perf_counter() + seconds

        def client(cid: int) -> List[Op]:
            ops = []
            while time.perf_counter() < stop_at:
                with self._cursor_lock:
                    index = self._cursor % len(entries)
                    self._cursor += 1
                entry = entries[index]
                request = self._request(cid, entry)
                t0 = time.perf_counter()
                try:
                    result = self.service.submit(request).result(timeout=REQUEST_TIMEOUT_S)
                except (GraniiError, FutureTimeout):  # shed, refused or timed out
                    ops.append(Op(time.perf_counter() - t0, False, index))
                    continue
                latency = time.perf_counter() - t0
                ops.append(Op(
                    latency, result.ok and entry.matches(result.value),
                    index, result.retries, len(result.demotions),
                ))
            return ops

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            futures = [pool.submit(client, cid) for cid in range(CLIENTS)]
            return [op for f in futures for op in f.result()]

    def counters(self) -> Dict[str, float]:
        stats = self.service.cache.stats()
        return {"evictions": stats["evictions"], "collisions": stats["collisions"]}

    def layer_counts(self, ops: List[Op], spans, deltas: Dict[str, float]) -> Dict[str, float]:
        lookups = [s.tag for s in spans if s.name == "serving.cache_lookup"]
        return {
            "serving.cache_hit_ratio": sum(1 for hit in lookups if hit) / max(len(lookups), 1),
            "serving.cache_lookups": float(len(lookups)),
            "serving.cache_evictions": deltas["evictions"],
            "serving.cache_collisions": deltas["collisions"],
            "serving.demotions": float(sum(op.demotions for op in ops)),
            "serving.retries": float(sum(op.retries for op in ops)),
        }

    def work_per_op(self, ops: List[Op]) -> Dict[str, float]:
        """Flops and bytes of the plans each request ran, computed from
        their KernelCalls.  Each request builds a new executor, so its
        graph-only set-up steps run every time and count too."""
        engine = GraniiEngine(device="cpu", cost_models=get_cost_models("cpu", cache_dir=self.cost_dir))
        memo: Dict[int, tuple] = {}
        for op in ops:
            if op.entry not in memo:
                entry = self.inputs.timed[op.entry]
                layer = self.inputs.models[entry.model_name][3]()
                graph = entry.raw.graph()
                chosen = engine.select(engine.compile_for(layer, graph), graph, layer).chosen
                setup, per_iter = chosen.plan.kernel_calls(
                    engine.shape_env(graph, layer), engine.system.degree_method
                )
                memo[op.entry] = _work(setup + per_iter)
        return _mean_work([memo[op.entry] for op in ops])


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------
class TrainRun:
    def __init__(self, inputs: bench_inputs.TrainInputs, cost_dir: Path) -> None:
        self.inputs = inputs
        self.cost_dir = cost_dir
        self.graph = None
        self.model = None
        self.optimizer = None
        self.report = None

    def setup(self) -> Callable[[], bool]:
        """Load cost models, run GRANII(...) in training mode and take
        the first training step.  Returns its correctness check."""
        get_cost_models("cpu", cache_dir=self.cost_dir)
        self.graph = self.inputs.raw.graph()
        self.model = self.inputs.model()
        self.report = GRANII(
            self.model, self.graph, self.inputs.feats, self.inputs.labels,
            device="cpu", mode="training",
        )
        self.optimizer = Adam(self.model.parameters(), lr=LEARNING_RATE)
        logits, _ = self.step()

        def check() -> bool:
            tol = self.inputs.raw.tolerance(mode="training")
            ref = self.inputs.reference
            grads = [p.grad for p in self.model.parameters()]
            return bench_inputs.matches(logits, ref["logits"], tol) and all(
                bench_inputs.matches(g, ref[f"grad{i}"], tol) for i, g in enumerate(grads)
            )

        return check

    def teardown(self) -> None:
        self.model = self.optimizer = self.graph = self.report = None

    def step(self):
        """Forward, cross-entropy, backward and ``Adam.step``."""
        self.optimizer.zero_grad()
        logits = self.model(self.graph, self.inputs.feats)
        loss = cross_entropy(logits, self.inputs.labels)
        loss.backward()
        self.optimizer.step()
        return logits, float(loss.data)

    def drive(self, seconds: float, tracer=None) -> List[Op]:
        ops = []
        stop_at = time.perf_counter() + seconds
        while time.perf_counter() < stop_at:
            t0 = time.perf_counter()
            if tracer is None:
                _, loss = self.step()
            else:
                with tracer.span("train.step"):
                    _, loss = self.step()
            ops.append(Op(time.perf_counter() - t0, bool(np.isfinite(loss))))
        return ops

    def counters(self) -> Dict[str, float]:
        return {}

    def layer_counts(self, ops, spans, deltas) -> Dict[str, float]:
        return {}

    def work_per_op(self, ops: List[Op]) -> Dict[str, float]:
        """Forward and backward flops and bytes of the chosen plans."""
        engine = GraniiEngine(device="cpu", mode="training")
        calls = []
        for layer, selection in zip(self.model.granii_layers(), self.report.selections):
            env = engine.shape_env(self.graph, layer)
            plan = selection.chosen.plan
            calls += plan.kernel_calls(env, engine.system.degree_method)[1]
            calls += plan.backward_calls(env)
        return _mean_work([_work(calls)])


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    make_run: Callable


WORKLOADS = {
    "serve_hit": Workload(
        bench_inputs.serve_hit_inputs, lambda i, d: ServeRun(i, d, fresh_graphs=False)
    ),
    "serve_churn": Workload(
        bench_inputs.serve_churn_inputs, lambda i, d: ServeRun(i, d, fresh_graphs=True)
    ),
    "train_large": Workload(bench_inputs.train_large_inputs, TrainRun),
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _work(calls) -> tuple:
    return sum(c.flops for c in calls), sum(bytes_moved(c) for c in calls)


def _mean_work(works: List[tuple]) -> Dict[str, float]:
    count = max(len(works), 1)
    return {
        "kernels.flops_per_op": sum(w[0] for w in works) / count,
        "kernels.bytes_per_op": sum(w[1] for w in works) / count,
    }


def layer_metrics(run, ops: List[Op], spans, deltas, untraced: List[Op]) -> Dict[str, Metric]:
    """Per-layer metrics of the traced phase; times are self time per op."""
    count = max(len(ops), 1)
    for span in spans:
        if span.name.startswith("kernels.") and span.name[8:] not in KERNELS:
            span.name = "kernels.other"
    totals = tracing.rollup(spans)
    out: Dict[str, Metric] = {}
    for name, metric in SELF_TIME_METRICS.items():
        seconds, calls = totals.get(name, (0.0, 0))
        out[metric] = Metric(1e3 * seconds / count, "ms", calls)
    for name, metric in CALL_METRICS.items():
        calls = totals.get(name, (0.0, 0))[1]
        out[metric] = Metric(calls / count, "calls/op", calls)

    # queue wait: from the end of submit to the start of the worker span
    submitted = {s.tag: s.end for s in spans if s.name == "serving.submit"}
    waits = [s.start - submitted[s.tag] for s in spans if s.name == "serving.worker" and s.tag in submitted]
    out["serving.queue_ms"] = Metric(1e3 * sum(waits) / count, "ms", len(waits))

    counts = run.layer_counts(ops, spans, deltas)
    for name in (
        "serving.cache_hit_ratio", "serving.cache_lookups", "serving.cache_evictions",
        "serving.cache_collisions", "serving.demotions", "serving.retries",
    ):
        unit = "ratio" if name.endswith("ratio") else "count"
        out[name] = Metric(float(counts.get(name, 0.0)), unit, len(ops))

    strategies = [s.tag for s in spans if s.name == "core.plan_execute"]
    for name in STRATEGIES + ("other",):
        hits = sum(1 for t in strategies if (t if t in STRATEGIES else "other") == name)
        out[f"kernels.strategy.{name}"] = Metric(float(hits), "count", len(strategies))

    work = run.work_per_op(ops)
    out["kernels.flops_per_op"] = Metric(work["kernels.flops_per_op"], "flop/op", len(ops))
    out["kernels.bytes_per_op"] = Metric(work["kernels.bytes_per_op"], "B/op", len(ops))

    op_ms = 1e3 * statistics.fmean(op.seconds for op in ops)
    untraced_ms = 1e3 * statistics.fmean(op.seconds for op in untraced)
    self_sum_ms = sum(
        m.value for name, m in out.items() if name.endswith("_ms") and m.unit == "ms"
    )
    out["trace.op_ms"] = Metric(op_ms, "ms", len(ops))
    out["trace.self_sum_ms"] = Metric(self_sum_ms, "ms", len(ops))
    out["trace.coverage"] = Metric(self_sum_ms / op_ms, "ratio", len(ops))
    out["trace.overhead_ms"] = Metric(op_ms - untraced_ms, "ms", len(ops))
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def traced_phase(run, seconds: float, spans_out: Optional[Path]):
    """Alternate untraced and traced slices, so slow drift of the host
    falls on both alike; per-layer metrics come from the traced slices
    and the tracing overhead is the difference in mean op time."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    deltas: Dict[str, float] = {}
    for _ in range(TRACE_SLICES):
        untraced += run.drive(seconds / (2 * TRACE_SLICES))
        before = run.counters()
        tracing.install_layers(tracer)
        try:
            traced += run.drive(seconds / (2 * TRACE_SLICES), tracer)
        finally:
            tracer.close()
        for name, value in run.counters().items():
            deltas[name] = deltas.get(name, 0.0) + value - before[name]
    if spans_out is not None:
        info(f"wrote {tracer.write(spans_out)} spans to {spans_out}")
    metrics = layer_metrics(run, traced, tracer.spans(), deltas, untraced)
    return untraced + traced, metrics


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    cost_dir: Path,
    spec: Optional[Dict] = None,
    spans_out: Optional[Path] = None,
) -> Dict:
    """One full run; returns correctness, op counts and metrics."""
    inputs = prepare(workload, seed, spec, cost_dir)
    run = WORKLOADS[workload].make_run(inputs, cost_dir)
    setup_times, correct = [], True
    try:
        for rep in range(SETUP_REPS):
            if rep:
                run.teardown()
            cold_start()
            t0 = time.perf_counter()
            check = run.setup()
            setup_times.append(time.perf_counter() - t0)
            correct = check() and correct

        run.drive(SETTLE_S)
        if trace:
            ops, metrics = traced_phase(run, seconds, spans_out)
        else:
            t0 = time.perf_counter()
            ops = run.drive(seconds)
            elapsed = time.perf_counter() - t0
            good = [op.seconds for op in ops if op.ok]
            metrics = {
                "latency_p50_ms": Metric(1e3 * _percentile(good, 50), "ms", len(good)),
                "latency_p90_ms": Metric(1e3 * _percentile(good, 90), "ms", len(good)),
                "throughput_ops": Metric(len(good) / elapsed, "1/s", len(good)),
                "success_frac": Metric(len(good) / max(len(ops), 1), "fraction", len(ops)),
            }
            metrics["setup_s"] = Metric(statistics.median(setup_times), "s", len(setup_times))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = Metric(peak, "MB", 1)
    finally:
        run.teardown()
        drain_pool()
        release_segments()
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": bool(correct and failed == 0),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def host_record(workload: str, seed: int) -> Dict:
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cost-model-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, help="with --trace 1: write the spans here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.cost_model_dir, spans_out=args.spans_out,
    )
    print(json.dumps({"record": host_record(args.workload, args.seed)}))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m.value:14.6g} {m.unit:9s} n={m.samples}")
    print(json.dumps({
        **{k: result[k] for k in ("correct", "attempted", "failed")},
        "metrics": {
            name: {"value": m.value, "unit": m.unit} for name, m in result["metrics"].items()
        },
    }), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
