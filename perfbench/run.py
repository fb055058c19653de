"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload serve_hit --seed 0 --seconds 20 --trace 0

Run from the repository root.  Workloads (see ``BENCHMARK.json``):

- ``serve_hit``: a GraniiService answering repeated keys; every timed
  request is a plan-cache hit.
- ``serve_churn``: the same service fed graphs it has not cached; every
  timed lookup misses and selection runs.
- ``train_large``: GRANII training steps of a 2-layer GCN on a
  100k-node R-MAT graph.

Each workload runs in a fresh Python process with every ``REPRO_*``
variable unset.  Its standard error is scanned for tracebacks (the
``kernels.sharded_exit_tracebacks`` count) and passed through.  The last
line of standard output is the result: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  The exit code is non-zero when any output
mismatched its reference or any operation failed.

The cpu cost models are trained once per source tree and cached under
``perfbench/.cache/``, keyed by a digest of every file under ``src/``.
A traced run also writes its spans, one JSON object per line, to
``perfbench/.cache/spans/<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve_hit", "serve_churn", "train_large")
RUN_TIMEOUT_S = 170
# the first run in a checkout also trains the cost models
COLD_RUN_TIMEOUT_S = 870


def source_key(src: Path) -> str:
    """Digest of every source file under ``src/``: the cost-model cache
    key, so two different trees never share models."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:20]


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def count_tracebacks(stderr: str) -> int:
    return sum(1 for line in stderr.splitlines() if line.startswith("Traceback (most recent call last)"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2

    key = source_key(src)
    cost_dir = HERE / ".cache" / f"costmodels-{key}"
    cold = not (cost_dir / "costmodels_cpu_default.json").exists()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cost-model-dir", str(cost_dir),
        "--spans-out", str(HERE / ".cache" / "spans" / f"{args.workload}-{args.seed}.jsonl"),
    ]
    # a session of its own, so a timeout can stop the workload's helper
    # processes (sharded workers, the resource tracker) along with it
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        # reads both pipes to their end, so every helper that inherited
        # them has exited and written its tracebacks too
        stdout, stderr = proc.communicate(
            timeout=COLD_RUN_TIMEOUT_S if cold else RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        sys.stderr.write(stderr)
        print(f"perfbench: {args.workload} did not finish in time", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        record = next(json.loads(line)["record"] for line in lines if line.startswith('{"record"'))
    except (IndexError, ValueError, KeyError, StopIteration):
        sys.stdout.write(stdout)
        print(f"perfbench: {args.workload} exited {proc.returncode} without a result", file=sys.stderr)
        return 1

    record.update(git_commit=git_commit(), source_key=key)
    print(json.dumps({"record": record}))
    for line in lines[:-1]:
        if not line.startswith('{"record"'):
            print(line)
    if args.trace:
        count = count_tracebacks(stderr)
        result["metrics"]["kernels.sharded_exit_tracebacks"] = {"value": count, "unit": "count"}
        print(f"{'kernels.sharded_exit_tracebacks':36s} {count:14d} count     n=1")
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
