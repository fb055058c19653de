"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402  (puts src/ on sys.path)

# Small shapes: the same code paths as the command, in seconds.
SMALL = {
    "serve_hit": {"graphs": 2, "nodes": (300, 400), "degree": 8, "widths": (16, 8)},
    "serve_churn": {
        # still above the plan cache's 128 entries, so every lookup misses
        "pool": 160,
        "nodes": (100, 300),
        "degree": (2.0, 8.0),
        "widths": ((16, 8), (8, 16)),
        "warmup_nodes": 100,
    },
    "train_large": {"nodes": 3000, "degree": 8, "sizes": (16, 16, 4), "classes": 4},
}


@pytest.fixture(scope="session")
def cost_dir() -> Path:
    """The cost-model cache the command itself uses for this tree."""
    return HERE / ".cache" / f"costmodels-{run.source_key(run.ROOT / 'src')}"


@pytest.fixture(scope="session")
def run_small(cost_dir):
    def go(name: str, trace: bool, seconds: float = 2.0, seed: int = 0):
        return workload.run_workload(name, seed, seconds, trace, cost_dir, SMALL[name])

    return go
