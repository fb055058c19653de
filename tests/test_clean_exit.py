"""Processes that run the sharded backend or GRANII training exit cleanly.

Each test runs a fresh interpreter (every ``REPRO_*`` variable unset) and
asserts that nothing printed a traceback on standard error — in
particular not the ``resource_tracker`` ``KeyError`` that sharded workers
used to cause by unregistering the parent's shared-memory segments from
the tracker they share with it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_script(body: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=900,
    )


def assert_clean(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("done"), result.stdout
    assert "Traceback" not in result.stderr, result.stderr


def test_default_training_exits_cleanly():
    # GRANII's defaults with the cpu cost models, as the training
    # benchmark runs it.  64k nodes is the smallest R-MAT of a doubling
    # sweep (1k, 2k, ..., 64k) on which auto selection used to pick
    # spmm_sharded, on a 2-CPU host.
    assert_clean(run_script("""
        import numpy as np
        from repro import GRANII
        from repro.graphs import rmat
        from repro.models import MultiLayerGNN
        from repro.tensor import Adam, cross_entropy

        graph = rmat(64_000, 8.0, seed=0)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((graph.num_nodes, 64))
        labels = rng.integers(0, 16, size=graph.num_nodes)
        model = MultiLayerGNN("gcn", [64, 64, 16], rng=rng)
        GRANII(model, graph, feats, labels, device="cpu", mode="training")
        optimizer = Adam(model.parameters(), lr=0.01)
        for _ in range(2):
            optimizer.zero_grad()
            cross_entropy(model(graph, feats), labels).backward()
            optimizer.step()
        print("done")
    """))


def test_pinned_sharded_spmm_exits_cleanly():
    assert_clean(run_script("""
        import numpy as np
        from repro.graphs import erdos_renyi
        from repro.kernels import gspmm

        adj = erdos_renyi(3000, 8.0, seed=0).adj
        x = np.random.default_rng(0).standard_normal((adj.shape[1], 8))
        ref = gspmm(adj, x, strategy="row_segment")
        for _ in range(10):
            out = gspmm(adj, x, strategy="spmm_sharded", num_workers=2)
            assert np.array_equal(out, ref)
        print("done")
    """))
