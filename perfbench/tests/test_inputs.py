import numpy as np
import pytest
from conftest import SMALL

import inputs
from repro.serving.fingerprint import fingerprint_graph


def _arrays(built):
    if isinstance(built, inputs.TrainInputs):
        return [built.raw.indptr, built.raw.indices, built.feats, built.labels]
    out = []
    for entry in built.warmup + built.timed:
        out += [entry.raw.indptr, entry.raw.indices, entry.feats, entry.reference]
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_deterministic_per_seed(name):
    build = {
        "serve_hit": inputs.serve_hit_inputs,
        "serve_churn": inputs.serve_churn_inputs,
        "train_large": inputs.train_large_inputs,
    }[name]
    first, again, other = (build(s, SMALL[name]) for s in (5, 5, 6))
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(first), _arrays(again)))
    assert not all(
        a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(_arrays(first), _arrays(other))
    )


def test_churn_pool_fingerprints_are_pairwise_distinct():
    pool = inputs.serve_churn_inputs(0)  # the command's own shape
    assert len(pool.timed) == inputs.SERVE_CHURN["pool"]
    keys, tokens = set(), set()
    for entry in pool.warmup + pool.timed:
        fp = fingerprint_graph(entry.raw.graph(), entry.model, entry.in_size, entry.out_size)
        keys.add(fp.key)
        tokens.add(fp.token)
    assert len(keys) == len(tokens) == len(pool.warmup) + len(pool.timed)


def test_churn_pool_covers_both_width_scenarios_and_every_generator():
    pool = inputs.serve_churn_inputs(0, SMALL["serve_churn"])
    assert {e.raw.kind for e in pool.timed} == set(inputs.CHURN_GENERATORS)
    assert any(e.in_size >= e.out_size for e in pool.timed)
    assert any(e.in_size < e.out_size for e in pool.timed)
