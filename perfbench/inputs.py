"""Seeded inputs and correctness references for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical graphs, features, labels and weights.  References
are computed before any timing, once per (model, graph, widths) used:

- GCN, GIN and SAGE by evaluating the layer formula with ``scipy.sparse``;
- GAT, and the training reference, by the layer's baseline
  message-passing forward with no executor attached.

Outputs are compared under :class:`repro.core.verify.ToleranceModel`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.verify import Tolerance, ToleranceModel
from repro.graphs import Graph
from repro.graphs import generators as gen
from repro.models import MultiLayerGNN, build_layer
from repro.sparse import CSRMatrix
from repro.tensor import Tensor, cross_entropy

SERVE_MODELS = ("gcn", "gat", "gin", "sage")

# Workload shapes.  Tests pass smaller copies; the command always uses these.
SERVE_HIT = {"graphs": 4, "nodes": (2000, 2500), "degree": 8, "widths": (16, 8)}
SERVE_CHURN = {
    # 3x the default plan-cache capacity (128), so a key is evicted long
    # before the pool cycles back to it and every timed lookup misses
    "pool": 384,
    "nodes": (500, 3000),
    "degree": (2.0, 32.0),
    # both pruning scenarios: in >= out and in < out
    "widths": ((16, 8), (32, 16), (8, 16), (16, 32)),
    "warmup_nodes": 400,
}
TRAIN_LARGE = {"nodes": 100_000, "degree": 8, "sizes": (64, 64, 16), "classes": 16}

CHURN_GENERATORS = (
    "erdos_renyi", "rmat", "road_mesh", "barabasi_albert", "sbm_communities"
)

# Chain depth handed to the tolerance model: no promoted plan runs more
# kernels than this per layer, so the bound is never tighter than the
# reassociation error the chosen plan can realise.
TOLERANCE_STEPS = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


@dataclass
class RawGraph:
    """A graph structure kept as arrays; :meth:`graph` builds a fresh
    :class:`~repro.graphs.Graph`, so no per-object memo carries over."""

    indptr: np.ndarray
    indices: np.ndarray
    kind: str

    @classmethod
    def of(cls, graph: Graph, kind: str) -> "RawGraph":
        return cls(graph.adj.indptr, graph.adj.indices, kind)

    @property
    def num_nodes(self) -> int:
        return self.indptr.shape[0] - 1

    def graph(self) -> Graph:
        n = self.num_nodes
        return Graph(CSRMatrix(self.indptr, self.indices, None, (n, n)), self.kind)

    def tolerance(self, mode: str = "inference") -> Tolerance:
        return ToleranceModel().for_graph(
            self.graph().adj, mode=mode, num_steps=TOLERANCE_STEPS
        )


def matches(value, reference: np.ndarray, tolerance: Tolerance) -> bool:
    """``value`` equals ``reference`` within ``tolerance``."""
    if value is None:
        return False
    return tolerance.allclose(np.asarray(getattr(value, "data", value)), reference)


@dataclass
class ServeEntry:
    """One request shape: a graph, a registered model and its features."""

    model_name: str  # the name the request addresses
    model: str  # zoo model type
    in_size: int
    out_size: int
    raw: RawGraph
    feats: np.ndarray
    reference: Optional[np.ndarray] = None
    tolerance: Optional[Tolerance] = None

    def matches(self, value) -> bool:
        return matches(value, self.reference, self.tolerance)


@dataclass
class ServeInputs:
    # registered name -> (zoo model, in_size, out_size, layer factory)
    models: Dict[str, Tuple[str, int, int, Callable[[], object]]]
    warmup: List[ServeEntry]
    timed: List[ServeEntry]


@dataclass
class TrainInputs:
    raw: RawGraph
    feats: np.ndarray
    labels: np.ndarray
    sizes: Tuple[int, ...]
    weight_seed: int
    reference: Dict[str, np.ndarray] = field(default_factory=dict)

    def model(self) -> MultiLayerGNN:
        return MultiLayerGNN(
            "gcn", list(self.sizes), rng=np.random.default_rng(self.weight_seed)
        )


def _seeded_layer(model: str, in_size: int, out_size: int, weight_seed: int):
    return build_layer(model, in_size, out_size, rng=np.random.default_rng(weight_seed))


def layer_factory(model: str, in_size: int, out_size: int, weight_seed: int):
    """A picklable zero-argument factory for one served model's layer."""
    return functools.partial(_seeded_layer, model, in_size, out_size, weight_seed)


def _models_for(widths, weight_seed: int):
    models = {}
    for model in SERVE_MODELS:
        for in_size, out_size in widths:
            models[f"{model}-{in_size}x{out_size}"] = (
                model, in_size, out_size,
                layer_factory(model, in_size, out_size, weight_seed),
            )
    return models


def _entry(models, name: str, graph: Graph, kind: str, rng) -> ServeEntry:
    model, in_size, out_size, _ = models[name]
    feats = rng.standard_normal((graph.num_nodes, in_size))
    return ServeEntry(name, model, in_size, out_size, RawGraph.of(graph, kind), feats)


def serve_hit_inputs(seed: int, spec: Dict = SERVE_HIT) -> ServeInputs:
    """A fixed pool of ER/R-MAT graphs times every served model."""
    rng = _rng(seed, 1)
    in_size, out_size = spec["widths"]
    models = _models_for([(in_size, out_size)], int(rng.integers(2**31)))
    lo, hi = spec["nodes"]
    timed = []
    for i in range(spec["graphs"]):
        make_graph = gen.erdos_renyi if i % 2 == 0 else gen.rmat
        # sizes spread evenly over the range: only structure varies by seed
        size = lo + (hi - lo) * i // max(spec["graphs"] - 1, 1)
        graph = make_graph(size, spec["degree"], seed=int(rng.integers(2**31)))
        raw = RawGraph.of(graph, make_graph.__name__)
        feats = rng.standard_normal((graph.num_nodes, in_size))
        for name, (model, _, _, _) in models.items():
            timed.append(ServeEntry(name, model, in_size, out_size, raw, feats))
    inputs = ServeInputs(models, warmup=[], timed=timed)
    attach_references(inputs)
    return inputs


def _churn_graph(kind: str, n: int, degree: float, seed: int) -> Graph:
    if kind == "erdos_renyi":
        return gen.erdos_renyi(n, degree, seed=seed)
    if kind == "rmat":
        return gen.rmat(n, degree, seed=seed)
    if kind == "road_mesh":
        # a grid has degree ~4; diagonals are the only way to go denser
        return gen.road_mesh(n, diagonal_prob=min(1.0, degree / 32.0), seed=seed)
    if kind == "barabasi_albert":
        return gen.barabasi_albert(n, max(1, int(round(degree / 2))), seed=seed)
    if kind == "sbm_communities":
        return gen.sbm_communities(n, max(2, n // 250), degree, seed=seed)
    raise ValueError(f"unknown generator {kind!r}")


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws in [0, 1), one per equal-width stratum, shuffled:
    every seed sees nearly the same size distribution, so latency
    quantiles move with the program, not with the draw."""
    return (rng.permutation(count) + rng.random(count)) / count


def _balanced(rng: np.random.Generator, choices: int, count: int) -> np.ndarray:
    return rng.permutation(np.resize(np.arange(choices), count))


def serve_churn_inputs(seed: int, spec: Dict = SERVE_CHURN) -> ServeInputs:
    """A pool of distinct graphs across five generators and four width
    pairs, plus one warm-up request per (model, widths) on graphs outside
    the pool."""
    rng = _rng(seed, 2)
    models = _models_for(spec["widths"], int(rng.integers(2**31)))
    names = list(models)
    count = spec["pool"]
    lo, hi = spec["nodes"]
    dlo, dhi = spec["degree"]
    sizes = lo + (hi - lo) * _stratified(rng, count)
    degrees = dlo * (dhi / dlo) ** _stratified(rng, count)  # log-uniform
    kinds = _balanced(rng, len(CHURN_GENERATORS), count)
    model_ids = _balanced(rng, len(names), count)
    timed = []
    for i in range(count):
        kind = CHURN_GENERATORS[int(kinds[i])]
        graph = _churn_graph(
            kind, int(sizes[i]), float(degrees[i]), int(rng.integers(2**31))
        )
        timed.append(_entry(models, names[int(model_ids[i])], graph, kind, rng))
    warmup = []
    for name in names:
        graph = gen.erdos_renyi(
            spec["warmup_nodes"], 6.0, seed=int(rng.integers(2**31))
        )
        warmup.append(_entry(models, name, graph, "erdos_renyi", rng))
    inputs = ServeInputs(models, warmup=warmup, timed=timed)
    attach_references(inputs)
    return inputs


def train_large_inputs(seed: int, spec: Dict = TRAIN_LARGE) -> TrainInputs:
    """An R-MAT graph with random features and labels."""
    rng = _rng(seed, 3)
    graph = gen.rmat(spec["nodes"], spec["degree"], seed=int(rng.integers(2**31)))
    sizes = tuple(spec["sizes"])
    feats = rng.standard_normal((graph.num_nodes, sizes[0]))
    labels = rng.integers(0, spec["classes"], size=graph.num_nodes)
    inputs = TrainInputs(
        RawGraph.of(graph, "rmat"), feats, labels, sizes,
        weight_seed=int(rng.integers(2**31)),
    )
    inputs.reference = train_reference(inputs)
    return inputs


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def _scipy_adj(raw: RawGraph) -> sp.csr_matrix:
    n = raw.num_nodes
    adj = sp.csr_matrix(
        (np.ones(raw.indices.shape[0]), raw.indices, raw.indptr), shape=(n, n)
    )
    if adj.diagonal().any():
        raise ValueError("reference expects generator graphs without self-loops")
    return adj


def scipy_reference(model: str, layer, raw: RawGraph, feats: np.ndarray) -> np.ndarray:
    """The layer formula evaluated with ``scipy.sparse``."""
    adj = _scipy_adj(raw)
    if model == "gcn":  # D^-1/2 (A + I) D^-1/2 X W
        loops = adj + sp.identity(adj.shape[0], format="csr")
        norm = 1.0 / np.sqrt(np.diff(loops.indptr).astype(np.float64))
        h = norm[:, None] * (loops @ (norm[:, None] * feats))
        out = h @ layer.linear.weight.data
    elif model == "gin":  # (A X + (1 + eps) X) W
        out = (adj @ feats + (1.0 + layer.eps) * feats) @ layer.linear.weight.data
    elif model == "sage":  # X W_self + mean_neighbours(X) W_neigh
        deg = np.diff(adj.indptr).astype(np.float64)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        out = (
            feats @ layer.self_linear.weight.data
            + (inv[:, None] * (adj @ feats)) @ layer.neigh_linear.weight.data
        )
    else:
        raise ValueError(f"no scipy formula for {model!r}")
    return np.maximum(out, 0.0) if layer.activation else out


def baseline_reference(layer, raw: RawGraph, feats: np.ndarray) -> np.ndarray:
    """The layer's message-passing forward, no executor attached."""
    return np.asarray(layer(raw.graph(), feats).data)


def attach_references(inputs: ServeInputs) -> None:
    for entry in inputs.warmup + inputs.timed:
        layer = inputs.models[entry.model_name][3]()
        if entry.model == "gat":
            entry.reference = baseline_reference(layer, entry.raw, entry.feats)
        else:
            entry.reference = scipy_reference(entry.model, layer, entry.raw, entry.feats)
        entry.tolerance = entry.raw.tolerance()


def train_reference(inputs: TrainInputs) -> Dict[str, np.ndarray]:
    """Logits and first-step parameter gradients of the baseline model."""
    model = inputs.model()
    logits = model(inputs.raw.graph(), Tensor(inputs.feats))
    cross_entropy(logits, inputs.labels).backward()
    ref = {"logits": np.asarray(logits.data)}
    for i, param in enumerate(model.parameters()):
        ref[f"grad{i}"] = np.array(param.grad)
    return ref
