"""The sum-⊕ g-SpMM kernel of record.

``row_segment`` multiplies sum-⊕ semirings through scipy CSR·dense, and
the autograd backward pass multiplies by scipy's transposed view instead
of building a transposed CSR.  Every other strategy must stay
bitwise-equal to it, including on hub rows longer than
``segment._FOLD_BIG`` edges, where ``segment_reduce`` used to sum width-1
values pairwise.
"""

import functools
import operator

import numpy as np
import pytest

from repro.graphs import rmat, star
from repro.kernels import (
    SPMM_STRATEGIES,
    gspmm,
    segment_sum,
    spmm_strategy_override,
)
from repro.kernels.segment import _FOLD_BIG, segment_reduce
from repro.kernels.semiring import get_semiring
from repro.tensor import Tensor
from repro.tensor.sparse_ops import spmm as spmm_op


def _weighted(adj, seed):
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, adj.nnz)
    return adj.with_values(values)


HUBS = {
    "star": lambda: _weighted(star(300).adj.add_self_loops(), 0),
    "rmat": lambda: _weighted(rmat(2048, 8.0, seed=1).adj.add_self_loops(), 1),
}


@pytest.fixture(scope="module", params=sorted(HUBS))
def hub(request):
    adj = HUBS[request.param]()
    assert adj.row_degrees().max() > _FOLD_BIG
    return adj


def _grad(adj, x, dy, strategy):
    with spmm_strategy_override(strategy):
        xt = Tensor(x, requires_grad=True)
        out = spmm_op(adj, xt)
        out.backward(dy)
    return out.data, xt.grad


@pytest.mark.parametrize("binary", ("mul", "copy_rhs"))
@pytest.mark.parametrize("k", (1, 8, 16))
def test_every_strategy_bitwise_equals_row_segment(hub, binary, k):
    rng = np.random.default_rng(k)
    x = rng.standard_normal((hub.shape[1], k))
    dy = rng.standard_normal((hub.shape[0], k))
    semiring = get_semiring("sum", binary)
    ref = gspmm(hub, x, semiring, strategy="row_segment")
    ref_t = gspmm(hub, dy, semiring, strategy="row_segment", transpose=True)
    # the taped op picks copy_rhs for a pattern-only adjacency
    taped = hub if binary == "mul" else hub.unweighted()
    ref_out, ref_grad = _grad(taped, x, dy, "row_segment")
    assert np.array_equal(ref_out, ref)
    assert np.array_equal(ref_grad, ref_t)
    for strategy in SPMM_STRATEGIES:
        kw = {"strategy": strategy, "num_workers": 2}
        assert np.array_equal(gspmm(hub, x, semiring, **kw), ref), strategy
        assert np.array_equal(
            gspmm(hub, dy, semiring, transpose=True, **kw), ref_t
        ), strategy
        out, grad = _grad(taped, x, dy, strategy)
        assert np.array_equal(out, ref), strategy
        assert np.array_equal(grad, ref_t), strategy


def test_segment_sum_is_a_left_fold(hub):
    values = np.random.default_rng(5).standard_normal(hub.nnz)
    indptr = hub.indptr
    want = np.array([
        functools.reduce(operator.add, values[s:e].tolist()) if e > s else 0.0
        for s, e in zip(indptr[:-1], indptr[1:])
    ])
    assert np.array_equal(segment_sum(values, indptr), want)
    width1 = segment_reduce(values[:, None], indptr, np.add, 0.0)
    assert np.array_equal(width1[:, 0], want)


def test_row_segment_matches_scipy_bitwise(hub):
    x = np.random.default_rng(2).standard_normal((hub.shape[1], 4))
    assert np.array_equal(
        gspmm(hub, x, strategy="row_segment"), hub.to_scipy() @ x
    )
    assert np.array_equal(
        gspmm(hub, x, get_semiring("sum", "copy_rhs"), strategy="row_segment"),
        hub.unweighted().to_scipy() @ x,
    )


def test_copy_rhs_ignores_the_values_of_a_weighted_matrix(hub):
    x = np.random.default_rng(3).standard_normal((hub.shape[1], 3))
    copy_rhs = get_semiring("sum", "copy_rhs")
    pattern = gspmm(hub.unweighted(), x)
    assert np.array_equal(gspmm(hub, x, copy_rhs), pattern)
    assert np.array_equal(gspmm(hub, x, copy_rhs, transpose=True),
                          gspmm(hub.unweighted(), x, transpose=True))
    # the weighted view next to it is still weighted
    assert not np.array_equal(gspmm(hub, x), pattern)


@pytest.mark.parametrize("binary", ("mul", "copy_rhs"))
def test_mean_divides_by_the_degree_of_the_output_side(hub, binary):
    x = np.random.default_rng(4).standard_normal((hub.shape[1], 5))
    semiring = get_semiring("mean", binary)
    assert np.array_equal(
        gspmm(hub, x, semiring),
        gspmm(hub, x, semiring, strategy="gather_scatter"),
    )
    assert np.array_equal(
        gspmm(hub, x, semiring, transpose=True),
        gspmm(hub.transpose(), x, semiring, strategy="gather_scatter"),
    )


def test_backward_transposes_only_under_a_pinned_strategy():
    adj = HUBS["star"]()
    x = np.random.default_rng(6).standard_normal((adj.shape[1], 4))
    dy = np.ones((adj.shape[0], 4))
    xt = Tensor(x, requires_grad=True)
    out = spmm_op(adj, xt)
    out.backward(dy)
    assert "transpose" not in adj._aux  # scipy's CSC view did the work

    pinned = HUBS["star"]()
    with spmm_strategy_override("blocked"):
        xt = Tensor(x, requires_grad=True)
        out = spmm_op(pinned, xt)
        assert "transpose" not in pinned._aux  # not in forward...
        out.backward(dy)
    assert "transpose" in pinned._aux  # ...only inside backward


def test_scipy_view_is_memoised_and_shares_values():
    adj = HUBS["star"]()
    view = adj.scipy_view()
    assert adj.scipy_view() is view
    assert np.shares_memory(view.data, adj.values)
    ones = adj.scipy_view(pattern_only=True)
    assert ones is not view and np.all(ones.data == 1.0)
    assert adj.unweighted().scipy_view().nnz == adj.nnz


def test_transposed_shape_mismatch_raises():
    adj = rmat(64, 4.0, seed=0).adj
    rect = adj.submatrix(np.arange(10), np.arange(64))  # 10 x 64
    with pytest.raises(ValueError, match="shape mismatch"):
        gspmm(rect, np.ones((64, 2)), transpose=True)
    assert gspmm(rect, np.ones((10, 2)), transpose=True).shape == (64, 2)
