"""Segmented reductions over CSR row boundaries.

Every row-wise reduction in the kernel layer goes through
:func:`segment_reduce`, so all execution strategies (``row_segment``,
``blocked``, ``blocked_parallel``, ``spmm_sharded``, ``spmm_fused``)
share one accumulation order and stay mutually bitwise-identical no
matter how a caller partitions the edge range into spans: the result for
a segment is a pure function of that segment's contents.

The implementation is *not* ``ufunc.reduceat``.  ``reduceat`` pays a
per-segment dispatch that dominates g-SpMM wall-clock on real graphs
(mean degree ~16 means hundreds of thousands of tiny reductions), and
its internal accumulation order is an implementation detail that varies
with operand width — unreproducible outside of ``reduceat`` itself.
Instead:

- segments longer than ``_FOLD_BIG`` edges reduce with one ufunc call
  each (few such segments; each call is a long vectorised pass).  For
  rows of two or more columns that call is ``ufunc.reduce`` along the
  edge axis, which NumPy folds one edge row at a time.  For 1-D and
  width-1 values it is ``ufunc.accumulate``: ``ufunc.reduce`` over a
  contiguous 1-D run sums *pairwise*, which would make a hub row differ
  from every sequential kernel (scipy, ``gather_scatter``) in the last
  bits;
- the many short segments reduce *lockstep*: segments are ranked by
  length so the still-active ones always form a prefix, and one
  vectorised ``ufunc`` call per edge-position folds the s-th edge of
  every active segment at once — a left-to-right sequential fold per
  segment, in CSR edge order.

Every segment, long or short, is therefore a left-to-right sequential
fold of its values in CSR edge order.

Empty segments yield the identity (``reduceat`` instead returns the
element *at* the boundary, one of the reasons this wrapper exists).
"""

from __future__ import annotations

import numpy as np

__all__ = ["segment_reduce"]

# Segments longer than this fold with one ufunc call; at or below it they
# join the lockstep fold.  The split is keyed on segment length alone, so
# a segment reduces identically regardless of which caller or span it
# arrives in.
_FOLD_BIG = 128


def _fold_long(segment: np.ndarray, ufunc) -> np.ndarray:
    """Left-to-right fold of one long segment along axis 0."""
    if segment.ndim == 1 or segment.shape[1] == 1:
        # ufunc.reduce sums a contiguous 1-D run pairwise; accumulate is
        # sequential, and its last element is the left fold
        return ufunc.accumulate(segment, axis=0)[-1]
    return ufunc.reduce(segment, axis=0)


def segment_reduce(
    values: np.ndarray,
    indptr: np.ndarray,
    ufunc,
    identity: float,
) -> np.ndarray:
    """Reduce ``values`` within each ``[indptr[i], indptr[i+1])`` segment.

    Works for 1-D ``values`` (per-edge scalars) and 2-D ``values`` (per-edge
    feature rows); reduction is along axis 0.  Empty segments yield
    ``identity``.
    """
    n = indptr.shape[0] - 1
    out_shape = (n,) + values.shape[1:]
    out = np.full(out_shape, identity, dtype=np.float64)
    lengths = np.diff(indptr)
    # rank segments by length (desc, stable) so the segments still active
    # at fold step s are exactly the prefix [0, count(length > s))
    order = np.argsort(-lengths, kind="stable")
    ordered_len = lengths[order]
    ordered_start = np.asarray(indptr[:-1])[order]
    neg_len = -ordered_len
    nonempty = int(np.searchsorted(neg_len, 0, side="left"))
    if nonempty == 0:
        return out
    nbig = int(np.searchsorted(neg_len, -_FOLD_BIG, side="left"))
    for i in range(nbig):
        s0 = int(ordered_start[i])
        out[order[i]] = _fold_long(values[s0 : s0 + int(ordered_len[i])], ufunc)
    if nonempty > nbig:
        # seed with each segment's first edge, then fold edge s into every
        # segment that still has one — sequential per segment, vectorised
        # across segments
        acc = values[ordered_start[nbig:nonempty]]
        s = 1
        while True:
            active = int(np.searchsorted(neg_len, -s, side="left"))
            if active <= nbig:
                break
            ufunc(
                acc[: active - nbig],
                values[ordered_start[nbig:active] + s],
                out=acc[: active - nbig],
            )
            s += 1
        out[order[nbig:nonempty]] = acc
    return out
