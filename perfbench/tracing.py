"""Span tracing from outside the program.

The benchmark times each layer by wrapping the public function or method
at the attribute its caller looks up, and times kernels through the
public dispatch seam :func:`repro.kernels.registry.push_kernel_wrapper`.
Nothing inside ``src/`` changes.

A span records name, start, end, parent (the enclosing span on the same
thread) and an optional tag.  Spans are kept per thread in memory and
read out, and written to a file, once the traced phase ends.  A span's
*self time* is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.kernels.registry import push_kernel_wrapper, remove_kernel_wrapper


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the same thread's span list
    tag: object = None
    self_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans into per-thread lists; :meth:`close` undoes every
    wrap this tracer installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[List[Span], List[int]]] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def _thread(self) -> Tuple[List[Span], List[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str) -> int:
        spans, stack = self._thread()
        parent = stack[-1] if stack else None
        spans.append(Span(name, time.perf_counter(), 0.0, parent))
        stack.append(len(spans) - 1)
        return stack[-1]

    def end(self, index: int) -> None:
        spans, stack = self._thread()
        spans[index].end = time.perf_counter()
        stack.pop()

    def set_tag(self, index: int, tag: object) -> None:
        self._thread()[0][index].tag = tag

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- installing -----------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        tag: Optional[Callable[[tuple, dict, object], object]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.  ``tag(args,
        kwargs, result)`` runs after the span closes, outside its time."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(index)
                if tag is not None:
                    tracer.set_tag(index, tag(args, kwargs, result))

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap_kernels(self) -> None:
        """Time every primitive dispatched through the kernel seam."""
        tracer = self

        def wrapper(primitive: str, next_call, tag: str):
            index = tracer.begin("kernels." + primitive)
            try:
                return next_call()
            finally:
                tracer.end(index)

        push_kernel_wrapper(wrapper)
        self._undo.append(lambda: remove_kernel_wrapper(wrapper))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------
    def spans(self) -> List[Span]:
        """Every finished span, with ``self_seconds`` filled in."""
        with self._lock:
            threads = [spans for spans, _ in self._threads]
        out: List[Span] = []
        for spans in threads:
            finished = [s for s in spans if s.end]
            for span in finished:
                span.self_seconds = span.seconds
            # children on one thread run nested inside their parent and
            # one after another, so their durations never overlap and
            # the time they cover is their sum
            for span in finished:
                if span.parent is not None:
                    spans[span.parent].self_seconds -= span.seconds
            out.extend(finished)
        return out

    def write(self, path: Path) -> int:
        """Write every span, with its self time, as one JSON object per
        line; ``parent`` indexes the same thread's spans.  Returns the
        count written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self.spans()  # fills in self_seconds
        with self._lock:
            threads = [spans for spans, _ in self._threads]
        count = 0
        with open(path, "w") as out:
            for thread, spans in enumerate(threads):
                for index, span in enumerate(spans):
                    out.write(json.dumps({
                        "thread": thread, "index": index, "name": span.name,
                        "start": span.start, "end": span.end, "parent": span.parent,
                        "self_seconds": span.self_seconds, "tag": span.tag,
                    }) + "\n")
                    count += 1
        return count


def rollup(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """Span name -> (total self seconds, call count)."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += span.self_seconds
        entry[1] += 1
    return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from repro.analysis import planlint
    from repro.core import guard, runtime
    from repro.core.costmodel import CostModelSet
    from repro.core.plan import Plan
    from repro.core.runtime import GraniiEngine
    from repro.serving import service
    from repro.serving.cache import PlanCache
    from repro.sparse import CSRMatrix
    from repro.tensor import Adam, Tensor

    def request_id(args, kwargs, result):
        return args[1].request_id

    def cache_hit(args, kwargs, result):
        return None if result is None else bool(result[1])

    def strategy(args, kwargs, result):
        config = kwargs.get("kernel_config", args[4] if len(args) > 4 else None)
        return "row_segment" if config is None else config.strategy

    tracer.wrap(service.GraniiService, "submit", "serving.submit", tag=request_id)
    # the worker-thread root of a request: its start ends the queue wait
    tracer.wrap(service.GraniiService, "_process", "serving.worker", tag=request_id)
    tracer.wrap(service, "validate_inputs", "serving.validate")
    tracer.wrap(service, "fingerprint_graph", "serving.fingerprint")
    tracer.wrap(PlanCache, "get_or_compute", "serving.cache_lookup", tag=cache_hit)
    tracer.wrap(GraniiEngine, "compile_for", "core.compile")
    tracer.wrap(GraniiEngine, "select", "core.select")
    tracer.wrap(GraniiEngine, "make_executor", "core.make_executor")
    tracer.wrap(runtime, "featurize_graph", "core.featurize")
    tracer.wrap(planlint, "analyze_plan", "analysis.planlint")
    tracer.wrap(CostModelSet, "predict_calls", "core.costmodel_predict")
    # guarded executors bind through guard.py; unguarded ones (training)
    # through runtime.py
    tracer.wrap(guard, "build_binding", "core.binding")
    tracer.wrap(runtime, "build_binding", "core.binding")
    tracer.wrap(guard.GuardedExecutor, "__call__", "core.guard")
    tracer.wrap(Plan, "execute", "core.plan_execute", tag=strategy)
    tracer.wrap(CSRMatrix, "transpose", "sparse.transpose")
    tracer.wrap(Tensor, "backward", "tensor.backward")
    tracer.wrap(Adam, "step", "tensor.optimizer")
    tracer.wrap_kernels()
