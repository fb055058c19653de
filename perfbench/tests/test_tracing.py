import json
import time

import pytest

import tracing


class Box:
    def outer(self):
        time.sleep(0.01)
        self.inner()
        self.inner()
        time.sleep(0.01)

    def inner(self):
        time.sleep(0.005)


def test_self_times_add_up_to_the_parent_span(tmp_path):
    tracer = tracing.Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    try:
        Box().outer()
    finally:
        tracer.close()
    spans = tracer.spans()
    (outer,) = [s for s in spans if s.name == "outer"]
    inner = [s for s in spans if s.name == "inner"]
    assert len(inner) == 2 and all(s.parent is not None for s in inner)
    total = outer.self_seconds + sum(s.self_seconds for s in inner)
    assert total == pytest.approx(outer.seconds, abs=1e-9)
    assert outer.self_seconds >= 0.02 and all(s.self_seconds >= 0.005 for s in inner)

    path = tmp_path / "spans.jsonl"
    assert tracer.write(path) == 3
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert [w["name"] for w in written] == ["outer", "inner", "inner"]
    assert [w["parent"] for w in written] == [None, 0, 0]


def test_close_restores_the_wrapped_attributes():
    originals = (Box.__dict__["outer"], Box.__dict__["inner"])
    tracer = tracing.Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    assert Box.__dict__["outer"] is not originals[0]
    tracer.close()
    assert (Box.__dict__["outer"], Box.__dict__["inner"]) == originals


def test_install_layers_is_undone_by_close():
    from repro.core.plan import Plan
    from repro.kernels import registry

    before = (Plan.execute, list(registry._KERNEL_WRAPPERS))
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    assert Plan.execute is not before[0] and registry._KERNEL_WRAPPERS
    tracer.close()
    assert (Plan.execute, list(registry._KERNEL_WRAPPERS)) == before
