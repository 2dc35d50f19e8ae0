"""The benchmark's traced names must exist in the modules it wraps.

perfbench/ traces a layer by swapping the name pointssl.trainer or
pointssl.pipeline calls it through.  A refactor that inlines or renames such
a call would leave the layer reported as 0 ms rather than fail, so this
checks every workload's targets resolve, and that one traced train step and
one traced alignment call every layer at least once: a name that resolves
but is routed around reads 0 ms as well.  An observer that no longer fits a
layer's arguments or result is likewise only reported as broken, so the
traced ops check the observers too.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_every_traced_name_resolves(perfbench_modules):
    workloads, spans = perfbench_modules
    for name, make in workloads.WORKLOADS.items():
        assert spans.Tracer(make().targets).absent == [], name


def test_traced_train_step_breaks_no_observer(perfbench_modules, tmp_path):
    workloads, spans = perfbench_modules
    w = workloads.TrainWorkload(workloads.TOY_ROOM, 4, workloads.TOY_CONFIG)
    w.setup(1, tmp_path)
    tracer = spans.Tracer(w.targets)
    tracer.install()
    try:
        tracer.call("trainer.self", w.op)
    finally:
        tracer.remove()
    assert tracer.broken == set()
    calls = Counter(span[0] for span in tracer.spans)
    # The trainer imports point_features for the tracer only; the views call
    # it through their own name, so that layer reads 0 calls.
    uncalled = [f"{group}.{attr}" for attr, group, _ in workloads.TRAINER_LAYERS
                if not calls[f"{group}.{attr}"]]
    assert uncalled == ["model.point_features"]
    assert tracer.counts["sinkhorn.rows"] > 0
    # The Laplacian's graph goes through the traced build_knn_graph.
    assert tracer.counts["geometry.knn_edges"] > 0
    assert 0 < tracer.counts["losses.matched"] <= tracer.counts["losses.queried"]
    # Most points match; a result counted by its length as 2 per call would not.
    assert tracer.counts["losses.matched"] > tracer.counts["losses.queried"] / 2


def test_traced_align_op_breaks_no_observer(perfbench_modules, tmp_path, monkeypatch):
    workloads, spans = perfbench_modules
    monkeypatch.setattr(workloads, "ALIGN_SCENES", 2)
    monkeypatch.setattr(workloads, "ALIGN_POINTS", 4000)
    w = workloads.AlignWorkload()
    w.setup(1, tmp_path)
    tracer = spans.Tracer(w.targets)
    tracer.install()
    try:
        out = tracer.call(w.root, w.op)
    finally:
        tracer.remove()
    assert w.check(out)
    assert tracer.broken == set()
    calls = Counter(span[0] for span in tracer.spans)
    layers = workloads.PIPELINE_LAYERS + workloads.PLY_LAYERS
    assert [f"{group}.{attr}" for attr, group, _ in layers if not calls[f"{group}.{attr}"]] == []
    assert calls["pipeline.align_scene"] == 1
    assert tracer.counts["geometry.sor_input"] > 0
    assert tracer.counts["geometry.ransac_calls"] == 1
    assert tracer.counts["ply.read_bytes"] > 0 and tracer.counts["ply.write_bytes"] > 0
