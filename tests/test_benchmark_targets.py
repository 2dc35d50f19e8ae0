"""The benchmark's traced names must exist in the modules it wraps.

perfbench/ traces a layer by swapping the name pointssl.trainer or
pointssl.pipeline calls it through.  A refactor that inlines or renames such
a call would leave the layer reported as 0 ms rather than fail, so this
checks every workload's targets resolve.  An observer that no longer fits a
layer's arguments or result is likewise only reported as broken, so one
traced train step and one traced alignment check the observers too.
"""

import importlib
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
    assert tracer.counts["sinkhorn.rows"] > 0


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
    assert tracer.counts["geometry.sor_input"] > 0
    assert tracer.counts["geometry.ransac_calls"] == 1
    assert tracer.counts["ply.read_bytes"] > 0 and tracer.counts["ply.write_bytes"] > 0
