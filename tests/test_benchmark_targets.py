"""The benchmark's traced names must exist in the modules it wraps.

perfbench/ traces a layer by swapping the name pointssl.trainer or
pointssl.pipeline calls it through.  A refactor that inlines or renames such
a call would leave the layer reported as 0 ms rather than fail, so this
checks every workload's targets resolve.
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
