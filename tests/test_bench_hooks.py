"""The benchmark's tracer patches ``seqvol`` names; each one must exist.

A patch target that is gone is skipped by the tracer, and the per-layer
metrics that need it silently drop out of a traced run. This test makes
such a rename fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("seqvol_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name, attr",
                         [(module, attr) for module, attr, *_ in tracer.SPANS])
def test_span_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("name", tracer.LINALG_ENTRY_POINTS)
def test_linalg_entry_point_resolves(name):
    assert callable(getattr(np.linalg, name, None))
