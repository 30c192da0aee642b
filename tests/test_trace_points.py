"""The benchmark's traced entry points must exist in the package.

``bench/tracing.py`` wraps module attributes by name; a refactor that drops
or renames one of them should fail here, not first in a traced benchmark
run.  The test only reads the benchmark's table.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_trace_points():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS, module._resolve


TRACE_POINTS, resolve = load_trace_points()


@pytest.mark.parametrize("path, attr", [(p, a) for p, a, _, _ in TRACE_POINTS],
                         ids=[f"{p}.{a}" for p, a, _, _ in TRACE_POINTS])
def test_trace_point_resolves(path, attr):
    owner = resolve(path)
    module = inspect.getmodule(owner)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{path}.{attr} is not a callable"
