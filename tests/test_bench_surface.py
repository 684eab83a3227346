"""The benchmark's view of the package: every function its tracer wraps exists.

perfbench/tracing.py looks up vars(owner)[attr] for each entry of its
TARGETS, so a renamed or deleted function would break only traced
benchmark runs.  This reads whatever TARGETS holds and resolves it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [name for name, owner, attr, _ in targets if not callable(vars(owner).get(attr))]
    assert missing == []
