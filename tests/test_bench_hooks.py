"""The names the benchmark harness in bench/ looks up in ringlab exist.

The traced run wraps each ``TARGETS`` entry of bench/tracing.py by name,
and the sweep workloads find a pair's latency by walking the stack for
the frame of ``ringlab.sweep._evaluate_pair`` and reading its ``args``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ringlab.sweep

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS and missing == []


def test_pair_worker_takes_args():
    params = list(inspect.signature(ringlab.sweep._evaluate_pair).parameters)
    assert params == ["args"]
