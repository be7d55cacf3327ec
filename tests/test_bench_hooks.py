"""The names the benchmark harness in bench/ looks up in ringlab exist.

The traced run wraps each ``TARGETS`` entry of bench/tracing.py by name,
and the sweep workloads find a pair's latency by walking the stack for
the frame of ``ringlab.sweep._evaluate_pair`` and reading its ``args``.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import ringlab.cli
import ringlab.sweep

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_targets_exist():
    tracing = _load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS and missing == []


def test_pair_worker_takes_args():
    params = list(inspect.signature(ringlab.sweep._evaluate_pair).parameters)
    assert params == ["args"]


def test_traced_radical_counts_maximal_ideals(monkeypatch, capsys):
    tracing = _load_tracing()
    # rebind every ringlab function to itself first, so the patch is undone
    for name, module in list(sys.modules.items()):
        if name == "ringlab" or name.startswith("ringlab."):
            for key, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, key, value)
    tracer = tracing.Tracer(locate=lambda frame: None)
    tracer.patch()
    assert ringlab.cli.main(["radical", "GR(Z3, C3)", "--json"]) == 0
    capsys.readouterr()
    layers = tracer.layers_by_pass()[0]
    assert layers["ideals.maximal_ideals.calls"] > 0
