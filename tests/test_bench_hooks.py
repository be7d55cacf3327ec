"""The names the benchmark harness in bench/ looks up in ringlab exist.

The traced run wraps each ``TARGETS`` entry of bench/tracing.py by name,
and the sweep workloads find a pair's latency by walking the stack for
the frame of ``ringlab.sweep._evaluate_pair`` and reading its ``args``:
the pair's expression and group factors come first.  The default sweep
gives the records pinned in bench/golden.json.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import ringlab.cli
import ringlab.sweep
from ringlab.expr import canonical_label
from ringlab.group_algebra import make_group

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


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", TRACING.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def test_default_sweep_matches_the_bench_golden_records(monkeypatch):
    # the benchmark's sweep workloads fail a pass whose records differ
    # from bench/golden.json; check the same records here, without a cache
    workloads = _load_workloads(monkeypatch)
    golden = workloads.GOLDEN["sweep"]
    report = ringlab.sweep.run_sweep(ringlab.sweep.SweepConfig())
    digest, per_pair = workloads.record_digests(report.records)
    assert per_pair == golden["records"]
    assert digest == golden["digest"]
    assert report.summary["pairs"] == len(report.records) == golden["pairs"]
    assert report.summary["disagreements"] == golden["disagreements"]


def test_pair_worker_takes_args():
    params = list(inspect.signature(ringlab.sweep._evaluate_pair).parameters)
    assert params == ["args"]


def test_pair_frames_name_their_pair(monkeypatch, tmp_path):
    # SweepWorkload.locate walks up to the _evaluate_pair frame and names
    # the pair from args[:2] = (expr, factors), the group by make_group
    workload = _load_workloads(monkeypatch).SweepWorkload(tmp_path, warm=False)
    seen = []
    predicate = ringlab.classify.weakly_nil_neat_group_ring_predicate

    def locating(ring, group):
        frame = sys._getframe()
        while frame.f_code.co_name != "_evaluate_pair":
            frame = frame.f_back
        expr, factors = frame.f_locals["args"][:2]
        seen.append((canonical_label(expr), make_group(factors), ring.label, group,
                     workload.locate(sys._getframe())))
        return predicate(ring, group)

    monkeypatch.setattr(ringlab.classify, "weakly_nil_neat_group_ring_predicate", locating)
    config = ringlab.sweep.SweepConfig(max_ring_order=4, max_product_order=6, max_group_order=3,
                                       max_groupring_order=64)
    report = ringlab.sweep.run_sweep(config)
    assert len(seen) == len(report.records) > 1
    for label, named, ring_label, group, located in seen:
        assert (label, named) == (ring_label, group)
        assert located == f"GR({ring_label}, {group.label})"


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
