#!/usr/bin/env python3
"""Benchmark for ringlab: the verification sweep and the radical formula.

Run from the repository root::

    python3 bench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 15

Workloads are ``sweep-cold``, ``sweep-warm`` and ``radical`` (see
``bench/workloads.py`` and ``bench/METRICS.md``); ``all`` runs each in
turn.  Each workload runs in a fresh child process with one job and no
extra threads.  With ``--trace 0`` the command reports the end-to-end
metrics; with ``--trace 1`` it runs the workload untraced and then
traced, and reports the per-layer metrics from the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its unit, how it was taken, and the
environment.  A full record goes to ``bench/out/``.  Exit codes: 0 all
outputs correct, 1 some output wrong (result still printed), 2 the
benchmark itself could not run (no result printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep-cold", "sweep-warm", "radical")

#: Set-ups per untraced run; setup_s is their median.
SETUP_RUNS = 3
#: Wall-clock limit for one workload, child processes included.
TIME_LIMIT_S = 170.0
#: Candidate percentiles for pair_ms_tail, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0)
RSS_METHOD = "resource.getrusage(RUSAGE_SELF).ru_maxrss of a fresh child process per workload"
#: Fixed string hashing, so every process iterates sets and dicts alike,
#: and one BLAS thread, so numpy starts no thread pool at import.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(values: list[float]) -> dict:
    """The highest of :data:`PERCENTILES` with at least ten samples
    beyond it (nearest rank), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n, "beyond": n - rank}
    raise BenchError(f"{n} item latencies are too few for a percentile with ten beyond it")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# --------------------------------------------------------------------------
# child processes


def _child(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from probe import SpeedProbe

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        started = perf_counter()
        workload = workloads.make_workload(args.workload, workdir, args.seed)
        setup_s = perf_counter() - started
        import numpy
        import ringlab

        if Path(ringlab.__file__).resolve().parent != ROOT / "src" / "ringlab":
            raise BenchError(f"imported ringlab from {ringlab.__file__}, not from src/")
        # a traced run samples speed only between calls, in both of its
        # phases: samples inside would land in the spans
        probe = SpeedProbe(workload.locate, sample_inside=not args.trace)
        result = {"setup_s": setup_s / probe.last, "raw_setup_s": setup_s,
                  "numpy": numpy.__version__}
        if args.role == "setup":
            return result
        # with tracing, the untraced passes serve only to give its overhead
        min_passes = 1 if args.trace else workload.min_passes
        result["untraced"] = _passes(workload, probe, args.seconds, min_passes)
        if args.trace:
            from tracing import Tracer, median_layers

            tracer = Tracer(locate=workload.locate)
            tracer.patch()
            result["traced"] = _passes(workload, probe, args.seconds, 1, tracer)
            factors = result["traced"]["factors"]
            result["layers"] = median_layers([
                {k: v / factor if k.endswith("_s") else v for k, v in layers.items()}
                for layers, factor in zip(tracer.layers_by_pass(), factors)
            ])
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["items"] = list(getattr(workload, "order", []))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _passes(workload, probe, seconds: float, min_passes: int, tracer=None) -> dict:
    """Run whole passes until ``seconds`` have gone by and at least
    ``min_passes`` are done."""
    passes = []
    started = perf_counter()
    while len(passes) < min_passes or perf_counter() - started < seconds:
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(workload.run_pass(probe))
    return {
        "pass_s": [p.seconds for p in passes],
        "raw_pass_s": [p.raw_seconds for p in passes],
        "factors": [p.raw_seconds / p.seconds if p.seconds else 1.0 for p in passes],
        "latencies_ms": [ms for p in passes for ms in p.latencies_ms],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [msg for p in passes for msg in p.problems][:20],
        "cache": [p.cache for p in passes if p.cache],
    }


def _run_child(role: str, args, deadline: float) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        proc = subprocess.run(command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} child exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# the parent: metrics and report


def declared_metrics(trace: int) -> dict[str, dict]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    children = []
    if not args.trace:
        children = [_run_child("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
    child = _run_child("measure", args, deadline)
    children.append(child)
    setups = [c["setup_s"] for c in children]
    untraced = child["untraced"]
    pass_s = statistics.median(untraced["pass_s"])
    notes = {}
    if args.trace:
        traced = child["traced"]
        cache = traced["cache"]
        hits = statistics.median_low(c["hits"] for c in cache) if cache else 0
        misses = statistics.median_low(c["misses"] for c in cache) if cache else 0
        metrics = dict(child["layers"])
        metrics.update({
            "cache.load_s": statistics.median(c["load_s"] for c in cache) if cache else 0.0,
            "cache.get.hits": hits,
            "cache.get.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.put.calls": statistics.median_low(c["puts"] for c in cache) if cache else 0,
            "trace.pass_s": statistics.median(traced["pass_s"]),
            "trace.overhead_s": statistics.median(traced["pass_s"]) - pass_s,
        })
        notes["passes"] = f"{len(untraced['pass_s'])} untraced, {len(traced['pass_s'])} traced"
        runs = (untraced, traced)
    else:
        pair = tail(untraced["latencies_ms"])
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "pair_ms_tail": pair["value"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        notes.update({
            "setup_s": f"median of {len(setups)} set-ups, each in a fresh process",
            "pass_s": f"median of {len(untraced['pass_s'])} passes "
                      f"(wall-clock median {statistics.median(untraced['raw_pass_s']):.4g} s)",
            "pair_ms_tail": f"p{pair['percentile']:g} of {pair['samples']} item latencies "
                            f"({pair['beyond']} beyond it)",
            "peak_rss_mb": RSS_METHOD,
        })
        runs = (untraced,)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": child["items"],
        "metrics": metrics,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": [msg for r in runs for msg in r["problems"]][:20],
        "samples": {
            "setup_s": setups,
            "raw_setup_s": [c["raw_setup_s"] for c in children],
            "latencies_ms": untraced["latencies_ms"],
            **{f"{kind}.{key}": run[key] for kind, run in zip(("untraced", "traced"), runs)
               for key in ("pass_s", "raw_pass_s", "factors")},
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "peak_rss_method": RSS_METHOD,
            "time_unit": "reference seconds: wall time divided by the speed probe's factor",
            "jobs": 1,
        },
    }


def report(result: dict, declared: dict[str, dict]) -> dict:
    if set(result["metrics"]) != set(declared):
        missing = sorted(set(declared) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(declared))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    for name, spec in declared.items():
        value = result["metrics"][name]
        note = result["notes"].get(name, "")
        print(f"  {name:<44} {value:>14.6g} {spec['unit']:<6} {note}")
    print(f"  failed_frac {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} items failed)")
    for msg in result["problems"]:
        print(f"  problem: {msg}")
    if result["items"]:
        print(f"  item order: {', '.join(result['items'])}")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": spec["unit"]}
                    for name, spec in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role is not None:
        print(json.dumps(_child(args)))
        return 0
    if not (ROOT / "src" / "ringlab" / "__init__.py").is_file():
        print("bench: src/ringlab is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    correct = True
    try:
        declared = declared_metrics(args.trace)
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            args.workload = name
            line = report(measure(args), declared)
            print(json.dumps(line))
            correct = correct and line["correct"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
