"""The benchmark's workloads: set-up, one pass, and golden checks.

Nothing here imports ringlab at module level, so that set-up time
includes importing the package (and numpy) exactly as a user pays it.

* ``sweep-cold``: ``run_sweep(SweepConfig())`` on the default catalog,
  writing a fresh, empty verdict cache on every pass (a user's first
  sweep).
* ``sweep-warm``: the same sweep, reading a cache filled during set-up,
  so no group ring is built and the predicates dominate.
* ``radical``: ``ringlab --order-cap 6561 radical E --json`` through
  ``cli.main`` for the 14 expressions in :data:`RADICAL_EXPRS`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())

#: Acceptance-3 pairs of order 625-2401 plus the largest table, order
#: 6561, which runs first.  The 25-85 s acceptance-3 items are left out
#: for run length only; the test suite still covers them.
RADICAL_EXPRS = (
    "GR(Z9, C4)",
    "GR(Z5, C2 x C2)",
    "GR(Z5, C4)",
    "GR(Z9, C3)",
    "GR(Z3 x Z3, C3)",
    "GR(Z2 x Z5, C3)",
    "GR(Z6, C2 x C2)",
    "GR(Z6, C4)",
    "GR(Z2 x Z3, C2 x C2)",
    "GR(Z2 x Z3, C4)",
    "GR(Z2 x Z6, C3)",
    "GR(Z3 x Z4, C3)",
    "GR(Z7, C2 x C2)",
    "GR(Z7, C4)",
)
RADICAL_ARGS = ("--order-cap", "6561", "radical")

@dataclass
class PassResult:
    seconds: float  # reference seconds (see probe.py)
    latencies_ms: list[float]  # reference milliseconds
    attempted: int
    failed: int
    raw_seconds: float  # wall-clock seconds, less the probe's own time
    problems: list[str] = field(default_factory=list)
    cache: dict[str, float] = field(default_factory=dict)


def record_digests(records: list[dict]) -> tuple[str, dict[str, str]]:
    """Digest of the sorted records without ``wall_ms``, and one short
    digest per (ring, group) pair."""
    lines = [json.dumps({k: v for k, v in r.items() if k != "wall_ms"}, sort_keys=True)
             for r in records]
    per_pair = {f"GR({r['ring']}, {r['group']})": hashlib.sha256(line.encode()).hexdigest()[:16]
                for r, line in zip(records, lines)}
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), per_pair


def _counting_cache(base):
    class CountingCache(base):
        """The program's verdict cache, counting hits, misses and writes."""

        def __init__(self, path):
            self.hit_keys: list[str] = []
            self.miss_keys: list[str] = []
            self.put_keys: list[str] = []
            super().__init__(path)

        def get(self, key):
            value = super().get(key)
            (self.miss_keys if value is None else self.hit_keys).append(key)
            return value

        def put(self, key, value):
            self.put_keys.append(key)
            super().put(key, value)

    return CountingCache


class SweepWorkload:
    """``sweep-cold`` (``warm=False``) or ``sweep-warm`` (``warm=True``)."""

    min_passes = 1

    def __init__(self, workdir: Path, *, warm: bool):
        from ringlab import cache, sweep
        from ringlab.expr import canonical_label, evaluate
        from ringlab.group_algebra import make_group

        self.sweep = sweep
        self.warm = warm
        self.cache_cls = _counting_cache(cache.VerdictCache)
        self.cache_path = workdir / ("warm.jsonl" if warm else "cold.jsonl")
        self.golden = GOLDEN["sweep"]
        self._canonical_label, self._make_group = canonical_label, make_group
        config = sweep.SweepConfig()
        groups = sweep.group_catalog(config.max_group_order)
        bases = {canonical_label(e): evaluate(e).order for e in sweep.ring_catalog(config)}
        self.keys = sorted(
            f"GR({label}, {group.label})"
            for label, order in bases.items()
            for group in groups
            if order**group.order <= config.max_groupring_order
        )
        if self.keys != sorted(self.golden["records"]):
            raise RuntimeError("the default sweep catalog differs from the pinned one")
        if warm:
            self.cache_path.unlink(missing_ok=True)
            cache, _, report = self._sweep()
            bad, problems = self._check(cache, report, expect_hits=False)
            if bad:
                raise RuntimeError("cache pre-fill failed: " + "; ".join(problems))

    def _sweep(self):
        started = perf_counter()
        cache = self.cache_cls(self.cache_path)
        load_s = perf_counter() - started
        return cache, load_s, self.sweep.run_sweep(self.sweep.SweepConfig(), cache=cache)

    def locate(self, frame) -> str | None:
        """The pair being evaluated in ``frame`` or its callers, if any.

        Record ``wall_ms`` is timed inside the sweep's per-pair worker,
        so a probe sample taken there is charged back to that pair."""
        while frame is not None:
            if frame.f_code.co_name == "_evaluate_pair" and "args" in frame.f_locals:
                expr, factors = frame.f_locals["args"][:2]
                return f"GR({self._canonical_label(expr)}, {self._make_group(factors).label})"
            frame = frame.f_back
        return None

    def run_pass(self, probe) -> PassResult:
        if not self.warm:
            self.cache_path.unlink(missing_ok=True)
        try:
            (cache, load_s, report), raw_s, factor = probe.time(self._sweep)
        except Exception as exc:  # a crashing pass fails every pair of it
            n = len(self.keys)
            return PassResult(0.0, [], n, n, 0.0, [f"run_sweep raised {exc!r}"])
        bad, problems = self._check(cache, report, expect_hits=self.warm)
        latencies = [
            (r["wall_ms"] - 1000.0 * probe.intrusions[f"GR({r['ring']}, {r['group']})"]) / factor
            for r in report.records
        ]
        return PassResult(
            seconds=raw_s / factor,
            latencies_ms=latencies,
            attempted=len(self.keys),
            failed=len(bad),
            raw_seconds=raw_s,
            problems=problems,
            cache={"load_s": load_s / factor, "hits": len(cache.hit_keys),
                   "misses": len(cache.miss_keys), "puts": len(cache.put_keys)},
        )

    def _check(self, cache, report, *, expect_hits: bool) -> tuple[set[str], list[str]]:
        """Pairs that fail the golden checks, and what failed."""
        problems: list[str] = []
        digest, per_pair = record_digests(report.records)
        bad = {k for k in self.keys if per_pair.get(k) != self.golden["records"][k]}
        bad |= set(per_pair) - set(self.keys)
        if bad:
            problems.append(f"{len(bad)} records differ from golden, e.g. {sorted(bad)[0]}")
        if digest != self.golden["digest"]:
            problems.append("sorted-record digest differs from golden")
        summary = report.summary
        if summary.get("pairs") != self.golden["pairs"] or summary.get("disagreements") != 0:
            problems.append(f"summary {summary.get('pairs')} pairs, "
                            f"{summary.get('disagreements')} disagreements")
        if expect_hits:
            wrong = set(cache.miss_keys) | set(cache.put_keys)
        else:
            wrong = set(cache.hit_keys) | (set(self.keys) - set(cache.put_keys))
        if wrong:
            problems.append(f"cache: {len(cache.hit_keys)} hits, {len(cache.miss_keys)} misses, "
                            f"{len(cache.put_keys)} writes")
        bad |= wrong
        if problems and not bad:
            bad = set(self.keys)  # a pass-level mismatch fails every pair
        return bad, problems


class RadicalWorkload:
    """``cli.main(["--order-cap", "6561", "radical", E, "--json"])`` for
    every E in :data:`RADICAL_EXPRS`.

    The largest table runs first, so that peak RSS is its own footprint
    rather than depending on what earlier items left in the allocator;
    the seed permutes the other 13.  A run makes at least two passes,
    so that the item latencies have a percentile with ten beyond it
    that is not set by the four fastest items alone."""

    min_passes = 2

    def __init__(self, *, seed: int):
        from ringlab import cli
        from ringlab.expr import parse_ring_expr

        self.cli = cli
        self.golden = GOLDEN["radical"]
        largest, *rest = RADICAL_EXPRS
        self.order = [largest, *random.Random(seed).sample(rest, len(rest))]
        for text in self.order:
            parse_ring_expr(text)
        self.current: str | None = None

    def locate(self, frame) -> str | None:
        """The expression being run."""
        return self.current

    def run_pass(self, probe) -> PassResult:
        latencies: list[float] = []
        problems: list[str] = []
        failed = 0
        raw_s = 0.0
        for text in self.order:
            self.current = text
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code, item_s, factor = probe.time(self.cli.main, [*RADICAL_ARGS, text, "--json"])
            except Exception as exc:
                code, item_s, factor = repr(exc), 0.0, 1.0
            raw_s += item_s
            latencies.append(1000.0 * item_s / factor)
            problem = self._check(text, code, out.getvalue())
            if problem:
                failed += 1
                problems.append(f"{text}: {problem}")
        self.current = None
        return PassResult(sum(latencies) / 1000.0, latencies, len(self.order), failed,
                          raw_s, problems)

    def _check(self, text: str, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            payload = json.loads(stdout)
            got = {
                "ring": payload["ring"],
                "order": payload["order"],
                "nilradical": payload["nilradical"]["size"],
                "jacobson": payload["jacobson"]["size"],
                "karpilovsky": payload["karpilovsky"]["size"],
                "matches_jacobson": payload["karpilovsky"]["matches_jacobson"],
            }
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output ({exc!r})"
        want = dict(self.golden[text], ring=text, matches_jacobson=True)
        want["karpilovsky"] = want["jacobson"]
        if got != want:
            return f"got {got}, want {want}"
        return None


def make_workload(name: str, workdir: Path, seed: int):
    if name == "sweep-cold":
        return SweepWorkload(workdir, warm=False)
    if name == "sweep-warm":
        return SweepWorkload(workdir, warm=True)
    if name == "radical":
        return RadicalWorkload(seed=seed)
    raise ValueError(f"unknown workload {name!r}")
