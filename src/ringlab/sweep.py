"""Exhaustive verification sweep over a catalog of (ring, group) pairs.

For every base ring R in the catalog and every abelian group G of
bounded order with |R|^|G| under the group-ring cap, the sweep builds
RG, decides weak nil-neatness and weak nil-cleanness definitionally,
evaluates the structural group-ring predicates, and records whether the
two sides agree.  Records are sorted by (|RG|, ring label, group label)
so reports are byte-stable; wall times are the only nondeterministic
fields.

The pairs of one base ring run one after another, so a run builds each
catalog object once: each group, and each base ring in one ring memo
that holds a product Z_a x Z_b and its two factors, so the run of
products sharing Z_a builds it once.  These run-scoped memos are
emptied when :func:`run_sweep` returns.

With ``jobs > 1`` the pairs run in a process pool.  The pool is imported
on first use, so a serial sweep and every other command start without
loading ``multiprocessing``.  A worker that dies, as one the kernel
kills for running out of memory does, ends the sweep with
:class:`~ringlab.rings.CapExceeded`.  The new verdicts go to the cache
in one append once every pair is done.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from . import __version__, classify
from .cache import VerdictCache
from .classify import is_weakly_nil_clean_definitional, is_weakly_nil_neat_definitional
from .expr import ProductExpr, RingExpr, ZmodExpr, canonical_label, evaluate
from .group_algebra import AbelianGroup, group_ring, make_group
from .rings import DEFAULT_ORDER_CAP, CapExceeded, direct_product


@dataclass
class SweepConfig:
    max_ring_order: int = 9
    max_product_order: int = 12
    max_group_order: int = 4
    max_groupring_order: int = 1024
    order_cap: int = DEFAULT_ORDER_CAP
    jobs: int = 1

    def validate(self) -> None:
        if self.max_ring_order < 2:
            raise ValueError("max_ring_order must be >= 2 (no rings in catalog)")
        if self.max_group_order < 1:
            raise ValueError("max_group_order must be >= 1 (no groups in catalog)")
        if self.max_groupring_order < 2:
            raise ValueError("max_groupring_order must be >= 2")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        cpus = usable_cpus()
        if self.jobs > cpus:
            raise ValueError(f"jobs must be <= {cpus}, the number of CPUs this process may use")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "jobs"}


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, which a cpuset or ``taskset`` may set below the
    host's count, and the host's count elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ring_catalog(config: SweepConfig) -> list[RingExpr]:
    """All Z_n, then two-factor products Z_a x Z_b (a <= b), up to the
    ring- and product-order caps, each lowered to the group-ring cap:
    |RG| >= |R|, so a larger ring forms no pair."""
    max_ring = min(config.max_ring_order, config.max_groupring_order)
    max_product = min(config.max_product_order, config.max_groupring_order)
    exprs: list[RingExpr] = [ZmodExpr(n) for n in range(2, max_ring + 1)]
    for a in range(2, max_product // 2 + 1):
        for b in range(a, max_product // a + 1):
            exprs.append(ProductExpr(ZmodExpr(a), ZmodExpr(b)))
    return exprs


def group_catalog(max_order: int) -> list[AbelianGroup]:
    """All abelian groups of order 1..max_order, one per isomorphism
    type: every non-decreasing tuple of cyclic orders (each at least 2)
    with product at most max_order, put in canonical form by
    :func:`make_group` and deduplicated."""
    groups: set[AbelianGroup] = set()

    def extend(orders: tuple[int, ...], product: int) -> None:
        groups.add(make_group(orders))
        for d in range(orders[-1] if orders else 2, max_order // product + 1):
            extend(orders + (d,), product * d)

    if max_order >= 1:
        extend((), 1)
    return sorted(groups, key=lambda g: (g.order, g.factors))


@lru_cache(maxsize=3)  # a product and its two factors; never every Z_n, whose tables grow as n^2
def _base_ring(expr: RingExpr, order_cap: int):
    """The evaluated base ring, kept while the sweep runs through its
    groups, so that its memoized facts are derived once per ring.

    A product Z_a x Z_b is built by :func:`direct_product` from its
    factors, taken from this same memo, so the run of products with a
    common Z_a evaluates Z_a once, not once per product."""
    if isinstance(expr, ProductExpr):
        return direct_product(_base_ring(expr.left, order_cap), _base_ring(expr.right, order_cap),
                              cap=order_cap)
    return evaluate(expr, order_cap=order_cap)


@lru_cache(maxsize=None)  # one entry per group of the catalog
def _group(factors: tuple[int, ...]) -> AbelianGroup:
    """The group of a pair, from its factors, already canonical."""
    return AbelianGroup(factors)


def _evaluate_pair(args) -> tuple[dict, dict]:
    """Worker body: one (ring expr, group factors) pair to its record and
    to its definitional verdicts in the cache's value shape (see
    :func:`ringlab.cache.is_sweep_verdict`), taken from ``args`` when
    cached and computed otherwise.  ``args`` is ``(expr, factors,
    order_cap, cached)``; :func:`run_sweep` has already dropped or
    refused every pair above a cap."""
    expr, factors, order_cap, verdicts = args
    started = time.perf_counter()
    ring = _base_ring(expr, order_cap)
    group = _group(factors)
    size = ring.order**group.order

    if verdicts is None:
        view = group_ring(ring, group, cap=order_cap)
        neat = is_weakly_nil_neat_definitional(view.ring)
        clean = is_weakly_nil_clean_definitional(view.ring)
        verdicts = {
            "wnn": {"ok": neat.ok, "witness": classify.encode_witness(neat.witness)},
            "wnc": {"ok": clean.ok, "witness": classify.encode_witness(clean.witness)},
        }
    wnn, wnc = verdicts["wnn"], verdicts["wnc"]

    theorem = classify.weakly_nil_neat_group_ring_predicate(ring, group)
    lemma = classify.weakly_nil_clean_group_ring_predicate(ring, group)
    return verdicts, {
        "ring": ring.label,
        "group": group.label,
        "order": size,
        "wnn_definitional": wnn["ok"],
        "wnn_witness": wnn["witness"],
        "theorem_condition": theorem.condition,
        "theorem_predicate": bool(theorem.holds),
        "agreement": wnn["ok"] == bool(theorem.holds),
        "wnc_definitional": wnc["ok"],
        "wnc_witness": wnc["witness"],
        "lemma_condition": lemma.condition,
        "lemma_predicate": bool(lemma.holds),
        "lemma_agreement": wnc["ok"] == bool(lemma.holds),
        "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }


@dataclass
class SweepReport:
    version: str
    config: dict
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def all_agree(self) -> bool:
        return all(r["agreement"] and r["lemma_agreement"] for r in self.records)

    def jsonl_lines(self) -> list[str]:
        import json

        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        footer = {
            "summary": self.summary,
            "version": self.version,
            "config": self.config,
        }
        lines.append(json.dumps(footer, sort_keys=True))
        return lines


def run_sweep(config: SweepConfig, *, cache: VerdictCache | None = None) -> SweepReport:
    config.validate()
    tasks = []
    # |R| >= 2, so a group of order above log2(max_groupring_order) forms no pair
    groups = group_catalog(min(config.max_group_order, config.max_groupring_order.bit_length() - 1))
    for expr in ring_catalog(config):
        base_order = _expr_order(expr)
        for group in groups:
            size = base_order**group.order
            if size > config.max_groupring_order:
                continue
            key = f"GR({canonical_label(expr)}, {group.label})"
            if size > config.order_cap:  # fail before any pair is built, not when the scan reaches it
                raise CapExceeded(f"{key} of order {size} exceeds cap {config.order_cap}")
            cached = cache.get(key) if cache is not None else None
            tasks.append((key, (expr, group.factors, config.order_cap, cached)))

    workers = min(config.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_evaluate_pair, (args for _, args in tasks)))
        except BrokenProcessPool:
            # a worker's group ring allocates lazily, so running out of memory kills it, not raises
            raise CapExceeded("a sweep worker process died, most likely killed for running out of memory; "
                              "lower --jobs or --max-groupring-order") from None
    else:
        try:
            results = [_evaluate_pair(args) for _, args in tasks]
        finally:
            for memo in (_base_ring, _group):  # free the last rings' tables
                memo.cache_clear()

    if cache is not None:
        with cache.batch():  # one append for every new verdict
            for (key, args), (verdicts, _) in zip(tasks, results):
                if args[3] is None:
                    cache.put(key, verdicts)
    records = [record for _, record in results]

    records.sort(key=lambda r: (r["order"], r["ring"], r["group"]))
    disagreements = [r for r in records if not (r["agreement"] and r["lemma_agreement"])]
    conditions: dict[str, int] = {}
    for r in records:
        if r["theorem_condition"] is not None:
            conditions[str(r["theorem_condition"])] = conditions.get(str(r["theorem_condition"]), 0) + 1
    summary = {
        "pairs": len(records),
        "agreements": len(records) - len(disagreements),
        "disagreements": len(disagreements),
        "theorem_condition_counts": conditions,
        "weakly_nil_neat_count": sum(1 for r in records if r["wnn_definitional"]),
    }
    return SweepReport(version=__version__, config=config.to_dict(), records=records, summary=summary)


def _expr_order(expr: RingExpr) -> int:
    if isinstance(expr, ZmodExpr):
        return expr.n
    if isinstance(expr, ProductExpr):
        return _expr_order(expr.left) * _expr_order(expr.right)
    raise TypeError(f"catalog expressions are Zmod and products only, got {expr!r}")
