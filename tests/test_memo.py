"""Derived ring facts are computed once per ring and keep no ring alive."""

import dataclasses
import sys

import numpy as np
import pytest

from ringlab import (
    DisagreementError,
    IdealSet,
    classify_ring,
    direct_product,
    element_classes,
    enumerate_ideals,
    evaluate,
    group_ring,
    is_weakly_nil_neat_definitional,
    jacobson_radical,
    karpilovsky_radical,
    make_group,
    make_zmod,
    maximal_ideals,
    minimal_ideals,
    nilradical,
    parse_ring_expr,
    weakly_nil_clean_group_ring_predicate,
    weakly_nil_neat_group_ring_predicate,
)
from ringlab import classify, expr, group_algebra, ideals, rings, sweep
from ringlab.sweep import SweepConfig, group_catalog, ring_catalog, run_sweep


def _count_splits(monkeypatch) -> list[str]:
    """Record the ring label of every primitive-idempotent split."""
    calls = []
    split = ideals._primitive_idempotents

    def counted(ring, *rest):
        calls.append(ring.label)
        return split(ring, *rest)

    monkeypatch.setattr(ideals, "_primitive_idempotents", counted)
    return calls


def test_maximal_ideals_are_derived_once_per_ring(monkeypatch):
    base = direct_product(make_zmod(4), make_zmod(3))
    calls = _count_splits(monkeypatch)
    classify_ring(base)
    for factors in ([], [2], [3]):
        weakly_nil_neat_group_ring_predicate(base, make_group(factors))
        weakly_nil_clean_group_ring_predicate(base, make_group(factors))
    assert calls == ["Z4 x Z3"]
    assert len(maximal_ideals(base)) == 2


def test_sweep_derives_maximal_ideals_once_per_base_ring(monkeypatch):
    config = SweepConfig(max_ring_order=4, max_product_order=4, max_group_order=2, max_groupring_order=64)
    calls = _count_splits(monkeypatch)
    report = run_sweep(config)
    assert report.all_agree and len(report.records) > len(ring_catalog(config))
    assert sorted(calls) == sorted(evaluate(e).label for e in ring_catalog(config))


def test_sweep_builds_each_factor_ring_once_per_run_of_products(monkeypatch):
    # Z2..Z9, then the products Z2 x Z2..Z6 and Z3 x Z3, Z3 x Z4: each
    # product takes its factors from the three-ring memo that holds it,
    # so the run of products sharing Z2 evaluates it once (22 calls if
    # every product evaluated both of its factors)
    calls = _record_calls(monkeypatch, expr, "make_zmod")
    report = run_sweep(SweepConfig(), cache=None)
    assert report.all_agree and len(report.records) == 53
    assert calls == [2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 4, 5, 6, 3, 4]
    assert sweep._base_ring.cache_info().maxsize == 3


def test_pair_worker_takes_its_group_from_the_run(monkeypatch):
    config = SweepConfig(max_ring_order=4, max_product_order=6, max_group_order=3, max_groupring_order=64)
    groups = group_catalog(config.max_group_order)
    monkeypatch.setattr(sweep, "group_catalog", lambda max_order: groups)
    calls = [_record_calls(monkeypatch, module, "make_group") for module in (sweep, group_algebra, expr)]
    report = run_sweep(config)
    assert report.all_agree and len({r["group"] for r in report.records}) > 1
    assert calls == [[], [], []]


def _run_memos():
    return (sweep._base_ring, sweep._group)


def test_run_scoped_memos_are_empty_when_the_sweep_returns(monkeypatch):
    config = SweepConfig(max_ring_order=4, max_product_order=6, max_group_order=2, max_groupring_order=64)
    assert run_sweep(config).all_agree
    assert [memo.cache_info().currsize for memo in _run_memos()] == [0, 0]

    def failing(ring, group):
        assert [memo.cache_info().currsize for memo in _run_memos()] == [3, 1]
        raise DisagreementError("injected")

    # with the catalog cut to Z2 x Z3, its first pair fails while the
    # base ring, both its factors and the group are held
    monkeypatch.setattr(classify, "weakly_nil_neat_group_ring_predicate", failing)
    monkeypatch.setattr(sweep, "ring_catalog", lambda config: ring_catalog(config)[-1:])
    with pytest.raises(DisagreementError, match="injected"):
        run_sweep(config)
    assert [memo.cache_info().currsize for memo in _run_memos()] == [0, 0]


def _count_misses(monkeypatch, module, name) -> list[str]:
    """Make the memoized ``module.name`` record the ring label of every
    call that misses its memo."""
    misses = []
    memoized = getattr(module, name)

    def recorded(ring, *rest):
        if memoized.__wrapped__ not in ring._facts:
            misses.append(ring.label)
        return memoized(ring, *rest)

    monkeypatch.setattr(module, name, recorded)
    return misses


def test_sweep_takes_element_classes_of_base_rings_only(monkeypatch):
    # the definitional scans of RG read no element classes; the base
    # rings' classes feed the predicates and the group-ring build
    config = SweepConfig(max_ring_order=4, max_product_order=4, max_group_order=2, max_groupring_order=64)
    misses = _count_misses(monkeypatch, rings, "element_classes")
    for module in (classify, ideals, group_algebra):
        monkeypatch.setattr(module, "element_classes", rings.element_classes)
    report = run_sweep(config)
    assert report.all_agree and len(report.records) > len(ring_catalog(config))
    assert sorted(misses) == sorted(evaluate(e).label for e in ring_catalog(config))


def test_residue_orders_are_derived_once_on_a_semiprimitive_ring(monkeypatch):
    # J(Z6) = 0, so the weakly nil-neat criterion reads the residue orders
    # as well as the weakly nil-clean one; both read them from the one
    # memo of the four structural verdicts
    base = make_zmod(6)
    misses = _count_misses(monkeypatch, classify, "_criteria")
    assert weakly_nil_neat_group_ring_predicate(base, make_group([])).condition == 1
    assert weakly_nil_clean_group_ring_predicate(base, make_group([])).condition == 3
    classify_ring(base)
    assert misses == ["Z6"]


def test_weakly_nil_clean_criterion_is_derived_once_per_ring(monkeypatch):
    # classify_ring and both group-ring predicates read all four
    # structural verdicts from one memo, for every group; J(Z4 x Z3) is
    # nonzero
    base = direct_product(make_zmod(4), make_zmod(3))
    misses = _count_misses(monkeypatch, classify, "_criteria")
    classify_ring(base)
    for factors in ([], [2], [3]):
        weakly_nil_neat_group_ring_predicate(base, make_group(factors))
        weakly_nil_clean_group_ring_predicate(base, make_group(factors))
    assert misses == ["Z4 x Z3"]


def _record_calls(monkeypatch, module, name) -> list:
    """Make ``module.name`` record the first argument of every call."""
    calls = []
    original = getattr(module, name)

    def recorded(first, *rest, **options):
        calls.append(first)
        return original(first, *rest, **options)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("decide", [classify_ring, classify._definitional_verdicts, is_weakly_nil_neat_definitional])
@pytest.mark.parametrize("label", ["Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "Z9 x Z3"])
def test_neat_verdicts_build_no_ring(monkeypatch, label, decide):
    # each R/M is scanned on R's cosets of M, and the criteria read the
    # shapes of R/N and R/J off counts, so no table ring is built
    ring = evaluate(parse_ring_expr(label))
    calls = _record_calls(monkeypatch, rings.RingTable, "__init__")
    decide(ring)
    assert calls == []


def test_neat_verdicts_scan_minimal_ideals_up_to_the_first_failure(monkeypatch):
    # one scan of R itself, as R/0, then the minimal ideals.  Z2^6: six
    # minimal ideals, all with nil-clean quotients; Z9 x Z3: the first
    # quotient, by 0 x Z3, is weakly nil-clean and the second, by
    # 3Z9 x 0, is not
    calls = _record_calls(monkeypatch, classify, "_clean_mod")
    for label, expected in (("Z2 x Z2 x Z2 x Z2 x Z2 x Z2", 7), ("Z9 x Z3", 3)):
        ring = evaluate(parse_ring_expr(label))
        calls.clear()
        classify_ring(ring)
        assert len(calls) == expected, label


def test_radicals_are_memoized_as_ideals():
    ring = make_zmod(12)
    assert jacobson_radical(ring) is jacobson_radical(ring)
    assert nilradical(ring) is nilradical(ring)
    assert maximal_ideals(ring) is maximal_ideals(ring)


def test_memo_holds_no_reference_to_the_ring():
    base = make_zmod(9)
    view = group_ring(base, make_group([3]))
    ring = view.ring
    before = sys.getrefcount(ring), sys.getrefcount(base)
    derived = (classify_ring, maximal_ideals, minimal_ideals, nilradical, jacobson_radical,
               enumerate_ideals, classify._definitional_verdicts, is_weakly_nil_neat_definitional)
    for fact in derived:
        fact(ring)
        fact(base)
    karpilovsky_radical(view)
    assert (sys.getrefcount(ring), sys.getrefcount(base)) == before


def _arrays(value):
    """Every numpy array inside a memo value: in tuples (a verdict's
    witness included), dataclass fields and ideal members."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, IdealSet):
        yield value.members
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


def test_memoized_arrays_are_read_only():
    memoized = {
        fn.__wrapped__
        for module in (rings, ideals, classify)
        for fn in vars(module).values()
        if callable(fn) and hasattr(fn, "__wrapped__")
    }
    for ring in (make_zmod(12), group_ring(make_zmod(9), make_group([3])).ring):
        classify_ring(ring)
        enumerate_ideals(ring)
        assert set(ring._facts) == memoized, ring.label
        arrays = [a for value in ring._facts.values() for a in _arrays(value)]
        assert arrays and not any(a.flags.writeable for a in arrays), ring.label
    with pytest.raises(ValueError):
        element_classes(ring).units[0] = True
