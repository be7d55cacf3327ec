"""Acceptance suite.

Each test prints one PASS/FAIL line. The criteria are exact (set
equality / boolean agreement); there are no numeric tolerances
anywhere.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import ringlab.classify
import util
from ringlab import (
    RingTable,
    direct_product,
    element_classes,
    group_ring,
    is_nil_clean_criterion,
    is_nil_neat_criterion,
    is_weakly_nil_clean_definitional,
    is_weakly_nil_neat_definitional,
    jacobson_radical,
    karpilovsky_radical,
    make_group,
    make_zmod,
    nilradical,
    weakly_nil_clean_criterion,
    weakly_nil_neat_criterion,
    weakly_nil_neat_group_ring_predicate,
)
from ringlab.classify import _definitional_verdicts
from ringlab.expr import evaluate, parse_ring_expr
from ringlab.sweep import SweepConfig, _expr_order, group_catalog, ring_catalog, run_sweep

KARPILOVSKY_CAP = 6561


def _report(number: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def sweep_report():
    # defaults: Z_2..Z_9, products ab <= 12, groups of order <= 4, |RG| <= 1024
    return run_sweep(SweepConfig())


def test_acceptance_1_main_theorem_sweep(sweep_report):
    records = sweep_report.records
    ok = len(records) > 0 and all(r["agreement"] for r in records)
    matched_4 = [
        r for r in records if r["ring"] == "Z3" and r["group"] == "C2"
    ]
    ok = ok and matched_4 and matched_4[0]["theorem_condition"] == 4
    assert _report(1, "main theorem sweep", bool(ok))


def test_acceptance_2_weakly_nil_clean_sweep(sweep_report):
    records = sweep_report.records
    ok = len(records) > 0 and all(r["lemma_agreement"] for r in records)
    assert _report(2, "weakly nil-clean group-ring sweep", bool(ok))


def test_acceptance_3_radical_formula_up_to_6561():
    pairs = 0
    ok = True
    for expr in ring_catalog(SweepConfig()):
        ring = None
        for group in group_catalog(4):
            if _expr_order(expr) ** group.order > KARPILOVSKY_CAP:
                continue
            if ring is None:
                ring = evaluate(expr)
            view = group_ring(ring, group, cap=KARPILOVSKY_CAP)
            formula = karpilovsky_radical(view)
            brute = jacobson_radical(view.ring)
            if formula != brute:
                ok = False
            pairs += 1
    ok = ok and pairs >= 60  # includes Z9[C4] at order 6561 and Z3[C2xC2] at 81
    assert _report(3, f"radical formula on {pairs} group rings", bool(ok))


def test_acceptance_4_criterion_vs_oracle_on_plain_rings(plain_ring_catalog):
    ok = True
    for ring in plain_ring_catalog:
        wnc_def = is_weakly_nil_clean_definitional(ring).ok
        wnn_def = is_weakly_nil_neat_definitional(ring).ok
        wnc_crit = weakly_nil_clean_criterion(ring)
        wnn_crit = weakly_nil_neat_criterion(ring)
        if wnc_crit != wnc_def or wnn_crit != wnn_def:
            ok = False
        if wnc_crit and nilradical(ring) != jacobson_radical(ring):
            ok = False
    assert _report(4, f"criterion vs oracle on {len(plain_ring_catalog)} rings", bool(ok))


def test_acceptance_5_golden_facts():
    z2, z3, z6 = make_zmod(2), make_zmod(3), make_zmod(6)
    z3z3 = direct_product(z3, z3)
    trivial_checks = [
        is_weakly_nil_clean_definitional(z3).ok,
        not _definitional_verdicts(z3)[0].ok,
        not is_weakly_nil_clean_definitional(z3z3).ok,
        is_weakly_nil_neat_definitional(z3z3).ok,
        util.ring_isomorphic(group_ring(z3, make_group([2])).ring, z3z3) is not None,
        weakly_nil_neat_group_ring_predicate(z3, make_group([2])) == (True, 4),
        weakly_nil_neat_group_ring_predicate(z2, make_group([2])) == (True, 2),
        weakly_nil_neat_group_ring_predicate(z2, make_group([3])) == (False, None),
        not is_weakly_nil_neat_definitional(group_ring(z2, make_group([3])).ring).ok,
        weakly_nil_neat_group_ring_predicate(z6, make_group([2])) == (False, None),
        not is_weakly_nil_neat_definitional(group_ring(z6, make_group([2])).ring).ok,
    ]
    ok = all(trivial_checks)
    assert _report(5, "golden facts", bool(ok))


def test_acceptance_6_hierarchy_and_disjointness(sweep_report, plain_ring_catalog):
    ok = True
    for ring in plain_ring_catalog:
        nc = _definitional_verdicts(ring)[0].ok
        wnc = is_weakly_nil_clean_definitional(ring).ok
        nn = _definitional_verdicts(ring)[2].ok
        wnn = is_weakly_nil_neat_definitional(ring).ok
        if nc and not (wnc and nn):
            ok = False
        if (wnc or nn) and not wnn:
            ok = False
    # disjointness: the predicates raise on a double match; re-run them
    for record in sweep_report.records:
        if record["theorem_predicate"]:
            if record["theorem_condition"] is None:
                ok = False
        elif record["theorem_condition"] is not None:
            ok = False
    assert _report(6, "hierarchy and condition disjointness", bool(ok))


def test_acceptance_7_negative_paths(capsys, monkeypatch, tmp_path):
    z4 = make_zmod(4)
    mul = np.array(z4.mul)
    mul[2, 2] = 1
    broken = RingTable(z4.add, mul, zero=0, one=1, label="Z4broken")
    violations = util.axiom_violations(broken)
    corrupted_ok = bool(violations) and any(len(witness) == 3 for _, witness in violations)

    from ringlab.classify import PredicateResult, weakly_nil_neat_group_ring_predicate
    from ringlab.cli import EXIT_DISAGREEMENT, main

    def inverted(ring, group, **kwargs):
        honest = weakly_nil_neat_group_ring_predicate(ring, group, **kwargs)
        return PredicateResult(not honest.holds, honest.condition)

    monkeypatch.setattr(ringlab.classify, "weakly_nil_neat_group_ring_predicate", inverted)
    code = main(
        [
            "verify-theorem",
            "--max-ring-order", "3",
            "--max-product-order", "4",
            "--max-group-order", "2",
            "--max-groupring-order", "16",
            "--no-cache",
        ]
    )
    capsys.readouterr()  # swallow the sweep JSONL
    fault_ok = code == EXIT_DISAGREEMENT
    ok = corrupted_ok and fault_ok
    assert _report(7, "negative-path robustness", bool(ok))


def _pair_facts(ring, group) -> SimpleNamespace:
    """What the theorem's conditions read of (R, G), from the public
    criteria alone; never from the group-ring predicate under test."""
    order = group.order
    least_prime = min((p for p in range(2, order + 1) if order % p == 0), default=None)
    nontrivial = not group.is_trivial()
    return SimpleNamespace(
        trivial=not nontrivial,
        two_group=nontrivial and group.is_p_group(2),
        three_group=nontrivial and group.is_p_group(3),
        p_group=nontrivial and group.is_p_group(least_prime),
        group_order=order,
        ring_order=ring.order,
        nc=is_nil_clean_criterion(ring),
        wnc=weakly_nil_clean_criterion(ring),
        nn=is_nil_neat_criterion(ring),
        wnn=weakly_nil_neat_criterion(ring),
        three_nil=bool(element_classes(ring).nilpotents[ring.int_mul(3, ring.one)]),
    )


# The theorem: RG is weakly nil-neat iff one of these holds.
THEOREM = {
    1: lambda f: f.trivial and f.wnn,
    2: lambda f: f.two_group and f.nc,
    3: lambda f: f.three_group and f.wnc and f.three_nil,
    4: lambda f: f.group_order == 2 and f.ring_order == 3,
}

# Each mutant drops (None) or weakens one condition, and names a pair
# of the default sweep on which it must be refuted.
MUTANTS = [
    ("drop (1)", {1: None}, ("Z2", "1")),
    ("drop (2)", {2: None}, ("Z2", "C2")),
    ("drop (3)", {3: None}, ("Z3", "C3")),
    ("drop (4)", {4: None}, ("Z3", "C2")),
    ("(1) with R weakly nil-clean", {1: lambda f: f.trivial and f.wnc}, ("Z5", "1")),
    ("(1) with R nil-neat", {1: lambda f: f.trivial and f.nn}, ("Z6", "1")),
    ("(2) with R weakly nil-clean", {2: lambda f: f.two_group and f.wnc}, ("Z3", "C4")),
    ("(2) with any p-group", {2: lambda f: f.p_group and f.nc}, ("Z2", "C3")),
    ("(3) with R weakly nil-neat", {3: lambda f: f.three_group and f.wnn and f.three_nil}, ("Z3 x Z3", "C3")),
    ("(3) without 3 nilpotent", {3: lambda f: f.three_group and f.wnc}, ("Z2", "C3")),
    ("(3) with any p-group", {3: lambda f: f.p_group and f.wnc and f.three_nil}, ("Z3", "C4")),
    ("(4) as |G| = 2 with R weakly nil-clean, 3 nilpotent",
     {4: lambda f: f.group_order == 2 and f.wnc and f.three_nil}, ("Z9", "C2")),
]


def _holds(conditions, facts) -> bool:
    return any(condition(facts) for condition in conditions.values() if condition is not None)


def test_acceptance_8_every_hypothesis_is_needed(sweep_report):
    groups = {g.label: g for g in group_catalog(4)}
    rings = {}
    facts, truth = {}, {}
    for record in sweep_report.records:
        pair = record["ring"], record["group"]
        if pair[0] not in rings:
            rings[pair[0]] = evaluate(parse_ring_expr(pair[0]))
        facts[pair] = _pair_facts(rings[pair[0]], groups[pair[1]])
        truth[pair] = record["wnn_definitional"]
    ok = len(truth) == 53 and all(_holds(THEOREM, facts[p]) == truth[p] for p in truth)
    print(f"  unmutated theorem agrees on {len(truth)} pairs: {ok}")
    for name, changes, named in MUTANTS:
        conditions = {**THEOREM, **changes}
        refuting = [p for p in truth if _holds(conditions, facts[p]) != truth[p]]
        print(f"  mutant {name}: refuted on {len(refuting)} pairs, "
              f"{', '.join(f'({r}, {g})' for r, g in refuting)}")
        ok = ok and named in refuting
    assert _report(8, f"{len(MUTANTS)} mutants of the theorem refuted", bool(ok))
