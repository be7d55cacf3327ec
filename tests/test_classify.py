"""Classifiers: definitional scans, structural criteria, group-ring predicates."""

import pytest
from hypothesis import given, settings, strategies as st

import ringlab.classify
import util
from ringlab import (
    DisagreementError,
    Verdict,
    classify_ring,
    direct_product,
    enumerate_ideals,
    evaluate,
    group_ring,
    ideal_generated,
    is_nil_clean_criterion,
    is_nil_neat_criterion,
    is_weakly_nil_clean_definitional,
    is_weakly_nil_neat_definitional,
    make_group,
    make_zmod,
    maximal_ideals,
    nil_clean_group_ring_predicate,
    nil_neat_group_ring_predicate,
    nilradical,
    jacobson_radical,
    parse_ring_expr,
    quotient_ring,
    weakly_nil_clean_criterion,
    weakly_nil_clean_group_ring_predicate,
    weakly_nil_neat_criterion,
    weakly_nil_neat_group_ring_predicate,
)
from ringlab.classify import _definitional_verdicts
from ringlab.sweep import SweepConfig, group_catalog, ring_catalog


def _z(n):
    return make_zmod(n)


def _prod(a, b):
    return direct_product(_z(a), _z(b))


def small_catalog():
    rings = [_z(n) for n in range(2, 13)]
    rings += [_prod(a, b) for a, b in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (2, 6), (3, 6), (6, 6))]
    z12 = _z(12)
    rings.append(quotient_ring(z12, ideal_generated(z12, {6})))
    rings.append(quotient_ring(z12, ideal_generated(z12, {4})))
    rings.append(group_ring(_z(2), make_group([3])).ring)  # Z2 x F4
    return rings


def test_nil_clean_definitional_examples():
    assert _definitional_verdicts(_z(4))[0] == (True, None)
    assert _definitional_verdicts(_z(3))[0] == (False, 2)
    assert _definitional_verdicts(_z(2))[0] == (True, None)


def test_weakly_nil_clean_definitional_examples():
    assert is_weakly_nil_clean_definitional(_z(3)) == (True, None)
    verdict = is_weakly_nil_clean_definitional(_prod(3, 3))
    # least undecomposable element is (1,2), i.e. row-major index 5
    assert verdict == (False, 5)
    assert is_weakly_nil_clean_definitional(_z(6)) == (True, None)


def test_zn_definitional_against_integer_oracle():
    for n in range(2, 33):
        assert _definitional_verdicts(_z(n))[0].ok == util.zn_is_nil_clean(n)
        assert is_weakly_nil_clean_definitional(_z(n)).ok == util.zn_is_weakly_nil_clean(n)


def test_clean_deciders_match_element_scan_oracle(plain_ring_catalog, sweep_group_rings):
    rings = list(plain_ring_catalog) + [view.ring for view in sweep_group_rings]
    rings += [evaluate(parse_ring_expr(label))
              for label in ("GR(Z2, C3)/(7)", "GR(Z3, C3)/(13)", "GR(Z9, C3)/(33,97)")]
    for ring in rings:
        got = (_definitional_verdicts(ring)[0], is_weakly_nil_clean_definitional(ring))
        assert got == util.clean_verdicts_by_element_scan(ring), ring.label


def test_nil_neat_definitional_examples():
    assert _definitional_verdicts(_z(3))[2].ok  # fields have no proper nonzero quotient
    verdict = _definitional_verdicts(_prod(3, 3))[2]
    assert not verdict.ok
    assert verdict.witness.key == (0, 1, 2)  # first copy of Z3 as an ideal
    assert _definitional_verdicts(_z(4))[2].ok


def test_weakly_nil_neat_definitional_examples():
    assert is_weakly_nil_neat_definitional(_prod(3, 3)).ok
    ring = group_ring(_z(2), make_group([3])).ring
    verdict = is_weakly_nil_neat_definitional(ring)
    assert not verdict.ok
    quot = quotient_ring(ring, verdict.witness)
    assert quot.order == 4  # the F4 image fails the elementwise scan
    assert not is_weakly_nil_clean_definitional(quot).ok


def test_weakly_nil_clean_rings_are_weakly_nil_neat():
    for ring in small_catalog():
        if is_weakly_nil_clean_definitional(ring).ok:
            assert is_weakly_nil_neat_definitional(ring).ok


def _split_search_shape(ring):
    """(boolean, boolean or Z3 or boolean x Z3) by the Peirce split search."""
    boolean, z3, split = util.peirce_shape(ring)
    return boolean, boolean or z3 or split is not None


def test_shape_counts_match_split_search_on_every_quotient(plain_ring_catalog):
    for ring in small_catalog() + list(plain_ring_catalog):
        sq_minus = ring.add[ring.mul.diagonal(), ring.neg]
        for ideal in enumerate_ideals(ring, cap=ring.order):
            if not ideal.is_whole:
                got = ringlab.classify._shape_mod(sq_minus, ideal)
                assert got == _split_search_shape(quotient_ring(ring, ideal)), (ring.label, ideal)


def test_shape_counts_on_examples():
    # R/0 is R; Z6 splits along the idempotent 3 (3Z6 = Z2, 4Z6 = Z3), and
    # Z2^10 x Z3 along 3069, the element (1, ..., 1, 0)
    examples = {
        "Z2 x Z2": (True, False, None),
        "Z6": (False, False, 3),
        "Z9": (False, False, None),
        "Z3": (False, True, None),
        "Z2": (True, False, None),
        " x ".join(["Z2"] * 10 + ["Z3"]): (False, False, 3069),
    }
    for label, shape in examples.items():
        ring = evaluate(parse_ring_expr(label))
        assert util.peirce_shape(ring) == shape, label
        sq_minus = ring.add[ring.mul.diagonal(), ring.neg]
        got = ringlab.classify._shape_mod(sq_minus, ideal_generated(ring, ()))
        assert got == _split_search_shape(ring), label


def test_weakly_nil_clean_criterion_examples():
    assert weakly_nil_clean_criterion(_z(6)) is True
    assert not weakly_nil_clean_criterion(_prod(3, 3))
    assert weakly_nil_clean_criterion(_z(4))


def test_weakly_nil_neat_criterion_examples():
    assert weakly_nil_neat_criterion(_prod(3, 3))
    z27 = direct_product(_prod(3, 3), _z(3))
    assert not weakly_nil_neat_criterion(z27)
    assert not is_weakly_nil_neat_definitional(z27).ok
    # two Z3 residue fields pass only with nothing else in the product
    z3z6 = _prod(3, 6)
    assert not weakly_nil_neat_criterion(z3z6)
    assert not is_weakly_nil_neat_definitional(z3z6).ok
    # the order-4 residue field of Z2[C3] is a field, hence weakly nil-neat
    view = group_ring(_z(2), make_group([3]))
    f4 = next(
        quotient_ring(view.ring, m)
        for m in maximal_ideals(view.ring)
        if view.ring.order // len(m) == 4
    )
    assert weakly_nil_neat_criterion(f4)
    assert util.units_by_scan(f4).sum() == f4.order - 1  # a field


def test_criteria_match_definitional_on_catalog():
    for ring in small_catalog():
        assert weakly_nil_clean_criterion(ring) == is_weakly_nil_clean_definitional(ring).ok
        assert weakly_nil_neat_criterion(ring) == is_weakly_nil_neat_definitional(ring).ok
        assert is_nil_clean_criterion(ring) == _definitional_verdicts(ring)[0].ok
        assert is_nil_neat_criterion(ring) == _definitional_verdicts(ring)[2].ok


def test_radicals_agree_on_weakly_nil_clean_rings():
    for ring in small_catalog():
        if weakly_nil_clean_criterion(ring):
            assert nilradical(ring) == jacobson_radical(ring)


def test_nil_clean_group_ring_predicate():
    assert nil_clean_group_ring_predicate(_z(2), make_group([2]))
    assert not nil_clean_group_ring_predicate(_z(3), make_group([2]))
    assert not nil_clean_group_ring_predicate(_z(2), make_group([3]))


def test_weakly_nil_clean_group_ring_predicate():
    assert weakly_nil_clean_group_ring_predicate(_z(3), make_group([3])) == (True, 2)
    assert weakly_nil_clean_group_ring_predicate(_z(6), make_group([])) == (True, 3)
    result = weakly_nil_clean_group_ring_predicate(_z(6), make_group([2]))
    assert result == (False, None)
    rg = group_ring(_z(6), make_group([2])).ring
    assert not is_weakly_nil_clean_definitional(rg).ok


def test_nil_neat_group_ring_predicate():
    assert nil_neat_group_ring_predicate(_z(3), make_group([]))
    assert nil_neat_group_ring_predicate(_z(2), make_group([4]))
    assert not nil_neat_group_ring_predicate(_z(3), make_group([2]))


def test_nil_neat_predicate_does_not_call_its_oracle(monkeypatch):
    def refused(ring):
        raise AssertionError("the predicate must not call the definitional decider")

    monkeypatch.setattr(ringlab.classify, "_definitional_verdicts", refused)
    trivial = make_group([])
    assert nil_neat_group_ring_predicate(_z(3), trivial)
    assert nil_neat_group_ring_predicate(_z(4), trivial)
    assert not nil_neat_group_ring_predicate(_prod(3, 3), trivial)


def _refuse(monkeypatch, names):
    """Replace every binding of ``names`` in the classify and ideals
    modules by a stub that raises."""
    def refused(*args):
        raise AssertionError("one derivation called the other's code")

    for module in (ringlab.classify, ringlab.ideals):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)


def test_criteria_and_definitional_verdicts_share_no_code(monkeypatch):
    # each side decides the catalog with the other side's helpers
    # refused, on rings built fresh, so that no memo hides a read
    want = [tuple(v.ok for v in classify_ring(ring).values()) for ring in small_catalog()]
    structural, definitional = small_catalog(), small_catalog()
    with monkeypatch.context() as patched:
        _refuse(patched, ("_definitional_verdicts", "minimal_ideals", "_high_power", "_coset_map", "_clean_mod"))
        assert [ringlab.classify._criteria(ring) for ring in structural] == want
    _refuse(monkeypatch, ("maximal_ideals", "nilradical", "jacobson_radical", "element_classes", "_shape_mod", "_criteria"))
    assert [tuple(v.ok for v in _definitional_verdicts(ring)) for ring in definitional] == want


def test_nil_group_ring_predicates_match_definitional_on_sweep(sweep_group_rings):
    nil_clean = nil_neat = 0
    for view in sweep_group_rings:
        nc = _definitional_verdicts(view.ring)[0].ok
        nn = _definitional_verdicts(view.ring)[2].ok
        assert nil_clean_group_ring_predicate(view.base, view.group) == nc, view.ring.label
        assert nil_neat_group_ring_predicate(view.base, view.group) == nn, view.ring.label
        nil_clean += nc
        nil_neat += nn
    assert (nil_clean, nil_neat) == (16, 19)


def test_weakly_nil_neat_group_ring_predicate():
    assert weakly_nil_neat_group_ring_predicate(_z(3), make_group([2])) == (True, 4)
    assert weakly_nil_neat_group_ring_predicate(_z(9), make_group([3])) == (True, 3)
    assert weakly_nil_neat_group_ring_predicate(_z(2), make_group([3])) == (False, None)


def test_predicate_cross_checked_on_z9_c3():
    rg = group_ring(_z(9), make_group([3]), cap=1024).ring
    assert is_weakly_nil_neat_definitional(rg).ok


def test_ring_isomorphic_examples():
    rg, z3z3 = group_ring(_z(3), make_group([2])).ring, _prod(3, 3)
    iso = util.ring_isomorphic(rg, z3z3)
    assert iso is not None and len(set(util.ring_hom(rg, z3z3, iso))) == z3z3.order
    assert util.ring_isomorphic(_z(4), _prod(2, 2)) is None  # characteristic 4 vs 2
    z6, z2z3 = _z(6), _prod(2, 3)
    iso6 = util.ring_isomorphic(z6, z2z3)
    assert iso6 is not None and len(set(util.ring_hom(z6, z2z3, iso6))) == z2z3.order
    # F2[x]/(x^3) vs F2[x,y]/(x,y)^2: equal element profiles, so only the search refutes it
    cubic, square = (evaluate(parse_ring_expr(f"GR(Z2, {g})/(15)")) for g in ("C4", "C2 x C2"))
    assert sorted(util.element_profiles(cubic)) == sorted(util.element_profiles(square))
    assert util.ring_isomorphic(cubic, square) is None


def _quotient_verdict_by_lattice(ring, decide):
    """Reference: scan the quotient by every nonzero proper ideal of
    the full lattice, in lattice order."""
    for ideal in enumerate_ideals(ring, cap=ring.order):
        if ideal.is_zero or ideal.is_whole:
            continue
        if not decide(quotient_ring(ring, ideal)).ok:
            return False, ideal.key
    return True, None


def test_neat_deciders_match_full_lattice_scan(plain_ring_catalog, sweep_group_rings):
    rings = list(plain_ring_catalog) + [view.ring for view in sweep_group_rings]
    # in Z9 x Z3 the first minimal ideal, 0 x Z3, has a weakly nil-clean
    # quotient and the second, 3Z9 x 0, does not
    for label in ("Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "Z9 x Z3"):
        rings.append(evaluate(parse_ring_expr(label)))
    for ring in rings:
        for neat, clean in ((2, 0), (3, 1)):  # nil-neat by nil-clean, weakly so by weakly so
            verdict = _definitional_verdicts(ring)[neat]
            got = (verdict.ok, None if verdict.witness is None else verdict.witness.key)
            want = _quotient_verdict_by_lattice(ring, lambda q: _definitional_verdicts(q)[clean])
            assert got == want, (ring.label, neat)


def test_neat_deciders_match_quotient_scan():
    # the 85 pairs of the sweep up to |G| = 12 and |RG| = 4096
    config = SweepConfig(max_group_order=12, max_groupring_order=4096)
    pairs = [(evaluate(expr), group) for expr in ring_catalog(config)
             for group in group_catalog(config.max_group_order)]
    pairs = [(base, group) for base, group in pairs if base.order**group.order <= config.max_groupring_order]
    assert len(pairs) == 85
    for base, group in pairs:
        ring = group_ring(base, group).ring
        want = util.neat_verdicts_by_quotients(ring)
        assert (_definitional_verdicts(ring)[2], is_weakly_nil_neat_definitional(ring)) == want, ring.label


def test_hierarchy_on_catalog():
    for ring in small_catalog():
        nc = _definitional_verdicts(ring)[0].ok
        wnc = is_weakly_nil_clean_definitional(ring).ok
        nn = _definitional_verdicts(ring)[2].ok
        wnn = is_weakly_nil_neat_definitional(ring).ok
        if nc:
            assert wnc and nn
        if wnc or nn:
            assert wnn


def test_theorem_conditions_are_disjoint():
    groups = [make_group(f) for f in ((), (2,), (3,), (4,), (2, 2))]
    for ring in small_catalog():
        for group in groups:
            weakly_nil_neat_group_ring_predicate(ring, group)  # raises on double match
            weakly_nil_clean_group_ring_predicate(ring, group)


class _EveryPrimeGroup:
    """A non-trivial group of order 2 that claims to be a p-group for every p."""

    order = 2
    label = "C2*"

    def is_trivial(self):
        return False

    def is_p_group(self, p):
        return True


def test_double_match_raises_disagreement():
    # Z3 weakly nil-clean with 3 = 0 nilpotent: conditions 3 and 4 both hold
    with pytest.raises(DisagreementError, match=r"conditions \[3, 4\]"):
        weakly_nil_neat_group_ring_predicate(_z(3), _EveryPrimeGroup())


def test_classify_ring_report():
    verdicts = classify_ring(_prod(3, 3))
    assert list(verdicts) == ["nil_clean", "weakly_nil_clean", "nil_neat", "weakly_nil_neat"]
    assert not verdicts["weakly_nil_clean"].ok
    assert verdicts["weakly_nil_neat"].ok is True
    assert verdicts["weakly_nil_clean"].witness == 5
    assert verdicts["nil_neat"].witness.key == (0, 1, 2)
    assert ringlab.classify.encode_witness(verdicts["nil_neat"].witness) == [0, 1, 2]


# Each fault below is injected into a ring built fresh in the test, so
# no verdict memoized on an earlier ring can hide it.

@pytest.mark.parametrize("criterion", [
    is_nil_clean_criterion, weakly_nil_clean_criterion, is_nil_neat_criterion, weakly_nil_neat_criterion,
], ids=lambda criterion: criterion.__name__)
def test_weakly_nil_clean_subchecks_that_disagree_raise(monkeypatch, criterion):
    # Z4 reports its zero ideal as its one maximal ideal, so its residue
    # orders read (4,), a field, while N and J still give R/N = R/J = Z2
    monkeypatch.setattr(ringlab.classify, "maximal_ideals", lambda ring: (ideal_generated(ring, ()),))
    with pytest.raises(DisagreementError,
                       match=r"sub-checks disagree on Z4: residues=False mod-N=True mod-J=True"):
        criterion(make_zmod(4))


def test_classify_ring_raises_when_criterion_and_scan_disagree(monkeypatch):
    honest = ringlab.classify.is_nil_neat_criterion
    monkeypatch.setattr(ringlab.classify, "is_nil_neat_criterion", lambda ring: not honest(ring))
    with pytest.raises(DisagreementError, match=r"^nil_neat: definitional=True criterion=False on Z4$"):
        classify_ring(make_zmod(4))


def test_classify_ring_raises_on_a_hierarchy_violation(monkeypatch):
    # both derivations of both neat properties say no on Z2, so they agree
    verdicts = (Verdict(True), Verdict(True), Verdict(False), Verdict(False))
    monkeypatch.setattr(ringlab.classify, "_definitional_verdicts", lambda ring: verdicts)
    monkeypatch.setattr(ringlab.classify, "is_nil_neat_criterion", lambda ring: False)
    monkeypatch.setattr(ringlab.classify, "weakly_nil_neat_criterion", lambda ring: False)
    with pytest.raises(DisagreementError,
                       match=r"^hierarchy violated on Z2: nil_clean holds but nil_neat does not$"):
        classify_ring(make_zmod(2))


@settings(max_examples=15)
@given(st.integers(min_value=2, max_value=24))
def test_weakly_nil_clean_subchecks_always_agree(n):
    # the three sub-checks raise DisagreementError if they differ
    assert isinstance(weakly_nil_clean_criterion(_z(n)), bool)
