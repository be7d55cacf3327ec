"""Ideal lattice, quotients and radicals."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import util
from ringlab import (
    CapExceeded,
    DisagreementError,
    IdealSet,
    RingTable,
    direct_product,
    element_classes,
    enumerate_ideals,
    group_ring,
    ideal_generated,
    is_field,
    is_weakly_nil_neat_definitional,
    jacobson_radical,
    make_group,
    make_zmod,
    maximal_ideals,
    minimal_ideals,
    nilradical,
    parse_ring_expr,
    quotient_ring,
)
from ringlab import classify, ideals, rings
from ringlab.expr import evaluate
from ringlab.ideals import minimal_generators


def test_ideal_generated_examples():
    z6 = make_zmod(6)
    assert ideal_generated(z6, {2}).key == (0, 2, 4)
    assert ideal_generated(z6, set()).key == (0,)
    assert ideal_generated(z6, {1}).key == tuple(range(6))


def test_ideal_set_rejects_non_ideal():
    z6 = make_zmod(6)
    with pytest.raises(ValueError):
        IdealSet(z6, [0, 1])  # not closed under addition: 1+1=2 missing
    with pytest.raises(ValueError):
        IdealSet(z6, [2, 4])  # zero missing


@pytest.mark.parametrize("members", [[0, 6], [-1, 0], np.array([0, 3, 6])],
                         ids=["list-past-end", "negative", "array-past-end"])
def test_ideal_set_rejects_member_out_of_range(members):
    with pytest.raises(ValueError, match="^ideal member index out of range$"):
        IdealSet(make_zmod(6), members)


@pytest.mark.parametrize("members", [[0.5], np.array([0.5]), np.array([0, 3.0])],
                         ids=["list-half", "array-half", "array-float-three"])
def test_ideal_set_rejects_non_integer_members(members):
    with pytest.raises(ValueError, match="^ideal members must be integer indices, not float64$"):
        IdealSet(make_zmod(6), members)


@pytest.mark.parametrize("members", [[False, True], np.array([False, True])], ids=["list", "array"])
def test_ideal_set_rejects_bool_members(members):
    with pytest.raises(ValueError, match="^ideal members must be integer indices, not bool$"):
        IdealSet(make_zmod(2), members)


@pytest.mark.parametrize("members", [[2**70], [0, 2**70], [0, -2**70], np.array([2**64 - 1], dtype=np.uint64)],
                         ids=["list-wide", "list-wide-last", "list-wide-negative", "uint64-array"])
def test_ideal_set_range_checks_before_narrowing(members):
    with pytest.raises(ValueError, match="^ideal member index out of range$"):
        IdealSet(make_zmod(6), members)


def test_ideal_set_rejects_set_not_closed_under_ambient_multiplication():
    ring = evaluate(parse_ring_expr("GR(Z2, C2)"))
    with pytest.raises(ValueError, match="not closed under ambient multiplication"):
        IdealSet(ring, [0, 1])  # 1 + 1 = 0, but 1 * g = g is missing


def test_ideal_check_of_the_whole_ring_runs_in_row_blocks():
    # GR(Z9, C4) has 2 x 86 MB of tables; checking all 6561 members for
    # closure in one gather would allocate 124 MiB more
    ring = evaluate(parse_ring_expr("GR(Z9, C4)"), order_cap=6561)
    members = np.arange(ring.order)
    tracemalloc.start()
    try:
        assert IdealSet(ring, members).is_whole
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_quotient_tables_are_gathered_in_row_blocks():
    # R/I of order 2187 has 2 x 9.1 MiB of tables; gathering either whole
    # and then mapping it through the projection would allocate more
    ring = evaluate(parse_ring_expr("GR(Z9, C4)"), order_cap=6561)
    ideal = next(m for m in minimal_ideals(ring) if not m.is_whole)
    tracemalloc.start()
    try:
        quot = quotient_ring(ring, ideal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert quot.order == 2187
    assert peak - quot.add.nbytes - quot.mul.nbytes <= 4 << 20, peak


def test_quotient_cosets_are_found_in_row_blocks():
    # R/N of GR(Z64, C2) is Z2; taking every coset's least member in one
    # n x |N| gather would allocate 16 MiB
    ring = evaluate(parse_ring_expr("GR(Z64, C2)"))
    ideal = nilradical(ring)
    assert len(ideal) == 2048
    tracemalloc.start()
    try:
        quot = quotient_ring(ring, ideal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert quot.order == 2
    assert peak - quot.add.nbytes - quot.mul.nbytes <= 2 << 20, peak


@pytest.mark.parametrize("text, cap", [("GR(Z9, C4)", 6561), ("GR(Z4096, 1)", 4096)])
def test_group_ring_builds_one_scale_vector_at_a_time(text, cap):
    # over Z4096, 4083 of the 4096 rows are read through one of 2048
    # unit permutations; a table of all of them would allocate 16 MiB
    expr = parse_ring_expr(text)
    base, group = evaluate(expr.base), make_group(expr.orders)
    tracemalloc.start()
    try:
        ring = group_ring(base, group, cap=cap).ring
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ring.add.nbytes - ring.mul.nbytes <= 8 << 20, peak


def test_ideal_check_of_a_maximal_ideal_reads_its_rows_in_blocks():
    # a maximal ideal of GR(Z9, C4) has 2187 members; reading all of
    # their rows of mul at once would allocate 28 MiB
    ring = evaluate(parse_ring_expr("GR(Z9, C4)"), order_cap=6561)
    ideal = next(m for m in maximal_ideals(ring) if len(m) == 2187)
    tracemalloc.start()
    try:
        IdealSet(ring, ideal.members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_neat_pass_scans_cosets_in_row_blocks():
    # the first nonwhole minimal ideal of GR(Z9, C4) has a quotient of
    # order 2187, whose two tables alone would take 18.2 MiB
    ring = evaluate(parse_ring_expr("GR(Z9, C4)"), order_cap=6561)
    minimal_ideals(ring)  # memoized, so the trace sees the coset scans alone
    tracemalloc.start()
    try:
        is_weakly_nil_neat_definitional(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_enumerate_ideals_examples():
    z4_keys = [i.key for i in enumerate_ideals(make_zmod(4))]
    assert z4_keys == [(0,), (0, 2), (0, 1, 2, 3)]
    z6_keys = [i.key for i in enumerate_ideals(make_zmod(6))]
    assert z6_keys == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]
    for p in (3, 5, 7):
        field = make_zmod(p)
        assert [len(i) for i in enumerate_ideals(field)] == [1, p]


def test_enumerate_ideals_cap():
    with pytest.raises(CapExceeded):
        enumerate_ideals(make_zmod(20), cap=10)


def test_maximal_ideals_examples():
    z6 = make_zmod(6)
    assert [m.key for m in maximal_ideals(z6)] == [(0, 3), (0, 2, 4)]
    z4 = make_zmod(4)
    assert [m.key for m in maximal_ideals(z4)] == [(0, 2)]
    z3 = make_zmod(3)
    assert [m.key for m in maximal_ideals(z3)] == [(0,)]


def _maximal_ideals_by_lattice(ring):
    """Reference: the ideals of the full lattice whose quotient is a field."""
    out = []
    for ideal in enumerate_ideals(ring, cap=ring.order):
        if ideal.is_whole:
            continue
        if ideal.is_zero:
            if is_field(ring):
                out.append(ideal)
        elif is_field(quotient_ring(ring, ideal)):
            out.append(ideal)
    return out


def test_maximal_ideals_match_lattice(plain_ring_catalog, sweep_group_rings):
    rings = list(plain_ring_catalog) + [view.ring for view in sweep_group_rings]
    assert len(rings) > 150
    for ring in rings:
        assert list(maximal_ideals(ring)) == _maximal_ideals_by_lattice(ring), ring.label


@pytest.mark.parametrize("label, count", [
    (" x ".join(["Z2"] * 12), 12),
    ("GR(Z3, C2 x C2 x C2)", 8),
    ("GR(Z9, C4)", 3),
], ids=["Z2^12", "GR(Z3, C2 x C2 x C2)", "GR(Z9, C4)"])
def test_maximal_ideals_above_the_lattice_cap(label, count):
    ring = evaluate(parse_ring_expr(label), order_cap=6561)
    maxima = maximal_ideals(ring)
    assert len(maxima) == count
    assert len({m.key for m in maxima}) == count
    for m in maxima:
        assert is_field(quotient_ring(ring, m)), m
    # J from units and idempotents, N from powers: no scan in common
    assert jacobson_radical(ring) == nilradical(ring)


def test_maximal_ideals_reject_idempotents_that_are_not_orthogonal(monkeypatch):
    z6 = make_zmod(6)
    wrong = replace(element_classes(z6), idempotents=np.isin(np.arange(6), [0, 1, 2]))  # 2 * 5 = 4 in Z6
    monkeypatch.setattr(ideals, "element_classes", lambda ring: wrong)
    with pytest.raises(DisagreementError, match="not orthogonal"):
        maximal_ideals(z6)


def _closure_reference(ring, gens):
    """Reference ideal_generated: close all multiples r*g under addition."""
    s = np.unique(np.append(ring.mul[:, list(gens)], ring.zero)).astype(np.int64)
    while True:
        t = np.unique(ring.add[np.ix_(s, s)]).astype(np.int64)
        if t.size == s.size:
            return s
        s = t


def _lattice_by_pairwise_joins(ring):
    """Reference lattice: close the principal ideals under pairwise joins."""
    known = {}
    for x in range(ring.order):
        members = np.unique(ring.mul[:, x]).astype(np.int64)
        known.setdefault(members.tobytes(), members)
    frontier = list(known.values())
    while frontier:
        fresh = []
        snapshot = list(known.values())
        for a in frontier:
            for b in snapshot:
                joined = np.unique(ring.add[np.ix_(a, b)]).astype(np.int64)
                if joined.tobytes() not in known:
                    known[joined.tobytes()] = joined
                    fresh.append(joined)
        frontier = fresh
    return sorted(known.values(), key=lambda m: (m.size, tuple(m)))


def _minimal_generators_reference(ring, members):
    """Reference minimal_generators: regenerate the span for every new generator."""
    if members.size == 1:
        return [ring.zero]
    gens, span = [], np.array([ring.zero])
    for x in map(int, members):
        if x not in span:
            gens.append(x)
            span = _closure_reference(ring, gens)
            if span.size == members.size:
                break
    return gens


@pytest.fixture(scope="module")
def ideal_test_rings(plain_ring_catalog, sweep_group_rings):
    """The plain catalog, the sweep group rings, three rings whose
    ideals need several principal summands, the field F4 and F4 x Z4,
    where the minimal F4 x 0 and the non-minimal 0 x Z4 have one size."""
    rings = list(plain_ring_catalog) + [view.ring for view in sweep_group_rings]
    for label in ("Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "GR(Z2, C2 x C2 x C2)", "GR(Z4, C2 x C2)",
                  "GR(Z2, C3)/(7)", "(GR(Z2, C3)/(7)) x Z4"):
        rings.append(evaluate(parse_ring_expr(label)))
    return rings


def test_enumerate_ideals_matches_pairwise_joins(ideal_test_rings):
    for ring in ideal_test_rings:
        got = [ideal.members for ideal in enumerate_ideals(ring, cap=ring.order)]
        want = _lattice_by_pairwise_joins(ring)
        assert len(got) == len(want), ring.label
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w), ring.label


def test_minimal_ideals_match_lattice(ideal_test_rings):
    for ring in ideal_test_rings:
        lattice = [i for i in enumerate_ideals(ring, cap=ring.order) if not i.is_zero]
        keys = [i.key for i in lattice]
        want = [i.key for i in lattice if not any(set(j) < set(i.key) for j in keys)]
        got = minimal_ideals(ring)
        assert [m.key for m in got] == want, ring.label
        assert all(m.members.dtype == np.int64 for m in got), ring.label


@pytest.mark.parametrize("text", [
    "GR(Z9, C4)", "GR(Z3, C2 x C2 x C2)",
    "Z4 x Z3 x Z5", "GR(Z2 x Z9, C2)", "GR(Z4, C2) x GR(Z2, C3)",  # field and non-field local factors
    "GR(Z2 x Z5, C3)", "GR(Z7, C4)",  # reduced
    " x ".join(["Z2"] * 9),  # Boolean: all 512 elements idempotent
])
def test_minimal_ideals_match_rank_rule_beyond_the_lattice_cap(text):
    ring = evaluate(parse_ring_expr(text), order_cap=6561)
    assert [m.key for m in minimal_ideals(ring)] == util.minimal_ideals_by_rank(ring)


def test_minimal_generators_match_regeneration(ideal_test_rings):
    for ring in ideal_test_rings:
        for ideal in enumerate_ideals(ring, cap=ring.order):
            want = _minimal_generators_reference(ring, ideal.members)
            assert minimal_generators(ring, ideal) == want, (ring.label, ideal)


@settings(max_examples=200)
@given(st.data())
def test_ideal_generated_matches_additive_closure(ideal_test_rings, data):
    ring = data.draw(st.sampled_from(ideal_test_rings))
    gens = data.draw(st.lists(st.integers(0, ring.order - 1), max_size=4))
    got = ideal_generated(ring, gens).members
    want = _closure_reference(ring, gens)
    assert got.dtype == np.int64 and np.array_equal(got, want), (ring.label, gens)


def _ideal_check_accepts(ring, members) -> bool:
    try:
        ideals._check_ideal(ring, members)
    except ValueError:
        return False
    return True


def _additive_span(ring, gens) -> np.ndarray:
    """Sorted members of the additive subgroup generated by ``gens``."""
    span = {ring.zero}
    for g in gens:
        while True:  # close under + g
            more = span | {int(ring.add[x, g]) for x in span}
            if more == span:
                break
            span = more
    return np.array(sorted(span), dtype=np.int64)


def test_ideal_check_matches_column_reads_on_every_ideal(plain_ring_catalog):
    for ring in plain_ring_catalog:
        for ideal in enumerate_ideals(ring, cap=ring.order):
            assert util.is_ideal_by_columns(ring, ideal.members), (ring.label, ideal)
            assert _ideal_check_accepts(ring, ideal.members), (ring.label, ideal)


@settings(max_examples=300)
@given(st.data())
def test_ideal_check_matches_column_reads_on_random_subsets(plain_ring_catalog, data):
    # an additive span fails, if at all, only the multiplicative check
    ring = data.draw(st.sampled_from(plain_ring_catalog))
    picked = data.draw(st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=4))
    members = _additive_span(ring, picked) if data.draw(st.booleans()) else np.unique(picked)
    assert _ideal_check_accepts(ring, members) == util.is_ideal_by_columns(ring, members), (ring.label, members)


def _with_and_without_a_member(ring, members):
    """``members``, then less its largest member, then with the least
    non-member added (when there is one)."""
    out = [members, members[:-1]]
    outside = np.setdiff1d(np.arange(ring.order), members)
    if outside.size:
        out.append(np.union1d(members, outside[:1]))
    return out


def test_ideal_check_matches_full_scan_on_group_rings(sweep_group_rings):
    checked_rings = [view.ring for view in sweep_group_rings]
    for label in ("GR(Z2, C3)/(7)", "(GR(Z2, C3)/(7)) x Z4", "GR(Z9, C3)/(33,97)", "GR(Z3, C3) x Z4"):
        checked_rings.append(evaluate(parse_ring_expr(label)))
    checked = 0
    for ring in checked_rings:
        for ideal in (nilradical(ring), jacobson_radical(ring), *maximal_ideals(ring), *minimal_ideals(ring)):
            for members in _with_and_without_a_member(ring, ideal.members):
                want = util.is_ideal_by_columns(ring, members)
                assert _ideal_check_accepts(ring, members) == want, (ring.label, ideal, members.size)
                checked += 1
    assert checked > 1000


def test_ideal_check_matches_full_scan_on_the_radicals_of_gr_z9_c4():
    ring = evaluate(parse_ring_expr("GR(Z9, C4)"), order_cap=6561)
    for ideal in (nilradical(ring), jacobson_radical(ring)):
        sets = _with_and_without_a_member(ring, ideal.members)
        verdicts = [_ideal_check_accepts(ring, m) for m in sets]
        assert verdicts == [util.is_ideal_by_columns(ring, m) for m in sets] == [True, False, False], ideal


def test_non_distributive_table_shows_what_each_check_catches():
    # Z8 with 3 * 4 = 4 * 3 = 1: both tables stay commutative, but * no
    # longer distributes, and RingTable checks neither axiom
    z8 = make_zmod(8)
    mul = np.array(z8.mul)
    mul[3, 4] = mul[4, 3] = 1
    ring = RingTable(z8.add, mul, zero=0, one=1, label="Z8broken")
    assert {"distributivity", "associativity of *"} <= {axiom for axiom, _ in util.axiom_violations(ring)}
    # the row scan takes the nilpotent 4 for a unit, a fault element_classes
    # would report; 4^6 = 0, so the power map does not see it
    classes = element_classes(ring)
    assert util.indices(util.units_by_scan(ring)) == {1, 3, 4, 5, 7}
    assert util.indices(classes.units) == {1, 3, 5, 7} and classes.nilpotents[4]
    # (2) = {0, 2, 4, 6} is generated by 2, whose rows are intact, so only
    # the full scan sees 4 * 3 = 1 fall outside it
    even = np.array([0, 2, 4, 6])
    assert ideals._additive_generators(ring, even) == [2]
    assert not util.is_ideal_by_columns(ring, even)
    assert _ideal_check_accepts(ring, even)
    # in (4) = {0, 4} the broken row is the generator's, and both reject it
    assert not util.is_ideal_by_columns(ring, [0, 4])
    with pytest.raises(ValueError, match="not closed under ambient multiplication"):
        IdealSet(ring, [0, 4])


def test_units_and_nilpotents_feed_disjoint_ideals(monkeypatch):
    # J is read off the units and idempotents, N off the nilpotency tower,
    # so a fault in either leaves the other radical as it was
    honest, no_nil, no_units = (group_ring(make_zmod(9), make_group([2])).ring for _ in range(3))
    want_max, want_j, want_n = maximal_ideals(honest), jacobson_radical(honest), nilradical(honest)
    assert len(want_n) == 9 and len(want_max) == 2

    monkeypatch.setattr(rings, "_nilpotent_mask", lambda r: np.arange(r.order) == r.zero)
    assert nilradical(no_nil).is_zero  # the fault reached N
    assert maximal_ideals(no_nil) == want_max and jacobson_radical(no_nil) == want_j
    monkeypatch.undo()

    monkeypatch.setattr(rings, "_unit_power", lambda r: np.where(np.arange(r.order) == r.one, r.one, r.zero))
    assert util.indices(element_classes(no_units).units) == {no_units.one}  # the fault reached the units
    assert maximal_ideals(no_units) != want_max
    assert nilradical(no_units) == want_n


def test_definitional_and_criteria_nilpotency_towers_are_independent(monkeypatch):
    # minimal ideals and the four definitional verdicts read the tower of
    # ideals._high_power, N and the criteria that of rings._nilpotent_mask,
    # so a fault in either tower leaves the other side as it was
    honest, no_nil, all_nil = (group_ring(make_zmod(9), make_group([2])).ring for _ in range(3))
    want_min, want_n = minimal_ideals(honest), nilradical(honest)
    want_verdicts = classify._definitional_verdicts(honest)
    assert len(want_n) == 9 and len(want_min) == 2

    monkeypatch.setattr(rings, "_nilpotent_mask", lambda r: np.arange(r.order) == r.zero)
    assert nilradical(no_nil).is_zero  # the fault reached N
    assert minimal_ideals(no_nil) == want_min
    assert classify._definitional_verdicts(no_nil) == want_verdicts
    monkeypatch.undo()

    def everything_nilpotent(r):
        return np.full(r.order, r.zero)

    monkeypatch.setattr(ideals, "_high_power", everything_nilpotent)
    monkeypatch.setattr(classify, "_high_power", everything_nilpotent)
    assert minimal_ideals(all_nil) == ()  # the fault reached the socle: Ann(R) = 0
    assert classify._definitional_verdicts(all_nil)[0].ok  # and the scans: every x is nilpotent + 0
    assert nilradical(all_nil) == want_n


def _rows_before_the_walk(ring) -> list[int]:
    """The rows of mul that minimal_ideals reads before its walk: one per
    idempotent and one per additive generator of N."""
    idempotents = np.flatnonzero(np.asarray(ring.mul).diagonal() == np.arange(ring.order))
    nilpotents = np.flatnonzero(ideals._high_power(ring) == ring.zero)
    return sorted(idempotents.tolist() + ideals._additive_generators(ring, nilpotents))


@pytest.mark.parametrize("text", ["GR(Z2 x Z3, C2)", "GR(Z9, C2)"])
def test_minimal_and_maximal_ideals_read_idempotents_apart(monkeypatch, text):
    # minimal ideals split the socle by their own atoms (ideals._local_parts),
    # maximal ideals by element_classes and _primitive_idempotents, so a
    # fault in either read leaves the other side as it was
    honest, wrong_classes, wrong_atoms = (evaluate(parse_ring_expr(text)) for _ in range(3))
    want_min, want_max, want_j = minimal_ideals(honest), maximal_ideals(honest), jacobson_radical(honest)
    want_verdicts = classify._definitional_verdicts(honest)
    assert len(want_max) > 1

    def trivial_classes(r):
        idx = np.arange(r.order)
        return rings.ElementClasses(idx == r.zero, (idx == r.zero) | (idx == r.one), idx == r.one)

    for module in (rings, ideals, classify):
        monkeypatch.setattr(module, "element_classes", trivial_classes)
    monkeypatch.setattr(ideals, "_primitive_idempotents", lambda r, idempotents: np.array([r.one]))
    assert maximal_ideals(wrong_classes) != want_max  # the fault reached the maximal ideals
    assert minimal_ideals(wrong_classes) == want_min
    assert classify._definitional_verdicts(wrong_classes) == want_verdicts
    monkeypatch.undo()

    monkeypatch.setattr(ideals, "_local_parts", lambda r: np.ones(r.order, dtype=bool))
    assert minimal_ideals(wrong_atoms) != want_min  # the fault reached the minimal ideals
    assert maximal_ideals(wrong_atoms) == want_max and jacobson_radical(wrong_atoms) == want_j


@pytest.mark.parametrize("text, socle", [
    ("GR(Z2, C8)", 2), ("GR(Z3, C3)", 3), ("GR(Z4, C2)", 2), ("Z4 x Z8", 4),
])
def test_minimal_ideals_read_only_rows_at_the_socle(text, socle):
    # N != 0: past one row per idempotent and per additive generator of
    # N, minimal_ideals reads one row per minimal ideal, each at a socle
    # member
    ring = evaluate(parse_ring_expr(text))
    found, rows = util.mul_rows_read(ring, minimal_ideals)
    before = _rows_before_the_walk(ring)
    mul = np.asarray(ring.mul)
    in_socle = (mul[nilradical(ring).members] == ring.zero).all(axis=0)
    assert np.count_nonzero(in_socle) == socle
    assert sorted(rows[:len(before)]) == before
    walk = rows[len(before):]
    assert len(walk) == len(found) and in_socle[walk].all()
    assert [m.key for m in found] == util.minimal_ideals_by_rank(ring)


@pytest.mark.parametrize("text", ["GR(Z2 x Z5, C3)", "GR(Z7, C4)", "Z4093"])
def test_minimal_ideals_read_few_rows_of_a_reduced_ring(text):
    # N = 0, so the socle is R, yet one row is read per idempotent and per
    # minimal ideal, not all n rows
    ring = evaluate(parse_ring_expr(text))
    found, rows = util.mul_rows_read(ring, minimal_ideals)
    assert nilradical(ring).is_zero
    assert len(rows) <= len(_rows_before_the_walk(ring)) + len(found) < ring.order
    assert [m.key for m in found] == util.minimal_ideals_by_rank(ring)


def test_is_prime_ideal_examples():
    z4 = make_zmod(4)
    assert util.is_prime_ideal(z4, ideal_generated(z4, {2}))
    assert not util.is_prime_ideal(z4, ideal_generated(z4, set()))  # 2*2 = 0
    z5 = make_zmod(5)
    assert util.is_prime_ideal(z5, ideal_generated(z5, set()))
    with pytest.raises(ValueError):
        util.is_prime_ideal(z4, ideal_generated(z4, {1}))  # whole ring excluded


def test_quotient_ring_examples():
    z6 = make_zmod(6)
    ideal = ideal_generated(z6, {3})
    quot = quotient_ring(z6, ideal)
    assert quot.order == 3 and util.axiom_violations(quot) == []
    assert len(set(util.coset_projection(z6, ideal, quot))) == quot.order

    z4 = make_zmod(4)
    ideal4 = ideal_generated(z4, {2})
    quot4 = quotient_ring(z4, ideal4)
    assert quot4.order == 2
    assert (np.asarray(quot4.mul.diagonal()) == np.arange(2)).all()  # boolean
    util.coset_projection(z4, ideal4, quot4)

    zero = ideal_generated(z6, set())
    copy = quotient_ring(z6, zero)
    assert copy.order == 6 and len(set(util.coset_projection(z6, zero, copy))) == 6


def test_quotient_by_whole_ring_is_rejected():
    z6 = make_zmod(6)
    with pytest.raises(ValueError, match=r"Z6 \(order 6\) by the whole ring"):
        quotient_ring(z6, ideal_generated(z6, {1}))


def test_quotient_label_reparses():
    from ringlab import evaluate, parse_ring_expr

    z12 = make_zmod(12)
    quot = quotient_ring(z12, ideal_generated(z12, {6}))
    assert quot.label == "Z12/(6)"
    again = evaluate(parse_ring_expr(quot.label))
    assert again.order == quot.order
    assert np.array_equal(again.add, quot.add) and np.array_equal(again.mul, quot.mul)


def test_nilradical_examples():
    assert nilradical(make_zmod(12)).key == (0, 6)
    assert nilradical(make_zmod(6)).key == (0,)
    assert nilradical(make_zmod(9)).key == (0, 3, 6)


def test_jacobson_radical_examples():
    assert jacobson_radical(make_zmod(4)).key == (0, 2)
    assert jacobson_radical(make_zmod(6)).key == (0,)
    for p in (2, 3, 7):
        assert jacobson_radical(make_zmod(p)).key == (0,)


@given(st.integers(min_value=2, max_value=36))
def test_nilradical_inside_jacobson(n):
    ring = make_zmod(n)
    assert set(nilradical(ring).key) <= set(jacobson_radical(ring).key)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=24))
def test_nonzero_primes_are_maximal(n):
    ring = make_zmod(n)
    maxima = {m.key for m in maximal_ideals(ring)}
    for ideal in enumerate_ideals(ring):
        if ideal.is_whole or ideal.is_zero:
            continue
        if util.is_prime_ideal(ring, ideal):
            assert ideal.key in maxima


@given(st.integers(min_value=2, max_value=30))
def test_quotient_by_radical_is_semiprimitive(n):
    ring = make_zmod(n)
    quot = quotient_ring(ring, jacobson_radical(ring))
    assert jacobson_radical(quot).key == (quot.zero,)


def test_lattice_closed_under_sum_and_intersection():
    for ring in (make_zmod(12), direct_product(make_zmod(4), make_zmod(3)), make_zmod(16)):
        lattice = enumerate_ideals(ring)
        keys = {i.key for i in lattice}
        for a in lattice:
            IdealSet(ring, a.members)  # re-validate closure invariants
            for b in lattice:
                sum_members = np.unique(ring.add[np.ix_(a.members, b.members)])
                assert tuple(map(int, sum_members)) in keys
                inter = np.intersect1d(a.members, b.members)
                assert tuple(map(int, inter)) in keys


def test_reduced_rings_factor_into_residue_fields():
    # squarefree moduli give reduced rings; CRT forces |R| = prod |R/M|
    for n in (6, 10, 15, 30):
        ring = make_zmod(n)
        assert len(nilradical(ring)) == 1
        sizes = [ring.order // len(m) for m in maximal_ideals(ring)]
        assert np.prod(sizes) == ring.order


def test_is_field():
    assert is_field(make_zmod(5))
    assert not is_field(make_zmod(6))
