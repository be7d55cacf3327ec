"""Abelian groups, group rings and the radical formula."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import util
from ringlab import (
    CapExceeded,
    RingTable,
    direct_product,
    element_classes,
    group_ring,
    ideal_generated,
    jacobson_radical,
    karpilovsky_radical,
    make_group,
    make_zmod,
    nilradical,
    parse_ring_expr,
)
from ringlab import group_algebra
from ringlab.expr import evaluate
from ringlab.group_algebra import AbelianGroup
from ringlab.sweep import group_catalog


def test_make_group_examples():
    assert make_group([6]).factors == (2, 3)
    assert make_group([]).factors == ()
    assert make_group([]).order == 1
    assert make_group([2, 2]).factors == (2, 2)
    assert make_group([12]).factors == (4, 3)
    assert make_group([1, 1]).is_trivial()


def test_abelian_group_rejects_non_canonical():
    with pytest.raises(ValueError):
        AbelianGroup([6])  # not a prime power
    with pytest.raises(ValueError):
        AbelianGroup([4, 2])  # out of (prime, exponent) order


def test_is_p_group_and_trivial():
    assert make_group([2, 2]).is_p_group(2)
    assert not make_group([6]).is_p_group(2)
    trivial = make_group([])
    assert trivial.is_trivial()
    assert trivial.is_p_group(3)
    for p in (-3, 0, 1, 4, 9):  # p < 2 would divide forever or by zero
        with pytest.raises(ValueError):
            trivial.is_p_group(p)


def test_component_orders_multiply():
    for g in group_catalog(12):
        for p in (2, 3, 5):
            rest = math.prod(d for d in g.factors if d % p)
            assert len(g.p_torsion_indices(p)) * rest == g.order


def test_group_catalog_counts_match_classification():
    groups = group_catalog(18)
    by_order = {}
    for g in groups:
        by_order[g.order] = by_order.get(g.order, 0) + 1
    assert by_order == util.ABELIAN_GROUP_COUNTS
    assert group_catalog(0) == []


def test_group_ring_z3_c2_is_z3_squared():
    view = group_ring(make_zmod(3), make_group([2]))
    assert view.ring.order == 9
    assert util.axiom_violations(view.ring) == []
    assert util.ring_isomorphic(view.ring, direct_product(make_zmod(3), make_zmod(3))) is not None


def test_group_ring_over_trivial_group_is_base():
    z6 = make_zmod(6)
    view = group_ring(z6, make_group([]))
    assert view.ring.order == 6
    assert np.array_equal(view.ring.add, z6.add)
    assert np.array_equal(view.ring.mul, z6.mul)


def test_group_ring_z2_c3_radicals_vanish():
    view = group_ring(make_zmod(2), make_group([3]))
    assert view.ring.order == 8
    assert nilradical(view.ring).key == (0,)
    assert jacobson_radical(view.ring).key == (0,)


def test_group_ring_cap():
    with pytest.raises(CapExceeded):
        group_ring(make_zmod(10), make_group([2, 2]), cap=4096)


def test_group_ring_rejects_base_zero_off_index_0():
    # Z3 with the labels of 0 and 1 swapped: a valid ring whose zero is index 1
    z3 = make_zmod(3)
    swap = np.array([1, 0, 2])
    inv = np.argsort(swap)
    relabelled = RingTable(
        swap[z3.add[inv[:, None], inv]], swap[z3.mul[inv[:, None], inv]], zero=1, one=0, label="Z3'"
    )
    assert util.axiom_violations(relabelled) == []
    with pytest.raises(ValueError, match="Z3'"):
        group_ring(relabelled, make_group([2]))


def test_embeddings_respect_operations():
    base = make_zmod(4)
    group = make_group([2, 2])
    view = group_ring(base, group)
    ring = view.ring
    for r in range(base.order):
        for s in range(base.order):
            r_, s_ = util.embed_base(view, r), util.embed_base(view, s)
            assert ring.add[r_, s_] == util.embed_base(view, base.add[r, s])
            assert ring.mul[r_, s_] == util.embed_base(view, base.mul[r, s])
    elements = group.elements()
    for g, eg in enumerate(elements):
        for h, eh in enumerate(elements):
            gh = tuple((a + b) % d for a, b, d in zip(eg, eh, group.factors))
            product = util.embed_group(view, elements.index(gh))
            assert ring.mul[util.embed_group(view, g), util.embed_group(view, h)] == product


def test_augmentation_kernel():
    z3 = make_zmod(3)
    view = group_ring(z3, make_group([3]))
    kernel = util.augmentation_kernel(view)
    assert len(kernel) == 9  # |RG| / |R|
    gens = [
        view.ring.add[util.embed_group(view, g), view.ring.neg[util.embed_base(view, z3.one)]]
        for g in range(1, view.group.order)
    ]
    assert ideal_generated(view.ring, [int(g) for g in gens]).key == tuple(kernel)


def test_karpilovsky_examples():
    z2, z3, z4 = make_zmod(2), make_zmod(3), make_zmod(4)
    v23 = group_ring(z2, make_group([3]))
    assert karpilovsky_radical(v23).key == (0,)
    v33 = group_ring(z3, make_group([3]))
    karp33 = karpilovsky_radical(v33)
    assert len(karp33) == 9
    assert karp33.key == tuple(util.augmentation_kernel(v33))
    v42 = group_ring(z4, make_group([2]))
    karp42 = karpilovsky_radical(v42)
    assert len(karp42) == 8
    generated = ideal_generated(
        v42.ring,
        [
            util.embed_base(v42, 2),
            int(v42.ring.add[util.embed_group(v42, 1), v42.ring.neg[util.embed_base(v42, 1)]]),
        ],
    )
    assert karp42 == generated


@settings(max_examples=30)
@given(
    st.sampled_from([2, 3, 4, 5, 6]),
    st.sampled_from([(), (2,), (3,), (4,), (2, 2)]),
)
def test_karpilovsky_matches_jacobson(n, factors):
    view = group_ring(make_zmod(n), make_group(factors), cap=1500)
    assert karpilovsky_radical(view) == jacobson_radical(view.ring)


def test_iterated_group_ring_coherence():
    # R[C_outer x C_inner] is (R[C_inner])[C_outer], table for table
    # over Z4 and Z5 the outer base GR(Z_n, C2) has associate classes
    # unlike those of any Z_n
    for n, outer, inner in ((2, 2, 2), (3, 2, 3), (2, 2, 4), (4, 2, 2), (5, 2, 2)):
        base = make_zmod(n)
        twice = group_ring(group_ring(base, make_group([inner])).ring, make_group([outer]))
        direct = group_ring(base, make_group([outer, inner]))
        assert np.array_equal(twice.ring.add, direct.ring.add)
        assert np.array_equal(twice.ring.mul, direct.ring.mul)


def _reference_group_ring(base, group):
    """RG by convolution over all of G, |G|^2 gathers: the first
    construction of :func:`group_ring`, kept as an oracle that shares no
    code with its column-by-column build."""
    n, m = base.order, group.order
    elements = group.elements()
    index = {e: i for i, e in enumerate(elements)}
    radix = n ** np.arange(m, dtype=np.int64)
    coeff = (np.arange(n**m, dtype=np.int64)[:, None] // radix) % n
    add = np.zeros((n**m, n**m), dtype=np.int64)
    mul = np.zeros_like(add)
    for g, eg in enumerate(elements):
        add += base.add[coeff[:, g, None], coeff[None, :, g]] * radix[g]
        conv = base.zero
        for h, eh in enumerate(elements):
            k = index[tuple((a - b) % d for a, b, d in zip(eg, eh, group.factors))]  # h + k = g
            conv = base.add[conv, base.mul[coeff[:, h, None], coeff[None, :, k]]]
        mul += conv * radix[g]
    return RingTable(add, mul, zero=0, one=base.one, label=f"GR({base.label}, {group.label})")


def test_group_ring_matches_full_convolution(sweep_group_rings):
    views = list(sweep_group_rings)
    views += [group_ring(make_zmod(2), make_group(f)) for f in ([2, 2, 2], [2, 4], [3, 3], [6], [7])]
    z2z2 = direct_product(make_zmod(2), make_zmod(2))
    views += [group_ring(base, make_group([5])) for base in (make_zmod(3), z2z2)]
    # bases whose associate classes are not those of a Z_n or Z_a x Z_b:
    # F4, Z3[x]/(x^2) and an order-27 ring with 18 units, then Z8
    for text, groups in (
        ("GR(Z2, C3)/(7)", [[2], [3]]),
        ("GR(Z3, C3)/(13)", [[2], [3]]),
        ("GR(Z9, C3)/(33,97)", [[2]]),
        ("Z8", [[3]]),
    ):
        base = evaluate(parse_ring_expr(text))
        views += [group_ring(base, make_group(g)) for g in groups]
    for view in views:
        ring = _reference_group_ring(view.base, view.group)
        for got, want in ((view.ring.add, ring.add), (view.ring.mul, ring.mul)):
            assert got.dtype == want.dtype and np.array_equal(got, want), ring.label
        assert (view.ring.zero, view.ring.one, view.ring.label) == (ring.zero, ring.one, ring.label)


class _TakeSpy:
    """Stands in for numpy in :mod:`ringlab.group_algebra`, recording the
    source array and index count of every ``np.take``."""

    def __init__(self):
        self.takes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, a, indices, *args, **kwargs):
        self.takes.append((a, np.size(indices)))
        return np.take(a, indices, *args, **kwargs)


@pytest.mark.parametrize("text, cap, orbits", [
    ("GR(Z9, C4)", 6561, 291),
    ("GR(Z4096, 1)", 4096, 13),
    ("GR(Z2 x Z3, C2 x C2)", 4096, 191),
    ("GR(Z3, C2 x C2 x C2)", 6561, 481),
    ("GR(Z2, C12)", 4096, 352),
])
def test_group_ring_gathers_from_add_once_per_orbit_of_trivial_units(monkeypatch, text, cap, orbits):
    # only the least member of each orbit of T = R^x x G gathers its row
    # from add, one entry per nonzero column; every other row is read off
    # it.  GR(Z3, C2 x C2 x C2) has 16 trivial units, which fix many
    # elements, and GR(Z2, C12) has 12, all of them shifts
    expr = parse_ring_expr(text)
    base, group = evaluate(expr.base), make_group(expr.orders)
    spy = _TakeSpy()
    monkeypatch.setattr(group_algebra, "np", spy)
    ring = group_ring(base, group, cap=cap).ring
    gathered = sum(count for a, count in spy.takes if np.shares_memory(a, ring.add))
    assert gathered == orbits * (ring.order - 1)
    # the orbit count again, from RG's own product with its trivial units a n^g
    trivial = (np.flatnonzero(element_classes(base).units)[:, None] * base.order ** np.arange(group.order)).ravel()
    least = ring.mul[trivial].min(axis=0)
    assert np.count_nonzero(least == np.arange(ring.order)) == orbits


@pytest.mark.parametrize("text, cap, digest", [
    ("GR(Z9, C4)", 6561, "25ecce4aad1e2e4e"),
    ("GR(Z2 x Z3, C2 x C2)", 4096, "cb2526b93380df14"),
    ("GR(Z4096, 1)", 4096, "20f0d60f97f2468c"),
    ("GR(Z7, C4)", 2401, "101ad229c122f884"),
    ("GR(Z3, C2 x C2 x C2)", 6561, "445d00ca11bf43a5"),
    ("GR(Z2, C12)", 4096, "6116ce419155c694"),
])
def test_group_ring_tables_are_pinned_beyond_the_convolution_oracle(text, cap, digest):
    # the full convolution oracle stops near order 1024; these digests of
    # dtype, add and mul were taken from earlier builds: the first three
    # from the column-by-column build, the last three from the orbit build
    # that read rows through inverse permutations
    ring = evaluate(parse_ring_expr(text), order_cap=cap)
    tables = str(ring.add.dtype).encode() + ring.add.tobytes() + ring.mul.tobytes()
    assert hashlib.sha256(tables).hexdigest()[:16] == digest
