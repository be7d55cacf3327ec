"""Ring kernel: constructors, element classes, axiom validation."""

import ast
import tracemalloc
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringlab
import util
from ringlab import rings
from ringlab import (
    CapExceeded,
    DisagreementError,
    RingTable,
    canonical_label,
    direct_product,
    element_classes,
    evaluate,
    group_ring,
    ideal_generated,
    make_group,
    make_zmod,
    parse_ring_expr,
    quotient_ring,
)


def test_make_zmod_basic():
    z3 = make_zmod(3)
    assert z3.order == 3
    assert z3.label == "Z3"
    assert [order for order, *_ in util.element_profiles(z3)] == [1, 3, 3]


def test_make_zmod_tables_span_row_blocks():
    # 600 rows of 600 entries take two row blocks
    idx = np.arange(600)
    ring = make_zmod(600)
    assert ring.add.dtype == np.int16
    assert np.array_equal(ring.add, np.add.outer(idx, idx) % 600)
    assert np.array_equal(ring.mul, np.multiply.outer(idx, idx) % 600)


def test_make_zmod_builds_one_row_block_at_a_time():
    # Z4096 has 2 x 32 MiB of int16 tables; whole int64 outer products
    # and their remainders would allocate 384 MiB at the peak
    tracemalloc.start()
    try:
        ring = make_zmod(4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ring.add.nbytes - ring.mul.nbytes <= 8 << 20, peak


def test_make_zmod_rejects_degenerate():
    with pytest.raises(ValueError):
        make_zmod(1)
    with pytest.raises(CapExceeded):
        make_zmod(100, cap=64)


def test_zmod_element_classes_match_integer_oracle():
    for n in (4, 6, 9, 12, 30):
        classes = element_classes(make_zmod(n))
        assert util.indices(classes.nilpotents) == util.zn_nilpotents(n)
        assert util.indices(classes.idempotents) == util.zn_idempotents(n)
        assert util.indices(classes.units) == util.zn_units(n)


def test_zmod_frozen_examples():
    z4 = element_classes(make_zmod(4))
    assert util.indices(z4.nilpotents) == {0, 2}
    assert util.indices(z4.idempotents) == {0, 1}
    assert util.indices(z4.units) == {1, 3}
    z6 = element_classes(make_zmod(6))
    assert util.indices(z6.idempotents) == {0, 1, 3, 4}


def test_direct_product_is_crt_isomorphic_to_zmod():
    prod = direct_product(make_zmod(2), make_zmod(3))
    z6 = make_zmod(6)
    assert prod.order == 6
    # independent oracle: the explicit CRT map is a bijective hom
    assert len(set(util.ring_hom(z6, prod, util.crt_pair_map(2, 3)))) == prod.order
    iso = util.ring_isomorphic(prod, z6)
    assert iso is not None and len(set(util.ring_hom(prod, z6, iso))) == z6.order


def test_direct_product_identity_and_idempotents():
    z3 = make_zmod(3)
    prod = direct_product(z3, z3)
    assert prod.one == 1 * 3 + 1
    assert prod.zero == 0
    assert len(util.indices(element_classes(prod).idempotents)) == 4
    assert util.indices(element_classes(prod).nilpotents) == {0}


@pytest.mark.parametrize("left, right, label", [
    ("Z2", "Z3", "Z2 x Z3"),
    ("Z4", "Z6", "Z4 x Z6"),
    ("Z12/(6)", "Z5", "(Z12/(6)) x Z5"),
    ("Z3", "GR(Z2, C2)", "Z3 x GR(Z2, C2)"),
    ("GR(Z2, C2)", "Z12/(6)", "GR(Z2, C2) x (Z12/(6))"),
], ids=["Z2-Z3", "Z4-Z6", "Z12/(6)-Z5", "Z3-GR(Z2, C2)", "GR(Z2, C2)-Z12/(6)"])
def test_direct_product_tables_match_pair_reference(left, right, label):
    r, s = evaluate(parse_ring_expr(left)), evaluate(parse_ring_expr(right))
    prod = direct_product(r, s)
    assert prod.label == label
    _assert_label_reparses(prod)
    ns = s.order
    for name in ("add", "mul"):
        a, b = getattr(r, name), getattr(s, name)
        # pair (i, j) has index i*|S| + j, in Python ints
        want = [
            [int(a[i, k]) * ns + int(b[j, l]) for k in range(r.order) for l in range(ns)]
            for i in range(r.order)
            for j in range(ns)
        ]
        table = getattr(prod, name)
        assert table.tolist() == want, name
        assert table.dtype == np.int16  # the table dtype of every order up to 32767


def _assert_label_reparses(ring, built=0):
    # the label builds no ring larger than the ring itself and the
    # largest ring its construction built
    again = evaluate(parse_ring_expr(ring.label), order_cap=max(ring.order, built))
    assert again.label == ring.label
    assert again.add.tolist() == ring.add.tolist() and again.mul.tolist() == ring.mul.tolist(), ring.label
    assert (again.zero, again.one) == (ring.zero, ring.one)
    assert canonical_label(parse_ring_expr(ring.label)) == ring.label


_LABEL_FACTORS = ["Z2", "Z3", "Z4", "Z5", "Z6", "GR(Z2, C2)"]
#: each quotient factor with the order of the ring it is a quotient of
_QUOTIENT_FACTORS = {"GR(Z3, C3)/(13)": 27, "Z12/(6)": 12, "Z8/(4)": 8, "Z2 x Z12/(6)": 24}


@settings(max_examples=60)
@given(st.data())
def test_products_with_a_quotient_factor_reparse(data):
    # one quotient factor on the left or on the right of a product of
    # up to two other factors; then maybe a quotient of the whole, and
    # that as a factor again
    text = data.draw(st.sampled_from(sorted(_QUOTIENT_FACTORS)))
    quotient = evaluate(parse_ring_expr(text))
    built = _QUOTIENT_FACTORS[text]
    texts = data.draw(st.lists(st.sampled_from(_LABEL_FACTORS), min_size=1, max_size=2))
    others = [evaluate(parse_ring_expr(text)) for text in texts]
    factors = [quotient, *others] if data.draw(st.booleans()) else [*others, quotient]
    ring = factors[0]
    for factor in factors[1:]:
        if ring.order * factor.order <= 64:
            ring = direct_product(ring, factor)
    built = max(built, ring.order)
    _assert_label_reparses(ring, built)
    units = util.indices(element_classes(ring).units)
    non_units = [x for x in range(ring.order) if x not in units]
    if data.draw(st.booleans()):
        ring = quotient_ring(ring, ideal_generated(ring, [data.draw(st.sampled_from(non_units))]))
        _assert_label_reparses(ring, built)
        other = evaluate(parse_ring_expr(data.draw(st.sampled_from(_LABEL_FACTORS))))
        if ring.order * other.order <= 64:
            pair = (ring, other) if data.draw(st.booleans()) else (other, ring)
            _assert_label_reparses(direct_product(*pair), built)


def test_product_label_evaluates_under_the_product_order_cap():
    # read as (Z5 x Z12)/(6), the label would build a ring of order 60
    prod = direct_product(make_zmod(5), evaluate(parse_ring_expr("Z12/(6)")))
    assert prod.label == "Z5 x (Z12/(6))"
    _assert_label_reparses(prod)
    left = direct_product(make_zmod(2), evaluate(parse_ring_expr("GR(Z3, C3)/(13)")))
    assert direct_product(left, make_zmod(2)).label == "Z2 x (GR(Z3, C3)/(13)) x Z2"


@pytest.mark.parametrize("block", [rings._BLOCK, 120], ids=["one-block", "two-row-blocks"])
@pytest.mark.parametrize("index_dtype", [np.int16, np.int64])
@pytest.mark.parametrize("table_dtype", [np.int16, np.int32])
def test_gather_matches_fancy_indexing(monkeypatch, block, index_dtype, table_dtype):
    monkeypatch.setattr(rings, "_BLOCK", block)  # 120 entries: two rows of 50 per block
    rng = np.random.default_rng(7)
    table = rng.integers(0, 50, size=(50, 50)).astype(table_dtype)
    through = rng.integers(0, 9, size=50).astype(np.int16)
    cases = [
        ([], [3, 1]),
        ([4], [0, 49, 4]),
        ([3, 3, 0, 49, 17], [8, 2, 2]),  # 5 rows: blocks of 2, 2 and 1 with the small block
        (np.arange(50)[::-1], np.arange(50)),
        ([1, 2], []),
    ]
    for rows, cols in cases:
        rows = np.asarray(rows, dtype=index_dtype)
        cols = np.asarray(cols, dtype=index_dtype)
        want = table[np.ix_(rows, cols)]
        got = rings._gather(table, rows, cols)
        assert got.dtype == table.dtype and np.array_equal(got, want)
        mapped = rings._gather(table, rows, cols, through=through)
        assert mapped.dtype == through.dtype and np.array_equal(mapped, through[want])
    assert rings._gather(table, np.array([1]), np.array([2]), through=through > 4).dtype == bool


def test_direct_product_cap():
    with pytest.raises(CapExceeded):
        direct_product(make_zmod(10), make_zmod(10), cap=64)


def test_group_ring_element_classes():
    view = group_ring(make_zmod(2), make_group([3]))
    classes = element_classes(view.ring)
    assert view.ring.order == 8
    assert util.indices(classes.nilpotents) == {0}
    assert len(util.indices(classes.idempotents)) == 4


def test_element_classes_rejects_corrupted_table():
    z4 = make_zmod(4)
    mul = np.array(z4.mul)
    mul[0, 0] = 1  # 0*0 = 1: zero becomes a nilpotent unit
    broken = RingTable(z4.add, mul, zero=0, one=1, label="Z4broken")
    with pytest.raises(DisagreementError, match="no nilpotent is a unit"):
        element_classes(broken)


_CLASSES_OF_Z4 = "element_classes(RingTable(add, mul, zero=0, one=1, label='Z4broken'))"


@pytest.mark.parametrize("corrupt, call, error", [
    ("mul[0, 0] = 1", _CLASSES_OF_Z4, "DisagreementError"),
    ("add[1] = [1, 2, 3, 1]", _CLASSES_OF_Z4, "ValueError"),  # row 1 has no zero
    ("pass", "IdealSet(z4, [0, 1])", "ValueError"),  # 1 + 1 = 2 is missing
    ("pass", "IdealSet(direct_product(make_zmod(2), make_zmod(2)), [0, 3])", "ValueError"),  # (1,0)(1,1) missing
], ids=["corrupted-mul", "add-row-without-zero", "non-ideal-sum", "non-ideal-product"])
def test_element_classes_check_survives_optimize_flag(corrupt, call, error):
    # the same corrupted tables and non-ideal sets under ``python -O``,
    # which strips asserts
    code = (
        "import numpy as np\n"
        "from ringlab import DisagreementError, IdealSet, RingTable, direct_product, element_classes, make_zmod\n"
        "z4 = make_zmod(4)\n"
        "add, mul = np.array(z4.add), np.array(z4.mul)\n"
        f"{corrupt}\n"
        "try:\n"
        f"    {call}\n"
        "except (DisagreementError, ValueError) as e:\n"
        "    print(type(e).__name__)\n"
    )
    done = util.run_python("-O", "-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == error


def test_units_match_row_scan(plain_ring_catalog, sweep_group_rings):
    checked = list(plain_ring_catalog) + [view.ring for view in sweep_group_rings]
    for label in ("GR(Z2, C3)/(7)", "(GR(Z2, C3)/(7)) x Z4", "GR(Z9, C3)/(33,97)", "GR(Z9, C4)"):
        checked.append(evaluate(parse_ring_expr(label), order_cap=6561))
    for ring in checked:
        assert np.array_equal(element_classes(ring).units, util.units_by_scan(ring)), ring.label
    # the package reads only the rows of the power map's values: 8 of 6561 on GR(Z9, C4)
    assert np.unique(rings._unit_power(checked[-1])).size == 8


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so sanity checks in the package must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ringlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_package_gathers_sub_tables_only_through_the_kernel():
    # ``table[np.ix_(rows, cols)]`` is 2-D fancy indexing: about half as fast
    # as ``rings._gather`` and with a temporary as large as the sub-table
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ringlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "ix_"
    ]
    assert not found


def test_all_lists_exactly_the_public_names():
    # a deleted name can leave neither a stale export nor a missing one
    exported = ringlab.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(ringlab, name)] == []
    bound = {
        name
        for name, value in vars(ringlab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(exported) == bound


def test_characteristic():
    # the additive order of 1, walked on the raw tables by the oracle
    def characteristic(r):
        return util.element_profiles(r)[r.one][0]

    assert characteristic(make_zmod(6)) == 6
    assert characteristic(direct_product(make_zmod(2), make_zmod(3))) == 6
    boolean4 = direct_product(make_zmod(2), make_zmod(2))
    assert characteristic(boolean4) == 2


def test_tables_are_immutable():
    z4 = make_zmod(4)
    with pytest.raises(ValueError):
        z4.add[0, 0] = 1


def test_tables_in_table_dtype_are_frozen_not_copied():
    idx = np.arange(4)
    table = (np.add.outer(idx, idx) % 4).astype(np.int16)
    ring = RingTable(table, table, zero=0, one=1, label="Z4")
    assert np.shares_memory(table, ring.add) and not table.flags.writeable
    wide = np.add.outer(idx, idx) % 4  # int64: converted into a fresh array
    ring = RingTable(wide, wide, zero=0, one=1, label="Z4")
    assert not np.shares_memory(wide, ring.add) and wide.flags.writeable
    assert ring.add.dtype == np.int16 and not ring.add.flags.writeable


def test_validate_constructed_rings_are_clean():
    for ring in (make_zmod(6), make_zmod(9), direct_product(make_zmod(2), make_zmod(4))):
        assert util.axiom_violations(ring) == []


def test_validate_flags_corrupted_multiplication():
    z4 = make_zmod(4)
    mul = np.array(z4.mul)
    mul[2, 2] = 1  # 2*2 = 1 breaks distributivity/associativity
    mul[2, 2] = 1
    broken = RingTable(z4.add, mul, zero=0, one=1, label="Z4broken")
    violations = util.axiom_violations(broken)
    assert violations
    axioms = {axiom for axiom, _ in violations}
    assert axioms & {"associativity of *", "distributivity", "commutativity of *"}
    witness = next(w for axiom, w in violations if axiom in ("associativity of *", "distributivity"))
    assert len(witness) == 3


def test_validate_rejects_order_one_table():
    table = np.zeros((1, 1), dtype=int)
    degenerate = SimpleNamespace(order=1, add=table, mul=table, zero=0, one=0)
    assert any("identity distinct from zero" in axiom for axiom, _ in util.axiom_violations(degenerate))
    with pytest.raises(ValueError, match="order < 2"):
        RingTable(table, table, zero=0, one=0, label="0")


def _z4_args(**changes):
    """Keyword arguments that build Z4, with ``changes`` applied."""
    z4 = make_zmod(4)
    return {"add": np.array(z4.add), "mul": np.array(z4.mul), "zero": 0, "one": 1, "label": "Z4", **changes}


def _z4_args_with_entry(name, value, at=(1, 1)):
    args = _z4_args()
    args[name][at] = value
    return args


def _z2_args(one):
    """Keyword arguments for Z2 whose table entries for 1 read ``one``, in int64."""
    return {"add": np.array([[0, one], [one, 0]]), "mul": np.array([[0, 0], [0, one]]),
            "zero": 0, "one": 1, "label": "Z2"}


@pytest.mark.parametrize("args, message", [
    (_z4_args(add=np.zeros((2, 3), dtype=int), mul=np.zeros((2, 3), dtype=int)), "square and of equal shape"),
    (_z4_args(mul=np.zeros((3, 3), dtype=int)), "square and of equal shape"),
    (_z4_args(zero=4), "zero/one index out of range"),
    (_z4_args(one=-1), "zero/one index out of range"),
    (_z4_args(zero=1), "one must differ from zero"),
    (_z4_args_with_entry("add", 4), "add table entry out of range"),
    (_z4_args_with_entry("mul", -1), "mul table entry out of range"),
    # both would wrap to 1 in the int16 table dtype and build Z2
    (_z2_args(65537), "add table entry out of range"),
    (_z2_args(-65535), "add table entry out of range"),
    (_z4_args(add=np.array([[0, 1.7], [1.2, 0]]), mul=np.array([[0, 0], [0, 1]])),
     "add table entries must be integers, not float64"),
    (_z4_args_with_entry("add", [1, 2, 3, 1], at=1), "add row 1 has no zero"),
    (_z4_args(neg=[0, 3, 1, 1]), r"neg\[2\] = 1 is not an additive inverse of 2"),
    (_z4_args(neg=[0, 3, 2, 4]), "neg table entry out of range"),
    (_z4_args(neg=[[0, 3, 2, 1]]), r"neg must have shape \(4,\), not \(1, 4\)"),
    (_z4_args(neg=[0.0, 3.0, 2.0, 1.0]), "neg table entries must be integers, not float64"),
], ids=["non-square", "unequal-shapes", "zero-out-of-range", "one-out-of-range", "zero-is-one",
        "add-entry-out-of-range", "mul-entry-out-of-range", "entry-wrapping-to-1", "negative-entry-wrapping-to-1",
        "float-entries", "add-row-without-zero", "neg-wrong", "neg-out-of-range", "neg-wrong-shape",
        "neg-not-integer"])
def test_constructor_rejects_malformed_tables(args, message):
    with pytest.raises(ValueError, match=message):
        RingTable(**args)


def _assert_neg_matches_scan(ring):
    want = util.neg_by_scan(ring)
    assert ring.neg.dtype == want.dtype == ring.add.dtype, ring.label
    assert np.array_equal(ring.neg, want), ring.label


def test_handed_down_neg_matches_add_scan(plain_ring_catalog):
    # every constructor hands RingTable the inverses it holds; here they
    # are pinned against the scan that RingTable no longer runs for them
    quotients = [evaluate(parse_ring_expr(text))
                 for text in ("GR(Z3, C3)/(13)", "GR(Z2, C3)/(7)", "GR(Z9, C3)/(33,97)")]
    factors = list(plain_ring_catalog) + quotients
    bases = [make_zmod(n) for n in range(2, 65)] + quotients
    bases += [direct_product(r, s) for r in factors for s in factors if r.order * s.order <= 64]
    groups = [make_group(orders) for orders in ([2], [3], [2, 2], [4])]
    built = 0
    for base in bases:
        _assert_neg_matches_scan(base)
        for group in groups:
            if base.order**group.order <= 1024:  # built and dropped one at a time
                _assert_neg_matches_scan(group_ring(base, group, cap=1024).ring)
                built += 1
    assert built >= 50


@pytest.mark.parametrize("domain, image, message", [
    ("Z4", [0, 1, 0], "must assign an image to every domain element"),
    ("Z4", [0, 1, 0, 2], "image index out of range"),
    ("Z4", [0, 0, 0, 0], "does not send 1 to 1"),
    ("Z4", [0, 1, 1, 0], r"not additive at \(1, 1\)"),  # 1 + 1 = 2 goes to 1
    # the coefficient of 1 in Z2[C2] is additive and keeps 1, but g * g = 1
    ("GR(Z2, C2)", [0, 1, 0, 1], r"not multiplicative at \(2, 2\)"),
], ids=["wrong-shape", "out-of-range", "one", "not-additive", "not-multiplicative"])
def test_ring_hom_rejects_non_hom(domain, image, message):
    with pytest.raises(ValueError, match=message):
        util.ring_hom(evaluate(parse_ring_expr(domain)), make_zmod(2), image)


def test_ring_hom_accepts_reduction_mod_2():
    assert util.ring_hom(make_zmod(4), make_zmod(2), [0, 1, 0, 1]) == [0, 1, 0, 1]


@given(st.integers(min_value=2, max_value=48))
def test_unit_count_is_euler_phi(n):
    classes = element_classes(make_zmod(n))
    assert len(util.indices(classes.units)) == util.euler_phi(n)


@given(st.integers(min_value=2, max_value=32))
def test_nilpotents_vanish_at_power_order(n):
    ring = make_zmod(n)
    classes = element_classes(ring)
    for x in util.indices(classes.nilpotents):
        acc = x
        for _ in range(ring.order - 1):
            acc = int(ring.mul[acc, x])
        assert acc == ring.zero


@settings(max_examples=20)
@given(st.sampled_from([2, 3, 4, 5]), st.sampled_from([2, 3, 4, 5]))
def test_product_classes_are_componentwise(a, b):
    ra, rb = make_zmod(a), make_zmod(b)
    prod = direct_product(ra, rb)
    ca, cb, cp = element_classes(ra), element_classes(rb), element_classes(prod)
    pair = lambda xs, ys: {x * b + y for x in util.indices(xs) for y in util.indices(ys)}
    assert util.indices(cp.nilpotents) == pair(ca.nilpotents, cb.nilpotents)
    assert util.indices(cp.idempotents) == pair(ca.idempotents, cb.idempotents)
    assert util.indices(cp.units) == pair(ca.units, cb.units)


def test_element_class_invariants():
    for n in (4, 6, 9, 10, 12):
        ring = make_zmod(n)
        classes = element_classes(ring)
        nil, idem, units = map(util.indices, (classes.nilpotents, classes.idempotents, classes.units))
        assert ring.zero in nil
        assert {ring.zero, ring.one} <= idem
        assert ring.one in units
        assert not nil & units
        assert nil & idem == {ring.zero}
