"""Ring-expression grammar: parsing, printing, evaluation."""

import pytest
from hypothesis import given, strategies as st

from ringlab import (
    ExprSyntaxError,
    GroupRingExpr,
    ProductExpr,
    QuotientExpr,
    ZmodExpr,
    canonical_label,
    evaluate,
    parse_ring_expr,
)
from ringlab.expr import MAX_EXPR_DEPTH


def test_parse_examples():
    assert parse_ring_expr("Z3 x Z3") == ProductExpr(ZmodExpr(3), ZmodExpr(3))
    assert parse_ring_expr("GR(Z3, C2)") == GroupRingExpr(ZmodExpr(3), (2,))
    assert parse_ring_expr("Z12/(6)") == QuotientExpr(ZmodExpr(12), (6,))


def test_quotient_evaluates_to_expected_order():
    ring = evaluate(parse_ring_expr("Z12/(6)"))
    assert ring.order == 6


def test_whitespace_insensitive():
    assert parse_ring_expr("Z3xZ3") == parse_ring_expr("  Z3   x Z3 ")
    assert parse_ring_expr("GR( Z3 , C2 )") == parse_ring_expr("GR(Z3,C2)")


def test_product_left_associative():
    expr = parse_ring_expr("Z2 x Z3 x Z5")
    assert expr == ProductExpr(ProductExpr(ZmodExpr(2), ZmodExpr(3)), ZmodExpr(5))


def test_quotient_binds_loosest():
    expr = parse_ring_expr("Z2 x Z3/(0,3)")
    assert isinstance(expr, QuotientExpr)
    assert isinstance(expr.base, ProductExpr)


def test_trivial_group_forms():
    assert parse_ring_expr("GR(Z5, 1)") == GroupRingExpr(ZmodExpr(5), ())
    assert parse_ring_expr("GR(Z5, C1)") == GroupRingExpr(ZmodExpr(5), ())
    assert evaluate(parse_ring_expr("GR(Z5, 1)")).order == 5


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse_ring_expr("Z3 x !")
    assert excinfo.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("GR(Z3, 2)")
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("Z3 Z3")


def _nested_group_rings(levels: int) -> str:
    return "GR(" * levels + "Z2" + ", 1)" * levels


def test_expression_depth_is_bounded():
    # each text is one level over the bound; the error points at the
    # token that opens the extra level
    too_deep = {
        _nested_group_rings(MAX_EXPR_DEPTH): 3 * (MAX_EXPR_DEPTH - 1),
        " x ".join(["Z2"] * (MAX_EXPR_DEPTH + 1)): 5 * MAX_EXPR_DEPTH - 2,
        "Z4" + "/(0)" * MAX_EXPR_DEPTH: 2 + 4 * (MAX_EXPR_DEPTH - 1),
    }
    for text, position in too_deep.items():
        with pytest.raises(ExprSyntaxError, match="deeper than") as excinfo:
            parse_ring_expr(text)
        assert excinfo.value.position == position, text[:20]


def test_expressions_at_the_depth_bound_evaluate():
    assert evaluate(parse_ring_expr(_nested_group_rings(MAX_EXPR_DEPTH - 1))).order == 2
    assert evaluate(parse_ring_expr("Z4" + "/(0)" * (MAX_EXPR_DEPTH - 1))).order == 4
    product = parse_ring_expr(" x ".join(["Z2"] * MAX_EXPR_DEPTH))
    assert canonical_label(product).count("Z2") == MAX_EXPR_DEPTH


def test_quotient_generator_out_of_range():
    with pytest.raises(ValueError, match=r"generator 9 is not an element index of Z6 \(order 6\)"):
        evaluate(parse_ring_expr("Z6/(9)"))
    # too large for int64: rejected by the same range check, not an OverflowError
    with pytest.raises(ValueError, match=r"generator 99999999999999999999 is not an element index of Z4 \(order 4\)"):
        evaluate(parse_ring_expr("Z4/(99999999999999999999)"))


def test_quotient_by_unit_rejected():
    with pytest.raises(ValueError, match=r"quotient of Z6 \(order 6\) by the whole ring"):
        evaluate(parse_ring_expr("Z6/(1)"))


def test_labels_reparse_to_same_tables():
    import numpy as np

    for text in ("Z6", "Z3 x Z3", "GR(Z3, C2)", "Z12/(6)", "GR(Z2, C2 x C2)"):
        ring = evaluate(parse_ring_expr(text))
        again = evaluate(parse_ring_expr(ring.label))
        assert again.label == ring.label
        assert np.array_equal(again.add, ring.add)
        assert np.array_equal(again.mul, ring.mul)


def test_canonical_label_normalizes_groups():
    expr = parse_ring_expr("GR(Z2, C6)")
    assert canonical_label(expr) == "GR(Z2, C2 x C3)"
    assert evaluate(expr).label == "GR(Z2, C2 x C3)"


# Shapes the parser builds: left-nested products of atoms, quotient
# suffixes outermost, arbitrary rings inside GR(...).
_zmods = st.integers(min_value=2, max_value=12).map(ZmodExpr)
_orders = st.lists(st.integers(min_value=2, max_value=4), min_size=0, max_size=2).map(tuple)
_gens = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=2).map(tuple)


def _fold_product(atoms):
    expr = atoms[0]
    for atom in atoms[1:]:
        expr = ProductExpr(expr, atom)
    return expr


def _fold_quotients(args):
    expr, gens_list = args
    for gens in gens_list:
        expr = QuotientExpr(expr, gens)
    return expr


def _ring_strategy(atom):
    product = st.lists(atom, min_size=1, max_size=3).map(_fold_product)
    return st.tuples(product, st.lists(_gens, max_size=2)).map(_fold_quotients)


_inner_ring = _ring_strategy(st.one_of(_zmods, st.tuples(_zmods, _orders).map(lambda t: GroupRingExpr(*t))))
_group_rings = st.tuples(_inner_ring, _orders).map(lambda t: GroupRingExpr(*t))
_exprs = _ring_strategy(st.one_of(_zmods, _group_rings))


@given(_exprs)
def test_pretty_parse_round_trip(expr):
    label = canonical_label(expr)
    assert canonical_label(parse_ring_expr(label)) == label


# Any tree at all, e.g. a quotient or a product as the right factor of a
# product, which the parser never builds; its label still re-prints as is.
_trees = st.recursive(
    _zmods,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: ProductExpr(*t)),
        st.tuples(inner, _gens).map(lambda t: QuotientExpr(*t)),
        st.tuples(inner, _orders).map(lambda t: GroupRingExpr(*t)),
    ),
    max_leaves=8,
)


@given(_trees)
def test_any_tree_prints_to_a_label_that_reprints_as_is(expr):
    label = canonical_label(expr)
    assert canonical_label(parse_ring_expr(label)) == label


def test_parentheses_group_a_quotient_factor():
    quotient = QuotientExpr(ZmodExpr(12), (6,))
    assert parse_ring_expr("(Z12/(6)) x Z5") == ProductExpr(quotient, ZmodExpr(5))
    assert parse_ring_expr("((Z2))") == ZmodExpr(2)
    assert canonical_label(ProductExpr(quotient, ZmodExpr(5))) == "(Z12/(6)) x Z5"
    assert evaluate(parse_ring_expr("(Z12/(6)) x Z5")).label == "(Z12/(6)) x Z5"
    assert canonical_label(ProductExpr(ZmodExpr(5), quotient)) == "Z5 x (Z12/(6))"
    assert evaluate(parse_ring_expr("Z5 x (Z12/(6))"), order_cap=30).label == "Z5 x (Z12/(6))"


def test_parentheses_count_toward_the_depth_bound():
    # each ( opens a level and is checked on the way down, so even a very
    # deep nesting fails at the bound instead of exhausting the stack
    for levels in (MAX_EXPR_DEPTH, 100_000):
        with pytest.raises(ExprSyntaxError, match="deeper than") as excinfo:
            parse_ring_expr("(" * levels + "Z2" + ")" * levels)
        assert excinfo.value.position == MAX_EXPR_DEPTH - 1
    assert evaluate(parse_ring_expr("(" * (MAX_EXPR_DEPTH - 1) + "Z2" + ")" * (MAX_EXPR_DEPTH - 1))).order == 2
