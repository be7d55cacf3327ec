"""Ring-expression DSL: parsing, printing and evaluation.

Grammar (whitespace-insensitive)::

    ring    := product ( '/' '(' INT (',' INT)* ')' )*
    product := atom ( 'x' atom )*
    atom    := 'Z' INT | 'GR' '(' ring ',' group ')' | '(' ring ')'
    group   := '1' | 'C' INT ('x' 'C' INT)*

'x' is left-associative.  A quotient suffix binds loosest, so
``Z2 x Z12/(6)`` quotients the evaluated product; its generators are
element indices of that ring.  Parentheses group a quotient as a
product factor: ``(Z12/(6)) x Z5``, ``Z5 x (Z12/(6))``.  Labels
produced by the constructors (``Z6``, ``Z2 x Z3``, ``GR(Z3, C2)``,
``Z12/(6)``, ``Z5 x (Z12/(6))``) re-parse to expressions that evaluate
to identical tables, through no ring larger than the constructors
built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .group_algebra import group_ring, group_ring_order, make_group
from .ideals import ideal_generated, quotient_ring
from .rings import DEFAULT_ORDER_CAP, RingLabError, RingTable, _product_label, direct_product, make_zmod


class ExprSyntaxError(RingLabError):
    """Malformed ring expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class ZmodExpr:
    n: int


@dataclass(frozen=True)
class ProductExpr:
    left: "RingExpr"
    right: "RingExpr"


@dataclass(frozen=True)
class QuotientExpr:
    base: "RingExpr"
    gens: tuple[int, ...]


@dataclass(frozen=True)
class GroupRingExpr:
    base: "RingExpr"
    orders: tuple[int, ...]  # cyclic orders as written; () is the trivial group


RingExpr = Union[ZmodExpr, ProductExpr, QuotientExpr, GroupRingExpr]

#: Deepest expression tree accepted, counting a ``Zn`` leaf as depth 1
#: and each product, quotient suffix, ``GR(...)`` or ``(...)`` as one
#: more level; parsing, printing and evaluating all recurse along the
#: tree.
MAX_EXPR_DEPTH = 100

_TOKEN = re.compile(r"GR|Z|C|x|\d+|[(),/]|\s+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        lexeme = m.group(0)
        if not lexeme.isspace():
            kind = "INT" if lexeme[0].isdigit() else lexeme
            tokens.append((kind, lexeme, pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent; each ``parse_*`` returns a node and its depth."""

    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length
        self.open_levels = 0  # GR( or ( entered and not yet closed

    def check_depth(self, depth: int, pos: int) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels", pos)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][2] if self.i < len(self.tokens) else self.length

    def expect(self, kind: str) -> str:
        if self.peek() != kind:
            found = self.tokens[self.i][1] if self.i < len(self.tokens) else "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, found {found!r}", self.pos())
        value = self.tokens[self.i][1]
        self.i += 1
        return value

    def parse_int(self) -> int:
        return int(self.expect("INT"))

    def parse_ring(self) -> tuple[RingExpr, int]:
        node, depth = self.parse_product()
        while self.peek() == "/":
            depth += 1
            self.check_depth(depth, self.pos())
            self.expect("/")
            self.expect("(")
            gens = [self.parse_int()]
            while self.peek() == ",":
                self.expect(",")
                gens.append(self.parse_int())
            self.expect(")")
            node = QuotientExpr(node, tuple(gens))
        return node, depth

    def parse_product(self) -> tuple[RingExpr, int]:
        node, depth = self.parse_atom()
        while self.peek() == "x":
            pos = self.pos()
            self.expect("x")
            right, right_depth = self.parse_atom()
            node, depth = ProductExpr(node, right), 1 + max(depth, right_depth)
            self.check_depth(depth, pos)
        return node, depth

    def parse_atom(self) -> tuple[RingExpr, int]:
        kind = self.peek()
        if kind == "Z":
            self.expect("Z")
            return ZmodExpr(self.parse_int()), 1
        if kind not in ("GR", "("):
            found = self.tokens[self.i][1] if self.i < len(self.tokens) else "end of input"
            raise ExprSyntaxError(
                f"expected a ring ('Z<n>', 'GR(...)' or '(...)'), found {found!r}", self.pos()
            )
        # the leaf inside k open GR( or ( levels sits at depth k + 1 at least;
        # checked on the way down, so the parser's own recursion is bounded
        self.open_levels += 1
        self.check_depth(self.open_levels + 1, self.pos())
        if kind == "(":
            self.expect("(")
            node, depth = self.parse_ring()
        else:
            self.expect("GR")
            self.expect("(")
            base, depth = self.parse_ring()
            self.expect(",")
            node = GroupRingExpr(base, self.parse_group())
        self.expect(")")
        self.open_levels -= 1
        return node, depth + 1

    def parse_group(self) -> tuple[int, ...]:
        if self.peek() == "INT":
            pos = self.pos()
            value = self.parse_int()
            if value != 1:
                raise ExprSyntaxError("a bare integer group must be the trivial group '1'", pos)
            return ()
        orders = [self._cyclic()]
        while self.peek() == "x":
            self.expect("x")
            orders.append(self._cyclic())
        # C1 factors are the trivial group
        return tuple(d for d in orders if d > 1)

    def _cyclic(self) -> int:
        self.expect("C")
        pos = self.pos()
        n = self.parse_int()
        if n < 1:
            raise ExprSyntaxError("cyclic order must be >= 1", pos)
        return n


def parse_ring_expr(text: str) -> RingExpr:
    """Parse a ring expression; raises :class:`ExprSyntaxError`."""
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), len(text))
    node, _ = parser.parse_ring()
    if parser.peek() is not None:
        raise ExprSyntaxError(f"trailing input {parser.tokens[parser.i][1]!r}", parser.pos())
    return node


def canonical_label(expr: RingExpr) -> str:
    """Print an expression with its group factors canonicalized and
    each quotient factor of a product in parentheses.

    The label re-parses, and is the sweep's cache key.
    """
    if isinstance(expr, ZmodExpr):
        return f"Z{expr.n}"
    if isinstance(expr, ProductExpr):
        return _product_label(canonical_label(expr.left), canonical_label(expr.right))
    if isinstance(expr, QuotientExpr):
        return f"{canonical_label(expr.base)}/({','.join(map(str, expr.gens))})"
    if isinstance(expr, GroupRingExpr):
        return f"GR({canonical_label(expr.base)}, {make_group(expr.orders).label})"
    raise TypeError(f"not a ring expression: {expr!r}")


def evaluate(expr: RingExpr, *, order_cap: int = DEFAULT_ORDER_CAP) -> RingTable:
    """Build the ring a parsed expression denotes."""
    if isinstance(expr, ZmodExpr):
        return make_zmod(expr.n, cap=order_cap)
    if isinstance(expr, ProductExpr):
        left = evaluate(expr.left, order_cap=order_cap)
        right = evaluate(expr.right, order_cap=order_cap)
        return direct_product(left, right, cap=order_cap)
    if isinstance(expr, QuotientExpr):
        base = evaluate(expr.base, order_cap=order_cap)
        return quotient_ring(base, ideal_generated(base, expr.gens))
    if isinstance(expr, GroupRingExpr):
        return evaluate_group_ring(expr, order_cap=order_cap).ring
    raise TypeError(f"not a ring expression: {expr!r}")


def evaluate_group_ring(expr: GroupRingExpr, *, order_cap: int = DEFAULT_ORDER_CAP):
    """Like :func:`evaluate` but keeps the group-ring view.

    The order cap is checked against the written cyclic orders before
    :func:`make_group` factors them, since factoring a huge order is
    slow.
    """
    base = evaluate(expr.base, order_cap=order_cap)
    group_ring_order(base.order, math.prod(expr.orders), cap=order_cap)
    return group_ring(base, make_group(expr.orders), cap=order_cap)
