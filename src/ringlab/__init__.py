"""ringlab: a brute-force laboratory for finite commutative rings.

Builds modular rings, products, quotients and group rings as explicit
Cayley tables, computes ideal lattices and radicals, and decides the
nil-clean / weakly nil-clean / nil-neat / weakly nil-neat properties
both definitionally and through structural criteria, including exact
group-ring classifications that can be verified exhaustively at small
orders.
"""

__version__ = "0.1.0"

from .rings import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    DisagreementError,
    ElementClasses,
    RingLabError,
    RingTable,
    direct_product,
    element_classes,
    make_zmod,
)
from .ideals import (
    DEFAULT_IDEAL_CAP,
    IdealSet,
    enumerate_ideals,
    ideal_generated,
    jacobson_radical,
    maximal_ideals,
    minimal_ideals,
    nilradical,
    quotient_ring,
)
from .group_algebra import (
    AbelianGroup,
    GroupRingView,
    group_ring,
    karpilovsky_radical,
    make_group,
)
from .classify import (
    PredicateResult,
    Verdict,
    classify_ring,
    is_nil_clean_criterion,
    is_nil_neat_criterion,
    is_weakly_nil_clean_definitional,
    is_weakly_nil_neat_definitional,
    nil_clean_group_ring_predicate,
    nil_neat_group_ring_predicate,
    weakly_nil_clean_criterion,
    weakly_nil_clean_group_ring_predicate,
    weakly_nil_neat_criterion,
    weakly_nil_neat_group_ring_predicate,
)
from .expr import (
    ExprSyntaxError,
    GroupRingExpr,
    ProductExpr,
    QuotientExpr,
    RingExpr,
    ZmodExpr,
    canonical_label,
    evaluate,
    evaluate_group_ring,
    parse_ring_expr,
)

__all__ = [
    "DEFAULT_ORDER_CAP",
    "CapExceeded",
    "DisagreementError",
    "ElementClasses",
    "RingLabError",
    "RingTable",
    "direct_product",
    "element_classes",
    "make_zmod",
    "DEFAULT_IDEAL_CAP",
    "IdealSet",
    "enumerate_ideals",
    "ideal_generated",
    "jacobson_radical",
    "maximal_ideals",
    "minimal_ideals",
    "nilradical",
    "quotient_ring",
    "AbelianGroup",
    "GroupRingView",
    "group_ring",
    "karpilovsky_radical",
    "make_group",
    "PredicateResult",
    "Verdict",
    "classify_ring",
    "is_nil_clean_criterion",
    "is_nil_neat_criterion",
    "is_weakly_nil_clean_definitional",
    "is_weakly_nil_neat_definitional",
    "nil_clean_group_ring_predicate",
    "nil_neat_group_ring_predicate",
    "weakly_nil_clean_criterion",
    "weakly_nil_clean_group_ring_predicate",
    "weakly_nil_neat_criterion",
    "weakly_nil_neat_group_ring_predicate",
    "ExprSyntaxError",
    "GroupRingExpr",
    "ProductExpr",
    "QuotientExpr",
    "RingExpr",
    "ZmodExpr",
    "canonical_label",
    "evaluate",
    "evaluate_group_ring",
    "parse_ring_expr",
]
