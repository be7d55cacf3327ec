"""Command-line surface.

Commands::

    ringlab classify <expr> [--json]
    ringlab radical <expr> [--json]
    ringlab ideals <expr> [--json]
    ringlab verify-theorem [--max-ring-order N] [--max-product-order P]
                           [--max-group-order M] [--max-groupring-order K]
                           [--out FILE] [--jobs J] [--cache FILE | --no-cache]

``classify`` decides every property both definitionally and by its
structural criterion, and a mismatch is a disagreement.

Exit codes: 0 success/agreement, 1 usage error, 2 cap exceeded
(including running out of memory), 3 disagreement detected.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, classify
from .cache import ENV_VAR, cache_from_env
from .expr import (
    ExprSyntaxError,
    GroupRingExpr,
    evaluate,
    evaluate_group_ring,
    parse_ring_expr,
)
from .group_algebra import karpilovsky_radical
from .ideals import DEFAULT_IDEAL_CAP, enumerate_ideals, jacobson_radical, nilradical
from .rings import DEFAULT_ORDER_CAP, CapExceeded, DisagreementError
from .sweep import SweepConfig, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_DISAGREEMENT = 3


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for caps
        raise UsageError(message)


def _cap(text: str) -> int:
    """A cap on ring orders, which is malformed below 2: no ring is smaller."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2 (no ring has order below 2), got {cap}")
    return cap


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="ringlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ringlab {__version__}")
    parser.add_argument("--order-cap", type=_cap, default=DEFAULT_ORDER_CAP,
                        help="largest constructible ring order")
    parser.add_argument("--ideal-cap", type=_cap, default=DEFAULT_IDEAL_CAP,
                        help="largest ring order whose ideal lattice the ideals command lists")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="decide the four nil-clean style properties")
    p_classify.add_argument("expr")
    p_classify.add_argument("--json", action="store_true")

    p_radical = sub.add_parser("radical", help="nilradical, Jacobson radical, group-ring cross-check")
    p_radical.add_argument("expr")
    p_radical.add_argument("--json", action="store_true")

    p_ideals = sub.add_parser("ideals", help="enumerate the ideal lattice")
    p_ideals.add_argument("expr")
    p_ideals.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify-theorem", help="exhaustive group-ring classification sweep")
    defaults = SweepConfig()
    p_verify.add_argument("--max-ring-order", type=int, default=defaults.max_ring_order)
    p_verify.add_argument("--max-product-order", type=int, default=defaults.max_product_order)
    p_verify.add_argument("--max-group-order", type=int, default=defaults.max_group_order)
    p_verify.add_argument("--max-groupring-order", type=int, default=defaults.max_groupring_order)
    p_verify.add_argument("--out", default=None, help="write the JSONL report here instead of stdout")
    p_verify.add_argument("--jobs", type=int, default=defaults.jobs, metavar="N",
                          help="worker processes; each builds its own group rings, "
                               "so N of them multiply peak memory by up to N")
    p_verify.add_argument("--cache", default=None, help=f"cache file (default: ${ENV_VAR})")
    p_verify.add_argument("--no-cache", action="store_true")
    return parser


def _parse(expr_text: str):
    try:
        return parse_ring_expr(expr_text)
    except ExprSyntaxError as exc:
        raise UsageError(str(exc)) from exc


def _evaluate(expr, order_cap: int):
    """The ring ``expr`` denotes, and its group-ring view for ``GR(...)``."""
    if isinstance(expr, GroupRingExpr):
        view = evaluate_group_ring(expr, order_cap=order_cap)
        return view.ring, view
    return evaluate(expr, order_cap=order_cap), None


def _cmd_classify(args) -> int:
    expr = _parse(args.expr)
    ring, view = _evaluate(expr, args.order_cap)
    verdicts = classify.classify_ring(ring)
    # "method" records that both derivations decided every verdict
    payload = {
        "ring": ring.label,
        "order": ring.order,
        "verdicts": {
            name: {"value": v.ok, "method": "both", "witness": classify.encode_witness(v.witness)}
            for name, v in verdicts.items()
        },
    }
    group_ring_info = None
    if view is not None:
        base, group = view.base, view.group
        theorem = classify.weakly_nil_neat_group_ring_predicate(base, group)
        lemma = classify.weakly_nil_clean_group_ring_predicate(base, group)
        group_ring_info = {
            "theorem_predicate": theorem.holds,
            "theorem_condition": theorem.condition,
            "lemma_predicate": lemma.holds,
            "lemma_condition": lemma.condition,
            "nil_clean_predicate": classify.nil_clean_group_ring_predicate(base, group),
            "nil_neat_predicate": classify.nil_neat_group_ring_predicate(base, group),
        }
        if theorem.condition == 4:
            group_ring_info["note"] = "isomorphic to Z3 x Z3"
        payload["group_ring"] = group_ring_info
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"ring: {ring.label}  (order {ring.order})")
        for name, verdict in verdicts.items():
            line = f"  {name + ':':<18} {str(verdict.ok):<5} [both]"
            if verdict.witness is not None:
                line += f"  witness: {classify.encode_witness(verdict.witness)}"
            print(line)
        if group_ring_info is not None:
            print(
                f"  group-ring predicates: weakly_nil_neat={group_ring_info['theorem_predicate']}"
                f" (condition {group_ring_info['theorem_condition']}),"
                f" weakly_nil_clean={group_ring_info['lemma_predicate']}"
                f" (condition {group_ring_info['lemma_condition']}),"
                f" nil_neat={group_ring_info['nil_neat_predicate']}, nil_clean={group_ring_info['nil_clean_predicate']}"
            )
            if "note" in group_ring_info:
                print(f"  note: {group_ring_info['note']}")
    return EXIT_OK


def _cmd_radical(args) -> int:
    expr = _parse(args.expr)
    ring, view = _evaluate(expr, args.order_cap)
    nil = nilradical(ring)
    jac = jacobson_radical(ring)
    payload = {
        "ring": ring.label,
        "order": ring.order,
        "nilradical": {"size": len(nil), "members": list(nil.key)},
        "jacobson": {"size": len(jac), "members": list(jac.key)},
    }
    agreement = True
    if view is not None:
        karp = karpilovsky_radical(view)
        agreement = karp == jac
        payload["karpilovsky"] = {
            "size": len(karp),
            "members": list(karp.key),
            "matches_jacobson": agreement,
        }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"ring: {ring.label}  (order {ring.order})")
        print(f"  N(R): size {len(nil)}  members {list(nil.key)}")
        print(f"  J(R): size {len(jac)}  members {list(jac.key)}")
        if view is not None:
            print(f"  base-ring radical formula: size {payload['karpilovsky']['size']}  agreement {agreement}")
    if not agreement:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_ideals(args) -> int:
    expr = _parse(args.expr)
    ring = evaluate(expr, order_cap=args.order_cap)
    lattice = enumerate_ideals(ring, cap=args.ideal_cap)
    if args.json:
        payload = {
            "ring": ring.label,
            "order": ring.order,
            "ideals": [{"size": len(i), "members": list(i.key)} for i in lattice],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"ring: {ring.label}  (order {ring.order}, {len(lattice)} ideals)")
        for ideal in lattice:
            print(f"  size {len(ideal):>4}: {list(ideal.key)}")
    return EXIT_OK


def _cmd_verify_theorem(args) -> int:
    config = SweepConfig(
        max_ring_order=args.max_ring_order,
        max_product_order=args.max_product_order,
        max_group_order=args.max_group_order,
        max_groupring_order=args.max_groupring_order,
        order_cap=args.order_cap,
        jobs=args.jobs,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cache = cache_from_env(args.cache, disabled=args.no_cache)
    # fail on an unwritable path before the sweep; appending keeps old contents
    for path in (args.out, cache.path if cache is not None else None):
        if path:
            open(path, "a").close()
    report = run_sweep(config, cache=cache)
    lines = report.jsonl_lines()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(
            f"checked {report.summary['pairs']} pairs: "
            f"{report.summary['agreements']} agree, "
            f"{report.summary['disagreements']} disagree -> {args.out}"
        )
    else:
        for line in lines:
            print(line)
    return EXIT_OK if report.all_agree else EXIT_DISAGREEMENT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"classify": _cmd_classify, "radical": _cmd_radical, "ideals": _cmd_ideals,
                    "verify-theorem": _cmd_verify_theorem}
        return commands[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"cap exceeded: out of memory ({str(exc) or 'allocation failed'}); lower --order-cap",
              file=sys.stderr)
        return EXIT_CAP
    except DisagreementError as exc:
        print(f"disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT


def run() -> None:
    raise SystemExit(main())
