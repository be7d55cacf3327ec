"""Deciders for the nil-clean family of ring classes.

Four properties of a finite commutative ring R:

* nil-clean: every element is nilpotent + idempotent;
* weakly nil-clean: every element is nilpotent + idempotent or
  nilpotent - idempotent;
* nil-neat / weakly nil-neat: every proper homomorphic image (quotient
  by a nonzero ideal) is nil-clean / weakly nil-clean.  The quotient by
  the whole ring is the zero ring and counts as vacuously nil-clean.

Each property gets a definitional brute-force decider and a structural
criterion in terms of radicals and residue fields; the criteria read the
shapes of R/N and R/J off two counts, once per ring, and build neither
quotient.  All four deciders read one scan, and each answers with a
:class:`Verdict`.  Every property is a statement about images of R: the
clean ones about R itself, the image R/0, and the neat ones about R/M
for the minimal nonzero ideals M.  One function reads each such image
on R's own cosets and builds no quotient ring.  :func:`classify_ring`
always runs both derivations and raises :class:`DisagreementError` on
a mismatch.

The group-ring predicates decide the same properties for RG directly
from (R, G) without building RG, so sweeping them against the
definitional deciders on the constructed group ring is an exhaustive
desk-scale check of the classification theorems they implement.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .group_algebra import AbelianGroup
from .ideals import IdealSet, _coset_map, is_field, jacobson_radical, maximal_ideals, minimal_ideals, nilradical
from .rings import DisagreementError, RingTable, _gather, _memo, element_classes


class Verdict(NamedTuple):
    """A decided property.  A negative verdict carries its witness: the
    least element index with no decomposition, or the earliest failing
    ideal in lattice order."""

    ok: bool
    witness: int | IdealSet | None = None


def _clean_mod(ring: RingTable, ideal: IdealSet, high: np.ndarray, sq_minus: np.ndarray) -> tuple[int | None, int | None]:
    """For the image R/I, the least coset name outside N + E, then outside
    (N + E) union (N - E), each None if there is none; read on the
    cosets x + I in R's own tables.

    ``high`` holds x^(2^K) for K the bit length of |R|, so x is nilpotent
    mod I iff it lies in I; ``sq_minus`` holds x^2 - x, so x is
    idempotent mod I iff that lies in I.  Each coset is named by its
    least member (:func:`ringlab.ideals._coset_map`), so on R/0 the name
    of x is x itself.
    """
    member = np.zeros(ring.order, dtype=bool)
    member[ideal.members] = True
    rep = _coset_map(ring, ideal)
    is_rep = rep == np.arange(ring.order)
    nil = np.flatnonzero(is_rep & member[high])
    idem = np.flatnonzero(is_rep & member[sq_minus])
    missed = is_rep.copy()
    witnesses = []
    for summands in (idem, ring.neg[idem]):
        missed[_gather(ring.add, nil, summands, through=rep)] = False
        witnesses.append(int(missed.argmax()) if missed.any() else None)
    return tuple(witnesses)


@_memo
def _definitional_verdicts(ring: RingTable) -> tuple[Verdict, Verdict, Verdict, Verdict]:
    """The four verdicts in :data:`PROPERTIES` order, every image of R
    scanned by :func:`_clean_mod` on R's own cosets.

    The clean verdicts are R's own, R being its image R/0.  The neat ones
    come from R/M for the minimal M: every R/I (I nonzero) is an image of
    such an R/M, and the earliest failing ideal in lattice order is
    minimal, so verdicts and witnesses match a full-lattice scan.  The
    pass stops at the first R/M that is not weakly nil-clean, which is
    not nil-clean either.  No quotient ring is built.
    """
    # its own maps: element_classes' nilpotency tower and _shape_mod's x^2 - x
    # count feed the structural criteria, and the two derivations share no code
    square = ring.mul.diagonal()
    high = np.arange(ring.order)
    for _ in range(ring.order.bit_length()):
        high = square[high]
    sq_minus = ring.add[square, ring.neg]
    zero = IdealSet(ring, [ring.zero], validate=False)
    clean = tuple(Verdict(w is None, w) for w in _clean_mod(ring, zero, high, sq_minus))
    nil_neat = fine = Verdict(True)
    for ideal in minimal_ideals(ring):
        if ideal.is_whole:
            continue  # a field: the zero ring, vacuously fine
        missed_clean, missed_weak = _clean_mod(ring, ideal, high, sq_minus)
        if nil_neat.ok and missed_clean is not None:
            nil_neat = Verdict(False, ideal)
        if missed_weak is not None:
            return (*clean, nil_neat, Verdict(False, ideal))
    return (*clean, nil_neat, fine)


def is_nil_clean_definitional(ring: RingTable) -> Verdict:
    """Scan for an element outside nilpotents + idempotents."""
    return _definitional_verdicts(ring)[0]


def is_weakly_nil_clean_definitional(ring: RingTable) -> Verdict:
    """Scan for an element outside (N + E) union (N - E)."""
    return _definitional_verdicts(ring)[1]


def is_nil_neat_definitional(ring: RingTable) -> Verdict:
    """Every quotient by a nonzero proper ideal must be nil-clean."""
    return _definitional_verdicts(ring)[2]


def is_weakly_nil_neat_definitional(ring: RingTable) -> Verdict:
    """Every quotient by a nonzero proper ideal must be weakly nil-clean."""
    return _definitional_verdicts(ring)[3]


def _shape_mod(ring: RingTable, ideal: IdealSet) -> tuple[bool, bool]:
    """(R/I boolean, R/I boolean or Z3 or boolean x Z3) for a proper ideal
    I, read off two counts without building R/I.

    R/I has order q = |R|/|I| and e = #{x : x^2 - x in I}/|I|
    idempotents.  A finite commutative ring with k local factors has 2^k
    idempotents (Atiyah-Macdonald 8.7), so R/I is boolean iff e == q.
    It is Z3 or boolean x Z3 iff 2q == 3e: the k local orders, each a
    prime power, then multiply to 3 * 2^(k-1), so one is 3 and the rest 2.
    """
    # the criteria's own x^2 - x, apart from the scan's map (_definitional_verdicts)
    member = np.zeros(ring.order, dtype=bool)
    member[ideal.members] = True
    q = ring.order // len(ideal)
    e = int(np.count_nonzero(member[ring.add[ring.mul.diagonal(), ring.neg]])) // len(ideal)
    return e == q, 2 * q in (2 * e, 3 * e)


@_memo
def _radical_shapes(ring: RingTable) -> tuple[tuple[bool, bool], tuple[bool, bool]]:
    """:func:`_shape_mod` of R/N(R) and of R/J(R)."""
    return _shape_mod(ring, nilradical(ring)), _shape_mod(ring, jacobson_radical(ring))


@_memo
def _residue_orders(ring: RingTable) -> tuple[int, ...]:
    """Orders of the residue fields R/M, ascending."""
    return tuple(sorted(ring.order // len(m) for m in maximal_ideals(ring)))


def is_nil_clean_criterion(ring: RingTable) -> bool:
    """Structural test: R is nil-clean iff R/N(R) is boolean, read off
    two counts by :func:`_shape_mod` without building R/N."""
    return _radical_shapes(ring)[0][0]


def is_nil_neat_criterion(ring: RingTable) -> bool:
    """Structural test for finite rings: a field, or R/J(R) boolean.

    With J nonzero this makes R/J a proper image that must be nil-clean
    (hence boolean, being semiprimitive); with J zero the ring is a
    product of residue fields and every proper subproduct must be
    boolean, which forces all factors to be Z2 unless there is only one
    factor.  R/J's shape is read off two counts by :func:`_shape_mod`,
    without building R/J.  Cross-checked against the definitional
    decider in tests.
    """
    return is_field(ring) or _radical_shapes(ring)[1][0]


@_memo
def weakly_nil_clean_criterion(ring: RingTable) -> bool:
    """Three independent structural tests, which must agree.

    Finite rings are zero-dimensional, so that hypothesis is free; the
    three sub-checks rest on independent derivations (residue fields
    from the primitive idempotents, N from the nilpotent scan, J from
    the maximal ideals) and a mismatch raises :class:`DisagreementError`.
    The shapes of R/N and R/J are read off two counts by
    :func:`_shape_mod`, both in the one memo :func:`_radical_shapes`;
    neither quotient is built.  The verdict is memoized, so both
    group-ring predicates read it once per ring; a mismatch is not, and
    raises on every call.
    """
    # all residue fields Z2, at most one Z3
    residue_orders = _residue_orders(ring)
    by_residues = all(s in (2, 3) for s in residue_orders) and residue_orders.count(3) <= 1
    # R/N boolean, Z3 or boolean x Z3
    mod_n, mod_j = _radical_shapes(ring)
    by_nilradical = mod_n[1]
    # J nil and the same shape for R/J
    jac_is_nil = bool(element_classes(ring).nilpotents[jacobson_radical(ring).members].all())
    by_jacobson = jac_is_nil and mod_j[1]

    if not (by_residues == by_nilradical == by_jacobson):
        raise DisagreementError(
            f"weakly-nil-clean sub-checks disagree on {ring.label}: "
            f"residues={by_residues} mod-N={by_nilradical} mod-J={by_jacobson}"
        )
    return by_residues


def weakly_nil_neat_criterion(ring: RingTable) -> bool:
    """Structural test: field, or R/J in weakly-nil-clean shape when
    J != 0, or (J = 0) a product of residue fields that are all Z2 with
    at most one Z3, or exactly Z3 x Z3.

    For a finite semiprimitive commutative ring the subdirect embedding
    into its residue fields is onto, so the J = 0 branch enumerates the
    proper sub-products directly: two Z3 factors survive only with no
    other factor present, since quotienting anything else away would
    leave Z3 x Z3, which is not weakly nil-clean.  Every nonzero prime
    ideal of a finite ring is maximal, so that clause holds
    automatically and is asserted by property tests rather than
    filtered on.  R/J's shape is read off two counts by
    :func:`_shape_mod`, without building R/J.
    """
    if is_field(ring):
        return True
    if not jacobson_radical(ring).is_zero:
        return _radical_shapes(ring)[1][1]
    residue_orders = _residue_orders(ring)
    if not all(s in (2, 3) for s in residue_orders):
        return False
    return residue_orders.count(3) <= 1 or residue_orders == (3, 3)


class PredicateResult(NamedTuple):
    holds: bool
    condition: Optional[int]  # which arm of the classification matched


def _exactly_one(conditions: dict[int, bool], ring: RingTable, group: AbelianGroup) -> PredicateResult:
    """The arm that matched; the arms of a classification are disjoint,
    so a second match raises :class:`DisagreementError`."""
    matched = [k for k, hit in conditions.items() if hit]
    if len(matched) > 1:
        raise DisagreementError(
            f"conditions {matched} matched simultaneously for ({ring.label}, {group.label})"
        )
    return PredicateResult(bool(matched), matched[0] if matched else None)


def _three_is_nilpotent(ring: RingTable) -> bool:
    """Whether the element 3*1 of the ring is nilpotent."""
    return bool(element_classes(ring).nilpotents[ring.int_mul(3, ring.one)])


def nil_clean_group_ring_predicate(ring: RingTable, group: AbelianGroup) -> bool:
    """RG is nil-clean iff G is a 2-group and R is nil-clean."""
    return group.is_p_group(2) and is_nil_clean_criterion(ring)


def weakly_nil_clean_group_ring_predicate(ring: RingTable, group: AbelianGroup) -> PredicateResult:
    """RG weakly nil-clean iff exactly one of three conditions holds.

    (1) R nil-clean and G a non-trivial 2-group;
    (2) R weakly nil-clean with 3 nilpotent in R and G a non-trivial
        3-group;
    (3) R weakly nil-clean and G trivial.
    """
    nc = is_nil_clean_criterion(ring)
    wnc = weakly_nil_clean_criterion(ring)
    nontrivial = not group.is_trivial()
    return _exactly_one({
        1: nc and nontrivial and group.is_p_group(2),
        2: wnc and _three_is_nilpotent(ring) and nontrivial and group.is_p_group(3),
        3: wnc and group.is_trivial(),
    }, ring, group)


def nil_neat_group_ring_predicate(ring: RingTable, group: AbelianGroup) -> bool:
    """RG nil-neat iff G trivial and R nil-neat, or G a non-trivial
    2-group and R nil-clean."""
    if group.is_trivial():
        return is_nil_neat_criterion(ring)
    return group.is_p_group(2) and is_nil_clean_criterion(ring)


def weakly_nil_neat_group_ring_predicate(ring: RingTable, group: AbelianGroup) -> PredicateResult:
    """RG weakly nil-neat iff exactly one of four conditions holds.

    (1) G trivial and R weakly nil-neat;
    (2) G a non-trivial 2-group and R nil-clean;
    (3) G a non-trivial 3-group and R weakly nil-clean with 3 nilpotent
        in R;
    (4) G cyclic of order 2 and R the ring of order 3.
    """
    nc = is_nil_clean_criterion(ring)
    wnc = weakly_nil_clean_criterion(ring)
    nontrivial = not group.is_trivial()
    return _exactly_one({
        1: group.is_trivial() and weakly_nil_neat_criterion(ring),
        2: nontrivial and group.is_p_group(2) and nc,
        3: nontrivial and group.is_p_group(3) and wnc and _three_is_nilpotent(ring),
        4: group.order == 2 and ring.order == 3,
    }, ring, group)


def encode_witness(witness):
    """A verdict witness as JSON: an ideal's member list, an element
    index, or None."""
    if witness is None:
        return None
    if isinstance(witness, IdealSet):
        return [int(v) for v in witness.key]
    return int(witness)


PROPERTIES = ("nil_clean", "weakly_nil_clean", "nil_neat", "weakly_nil_neat")

# (p, q): every ring with property p has property q
_IMPLICATIONS = (
    ("nil_clean", "weakly_nil_clean"),
    ("nil_clean", "nil_neat"),
    ("weakly_nil_clean", "weakly_nil_neat"),
    ("nil_neat", "weakly_nil_neat"),
)


def classify_ring(ring: RingTable) -> dict[str, Verdict]:
    """The four properties' verdicts by name, in :data:`PROPERTIES` order.

    Each property is decided definitionally and by criterion, and a
    mismatch raises :class:`DisagreementError`, as does a verdict set
    that breaks an implication between the properties (nil-clean implies
    the other three, and so on).  The witnesses come from the
    definitional scans.
    """
    verdicts = dict(zip(PROPERTIES, _definitional_verdicts(ring)))
    criteria = (
        is_nil_clean_criterion(ring),
        weakly_nil_clean_criterion(ring),
        is_nil_neat_criterion(ring),
        weakly_nil_neat_criterion(ring),
    )
    for (name, verdict), criterion in zip(verdicts.items(), criteria):
        if verdict.ok != criterion:
            raise DisagreementError(
                f"{name}: definitional={verdict.ok} criterion={criterion} on {ring.label}"
            )
    for p, q in _IMPLICATIONS:
        if verdicts[p].ok and not verdicts[q].ok:
            raise DisagreementError(f"hierarchy violated on {ring.label}: {p} holds but {q} does not")
    return verdicts
