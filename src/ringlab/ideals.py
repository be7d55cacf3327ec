"""Ideals, quotients and radicals of table rings.

The whole module is brute force by design: principal ideals are rows
of the multiplication table, and every ideal is a sum of principal
ones, built one summand at a time by a single walk that serves both
:func:`ideal_generated` and the minimal generators naming a quotient.
A validated :class:`IdealSet` is checked from a few additive generators
of it, one row of ``add`` and of ``mul`` each, on the ring axioms (see
:func:`_check_ideal`).
:func:`quotient_ring` is the one quotient constructor.  It returns the
table ring R/I, whose cosets are indexed in the order of their least
members; it builds no projection object.  Maximal ideals are not read off
the ideal lattice: a finite commutative ring is the product of
the local rings Re over its primitive idempotents e, so each maximal
ideal is read off one primitive idempotent and the units (see
:func:`maximal_ideals`), and the Jacobson radical is a literal
intersection of those maximal ideals.  Minimal ideals are the Rx for
x in the socle Ann(N) and in one local factor Re, also without the
lattice: one row of ``mul`` per minimal ideal (see :func:`minimal_ideals`).
The lattice, these ideals and both radicals are memoized on the ring
as the :class:`IdealSet` objects callers receive (see
:mod:`ringlab.rings`).  Everything is deterministic; ideal tuples are
always sorted by size and then lexicographically by member list.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .rings import (
    CapExceeded,
    DisagreementError,
    RingTable,
    _gather,
    _memo,
    _row_blocks,
    _table_dtype,
    element_classes,
)

#: Default cap on the ring order for full ideal-lattice enumeration.
DEFAULT_IDEAL_CAP = 1024


class IdealSet:
    """A subset of a ring's indices closed under + and ambient *.

    It keeps its ring's order and label, not the ring, so a memoized
    ideal, or a verdict naming one as its witness, keeps no ring alive.
    Equal label and members make equal ideals.
    """

    __slots__ = ("order", "label", "members")

    def __init__(self, ring: RingTable, members, *, validate: bool = True):
        arr = np.asarray(members if isinstance(members, np.ndarray) else list(members))
        if arr.size == 0:
            arr = np.array([ring.zero])
        # a Python int too wide for int64 makes an object array; it is range-checked below
        if not (arr.dtype.kind in "iu" or arr.dtype.kind == "O" and all(type(v) is int for v in arr.flat)):
            raise ValueError(f"ideal members must be integer indices, not {arr.dtype}")
        # checked before narrowing to int64, which could overflow or wrap them into range
        if arr.min() < 0 or arr.max() >= ring.order:
            raise ValueError("ideal member index out of range")
        arr = np.unique(arr.astype(np.int64))
        if validate:
            _check_ideal(ring, arr)
        self.order = ring.order
        self.label = ring.label
        self.members = arr
        arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.members.size)

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(map(int, self.members))

    @property
    def is_zero(self) -> bool:
        return len(self) == 1

    @property
    def is_whole(self) -> bool:
        return len(self) == self.order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdealSet)
            and other.label == self.label
            and np.array_equal(other.members, self.members)
        )

    def __hash__(self) -> int:
        return hash((self.label, self.members.tobytes()))

    def __repr__(self) -> str:
        inner = ",".join(map(str, self.key)) if len(self) <= 12 else f"{len(self)} elements"
        return f"IdealSet({self.label}, {{{inner}}})"


def _check_ideal(ring: RingTable, members: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``members`` is an ideal.

    The members I are accepted iff 0 is in I and, for each g of a set
    of additive generators (:func:`_additive_generators`), I + g and
    g R lie in I.  Then I holds every sum of generators, so I is their
    additive span, a subgroup, and every product of a sum of generators
    with r lies in I by distributivity.  Each g reads row g of ``add``
    at the members and row g of ``mul``, O((|I| + n) rank) reads in all,
    where a full check reads |I|^2 sums and n |I| products.  The proof
    assumes an associative ``add`` and a distributive ``mul``, which
    :class:`RingTable` does not check; the full check is kept as a test
    oracle.
    """
    member = np.zeros(ring.order, dtype=bool)
    member[members] = True
    if not member[ring.zero]:
        raise ValueError("ideal must contain zero")
    for g in _additive_generators(ring, members):
        if not member[ring.add[g].take(members)].all():
            raise ValueError("set is not closed under addition")
        if not member[ring.mul[g]].all():
            raise ValueError("set is not closed under ambient multiplication")


def _additive_generators(ring: RingTable, members: np.ndarray) -> list[int]:
    """A set of additive generators whose span covers ``members``, picked
    greedily: the least member outside the span so far joins it.

    Adding g to a span S walks the cosets S + kg: the multiples kg are
    walked until one falls in S, and the entries of their rows of
    ``add`` at S, taken by flat index rather than whole rows, give the
    cosets, |S + <g>| reads.  Every walked element is marked, so the walk
    ends on any table.
    """
    covered = np.zeros(ring.order, dtype=bool)
    covered[ring.zero] = True
    span = np.array([ring.zero], dtype=ring.add.dtype)
    gens: list[int] = []
    while True:
        rest = members[~covered[members]]
        if rest.size == 0:
            return gens
        g = int(rest[0])
        gens.append(g)
        multiples = []
        k = g
        while not covered[k]:
            covered[k] = True
            multiples.append(k)
            k = int(ring.add[k, g])
        cosets = ring.add.take((np.array(multiples) * ring.order)[:, None] + span)
        span = np.concatenate([span, cosets.ravel()])
        covered[span] = True


def _principal(ring: RingTable, x: int) -> np.ndarray:
    """Sorted members of the principal ideal Rx, row x of ``mul``."""
    return np.unique(ring.mul[x]).astype(np.int64)


def _ideal_sum(ring: RingTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted members of I + J, from the sorted members of I and J."""
    return np.unique(_gather(ring.add, a, b)).astype(np.int64)


def _span(ring: RingTable, candidates) -> tuple[np.ndarray, list[int]]:
    """Sum of the principal ideals Rx over ``candidates``, walked in order.

    Starting from the zero ideal, each candidate not yet in the sum adds
    its principal ideal; returns the sorted members and those candidates.
    """
    members = np.array([ring.zero], dtype=np.int64)
    covered = np.zeros(ring.order, dtype=bool)
    covered[ring.zero] = True
    used: list[int] = []
    for x in candidates:
        if not covered[x]:
            used.append(int(x))
            members = _ideal_sum(ring, members, _principal(ring, x))
            covered[members] = True
    return members, used


def ideal_generated(ring: RingTable, gens) -> IdealSet:
    """Least ideal containing ``gens``: the sum of the principal ideals Rg."""
    gens = [int(g) for g in gens]  # range-checked before int64 can overflow
    bad = [g for g in gens if not 0 <= g < ring.order]
    if bad:
        raise ValueError(f"generator {bad[0]} is not an element index of {ring.label} (order {ring.order})")
    return IdealSet(ring, _span(ring, np.unique(np.array(gens, dtype=np.int64)))[0])


def minimal_generators(ring: RingTable, ideal: IdealSet) -> list[int]:
    """Greedy small generating set, used for quotient labels."""
    return _span(ring, ideal.members)[1] or [ring.zero]


def _in_canonical_order(ring: RingTable, member_arrays) -> tuple[IdealSet, ...]:
    """Ideals of ``ring`` from their sorted member arrays, ordered by
    size and then lexicographically by member list."""
    ordered = sorted(member_arrays, key=lambda m: (m.size, tuple(m)))
    return tuple(IdealSet(ring, m, validate=False) for m in ordered)


def enumerate_ideals(ring: RingTable, *, cap: int = DEFAULT_IDEAL_CAP) -> tuple[IdealSet, ...]:
    """The complete ideal lattice.

    Walks a queue that starts as the distinct principal ideals (R*0 is
    the zero ideal) and appends every new sum I + P of a queued I and a
    principal P.  Every ideal is a sum P1 + ... + Pk of principal ideals
    and each partial sum reaches the queue, so the walk ends with the
    full lattice.
    """
    n = ring.order
    if n > cap:
        raise CapExceeded(f"ideal enumeration needs order <= {cap}, got {n}")
    return _lattice(ring)


@_memo
def _lattice(ring: RingTable) -> tuple[IdealSet, ...]:
    n = ring.order
    known: dict[bytes, np.ndarray] = {}
    for x in range(n):
        p = _principal(ring, x)
        known.setdefault(p.tobytes(), p)
    principal = list(known.values())
    masks = np.zeros((len(principal), n), dtype=bool)
    for row, p in zip(masks, principal):
        row[p] = True
    sizes = masks.sum(axis=1)
    queue = list(principal)  # grows while it is walked
    for ideal in queue:
        common = masks[:, ideal].sum(axis=1)  # |P & I| for each principal P
        # P inside I or I inside P: the sum is I or P, both already known
        for k in np.flatnonzero((common < sizes) & (common < ideal.size)):
            joined = _ideal_sum(ring, ideal, principal[k])
            key = joined.tobytes()
            if key not in known:
                known[key] = joined
                queue.append(joined)
    return _in_canonical_order(ring, known.values())


def _coset_map(ring: RingTable, ideal: IdealSet) -> np.ndarray:
    """The least member of each coset x + I, in the table dtype, found
    one row block of ``add`` at a time."""
    rep = np.empty(ring.order, dtype=ring.add.dtype)
    for rows in _row_blocks(ring.order, len(ideal)):
        rep[rows] = ring.add[rows][:, ideal.members].min(axis=1)
    return rep


def quotient_ring(ring: RingTable, ideal: IdealSet) -> RingTable:
    """R/I for a proper ideal I, labelled ``R/(g1,...)`` by minimal generators.

    Each coset is represented by its least member, and the cosets are
    indexed in the order of those members.  The members are found by
    :func:`_coset_map`, and both q x q tables read by
    :func:`ringlab.rings._gather`, one row block at a time, each table
    block mapped through the projection (cast to the quotient's table
    dtype) before the next is read, so no temporary outgrows one block.
    """
    if ideal.is_whole:
        raise ValueError(
            f"quotient of {ring.label} (order {ring.order}) by the whole ring is the zero ring "
            "and is not constructible"
        )
    rep = _coset_map(ring, ideal)
    class_reps = np.unique(rep)
    proj = np.searchsorted(class_reps, rep).astype(_table_dtype(class_reps.size))
    gens = minimal_generators(ring, ideal)
    return RingTable(
        _gather(ring.add, class_reps, class_reps, through=proj),
        _gather(ring.mul, class_reps, class_reps, through=proj),
        zero=int(proj[ring.zero]),
        one=int(proj[ring.one]),
        label=f"{ring.label}/({','.join(map(str, gens))})",
        neg=proj[ring.neg[class_reps]],  # -(x + I) = -x + I
    )


def is_field(ring: RingTable) -> bool:
    """Every nonzero element is a unit."""
    return np.count_nonzero(element_classes(ring).units) == ring.order - 1


def _primitive_idempotents(ring: RingTable, idempotents: np.ndarray) -> np.ndarray:
    """The primitive idempotents, split off 1 along every idempotent.

    Starting from the partition [1], each idempotent f replaces every
    block e by e*f and e - e*f, and zero blocks are dropped.  The blocks
    stay idempotent, orthogonal and summing to 1; once every f has
    split them, none can be split further, so they are primitive.
    """
    blocks = np.array([ring.one])
    for f in idempotents:
        part = ring.mul[blocks, f]
        blocks = np.concatenate([part, ring.add[blocks, ring.neg[part]]])
        blocks = np.unique(blocks[blocks != ring.zero])
    prods = _gather(ring.mul, blocks, blocks)
    prods[np.diag_indices(blocks.size)] = ring.zero
    if (prods != ring.zero).any():
        raise DisagreementError(f"corrupted table {ring.label}: primitive idempotents are not orthogonal")
    if reduce(lambda acc, e: int(ring.add[acc, e]), blocks, ring.zero) != ring.one:
        raise DisagreementError(f"corrupted table {ring.label}: primitive idempotents do not sum to 1")
    return blocks


@_memo
def maximal_ideals(ring: RingTable) -> tuple[IdealSet, ...]:
    """All maximal ideals, in canonical order, from the primitive idempotents.

    The lattice is never enumerated.  A finite commutative ring is
    artinian, so it is the product of the local rings Re_1, ..., Re_k
    over its primitive idempotents (Atiyah-Macdonald 8.7), and its
    maximal ideals are M_i = {x : xe_i lies in the maximal ideal of
    Re_i}, one for each e_i.  The element xe_i + (1 - e_i) has xe_i in
    place i and 1 in every other place, so M_i is exactly the x for
    which it is not a unit.  Only units and idempotents are used, never
    the nilpotents, and the units come from a power map of their own
    (:func:`ringlab.rings.element_classes`), so J stays independent of
    N.  Each M_i reads row e_i of ``mul`` and one gather of ``add``.  A
    local ring, a field included, has e_1 = 1 and its non-units as its
    maximal ideal.
    """
    classes = element_classes(ring)  # apart on purpose from minimal_ideals' read (_local_parts)
    found = []
    for e in _primitive_idempotents(ring, np.flatnonzero(classes.idempotents)):
        rest = ring.add[ring.one, ring.neg[e]]  # 1 - e
        found.append(np.flatnonzero(~classes.units[ring.add[ring.mul[e], rest]]))
    return _in_canonical_order(ring, found)


@_memo
def _high_power(ring: RingTable) -> np.ndarray:
    """x^(2^K) for every x, K the bit length of the order: 0 exactly on
    the nilpotents.

    The definitional side's own tower, read by the definitional scans
    and by :func:`minimal_ideals`.  The criteria read the nilpotents of
    :func:`ringlab.rings.element_classes`, formed by a tower of their
    own, so the two derivations share no code.
    """
    square = ring.mul.diagonal()
    high = np.arange(ring.order)
    for _ in range(ring.order.bit_length()):
        high = square[high]
    high.setflags(write=False)
    return high


def _local_parts(ring: RingTable) -> np.ndarray:
    """Mask of the x in eR for an atom (primitive idempotent) e.

    For an idempotent e, row e of ``mul`` has eR as its fixed points, and
    e is an atom iff they hold two idempotents, 0 and e.  The idempotents
    are the fixed points of the diagonal, read only at those of
    :func:`_high_power` (e^(2^K) = e): a strided read of all of it is slow.
    """
    idx = np.arange(ring.order)
    fixed = np.flatnonzero(_high_power(ring) == idx)
    # apart on purpose from maximal_ideals' read (element_classes, _primitive_idempotents)
    idempotents = fixed[ring.mul.diagonal()[fixed] == fixed]
    idempotent = np.zeros(ring.order, dtype=bool)
    idempotent[idempotents] = True
    parts = np.zeros(ring.order, dtype=bool)
    for rows in _row_blocks(idempotents.size, ring.order):
        within = ring.mul.take(idempotents[rows], axis=0) == idx  # eR, one row per e
        parts |= within[np.count_nonzero(within & idempotent, axis=1) == 2].any(axis=0)
    return parts


@_memo
def minimal_ideals(ring: RingTable) -> tuple[IdealSet, ...]:
    """All minimal nonzero ideals, in canonical order; a field has only R.

    R is the product of the local rings Re over its atoms e
    (Atiyah-Macdonald 8.7).  A minimal M lies in the socle S = Ann(N), as
    NM is an ideal inside M and not M, N being nilpotent.  M = eM for
    exactly one atom e, the eM being ideals that meet only in 0 and sum
    to M.  For 0 != x in eS, Rx = (Re)x is killed by Ne, the maximal ideal
    of Re, so Rx is Re/Ne, a field, as an Re-module: Rx is minimal.  So
    the candidates, the nonzero x of S in some eR (:func:`_local_parts`),
    are the nonzero members of the minimal ideals; while one remains, the
    least, x, gives Rx (row x of ``mul``), whose members are dropped.  S
    is read off one row of ``mul`` per additive generator of N (from
    :func:`_high_power`): one row per such generator, per idempotent and
    per minimal ideal is read in all.
    """
    candidate = _local_parts(ring)
    candidate[ring.zero] = False
    nilpotents = np.flatnonzero(_high_power(ring) == ring.zero)
    for g in _additive_generators(ring, nilpotents):
        candidate &= ring.mul[g] == ring.zero
    found = []
    x = int(candidate.argmax())  # the least candidate, if one remains
    while candidate[x]:
        found.append(_principal(ring, x))
        candidate[found[-1]] = False
        x = int(candidate.argmax())
    return _in_canonical_order(ring, found)


@_memo
def nilradical(ring: RingTable) -> IdealSet:
    """The set of nilpotents, re-checked for ideal closure.

    Commutativity guarantees closure, so a failure here signals a
    corrupted table and raises ``ValueError``.
    """
    return IdealSet(ring, np.flatnonzero(element_classes(ring).nilpotents))


@_memo
def jacobson_radical(ring: RingTable) -> IdealSet:
    """Intersection of all maximal ideals."""
    return IdealSet(ring, reduce(np.intersect1d, (m.members for m in maximal_ideals(ring))))
