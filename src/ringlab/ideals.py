"""Ideals, quotients and radicals of table rings.

The whole module is brute force by design: principal ideals are columns
of the multiplication table, and every ideal is a sum of principal
ones, built one summand at a time by a single walk that serves both
:func:`ideal_generated` and the minimal generators naming a quotient.
:func:`quotient_ring` is the one quotient constructor.  It returns the
table ring R/I, whose cosets are indexed in the order of their least
members; it builds no projection object.  Maximal ideals are not read off
the ideal lattice: a finite commutative ring is the product of
the local rings Re over its primitive idempotents e, so each maximal
ideal is read off one primitive idempotent and the units (see
:func:`maximal_ideals`), and the Jacobson radical is a literal
intersection of those maximal ideals.  Minimal ideals are principal,
Rx, and are found by a walk over the classes of equal |Ann(x)|, also
without the lattice.
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

    Both closure checks go one row block at a time, so their temporaries
    stay small however large the ideal.
    """
    member = np.zeros(ring.order, dtype=bool)
    member[members] = True
    if not member[ring.zero]:
        raise ValueError("ideal must contain zero")
    for rows in _row_blocks(members.size, members.size):
        if not _gather(ring.add, members[rows], members, through=member).all():
            raise ValueError("set is not closed under addition")
    for rows in _row_blocks(ring.order, members.size):
        if not member[ring.mul[rows][:, members]].all():
            raise ValueError("set is not closed under ambient multiplication")


def _principal(ring: RingTable, x: int) -> np.ndarray:
    """Sorted members of the principal ideal Rx, a column of ``mul``."""
    return np.unique(ring.mul[:, x]).astype(np.int64)


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
    the nilpotents, so J stays independent of N.  A local ring, a field
    included, has e_1 = 1 and its non-units as its maximal ideal.
    """
    classes = element_classes(ring)
    found = []
    for e in _primitive_idempotents(ring, np.flatnonzero(classes.idempotents)):
        rest = ring.add[ring.one, ring.neg[e]]  # 1 - e
        found.append(np.flatnonzero(~classes.units[ring.add[ring.mul[:, e], rest]]))
    return _in_canonical_order(ring, found)


@_memo
def minimal_ideals(ring: RingTable) -> tuple[IdealSet, ...]:
    """All minimal nonzero ideals, in canonical order; a field has only R.

    A minimal ideal is some Rx, and Rx is R/Ann(x) as a group, so the
    nonzero x are visited in classes of equal |Ann(x)|, largest first:
    |Rx| ascending.  Rx is minimal unless x lies in a minimal ideal
    already found or divides one of their generators g (g occurs in row
    x of ``mul``): a non-minimal Rx properly contains a minimal Rg with
    |Rg| < |Rx|, found in an earlier class, and g lies in Rx.  The
    units, where Rx = R, are visited only in a field.
    """
    n = ring.order
    ann = np.empty(n, dtype=ring.mul.dtype)  # |Ann(x)|, at most n
    for rows in _row_blocks(n, n):
        ann[rows] = (ring.mul[rows] == ring.zero).sum(axis=1, dtype=ann.dtype)
    decided = np.zeros(n, dtype=bool)  # zero, in a minimal ideal found, or a divisor of a generator
    decided[ring.zero] = True
    found = []
    for size in np.unique(ann[~decided])[::-1]:
        if size == 1 and found:
            break
        gens = []
        for x in np.flatnonzero((ann == size) & ~decided):
            if not decided[x]:
                gens.append(x)
                found.append(_principal(ring, x))
                decided[found[-1]] = True
        for g in gens:  # each pass reads only the rows still undecided
            later = np.flatnonzero((ann < size) & (ann > 1) & ~decided)
            for rows in _row_blocks(later.size, n):
                divides = (ring.mul.take(later[rows], axis=0) == g).any(axis=1)
                decided[later[rows][divides]] = True
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
