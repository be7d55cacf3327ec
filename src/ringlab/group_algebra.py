"""Finite abelian groups and group rings over table rings.

Groups are kept in canonical prime-power form: the factor list holds
cyclic orders ``p^e`` sorted by (prime, exponent), and elements are
exponent tuples enumerated lexicographically.  The group ring ``RG``
is a :class:`~ringlab.rings.RingTable` whose element index is the
mixed-radix encoding of the coefficient tuple (base ``|R|``, group
element 0 least significant), so the copy of R embedded on the identity
coefficient occupies indices ``0 .. |R|-1`` unchanged.  A coefficient
is a base-``|R|`` digit of the index, so no coefficient table is kept.
:func:`group_ring` builds RG's tables straight from those of R, and
:func:`karpilovsky_radical` reads J(RG) off R and G alone.

RG is an R-algebra, so u * (a y) = (a u) * y for a in R, where a x
scales each coefficient of x by a.  :func:`group_ring` uses this to
gather from RG's ``add`` only for the least member b of each associate
class {a b : a a unit} of R; every other column block of ``mul`` is a
block b read with its rows and columns permuted by unit scalings.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .ideals import IdealSet, ideal_generated, jacobson_radical
from .rings import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    RingTable,
    _memo,
    _product_table,
    _readonly,
    _row_blocks,
    _table_dtype,
    element_classes,
)


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(p: int) -> bool:
    return _factorint(p) == {p: 1}


class AbelianGroup:
    """A finite abelian group as a canonical list of cyclic factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(d) for d in factors)
        for d in factors:
            f = _factorint(d)
            if d < 2 or len(f) != 1:
                raise ValueError(f"factor {d} is not a prime power; build groups with make_group")
        key = [(min(_factorint(d)), d) for d in factors]
        if key != sorted(key):
            raise ValueError("factors not in canonical (prime, exponent) order; use make_group")
        self.factors = factors

    @property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    @property
    def label(self) -> str:
        if not self.factors:
            return "1"
        return " x ".join(f"C{d}" for d in self.factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and other.factors == self.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"AbelianGroup({self.label})"

    def is_trivial(self) -> bool:
        return not self.factors

    def is_p_group(self, p: int) -> bool:
        """True iff the order is a power of p (the trivial group counts)."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def elements(self) -> list[tuple[int, ...]]:
        """Exponent tuples in lexicographic (index) order."""
        return list(product(*(range(d) for d in self.factors)))

    def p_torsion_indices(self, p: int) -> list[int]:
        """Indices (within this group) of the elements of p-power order."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        out = []
        for idx, exps in enumerate(self.elements()):
            if all(e == 0 for e, d in zip(exps, self.factors) if d % p != 0):
                out.append(idx)
        return out


def make_group(orders: Iterable[int]) -> AbelianGroup:
    """Canonical abelian group from arbitrary cyclic orders.

    Each order is split into prime-power cyclic factors (CRT) and the
    factors are sorted by (prime, exponent); order-1 factors vanish.
    """
    factors: list[int] = []
    for d in orders:
        d = int(d)
        if d < 1:
            raise ValueError("cyclic factor orders must be >= 1")
        for p, e in _factorint(d).items():
            factors.append(p**e)
    factors.sort(key=lambda q: (min(_factorint(q)), q))
    return AbelianGroup(factors)


class GroupRingView(NamedTuple):
    """A constructed group ring RG with the base ring R and group G it
    was built from."""

    ring: RingTable
    base: RingTable
    group: AbelianGroup


def group_ring_order(n: int, m: int, *, cap: int) -> int:
    """The order n^m of a group ring with |R| = n >= 2 and |G| = m.

    Raises :class:`CapExceeded` once a partial power passes ``cap``, so
    a huge m costs at most log2(cap) multiplications, and the message
    names the order as ``n^m`` rather than printing its digits.
    """
    size = 1
    for _ in range(m):
        size *= n
        if size > cap:
            raise CapExceeded(f"group ring order {n}^{m} exceeds cap {cap}")
    return size


def _digits(count: int, base: int, width: int) -> np.ndarray:
    """Row i holds digit i (least significant first) of 0 .. count-1 in base ``base``."""
    radix = base ** np.arange(width, dtype=np.int64)
    return ((np.arange(count, dtype=np.int64) // radix[:, None]) % base).astype(_table_dtype(base))


@_memo
def _associates(base: RingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each c in R as a*b with a a unit and b the least member of
    c's associate class {a*c : a a unit}.

    Returns ``least`` (b for each c) and, for each c, the units
    ``scale[c]`` = a and ``unscale[c]`` = a^-1, all read-only.  The units
    come from :func:`ringlab.rings.element_classes`; a pass over their
    rows of ``mul`` finds each one's inverse where its row hits 1, and
    a pass over the unit columns the least entry of each row and the
    unit it sits at, both in row blocks.
    """
    n = base.order
    unit_idx = np.flatnonzero(element_classes(base).units)
    inverse = np.empty(unit_idx.size, dtype=np.intp)  # inverse[k] * unit_idx[k] = 1
    for rows in _row_blocks(unit_idx.size, n):
        inverse[rows] = (base.mul.take(unit_idx[rows], axis=0) == base.one).argmax(axis=1)
    least = np.empty(n, dtype=np.intp)
    k = np.empty(n, dtype=np.intp)  # position in unit_idx of the unit taking c to least[c]
    for rows in _row_blocks(n, unit_idx.size):
        orbit = base.mul[rows].take(unit_idx, axis=1)
        k[rows] = orbit.argmin(axis=1)
        least[rows] = np.take_along_axis(orbit, k[rows, None], axis=1)[:, 0]
    return _readonly(least), _readonly(inverse[k]), _readonly(unit_idx[k])


def group_ring(base: RingTable, group: AbelianGroup, *, cap: int = DEFAULT_ORDER_CAP) -> GroupRingView:
    """Build RG straight from the tables of R, whose zero must be index 0.

    A base ring with its zero elsewhere raises :class:`ValueError`.  With
    n = |R|, addition works digit by digit: the table of the elements on
    g_0 .. g_t is add_R[u_t, v_t] n^t + (the table on g_0 .. g_(t-1)).
    Multiplication is additive in its second argument: u * (c g_t) has
    index sum_h mul_R[u_h, c] n^pos(g_h g_t), and for v < n^t, u * (c n^t
    + v) = u * (c g_t) + u * v.  So ``mul`` is filled in increasing
    column order, one block of columns c n^t + v (v < n^t) per nonzero c
    in R.

    Only a block whose c is the least member b of its associate class
    gathers from RG's own ``add``, once per entry: a flat ``np.take``
    whose intp indices are formed one row block of at most ``_BLOCK``
    entries at a time.  Every other c is a*b with a a unit, and RG is an
    R-algebra, so u * (a y) = (a u) * y.  With y = b g_t + a^-1 v, that
    block is block b with its rows permuted by u -> a u and its columns
    by v -> a^-1 v, where a x = sum_h mul_R[a, x_h] n^h digit by digit:
    each row of block b is read as one contiguous slice.
    """
    n = base.order
    m = group.order
    size = group_ring_order(n, m, cap=cap)
    if base.zero != 0:
        raise ValueError(f"group ring over {base.label}: its zero must be index 0, not {base.zero}")
    dt = _table_dtype(size)
    add = base.add.astype(dt)
    for _ in range(1, m):
        add = _product_table(base.add, add, dt)
    digits = _digits(size, n, m)
    radix = n ** np.arange(m, dtype=np.int64)
    least, scale, unscale = _associates(base)
    elements = group.elements()
    index = {e: i for i, e in enumerate(elements)}
    flat = add.ravel()  # add[u, v] is flat[u * size + v]
    mul = np.zeros((size, size), dtype=dt)
    for t, et in enumerate(elements):
        pos = [index[tuple((a + b) % d for a, b, d in zip(eh, et, group.factors))] for eh in elements]
        lo = n**t
        for c in range(1, n):
            b = least[c]
            if b == c:
                col = (base.mul[digits, c] * radix[pos, None]).sum(axis=0).astype(np.intp) * size
                for rows in _row_blocks(size, lo):
                    idx = mul[rows, :lo] + col[rows, None]  # formed in intp, col's dtype
                    mul[rows, c * lo : (c + 1) * lo] = np.take(flat, idx)
            else:  # c = a b: entry (u, v) of block c is entry (a u, a^-1 v) of block b
                src_rows = (base.mul[scale[c], digits] * radix[:, None]).sum(axis=0)
                src_cols = (base.mul[unscale[c], digits[:t, :lo]] * radix[:t, None]).sum(axis=0)
                block = mul[:, b * lo : (b + 1) * lo]
                for rows in _row_blocks(size, lo):
                    mul[rows, c * lo : (c + 1) * lo] = block[src_rows[rows]].take(src_cols, axis=1)
    ring = RingTable(add, mul, zero=0, one=int(base.one), label=f"GR({base.label}, {group.label})")
    return GroupRingView(ring, base, group)


def karpilovsky_radical(view: GroupRingView) -> IdealSet:
    """Jacobson radical of RG from base-ring data alone.

    Generators: every j*g with j in J(R) and g in G, together with every
    r*(g_p - 1) where p is a prime dividing |G|, g_p runs over the
    p-torsion elements of G, and p*r lies in J(R).
    """
    base, group = view.base, view.group
    j_base = jacobson_radical(base)
    in_j = set(j_base.key)
    gens: set[int] = set()
    n = base.order
    for j in j_base.key:
        for g in range(group.order):
            gens.add(j * n**g)
    for p in _factorint(group.order):
        shifted = [r for r in range(n) if base.int_mul(p, r) in in_j]
        torsion = group.p_torsion_indices(p)
        for r in shifted:
            neg_r = int(base.neg[r])
            for g in torsion:
                if g == 0:
                    continue  # r*(1 - 1) = 0
                gens.add(neg_r + r * n**g)
    return ideal_generated(view.ring, sorted(gens))
