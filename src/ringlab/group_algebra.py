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

Each trivial unit t = a g of RG (a a unit of R, g in G) permutes RG,
and mul[t x, y] = mul[x, t y].  :func:`group_ring` uses this to gather
from RG's ``add`` only the row of the least member of each orbit of
these units; every other row of ``mul`` is such a row read through the
permutation of one trivial unit.
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
    _product_table,
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


def group_ring(base: RingTable, group: AbelianGroup, *, cap: int = DEFAULT_ORDER_CAP) -> GroupRingView:
    """Build RG straight from the tables of R, whose zero must be index 0.

    A base ring with its zero elsewhere raises :class:`ValueError`.  With
    n = |R|, addition works digit by digit: the table of the elements on
    g_0 .. g_t is add_R[u_t, v_t] n^t + (the table on g_0 .. g_(t-1)).

    Multiplication is additive in its second argument: u * (c g_t) has
    index sum_h mul_R[u_h, c] n^pos(g_h g_t), and for v < n^t, u * (c n^t
    + v) = u * (c g_t) + u * v.  So a row of ``mul`` can be filled in
    increasing column order: all n - 1 blocks of columns c n^t + v
    (v < n^t, c != 0) of a level t in one flat ``np.take`` from RG's own
    ``add``, whose intp indices are formed one row block of at most
    ``_BLOCK`` entries at a time.

    Only the least member r of each orbit of the trivial units
    T = R^x x G has its row filled so.  Each t = a g in T permutes RG
    (a scales every coefficient, g shifts them), and mul[t x, y] =
    mul[x, t y].  So the row of an x with t x = r is row r read through
    the permutation y -> t^-1 y, one contiguous row at a time.  The
    permutations are formed for a chunk of T at a time, once to find
    each x's least image t x and once to read the rows of the x that t
    takes there.  Every row is written straight into ``mul``, so no
    temporary outgrows a chunk or a row block.
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
    elements = group.elements()
    index = {e: i for i, e in enumerate(elements)}
    # weight[g, h] = n^pos(g_h g), the place value of digit h of x in g x
    weight = n ** np.array([[index[tuple((a + b) % d for a, b, d in zip(eh, eg, group.factors))] for eh in elements]
                            for eg in elements], dtype=np.int64)
    units = np.flatnonzero(element_classes(base).units)
    chunks = list(_row_blocks(units.size, m * m * size))  # t = a g is numbered (position of a) m + g

    def act(us: slice) -> np.ndarray:
        """Row k m + g is the permutation x -> a g x of RG, for a = units[us][k]."""
        scaled = base.mul[units[us]][:, None, digits]  # [k, 0, h, x] is digit h of a x
        return (scaled * weight[:, :, None].astype(dt)).sum(axis=2, dtype=dt).reshape(-1, size)

    least = np.arange(size, dtype=dt)  # least member of x's orbit seen so far
    taker = np.full(size, -1, dtype=np.intp)  # a t with t x = least[x] < x, or -1 while x is least
    for us in chunks:
        perms = act(us)
        low = perms.min(axis=0)
        lower = low < least
        np.copyto(taker, perms.argmin(axis=0) + us.start * m, where=lower)
        np.copyto(least, low, where=lower)
    # the least members in increasing order, then every other x sorted by its t
    reps, others = np.split(np.argsort(taker, kind="stable"), [np.count_nonzero(taker < 0)])
    flat = add.ravel()  # add[u, v] is flat[u * size + v]
    mul = np.empty((size, size), dtype=dt)
    mul[reps, 0] = 0  # u * 0, where the recurrence starts
    for rows in _row_blocks(reps.size, size):
        u = reps[rows]
        # col[u, t, c - 1] = (u * (c g_t)) size, so that col + u * v addresses add[u * (c g_t), u * v]
        col = weight @ base.mul[digits[:, u].T, 1:] * size
        for t in range(m):
            lo = n**t
            idx = mul[u, :lo][:, None, :] + col[:, t, :, None]
            mul[u, lo : n * lo] = np.take(flat, idx).reshape(u.size, -1)
    # others[bounds[t] : bounds[t + 1]] are the x that t takes to their least member
    bounds = np.searchsorted(taker[others], np.arange(units.size * m + 1)).tolist()
    for us in chunks:
        inverse = act(us).argsort(axis=1, kind="stable")  # row k is y -> t^-1 y, t numbered us.start m + k
        for k, t in enumerate(range(us.start * m, us.stop * m)):
            x = others[bounds[t] : bounds[t + 1]]
            for rows in _row_blocks(x.size, size):
                mul[x[rows]] = mul[least[x[rows]]].take(inverse[k], axis=1)
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
