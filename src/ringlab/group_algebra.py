"""Finite abelian groups and group rings over table rings.

Groups are kept in canonical prime-power form: the factor list holds
cyclic orders ``p^e`` sorted by (prime, exponent), and elements are
exponent tuples enumerated lexicographically.  The group ring ``RG``
is a :class:`~ringlab.rings.RingTable` whose element index is the
mixed-radix encoding of the coefficient tuple (base ``|R|``, group
element 0 least significant), so the copy of R embedded on the identity
coefficient occupies indices ``0 .. |R|-1`` unchanged.  RG is built as
a tower of cyclic extensions that lands on exactly this layout.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .ideals import IdealSet, ideal_generated, jacobson_radical
from .rings import _BLOCK, DEFAULT_ORDER_CAP, CapExceeded, RingHom, RingTable, _readonly, _table_dtype


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
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


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


class GroupRingView:
    """A constructed group ring RG with its coefficient bookkeeping.

    ``coeff_of[i, j]`` is the base-ring index of the coefficient of the
    j-th group element in the i-th ring element.
    """

    __slots__ = ("ring", "base", "group", "coeff_of")

    def __init__(self, ring: RingTable, base: RingTable, group: AbelianGroup, coeff_of: np.ndarray):
        self.ring = ring
        self.base = base
        self.group = group
        self.coeff_of = _readonly(coeff_of)

    def __repr__(self) -> str:
        return f"GroupRingView({self.ring.label})"


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


def _cyclic_step(add: np.ndarray, mul: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of S[C_d] from those of S.

    The coefficient of x^i sits at radix |S|^i, and x^i x^j =
    x^((i+j) mod d).  Rows are written in blocks of at most ``_BLOCK``
    entries, directly in the final table dtype.
    """
    s = add.shape[0]
    size = s**d
    dt = _table_dtype(size)
    radix = [dt.type(s**i) for i in range(d)]
    digits = _digits(size, s, d)
    out_add, out_mul = np.zeros((2, size, size), dtype=dt)
    step = max(1, _BLOCK // size)
    for r0 in range(0, size, step):
        rows = digits[:, r0 : r0 + step, None]
        for k in range(d):
            out_add[r0 : r0 + step] += add[rows[k], digits[k]] * radix[k]
            conv = mul[rows[0], digits[k]]
            for i in range(1, d):
                conv = add[conv, mul[rows[i], digits[(k - i) % d]]]
            out_mul[r0 : r0 + step] += conv * radix[k]
    return out_add, out_mul


def group_ring(base: RingTable, group: AbelianGroup, *, cap: int = DEFAULT_ORDER_CAP) -> GroupRingView:
    """Build RG as a tower of cyclic extensions.

    With G = H x C_d, where C_d is the last factor, R[G] = (R[C_d])[H].
    Group element g = e + d*h (h its index in H, e its last exponent)
    has coefficient radix |R|^g = |R|^e * (|R|^d)^h, so the index of
    sum c_g g in RG equals that of sum_h (sum_e c_(e + d*h) x^e) h in
    (R[C_d])[H].  Folding :func:`_cyclic_step` over the factors from
    last to first therefore yields exactly the documented layout, and
    multiplication costs d^2 gathers per row block of each step rather
    than |G|^2 for the whole group.
    """
    n = base.order
    m = group.order
    size = group_ring_order(n, m, cap=cap)
    add, mul = base.add, base.mul
    for d in reversed(group.factors):
        add, mul = _cyclic_step(add, mul, d)
    ring = RingTable(add, mul, zero=0, one=int(base.one), label=f"GR({base.label}, {group.label})")
    return GroupRingView(ring, base, group, _digits(size, n, m).T)


def augmentation(view: GroupRingView) -> RingHom:
    """The coefficient-sum homomorphism RG -> R."""
    base = view.base
    total = view.coeff_of[:, 0].astype(np.int64)
    for j in range(1, view.group.order):
        total = base.add[total, view.coeff_of[:, j]].astype(np.int64)
    return RingHom(view.ring, base, total)


def karpilovsky_radical(view: GroupRingView) -> IdealSet:
    """Jacobson radical of RG from base-ring data alone.

    Generators: every j*g with j in J(R) and g in G, together with every
    r*(g_p - 1) where p is a prime dividing |G|, g_p runs over the
    p-torsion elements of G, and p*r lies in J(R).
    """
    base, group = view.base, view.group
    j_base = jacobson_radical(base)
    j_members = set(j_base.key)
    gens: set[int] = set()
    n = base.order
    for j in j_base.key:
        for g in range(group.order):
            gens.add(j * n**g)
    for p in _factorint(group.order):
        shifted = [r for r in range(n) if base.int_mul(p, r) in j_members]
        torsion = group.p_torsion_indices(p)
        for r in shifted:
            neg_r = int(base.neg[r])
            for g in torsion:
                if g == 0:
                    continue  # r*(1 - 1) = 0
                gens.add(neg_r + r * n**g)
    return ideal_generated(view.ring, sorted(gens))
