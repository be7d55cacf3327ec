"""Table-based kernel for finite commutative unital rings.

A ring here is a :class:`RingTable`: the elements are the indices
``0 .. order-1`` and addition / multiplication are dense Cayley tables
of indices.  Everything downstream (ideals, quotients, group rings,
classification) works purely on indices; labels are presentation-only
strings that re-parse through the expression grammar in
:mod:`ringlab.expr`.

Tables are numpy integer arrays made read-only after construction, so
instances are immutable and safe to share between threads.

Facts derived from the tables (element classes, the ideal lattice,
minimal and maximal ideals, the radicals, the shapes of R/N and R/J,
the clean and neat verdicts) are memoized on the instance by the
private :func:`_memo` decorator, so each is computed at most once per
ring however many deciders ask for it.  A memo value is a frozenset,
an ideal, a tuple of these or a small frozen record, and never holds a
reference back to the ring (an ideal keeps only its ring's order and
label), so the tables are freed as soon as the ring itself is.  Two
threads may race to fill one entry; that only duplicates equal work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

#: Default upper bound on the number of elements of any constructed ring.
DEFAULT_ORDER_CAP = 4096

_BLOCK = 1 << 18  # entries per row block in table-sized scans (2 MB of intp)


class RingLabError(Exception):
    """Base class for errors raised by ringlab."""


class CapExceeded(RingLabError):
    """A construction or brute-force scan exceeds the configured cap."""


class DisagreementError(RingLabError):
    """Two provably equivalent computations returned different answers.

    This never fires on a correct build; it signals a corrupted table or
    an implementation bug and maps to a dedicated CLI exit code.
    """


def _table_dtype(order: int) -> np.dtype:
    return np.dtype(np.int16 if order <= np.iinfo(np.int16).max else np.int32)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class RingTable:
    """A finite commutative unital ring given by explicit index tables.

    Parameters
    ----------
    add, mul:
        Square integer tables; entry ``[i, j]`` is the index of the sum
        (product) of elements ``i`` and ``j``.  A table already in the
        table dtype is frozen in place, not copied.
    zero, one:
        Indices of the additive and multiplicative identities.
    label:
        Canonical descriptor; re-parses through the expression grammar.
    check:
        Cheap structural sanity (shape, index range, order >= 2,
        ``one != zero``).  Pass ``False`` only to build deliberately
        broken tables for :func:`validate_ring_axioms`; full axiom
        checking always lives there, never here.
    """

    __slots__ = ("order", "add", "mul", "zero", "one", "label", "neg", "_facts")

    def __init__(self, add, mul, zero: int, one: int, label: str, *, check: bool = True):
        add = np.asarray(add)
        mul = np.asarray(mul)
        if add.ndim != 2 or add.shape != mul.shape or add.shape[0] != add.shape[1]:
            raise ValueError("operation tables must be square and of equal shape")
        n = int(add.shape[0])
        dt = _table_dtype(n)
        add = add.astype(dt, copy=False)
        mul = mul.astype(dt, copy=False)
        zero = int(zero)
        one = int(one)
        if check:
            if n < 2:
                raise ValueError("rings of order < 2 are rejected: the identity must be non-zero")
            if not (0 <= zero < n and 0 <= one < n):
                raise ValueError("zero/one index out of range")
            if zero == one:
                raise ValueError("one must differ from zero")
            for name, t in (("add", add), ("mul", mul)):
                if t.size and (t.min() < 0 or t.max() >= n):
                    raise ValueError(f"{name} table entry out of range")
        self.order = n
        self.zero = zero
        self.one = one
        self.label = str(label)
        self.add = _readonly(add)
        self.mul = _readonly(mul)
        # additive inverse of i sits where row i of `add` hits zero
        neg = np.empty(n, dtype=dt)
        for rows in _row_blocks(n, n):
            neg[rows] = (add[rows] == zero).argmax(axis=1)
        self.neg = _readonly(neg)
        self._facts: dict = {}

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"RingTable({self.label!r}, order={self.order})"

    def int_mul(self, k: int, x: int) -> int:
        """k-fold sum x + x + ... + x (k >= 0)."""
        acc = self.zero
        for _ in range(int(k)):
            acc = int(self.add[acc, x])
        return acc


def _row_blocks(rows: int, width: int):
    """Consecutive slices of ``range(rows)``, each of at most ``_BLOCK``
    entries when a row holds ``width`` of them (but at least one row).

    Scans over a table go one block at a time, so their temporaries stay
    a small fixed size instead of growing with the table.
    """
    step = max(1, _BLOCK // max(1, width))
    for r0 in range(0, rows, step):
        yield slice(r0, min(rows, r0 + step))


def _memo(fn):
    """Compute ``fn(ring)`` at most once per ring instance.

    The value must not refer to the ring (see the module docstring).
    An exception is not memoized, so a corrupted table raises on every
    call.
    """

    @wraps(fn)
    def memoized(ring: RingTable):
        try:
            return ring._facts[fn]
        except KeyError:
            value = ring._facts[fn] = fn(ring)
            return value

    return memoized


@dataclass(frozen=True)
class ElementClasses:
    """The nilpotent, idempotent and unit index sets of a ring."""

    nilpotents: frozenset[int]
    idempotents: frozenset[int]
    units: frozenset[int]


def make_zmod(n: int, *, cap: int = DEFAULT_ORDER_CAP) -> RingTable:
    """The ring of integers modulo ``n``, labelled ``Z<n>``."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if n > cap:
        raise CapExceeded(f"order {n} exceeds cap {cap}")
    idx = np.arange(n)
    add = np.add.outer(idx, idx) % n
    mul = np.multiply.outer(idx, idx) % n
    return RingTable(add, mul, zero=0, one=1, label=f"Z{n}")


def _product_table(a: np.ndarray, b: np.ndarray, dt: np.dtype) -> np.ndarray:
    """The table on row-major pairs with entry ``a[i, k] |b| + b[j, l]`` at
    ``[i|b| + j, k|b| + l]``, computed in ``dt`` with no wider temporary."""
    nb = b.shape[0]
    a = a.astype(dt, copy=False)
    b = b.astype(dt, copy=False)
    return (a[:, None, :, None] * dt.type(nb) + b[None, :, None, :]).reshape(a.shape[0] * nb, -1)


def direct_product(r: RingTable, s: RingTable, *, cap: int = DEFAULT_ORDER_CAP) -> RingTable:
    """Componentwise product ring on row-major pair indices ``i*|S| + j``.

    Row-major pairing makes the construction strictly associative at the
    index level, so labels like ``"Z2 x Z3 x Z2"`` are unambiguous.
    """
    n = r.order * s.order
    if n > cap:
        raise CapExceeded(f"product order {n} exceeds cap {cap}")
    ns = s.order
    dt = _table_dtype(n)
    return RingTable(
        _product_table(r.add, s.add, dt),
        _product_table(r.mul, s.mul, dt),
        zero=r.zero * ns + s.zero,
        one=r.one * ns + s.one,
        label=f"{r.label} x {s.label}",
    )


def _nilpotent_mask(r: RingTable) -> np.ndarray:
    """Boolean mask of the x with x^(2^k) = 0 for some k <= bit length of order.

    That is every nilpotent: if x^m = 0, the chain Rx, Rx^2, ... at least
    halves at each step until it reaches 0, so m <= log2(order) + 1 <= 2^k.
    Each power is tested, x itself included, so a corrupted table whose 0
    squares to nonzero still marks 0.
    """
    cur = np.arange(r.order)
    nil = cur == r.zero
    for _ in range(r.order.bit_length()):
        cur = r.mul[cur, cur]
        nil |= cur == r.zero
    return nil


@_memo
def element_classes(r: RingTable) -> ElementClasses:
    """Scan the tables for nilpotents, idempotents and units."""
    n = r.order
    idx = np.arange(n)
    nil = _nilpotent_mask(r)
    idem = r.mul.diagonal() == idx
    units = np.empty(n, dtype=bool)
    for rows in _row_blocks(n, n):
        units[rows] = (r.mul[rows] == r.one).any(axis=1)
    classes = ElementClasses(
        nilpotents=frozenset(map(int, idx[nil])),
        idempotents=frozenset(map(int, idx[idem])),
        units=frozenset(map(int, idx[units])),
    )
    # sanity on any valid ring; failures indicate a corrupted table
    facts = {
        "0 is nilpotent": r.zero in classes.nilpotents,
        "0 and 1 are idempotent": r.zero in classes.idempotents and r.one in classes.idempotents,
        "1 is a unit": r.one in classes.units,
        "no nilpotent is a unit": not classes.nilpotents & classes.units,
        "0 is the only nilpotent idempotent": classes.nilpotents & classes.idempotents == {r.zero},
    }
    broken = [fact for fact, holds in facts.items() if not holds]
    if broken:
        raise DisagreementError(f"corrupted table {r.label}: fails {'; '.join(broken)}")
    return classes


def characteristic(r: RingTable) -> int:
    """Least k >= 1 with k * 1 = 0."""
    acc = r.one
    k = 1
    while acc != r.zero:
        acc = int(r.add[acc, r.one])
        k += 1
    return k


def additive_orders(r: RingTable) -> np.ndarray:
    """Order of each element in the additive group."""
    n = r.order
    idx = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    cur = idx.copy()
    for k in range(1, n + 1):
        hit = (cur == r.zero) & (out == 0)
        out[hit] = k
        if (out != 0).all():
            break
        cur = r.add[cur, idx]
    return out


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        body = "; ".join(f"{v.axiom} at {v.witness}" for v in self.violations)
        return f"ValidationReport({body})"


def _first_bad_triple(bad: np.ndarray, row_offset: int) -> tuple:
    a, b, c = np.argwhere(bad)[0]
    return (int(a) + row_offset, int(b), int(c))


def validate_ring_axioms(r: RingTable) -> ValidationReport:
    """Exhaustively check every commutative-unital-ring axiom.

    Violations are report content, not exceptions; each violated axiom
    is listed once with a witnessing element/pair/triple.  Associativity
    and distributivity are O(n^3) and checked in row blocks to bound
    memory.
    """
    out: list[Violation] = []
    add, mul, n = r.add, r.mul, r.order

    if n < 2 or r.zero == r.one:
        out.append(Violation("identity distinct from zero (order >= 2)", ()))
    in_range = True
    for name, t in (("+", add), ("*", mul)):
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            out.append(Violation(f"totality of {name}", (int(bad[0]), int(bad[1]))))
            in_range = False
    if not in_range:
        return ValidationReport(out)  # index-based checks would be garbage

    for name, t in (("+", add), ("*", mul)):
        if not np.array_equal(t, t.T):
            bad = np.argwhere(t != t.T)[0]
            out.append(Violation(f"commutativity of {name}", (int(bad[0]), int(bad[1]))))

    idx = np.arange(n)
    if not np.array_equal(add[r.zero], idx):
        a = int(np.argwhere(add[r.zero] != idx)[0][0])
        out.append(Violation("zero is the additive identity", (a,)))
    no_inv = ~(add == r.zero).any(axis=1)
    if no_inv.any():
        out.append(Violation("additive inverses exist", (int(idx[no_inv][0]),)))
    if not np.array_equal(mul[r.one], idx):
        a = int(np.argwhere(mul[r.one] != idx)[0][0])
        out.append(Violation("one is the multiplicative identity", (a,)))

    assoc_add = assoc_mul = distrib = None
    for rows in _row_blocks(n, n * n):
        a0 = rows.start
        rows_a = add[rows]
        rows_m = mul[rows]
        if assoc_add is None:
            bad = add[rows_a, :] != rows_a[:, add]  # (a+b)+c vs a+(b+c)
            if bad.any():
                assoc_add = _first_bad_triple(bad, a0)
        if assoc_mul is None:
            bad = mul[rows_m, :] != rows_m[:, mul]
            if bad.any():
                assoc_mul = _first_bad_triple(bad, a0)
        if distrib is None:
            lhs = rows_m[:, add]  # a*(b+c)
            rhs = add[rows_m[:, :, None], rows_m[:, None, :]]  # a*b + a*c
            bad = lhs != rhs
            if bad.any():
                distrib = _first_bad_triple(bad, a0)
        if assoc_add is not None and assoc_mul is not None and distrib is not None:
            break
    if assoc_add is not None:
        out.append(Violation("associativity of +", assoc_add))
    if assoc_mul is not None:
        out.append(Violation("associativity of *", assoc_mul))
    if distrib is not None:
        out.append(Violation("distributivity", distrib))
    return ValidationReport(out)

