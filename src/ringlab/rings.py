"""Table-based kernel for finite commutative unital rings.

A ring here is a :class:`RingTable`: the elements are the indices
``0 .. order-1`` and addition / multiplication are dense Cayley tables
of indices.  Everything downstream (ideals, quotients, group rings,
classification) works purely on indices; labels are presentation-only
strings that re-parse through the expression grammar in
:mod:`ringlab.expr`.

Tables are numpy integer arrays made read-only after construction, so
instances are immutable and safe to share between threads.  Every
read of a sub-table (the rows and columns at two index lists) goes
through the private :func:`_gather`, one row block at a time; only the
ideal check's coset walk, which needs a few entries of a few rows, takes
them by flat index.  Each
constructor in the package hands :class:`RingTable` the additive
inverses it already holds (``neg``), which one O(n) gather checks, so
only a table built outside the package has them derived by an n x n
scan of ``add``.  After the build, the units are found on the rows of
``mul`` at a power map's distinct values, on the ring axioms (see
:func:`element_classes`).

Facts derived from the tables (element classes, the ideal lattice,
minimal and maximal ideals, the radicals, residue orders, the shapes of
R/N and R/J, the four definitional verdicts, the weakly nil-clean
criterion) are memoized on the instance by the private
:func:`_memo` decorator, so each is computed at most once per ring.  A
memo value is a bool, an int, a read-only array, an ideal, a tuple of
these or a small frozen record of them, and never holds a reference
back to the ring (an ideal keeps only its ring's order and label), so
the tables are freed as soon as the ring itself is.  Two threads may
race to fill one entry; that only duplicates equal work.
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
    return np.dtype(np.int16 if order <= 32767 else np.int32)  # 32767 is np.iinfo(np.int16).max


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
    neg:
        The additive inverses, if the caller holds them; checked against
        ``add``.  Entry ``i`` is the index of ``-i``.  Left out, they are
        derived from ``add``, one n x n pass.

    The constructor always runs the cheap structural checks (square
    tables of equal shape, order >= 2, zero and one in range and
    distinct, integer entries, each in range before it is narrowed to
    the table dtype, and ``add[i, neg[i]] == zero`` for every i, one
    O(n) gather, so an ``add`` row with no zero is rejected) and raises
    ``ValueError`` on the first that fails.  The ring axioms are not
    checked, so a table that passes can still be corrupted;
    :func:`element_classes` and the maximal ideals raise
    :class:`DisagreementError` on the corruptions their own sanity facts
    catch.
    """

    __slots__ = ("order", "add", "mul", "zero", "one", "label", "neg", "_facts")

    def __init__(self, add, mul, zero: int, one: int, label: str, neg=None):
        add = np.asarray(add)
        mul = np.asarray(mul)
        if add.ndim != 2 or add.shape != mul.shape or add.shape[0] != add.shape[1]:
            raise ValueError("operation tables must be square and of equal shape")
        n = int(add.shape[0])
        dt = _table_dtype(n)
        zero = int(zero)
        one = int(one)
        if n < 2:
            raise ValueError("rings of order < 2 are rejected: the identity must be non-zero")
        if not (0 <= zero < n and 0 <= one < n):
            raise ValueError("zero/one index out of range")
        if zero == one:
            raise ValueError("one must differ from zero")
        tables = {"add": add, "mul": mul}
        if neg is not None:
            tables["neg"] = neg = np.asarray(neg)
            if neg.shape != (n,):
                raise ValueError(f"neg must have shape ({n},), not {neg.shape}")
        for name, t in tables.items():
            if t.dtype == dt:  # one pass: read unsigned, a negative entry exceeds every order of this dtype
                out_of_range = t.view(f"u{dt.itemsize}").max() >= n
            elif not np.issubdtype(t.dtype, np.integer):
                raise ValueError(f"{name} table entries must be integers, not {t.dtype}")
            else:  # checked before narrowing to the table dtype, which could wrap them into range
                out_of_range = t.min() < 0 or t.max() >= n
            if out_of_range:
                raise ValueError(f"{name} table entry out of range")
        add = add.astype(dt, copy=False)
        mul = mul.astype(dt, copy=False)
        derived = neg is None
        if derived:  # the additive inverse of i sits where row i of `add` hits zero
            neg = np.empty(n, dtype=dt)
            for rows in _row_blocks(n, n):
                neg[rows] = (add[rows] == zero).argmax(axis=1)
        else:
            neg = neg.astype(dt, copy=False)
        # one gather checks every inverse, derived or handed down
        bad = add[np.arange(n), neg] != zero
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            raise ValueError(f"add row {i} has no zero" if derived
                             else f"neg[{i}] = {neg[i]} is not an additive inverse of {i}")
        self.order = n
        self.zero = zero
        self.one = one
        self.label = str(label)
        self.add = _readonly(add)
        self.mul = _readonly(mul)
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
    a small fixed size instead of growing with the table; :func:`_gather`
    is the one sub-table gather built on it.
    """
    step = max(1, _BLOCK // max(1, width))
    for r0 in range(0, rows, step):
        yield slice(r0, min(rows, r0 + step))


def _gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            through: np.ndarray | None = None) -> np.ndarray:
    """The sub-table ``table[np.ix_(rows, cols)]``, mapped through
    ``through`` (``through[...]``) if given.

    Each row block is a row ``take`` and then a column ``take``, about
    twice as fast as 2-D fancy indexing.  A block is mapped before the
    next is read, so no temporary outgrows one block.
    """
    out = np.empty((rows.size, cols.size), dtype=table.dtype if through is None else through.dtype)
    for b in _row_blocks(rows.size, table.shape[1]):
        block = table.take(rows[b], axis=0).take(cols, axis=1)
        out[b] = block if through is None else through.take(block)
    return out


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


@dataclass(frozen=True, eq=False)
class ElementClasses:
    """The nilpotents, idempotents and units of a ring, each a read-only
    boolean mask over the element indices."""

    nilpotents: np.ndarray
    idempotents: np.ndarray
    units: np.ndarray


def make_zmod(n: int, *, cap: int = DEFAULT_ORDER_CAP) -> RingTable:
    """The ring of integers modulo ``n``, labelled ``Z<n>``."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if n > cap:
        raise CapExceeded(f"order {n} exceeds cap {cap}")
    # one row block at a time, so the only wide temporaries are a block's
    idx = np.arange(n)
    add = np.empty((n, n), dtype=_table_dtype(n))
    mul = np.empty_like(add)
    for rows in _row_blocks(n, n):
        add[rows] = np.add.outer(idx[rows], idx) % n
        mul[rows] = np.multiply.outer(idx[rows], idx) % n
    return RingTable(add, mul, zero=0, one=1, label=f"Z{n}", neg=(-idx % n).astype(add.dtype))


def _product_table(a: np.ndarray, b: np.ndarray, dt: np.dtype) -> np.ndarray:
    """The table on row-major pairs with entry ``a[i, k] |b| + b[j, l]`` at
    ``[i|b| + j, k|b| + l]``, computed in ``dt`` with no wider temporary.

    With one column each, ``a`` and ``b`` give the pairs' column of
    ``a[i, 0] |b| + b[j, 0]``, as for the additive inverses."""
    nb = b.shape[0]
    a = a.astype(dt, copy=False)
    b = b.astype(dt, copy=False)
    return (a[:, None, :, None] * dt.type(nb) + b[None, :, None, :]).reshape(a.shape[0] * nb, -1)


def direct_product(r: RingTable, s: RingTable, *, cap: int = DEFAULT_ORDER_CAP) -> RingTable:
    """Componentwise product ring on row-major pair indices ``i*|S| + j``.

    Row-major pairing makes the construction strictly associative at the
    index level, so labels like ``"Z2 x Z3 x Z2"`` are unambiguous.  A
    quotient factor is labelled in parentheses, as in
    ``"(Z12/(6)) x Z5"`` and ``"Z5 x (Z12/(6))"`` (see :func:`_product_label`).
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
        label=_product_label(r.label, s.label),
        neg=_product_table(r.neg[:, None], s.neg[:, None], dt)[:, 0],
    )


def _product_label(left: str, right: str) -> str:
    """The canonical label ``left x right`` of a product.

    A quotient suffix binds loosest, so a factor label with a ``/``
    outside every parenthesis goes in parentheses, on either side.  The
    label then evaluates through no ring larger than the factors' own
    labels and the product need.
    """
    return f"{_factor_label(left)} x {_factor_label(right)}"


def _factor_label(label: str) -> str:
    depth = 0
    for ch in label:
        depth += (ch == "(") - (ch == ")")
        if ch == "/" and depth == 0:
            return f"({label})"
    return label


def _nilpotent_mask(r: RingTable) -> np.ndarray:
    """Boolean mask of the x with x^(2^k) = 0 for some k <= bit length of order.

    That is every nilpotent: if x^m = 0, the chain Rx, Rx^2, ... at least
    halves at each step until it reaches 0, so m <= log2(order) + 1 <= 2^k.
    Each power is tested, x itself included, so a corrupted table whose 0
    squares to nonzero still marks 0.  Each squaring is a 1-D gather from
    the diagonal of ``mul``, not n scattered reads of the whole table.
    """
    square = r.mul.diagonal()
    cur = np.arange(r.order)
    nil = cur == r.zero
    # the criteria and N read this tower; the definitional scans and the minimal ideals
    # read their own x^(2^K) (ideals._high_power), so the two derivations share no code
    for _ in range(r.order.bit_length()):
        cur = square[cur]
        nil |= cur == r.zero
    return nil


def _unit_power(r: RingTable) -> np.ndarray:
    """x^M for every x, with M = 6^K the least power of 6 that is at least the order.

    x is a unit iff x^M is: powers of a unit are units, and if x^M u = 1
    then x^(M-1) u is an inverse of x.  M >= order sends every nilpotent
    to 0, and a unit whose order divides 6^K to 1, so the powers take few
    distinct values (8 on GR(Z9, C4)).  The map is formed by its own x^2,
    x^3 and x^6 steps, not by :func:`_nilpotent_mask`'s squaring tower,
    so the units (and with them the maximal ideals and J) share no code
    with the nilpotents (and N).
    """
    square = r.mul.diagonal()
    power = np.arange(r.order)
    m = 1
    while m < r.order:
        power = square[r.mul[square[power], power]]  # (x^2 x)^2
        m *= 6
    return power


@_memo
def element_classes(r: RingTable) -> ElementClasses:
    """Scan the tables for nilpotents, idempotents and units.

    x is a unit iff row x^M of ``mul`` holds 1 (see :func:`_unit_power`),
    so only the rows of the distinct powers are read: 8 of the 6561 rows
    of GR(Z9, C4).  Units of an order prime to 6 keep more of them, up
    to about half the rows of Z_p for p = 2q + 1 with q prime.  That
    equivalence assumes an associative ``mul``, which :class:`RingTable`
    does not check; the every-row scan is kept as a test oracle.
    """
    n = r.order
    nil = _nilpotent_mask(r)
    idem = r.mul.diagonal() == np.arange(n)
    power = _unit_power(r)
    unit_row = np.zeros(n, dtype=bool)
    unit_row[power] = True
    rows = np.flatnonzero(unit_row)  # the distinct powers, each row overwritten below
    for b in _row_blocks(rows.size, n):
        unit_row[rows[b]] = (r.mul.take(rows[b], axis=0) == r.one).any(axis=1)
    units = unit_row[power]
    # sanity on any valid ring; failures indicate a corrupted table
    facts = {
        "0 is nilpotent": nil[r.zero],
        "0 and 1 are idempotent": idem[r.zero] and idem[r.one],
        "1 is a unit": units[r.one],
        "no nilpotent is a unit": not (nil & units).any(),
        "0 is the only nilpotent idempotent": np.flatnonzero(nil & idem).tolist() == [r.zero],
    }
    broken = [fact for fact, holds in facts.items() if not holds]
    if broken:
        raise DisagreementError(f"corrupted table {r.label}: fails {'; '.join(broken)}")
    return ElementClasses(_readonly(nil), _readonly(idem), _readonly(units))

