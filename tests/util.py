"""Independent oracles for the test suite, and a subprocess runner.

The oracles are computed with plain integer arithmetic (or frozen
from well-known tables), deliberately avoiding the table machinery
under test.  The exceptions are eight table-level searches that share
no code with the package: :func:`axiom_violations`, an exhaustive numpy
scan of the raw tables, :func:`peirce_shape`, a search over them,
:func:`ring_isomorphic`, a backtracking isomorphism search,
:func:`minimal_ideals_by_rank`, an annihilator-size rule on them,
:func:`clean_verdicts_by_element_scan`, an N + E and N - E scan of them,
:func:`neg_by_scan`, the additive inverses read off ``add``,
:func:`units_by_scan`, the units read off every row of ``mul``, and
:func:`is_ideal_by_columns`, an ideal test on every sum and product.
The last two are the full scans that the package's row reads, which
assume the ring axioms, replaced.
:func:`neat_verdicts_by_quotients` is the other kind: it builds each
minimal quotient with the package and scans it with that element scan,
to check the package's coset scan.  :func:`mul_rows_read` records the
rows of ``mul`` that a package call reads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np

import ringlab


def indices(mask) -> set[int]:
    """The element indices a boolean mask marks, as a set of ints."""
    return set(np.flatnonzero(mask).tolist())


def zn_nilpotents(n: int) -> set[int]:
    return {x for x in range(n) if any(pow(x, k, n) == 0 for k in range(1, n + 1))}


def zn_idempotents(n: int) -> set[int]:
    return {x for x in range(n) if (x * x) % n == x}


def zn_units(n: int) -> set[int]:
    return {x for x in range(n) if gcd(x, n) == 1}


def euler_phi(n: int) -> int:
    return len(zn_units(n))


def zn_is_nil_clean(n: int) -> bool:
    nil = zn_nilpotents(n)
    idem = zn_idempotents(n)
    return all(any((x - e) % n in nil for e in idem) for x in range(n))


def zn_is_weakly_nil_clean(n: int) -> bool:
    nil = zn_nilpotents(n)
    idem = zn_idempotents(n)
    return all(
        any((x - e) % n in nil or (x + e) % n in nil for e in idem) for x in range(n)
    )


def crt_pair_map(a: int, b: int) -> list[int]:
    """Map Z_{ab} -> Z_a x Z_b by x -> (x mod a, x mod b), row-major pairs."""
    return [(x % a) * b + (x % b) for x in range(a * b)]


def embed_base(view, r: int) -> int:
    """Index of r in RG: coefficient r on the identity, which the
    mixed-radix layout leaves at index r."""
    return int(r)


def embed_group(view, g: int) -> int:
    """Index of the group element g in RG: coefficient one at position g."""
    return int(view.base.one) * view.base.order ** int(g)


# Number of abelian groups of each order (classification by partitions).
ABELIAN_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 3, 9: 2, 10: 1,
    11: 1, 12: 2, 13: 1, 14: 1, 15: 1, 16: 5, 17: 1, 18: 2,
}


def ring_hom(domain, codomain, image) -> list[int]:
    """``image`` as a list, after checking that x -> image[x] is a ring
    homomorphism ``domain -> codomain``.

    Raises ``ValueError`` unless every element has an image in range, 1
    goes to 1, and + and * are preserved on every pair; a failing pair
    is the first in row-major order, additivity checked first.
    """
    f = [int(y) for y in image]
    if len(f) != domain.order:
        raise ValueError("hom map must assign an image to every domain element")
    if not all(0 <= y < codomain.order for y in f):
        raise ValueError("hom image index out of range")
    if f[domain.one] != codomain.one:
        raise ValueError("map does not send 1 to 1")
    for name, dom, cod in (
        ("additive", domain.add.tolist(), codomain.add.tolist()),
        ("multiplicative", domain.mul.tolist(), codomain.mul.tolist()),
    ):
        for a in range(domain.order):
            for b in range(domain.order):
                if f[dom[a][b]] != cod[f[a]][f[b]]:
                    raise ValueError(f"map is not {name} at ({a}, {b})")
    return f


def _first_bad_triple(bad: np.ndarray, row_offset: int) -> tuple:
    a, b, c = np.argwhere(bad)[0]
    return (int(a) + row_offset, int(b), int(c))


def axiom_violations(r) -> list[tuple[str, tuple]]:
    """Every commutative-unital-ring axiom the tables of ``r`` break, each
    once, as ``(axiom, witness)`` with a witnessing element, pair or triple.

    ``r`` is anything with ``order``, ``add``, ``mul``, ``zero`` and
    ``one``, so tables the ``RingTable`` constructor rejects can be
    checked too.  Associativity and distributivity are O(n^3) and are
    checked in blocks of rows, about 2^18 triples each, to bound memory.
    """
    out: list[tuple[str, tuple]] = []
    add, mul, n = np.asarray(r.add), np.asarray(r.mul), r.order

    if n < 2 or r.zero == r.one:
        out.append(("identity distinct from zero (order >= 2)", ()))
    in_range = True
    for name, t in (("+", add), ("*", mul)):
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            out.append((f"totality of {name}", (int(bad[0]), int(bad[1]))))
            in_range = False
    if not in_range:
        return out  # index-based checks would be garbage

    for name, t in (("+", add), ("*", mul)):
        if not np.array_equal(t, t.T):
            bad = np.argwhere(t != t.T)[0]
            out.append((f"commutativity of {name}", (int(bad[0]), int(bad[1]))))

    idx = np.arange(n)
    if not np.array_equal(add[r.zero], idx):
        a = int(np.argwhere(add[r.zero] != idx)[0][0])
        out.append(("zero is the additive identity", (a,)))
    no_inv = ~(add == r.zero).any(axis=1)
    if no_inv.any():
        out.append(("additive inverses exist", (int(idx[no_inv][0]),)))
    if not np.array_equal(mul[r.one], idx):
        a = int(np.argwhere(mul[r.one] != idx)[0][0])
        out.append(("one is the multiplicative identity", (a,)))

    assoc_add = assoc_mul = distrib = None
    step = max(1, (1 << 18) // (n * n))
    for a0 in range(0, n, step):
        rows = slice(a0, min(n, a0 + step))
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
        out.append(("associativity of +", assoc_add))
    if assoc_mul is not None:
        out.append(("associativity of *", assoc_mul))
    if distrib is not None:
        out.append(("distributivity", distrib))
    return out


def is_prime_ideal(ring, ideal) -> bool:
    """True iff no product of two elements outside the proper ideal lies
    in it; raises ``ValueError`` on the whole ring."""
    members = set(ideal.key)
    if len(members) == ring.order:
        raise ValueError("the whole ring is not a candidate prime ideal")
    outside = [x for x in range(ring.order) if x not in members]
    mul = ring.mul.tolist()
    return not any(mul[a][b] in members for a in outside for b in outside)


def peirce_shape(ring) -> tuple[bool, bool, int | None]:
    """(boolean, Z3, split) for a ring, from its tables by search.

    ``split`` is the least idempotent e other than 0 and 1 with eR
    boolean (every element idempotent; e is its identity) and (1 - e)R
    of order 3, so the Peirce decomposition x -> (ex, (1 - e)x) splits
    the ring as boolean x Z3; it is ``None`` if there is no such e.
    """
    idempotents = [x for x in range(ring.order) if ring.mul[x, x] == x]
    boolean = len(idempotents) == ring.order
    z3 = ring.order == 3
    for e in idempotents:
        if e in (ring.zero, ring.one):
            continue
        e_part = np.unique(ring.mul[:, e])
        if not (ring.mul[e_part, e_part] == e_part).all():
            continue
        f = int(ring.add[ring.one, ring.neg[e]])
        if np.unique(ring.mul[:, f]).size == 3:
            return boolean, z3, e
    return boolean, z3, None


def element_profiles(r) -> list[tuple[int, bool, bool, bool]]:
    """(additive order, nilpotent, idempotent, unit) for every element,
    walked on the raw tables; the additive order of 1 is the
    characteristic."""
    add, mul = r.add.tolist(), r.mul.tolist()
    profiles = []
    for x in range(r.order):
        order, multiple = 1, x
        while multiple != r.zero:
            order, multiple = order + 1, add[multiple][x]
        power = x
        for _ in range(r.order):  # x^(n+1) = 0 iff x is nilpotent
            power = mul[power][x]
        profiles.append((order, power == r.zero, mul[x][x] == x, r.one in mul[x]))
    return profiles


def ring_isomorphic(left, right) -> list[int] | None:
    """An isomorphism ``left -> right`` as the list of its images, or
    ``None`` if there is none.

    Reads only ``order``, ``add``, ``mul``, ``zero`` and ``one``.  An
    element may only go to one with the same :func:`element_profiles`
    entry.  From 0 -> 0 and 1 -> 1 the partial map is closed under + and
    *: each newly mapped element is checked against every mapped one in
    both tables, and the forced images are mapped in turn; a clash, a
    reused image or a profile mismatch refutes the branch.  The first
    unmapped element is then tried at every image, with backtracking.
    A total map is thus a bijection preserving 0, 1, + and *, and
    ``None`` means every branch was refuted.
    """
    n = left.order
    if n != right.order:
        return None
    prof_l, prof_r = element_profiles(left), element_profiles(right)
    if sorted(prof_l) != sorted(prof_r):
        return None
    tables = [(left.add.tolist(), right.add.tolist()), (left.mul.tolist(), right.mul.tolist())]

    def extend(fmap, pairs):
        fmap, queue = list(fmap), list(pairs)
        while queue:
            x, y = queue.pop()
            if fmap[x] is not None:
                if fmap[x] != y:
                    return None
                continue
            if y in fmap or prof_l[x] != prof_r[y]:
                return None
            fmap[x] = y
            for a, b in enumerate(fmap):
                if b is not None:
                    queue.extend((tl[x][a], tr[y][b]) for tl, tr in tables)
        return fmap

    def search(fmap):
        if fmap is None or None not in fmap:
            return fmap
        x = fmap.index(None)
        for y in range(n):
            found = search(extend(fmap, [(x, y)]))
            if found is not None:
                return found
        return None

    return search(extend([None] * n, [(left.zero, right.zero), (left.one, right.one)]))


def neg_by_scan(ring) -> np.ndarray:
    """The additive inverses, in the table dtype: -x is where row x of
    ``add`` first hits zero."""
    add = np.asarray(ring.add)
    return (add == ring.zero).argmax(axis=1).astype(add.dtype)


def units_by_scan(ring) -> np.ndarray:
    """Boolean mask of the units: the x whose row of ``mul`` holds one.

    This needs no axiom beyond the table itself, where the package reads
    only the rows of a power map's values."""
    return (np.asarray(ring.mul) == ring.one).any(axis=1)


def is_ideal_by_columns(ring, members) -> bool:
    """Whether ``members`` holds zero and is closed under + and under
    ambient *, the products r i read from the members' columns of every
    row of ``mul``: all |I|^2 sums and n |I| products, with no appeal to
    associativity or distributivity."""
    members = np.unique(np.asarray(members, dtype=np.int64))
    member = np.zeros(ring.order, dtype=bool)
    member[members] = True
    add, mul = np.asarray(ring.add), np.asarray(ring.mul)
    return bool(member[ring.zero] and member[add[np.ix_(members, members)]].all()
                and member[mul[:, members]].all())


def minimal_ideals_by_rank(ring) -> list[tuple[int, ...]]:
    """Member tuples of the minimal nonzero ideals, ordered by size and
    then by members, from the raw tables.

    Rx is R/Ann(x) as a group, and Ry inside Rx has Ann(y) containing
    Ann(x), so Rx is minimal iff every nonzero y in Rx has
    |Ann(y)| = |Ann(x)|; every minimal ideal is such an Rx.
    """
    mul = np.asarray(ring.mul)
    ann = (mul == ring.zero).sum(axis=1)
    rank = ann.copy()
    rank[ring.zero] = 0  # so y = 0 never gives the largest |Ann(y)|
    found = set()
    for x in range(ring.order):
        if x != ring.zero and rank[mul[x]].max() == ann[x]:  # row x of mul is Rx
            found.add(tuple(np.unique(mul[x]).tolist()))
    return sorted(found, key=lambda m: (len(m), m))


class _RowRecorder(np.ndarray):
    """A view of a table that appends to ``rows`` the row of each entry
    read through ``[]`` or ``take``, and returns plain arrays.  The
    diagonal is one read of n entries, not n rows, and is not recorded."""

    def __getitem__(self, key):
        rows = key[0] if isinstance(key, tuple) else key
        self.rows.extend(np.arange(self.shape[0])[rows].ravel().tolist())
        return np.asarray(self)[key]

    def take(self, indices, axis=None, **kwargs):
        flat = np.ravel(indices)
        self.rows.extend((flat if axis == 0 else flat // self.shape[1]).tolist())
        return np.asarray(self).take(indices, axis=axis, **kwargs)

    def diagonal(self, *args, **kwargs):
        return np.asarray(self).diagonal(*args, **kwargs)


def mul_rows_read(ring, fn) -> tuple:
    """``fn(ring)`` and the rows of ``ring.mul`` it read, in the order
    read, a row read twice listed twice."""
    table = ring.mul
    recorder = table.view(_RowRecorder)
    recorder.rows = []
    ring.mul = recorder
    try:
        return fn(ring), recorder.rows
    finally:
        ring.mul = table


def clean_verdicts_by_element_scan(ring) -> tuple:
    """The (nil-clean, weakly nil-clean) verdicts as ``(ok, witness)``
    pairs, the witness the least element outside N + E, then outside
    (N + E) union (N - E), or None.

    Reads only ``order``, ``add``, ``mul`` and ``zero``: x is nilpotent
    iff some x^(2^k) with k at most the bit length of the order is 0,
    idempotent iff it sits where the diagonal of ``mul`` is its own
    index, and -e is where row e of ``add`` hits 0.
    """
    add, mul, n = np.asarray(ring.add), np.asarray(ring.mul), ring.order
    power = np.arange(n)
    nil = power == ring.zero
    for _ in range(n.bit_length()):
        power = mul[power, power]
        nil |= power == ring.zero
    nil = np.flatnonzero(nil)
    idem = np.flatnonzero(mul.diagonal() == np.arange(n))
    minus_idem = (add[idem] == ring.zero).argmax(axis=1)
    covered = np.zeros(n, dtype=bool)
    verdicts = []
    for summands in (idem, minus_idem):
        covered[add[np.ix_(nil, summands)]] = True
        ok = bool(covered.all())
        verdicts.append((ok, None if ok else int(covered.argmin())))
    return tuple(verdicts)


def neat_verdicts_by_quotients(ring) -> tuple:
    """The (nil-neat, weakly nil-neat) verdicts, each R/M built as a
    table ring by ``quotient_ring`` and then scanned by
    :func:`clean_verdicts_by_element_scan`, over the nonwhole minimal
    ideals M in canonical order.

    The stop rule and the witnesses are those of the neat deciders: the
    earliest failing M, and the scan ends at the first R/M that is not
    weakly nil-clean.
    """
    nil_neat = fine = ringlab.Verdict(True)
    for ideal in ringlab.minimal_ideals(ring):
        if ideal.is_whole:
            continue
        (clean, _), (weak, _) = clean_verdicts_by_element_scan(ringlab.quotient_ring(ring, ideal))
        if nil_neat.ok and not clean:
            nil_neat = ringlab.Verdict(False, ideal)
        if not weak:
            return nil_neat, ringlab.Verdict(False, ideal)
    return nil_neat, fine


def coset_projection(ring, ideal, quot) -> list[int]:
    """The projection R -> R/I from its definition, checked as a hom.

    x goes to the quotient index of the least member of its coset x + I,
    the cosets being indexed in the order of their least members;
    :func:`ring_hom` raises unless the map preserves +, * and 1.
    """
    least = [min(int(ring.add[x, i]) for i in ideal.key) for x in range(ring.order)]
    index = {rep: k for k, rep in enumerate(sorted(set(least)))}
    return ring_hom(ring, quot, [index[rep] for rep in least])


def augmentation_kernel(view) -> list[int]:
    """The kernel of the augmentation Z_n[G] -> Z_n, sum a_g g -> sum a_g:
    the x whose base-n digits, the coefficients a_g, sum to 0 mod n."""
    n = view.base.order

    def digit_sum(x: int) -> int:
        total = 0
        while x:
            x, digit = divmod(x, n)
            total += digit
        return total

    return [x for x in range(view.ring.order) if digit_sum(x) % n == 0]


def run_python(*argv: str, timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``argv`` with this ringlab importable.

    ``timeout`` bounds the wall time, so a hang fails the test instead
    of stalling the suite.
    """
    src = str(Path(ringlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
    )
