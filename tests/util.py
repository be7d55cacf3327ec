"""Independent oracles for the test suite, and a subprocess runner.

The oracles are computed with plain integer arithmetic (or frozen
from well-known tables), deliberately avoiding the table machinery
under test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import ringlab


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
