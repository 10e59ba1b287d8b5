"""Quandle 3-cocycles, crossing weights and the weight-sum invariant.

A 3-cocycle on a quandle X with values in Z_m is a table theta(x, y, z)
that vanishes when x == y or y == z and satisfies the 4-variable cocycle
identity.  Each crossing of a shadow-colored diagram contributes the
weight ``sign * theta(region, under_in, over)`` where the region is the
crossing's source corner, the one both strand orientations point away
from.  Summing over all crossings gives an element of Z_m, and the
multiset of these sums over all shadow colorings is a link invariant.

2-cocycle (non-shadow) weights are deliberately not implemented: over a
prime-order dihedral quandle every 2-cocycle is a coboundary, so the
vertex weights they induce vanish identically and add nothing to the
coloring quiver.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import Coloring, ShadowColoring, enumerate_colorings, extend_shadow
from .diagram import Diagram
from .quandle import FiniteQuandle, InvalidParameterError

@dataclass(frozen=True)
class Cocycle3:
    """A 3-cocycle table: ``table[x][y][z]`` in Z_modulus."""

    quandle_order: int
    modulus: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def __call__(self, x: int, y: int, z: int) -> int:
        return self.table[x][y][z]


def zero_cocycle(n: int, modulus: int) -> Cocycle3:
    zeros = tuple(tuple(tuple([0] * n) for _ in range(n)) for _ in range(n))
    return Cocycle3(n, modulus, zeros)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@functools.cache
def mochizuki(p: int) -> Cocycle3:
    """Mochizuki's 3-cocycle on the dihedral quandle R_p, values in Z_p.

    theta(x, y, z) = (x - y) * ((2z - y)^p + y^p - 2 z^p) / (2p)  mod p.

    The bracket is divisible by p as a polynomial identity and is always
    even, so the quotient is exact for any integer representatives.
    Inputs are reduced to 0..p-1 and 2z - y is reduced mod p before
    exponentiation; powers are taken mod p^2, which leaves the quotient
    mod p unchanged.  So the p powers k^p mod p^2 are taken once, the
    quotient times 1/2 mod p is tabled for each (y, z), and every
    theta(x, y, z) is that entry times x - y.  The normalization (the 2
    in the denominator) is pinned by the reference quiver polynomials of
    the figure-eight and cinquefoil knots in the acceptance suite;
    dividing by p alone yields the same cocycle scaled by 2, which lands
    the nontrivial weights in the opposite square class mod 5.

    Built once per p and process and shared after: a Cocycle3 is frozen
    and made of tuples.  A p that is not an odd prime raises on every
    call, since an exception is never cached.
    """
    if not _is_odd_prime(p):
        raise InvalidParameterError(f"{p} is not an odd prime")
    p2 = p * p
    inv2 = (p + 1) // 2
    power = [pow(k, p, p2) for k in range(p)]
    half = [
        [(power[(2 * z - y) % p] + power[y] - 2 * power[z]) % p2 // p * inv2 % p
         for z in range(p)]
        for y in range(p)
    ]
    table = tuple(
        tuple(tuple((x - y) * h % p for h in half[y]) for y in range(p))
        for x in range(p)
    )
    return Cocycle3(p, p, table)


def verify_cocycle(theta: Cocycle3, X: FiniteQuandle) -> Optional[tuple]:
    """Exhaustive check of the degeneracy and 3-cocycle conditions.

    Returns None when theta is a valid 3-cocycle over X, otherwise the
    first violating tuple: ("degeneracy", x, y) or ("cocycle", x, y, z, w).
    """
    if theta.quandle_order != X.order:
        raise InvalidParameterError(
            f"cocycle is over order {theta.quandle_order}, quandle has {X.order}"
        )
    n = X.order
    m = theta.modulus
    t = theta.table
    for x in range(n):
        for y in range(n):
            if t[x][x][y] % m or t[x][y][y] % m:
                return ("degeneracy", x, y)
    op = X.op
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs_a = t[x][y][z]
                for w in range(n):
                    lhs = lhs_a + t[op[x][z]][op[y][z]][w] + t[x][z][w]
                    rhs = t[op[x][y]][z][w] + t[x][y][w] + t[op[x][w]][op[y][w]][op[z][w]]
                    if (lhs - rhs) % m:
                        return ("cocycle", x, y, z, w)
    return None


def weight_sum(d: Diagram, s: ShadowColoring, theta: Cocycle3) -> int:
    """The signed sum of crossing weights, reduced to 0..modulus-1.

    Each crossing contributes sign * theta(region, under_in, over), where
    region is the source corner's, read from ``d.crossing_terms``.  That
    convention is pinned by reproducing the reference polynomials of the
    acceptance suite.
    """
    regions, arcs, table = s.region_values, s.arc_values.values, theta.table
    total = 0
    for sign, region, under_in, over in d.crossing_terms:
        total += sign * table[regions[region]][arcs[under_in]][arcs[over]]
    return total % theta.modulus


def invariant_multiset(
    d: Diagram,
    X: FiniteQuandle,
    theta: Cocycle3,
    base: Optional[int] = None,
    colorings: Optional[Sequence[Coloring]] = None,
) -> Counter:
    """The multiset of weight sums over shadow colorings.

    With ``base`` fixed, ranges over the shadow colorings whose unbounded
    region carries ``base`` (one per arc coloring); otherwise over all
    shadow colorings (every arc coloring with every base label).
    ``colorings`` are the X-colorings of D when the caller already has
    them; otherwise they are enumerated here.
    """
    bases = range(X.order) if base is None else [base]
    if colorings is None:
        colorings = enumerate_colorings(d, X)
    counter: Counter = Counter()
    for c in colorings:
        for a in bases:
            s = extend_shadow(d, X, c, a)
            counter[weight_sum(d, s, theta)] += 1
    return counter


def multiset_to_json(counter: Counter) -> list[list[int]]:
    """Sorted [value, multiplicity] pairs, the serialized multiset form."""
    return [[v, counter[v]] for v in sorted(counter)]
