"""PD text of generated diagrams, shared by the test modules."""

import random


def torus_pd(k: int) -> str:
    """The standard diagram of the torus knot or link T(2,k), k >= 2.

    Crossing u is X(u, u+k, u+1, u+k+1) for even u, with labels taken
    mod 2k into 1..2k.  For odd k it is a knot with k crossings and k
    arcs, and det T(2,k) = k.
    """

    def label(v: int) -> int:
        return (v - 1) % (2 * k) + 1

    return " ".join(
        f"X({label(u)},{label(u + k)},{label(u + 1)},{label(u + k + 1)})"
        for u in range(2, 2 * k + 1, 2)
    )


def trefoil_sum_pd(m: int) -> str:
    """The connected sum of m trefoils, m >= 1: copy t of
    X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) has its labels shifted by 6t, and
    the over strand leaving its second crossing runs on into copy t+1
    instead of back into its own first crossing."""
    total = 6 * m

    def label(v: int) -> int:
        return (v - 1) % total + 1

    quads = []
    for t in range(m):
        b = 6 * t
        quads += [(b + 1, b + 4, b + 2, b + 5), (b + 3, b + 6, b + 4, b + 7),
                  (b + 5, b + 2, b + 6, b + 3)]
    return " ".join("X({},{},{},{})".format(*map(label, q)) for q in quads)


def relabel_pd(quads, rng: random.Random):
    """Shift the edge labels of PD quads cyclically and shuffle the
    crossings.  Returns the new PD text and the label map."""
    m = 2 * len(quads)
    shift = rng.randrange(m)

    def moved(e: int) -> int:
        return (e - 1 + shift) % m + 1

    new = [tuple(moved(e) for e in q) for q in quads]
    rng.shuffle(new)
    return " ".join("X({},{},{},{})".format(*q) for q in new), moved
