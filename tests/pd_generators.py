"""PD text of generated diagrams, shared by the test modules."""

import random


def torus_pd(k: int) -> str:
    """The standard diagram of the torus knot or link T(2,k), k >= 2.

    For odd k, crossing u is X(u, u+k, u+1, u+k+1) for even u, with
    labels taken mod 2k into 1..2k: a knot with k crossings and k arcs,
    and det T(2,k) = k.  For even k the two components are numbered
    1..k and k+1..2k and meet at every crossing: crossing j joins the
    edges j, j+1 of the first and k+j, k+j+1 of the second (each taken
    cyclically within its component), and the first runs under at even j.
    """
    if k % 2 == 0:

        def first(e: int) -> int:
            return (e - 1) % k + 1

        quads = []
        for j in range(1, k + 1):
            under = (first(j), first(j + 1))
            over = (k + first(j), k + first(j + 1))
            if j % 2:
                under, over = over, under
            quads.append((under[0], over[0], under[1], over[1]))
        return " ".join("X({},{},{},{})".format(*q) for q in quads)

    def label(v: int) -> int:
        return (v - 1) % (2 * k) + 1

    return " ".join(
        f"X({label(u)},{label(u + k)},{label(u + 1)},{label(u + k + 1)})"
        for u in range(2, 2 * k + 1, 2)
    )


def meridian_chain_pd(m: int) -> str:
    """An unknot with m meridian loops, m >= 1: 2m crossings, m + 1
    components and every crossing of sign -1.

    The unknot's edges are 1..2m and loop k's edges are p = 2m+2k-1 and
    q = 2m+2k.  Loop k passes under the unknot at X(2k-1, p, 2k, q) and
    over it at X(q, 2k, p, 2k+1), with 2k+1 taken cyclically in 1..2m.
    Each loop has two edges, so the numbering reads its over passage
    both ways and only its under passage orients it.
    """
    quads = [(2 * k - 1, 2 * m + 2 * k - 1, 2 * k, 2 * m + 2 * k) for k in range(1, m + 1)]
    quads += [(2 * m + 2 * k, 2 * k, 2 * m + 2 * k - 1, 2 * k % (2 * m) + 1)
              for k in range(1, m + 1)]
    return " ".join("X({},{},{},{})".format(*q) for q in quads)


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
