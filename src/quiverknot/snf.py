"""Smith normal form of integer matrices, exact arithmetic only.

Entries of coloring matrices start tiny (at most 2 in absolute value)
but intermediate values may grow; Python integers make every step exact.

In the package one caller eliminates: ``Diagram.coloring_reduction``
runs ``smith_transform`` once per diagram, and counts and module bases
are read off its result with ``solution_count_mod`` and
``kernel_basis_from_transform``.  ``smith_normal_form`` and
``kernel_basis_mod`` eliminate any matrix they are given; the tests use
them as the reference.
"""

from __future__ import annotations

import math
from typing import Sequence


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Elementary divisors of an integer matrix.

    Returns the full diagonal of the Smith normal form: min(R, C)
    non-negative integers with d_i | d_{i+1}, zeros trailing.  ``ncols``
    is required so matrices with zero rows still report their shape.
    """
    return _eliminate(rows, ncols, False)[0]


def smith_transform(rows: Sequence[Sequence[int]],
                    ncols: int) -> tuple[list[int], list[list[int]]]:
    """The diagonal of ``smith_normal_form`` and a unimodular C x C
    column transform V, as a list of rows: U·A·V is diagonal, with
    entries ±d_i, for some unimodular U.  So column i of A·V is a
    multiple of d_i, and zero where d_i = 0 or i is past the diagonal."""
    return _eliminate(rows, ncols, True)


def _eliminate(rows: Sequence[Sequence[int]], ncols: int,
               track: bool) -> tuple[list[int], list[list[int]]]:
    A = [list(map(int, row)) for row in rows]
    R = len(A)
    C = ncols
    for row in A:
        if len(row) != C:
            raise ValueError(f"ragged matrix: row of length {len(row)}, expected {C}")
    if track:
        # Rows R.. start as the identity.  Row operations touch rows < R
        # only and column operations every row, so these rows end as V.
        A += [[int(i == j) for j in range(C)] for i in range(C)]
    size = min(R, C)
    divisors: list[int] = []

    for t in range(size):
        piv = None
        for i in range(t, R):
            for j in range(t, C):
                v = A[i][j]
                if v and (piv is None or abs(v) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]

        while True:
            # Clear column t with Euclidean steps.
            for i in range(t + 1, R):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
            # Clear row t; column operations may refill the column.
            for j in range(t + 1, C):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
            if any(A[i][t] for i in range(t + 1, R)):
                continue
            # Pivot must divide the remaining submatrix for the chain
            # property; if not, fold the offending row in and retry.
            offender = None
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
        divisors.append(abs(A[t][t]))

    # The chain d_t | d_{t+1} needs no repair.  Step t ends only once
    # A[t][t] divides every entry of the remaining submatrix (the
    # offender fold above).  Later steps only form integer combinations
    # of those entries, so every later pivot, and the zeros left when
    # the submatrix vanishes, are multiples of d_t.
    divisors += [0] * (size - len(divisors))
    return divisors, A[R:]


def solution_count_mod(divisors: Sequence[int], ncols: int, n: int) -> int:
    """Number of solutions of M v = 0 over Z_n, from M's elementary divisors."""
    nonzero = [d for d in divisors if d]
    count = n ** (ncols - len(nonzero))
    for d in nonzero:
        count *= math.gcd(d, n)
    return count


def kernel_basis_mod(rows: Sequence[Sequence[int]], ncols: int,
                     n: int) -> list[tuple[int, tuple[int, ...]]]:
    """A basis of the module of solutions of A y = 0 over Z_n, as
    (order, generator) pairs, orders above 1 only and each dividing the
    next: ``kernel_basis_from_transform`` of ``smith_transform(rows, ncols)``.
    """
    return kernel_basis_from_transform(*smith_transform(rows, ncols), n)


def kernel_basis_from_transform(diagonal: Sequence[int], V: Sequence[Sequence[int]],
                                n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The basis of ``kernel_basis_mod`` read off ``smith_transform``'s
    (diagonal, V) for A, with no elimination.

    With U·A·V = D, y = V z solves A y = 0 exactly when d_i z_i = 0 for
    every i, taking d_i = 0 past the diagonal, because U is invertible
    over Z_n.  That holds exactly when z_i is a multiple of n / g_i,
    g_i = gcd(d_i, n), so the solutions are the direct sum of the cyclic
    modules generated by (n / g_i)·V e_i.  V is unimodular, so V e_i has
    coprime entries and that generator has order g_i.  The chain
    d_i | d_{i+1}, zeros last, orders the g_i.
    """
    basis = []
    for i, d in enumerate(list(diagonal) + [0] * (len(V) - len(diagonal))):
        g = math.gcd(d, n)
        if g > 1:
            basis.append((g, tuple(n // g * row[i] % n for row in V)))
    return basis
