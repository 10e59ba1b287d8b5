"""Smith normal form of integer matrices, exact arithmetic only.

Entries of coloring matrices start tiny (at most 2 in absolute value)
but intermediate values may grow; Python integers make every step exact.
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
    A = [list(map(int, row)) for row in rows]
    R = len(A)
    C = ncols
    for row in A:
        if len(row) != C:
            raise ValueError(f"ragged matrix: row of length {len(row)}, expected {C}")
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
    return divisors


def solution_count_mod(divisors: Sequence[int], ncols: int, n: int) -> int:
    """Number of solutions of M v = 0 over Z_n, from M's elementary divisors."""
    nonzero = [d for d in divisors if d]
    count = n ** (ncols - len(nonzero))
    for d in nonzero:
        count *= math.gcd(d, n)
    return count
