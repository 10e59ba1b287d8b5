"""Smith normal form of integer matrices, exact arithmetic only.

Entries of coloring matrices start small (1, -t and t - 1 for a
formula quandle's t, so at most 2 in absolute value for R_n) but
intermediate values may grow; Python integers make every step exact.

In the package one caller eliminates: ``Diagram.coloring_reduction``
runs ``smith_generators`` once per diagram and t.  It removes the unit
pivots of a sparse matrix one by one and leaves only a small core to
the dense ``_eliminate``, so a coloring matrix of a thousand crossings
reduces in milliseconds.  Counts are read off its divisors with
``solution_count_mod``, and module bases off its generators with
``kernel_basis``.  ``smith_normal_form``, ``smith_transform`` and
``kernel_basis_mod`` eliminate any matrix they are given densely; the
tests use them as the reference.
"""

from __future__ import annotations

import heapq
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


def smith_generators(rows: Sequence[dict[int, int]],
                     ncols: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """The diagonal of ``smith_normal_form`` for a sparse matrix, and one
    integer generator for each of its columns whose divisor is not 1.

    Each row maps column indices to its nonzero entries.  The diagonal is
    the dense one, zeros trailing, since the Smith form is unique.  The
    generators are the columns of some unimodular V with U·A·V diagonal,
    one for each place i past the diagonal or with d_i != 1, in order;
    ``kernel_basis`` reads a basis over Z_n off them.

    Unit pivots go first, one at a time.  With a = ±1 at (r, c), row
    operations clear column c outside row r, and then row r reads
    a·x_c + (the rest) = 0, whose other entries column operations
    clear without touching any other row.  So the Smith form is
    [1] + the form of the rows left, and every solution has
    x_c = -a·(the rest of row r), a substitution kept as row r.  The
    pivot taken has the least Markowitz cost, r's other entries times
    c's other entries, which bounds fill-in (Markowitz, "The elimination
    form of the inverse and its application to linear programming",
    1957).  Costs wait on a heap; one that changed since it was pushed is
    pushed again when popped.

    The dense ``_eliminate`` with V runs on the core that is left.  The
    columns of the core's V, lifted through the substitutions last first,
    are the columns of the unimodular transform of the whole matrix at
    the core's places: the eliminations' column operations send a core
    vector to its lift.
    """
    A = [dict(row) for row in rows]
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(A):
        for j in row:
            cols[j].add(i)
    heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in enumerate(A) for j, v in row.items() if v in (1, -1)]
    heapq.heapify(heap)
    subs: list[tuple[int, int, dict[int, int]]] = []
    while heap:
        cost, r, c = heapq.heappop(heap)
        row = A[r]
        if row is None or row.get(c) not in (1, -1):
            continue
        now = (len(row) - 1) * (len(cols[c]) - 1)
        if now != cost:
            heapq.heappush(heap, (now, r, c))
            continue
        a = row.pop(c)
        A[r] = None
        subs.append((c, a, row))
        for j in row:
            cols[j].discard(r)
        touched = cols[c]
        touched.discard(r)
        cols[c] = set()
        for i in touched:
            other = A[i]
            f = other.pop(c) * a
            for j, v in row.items():
                w = other.get(j, 0) - f * v
                if w:
                    other[j] = w
                    cols[j].add(i)
                else:
                    del other[j]
                    cols[j].discard(i)
            for j, v in other.items():
                if v in (1, -1):
                    heapq.heappush(heap, ((len(other) - 1) * (len(cols[j]) - 1), i, j))

    eliminated = {c for c, _, _ in subs}
    core_cols = [j for j in range(ncols) if j not in eliminated]
    place = {j: k for k, j in enumerate(core_cols)}
    core = []
    for row in A:
        if row:
            dense = [0] * len(core_cols)
            for j, v in row.items():
                dense[place[j]] = v
            core.append(dense)
    core_divisors, V = _eliminate(core, len(core_cols), True)
    size = min(len(rows), ncols)
    divisors = [1] * len(subs) + core_divisors
    divisors += [0] * (size - len(divisors))

    generators = []
    for k in range(len(core_cols)):
        if k < len(core_divisors) and core_divisors[k] == 1:
            continue
        y = [0] * ncols
        for j, v in zip(core_cols, V):
            y[j] = v[k]
        for c, a, row in reversed(subs):
            y[c] = -a * sum(v * y[j] for j, v in row.items())
        generators.append(tuple(y))
    return divisors, generators


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
    next, read by ``kernel_basis`` off the columns of
    ``smith_transform(rows, ncols)``'s V at the places whose divisor is
    not 1."""
    divisors, V = smith_transform(rows, ncols)
    generators = [tuple(row[i] for row in V) for i in range(ncols)
                  if i >= len(divisors) or divisors[i] != 1]
    return kernel_basis(divisors, generators, n)


def kernel_basis(divisors: Sequence[int], generators: Sequence[Sequence[int]],
                 n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The basis of ``kernel_basis_mod`` read off a Smith diagonal and the
    columns V e_i of its unimodular transform at the places i past the
    diagonal or with d_i != 1, in order, as ``smith_generators`` gives
    them, with no elimination.

    With U·A·V = D, y = V z solves A y = 0 exactly when d_i z_i = 0 for
    every i, taking d_i = 0 past the diagonal, because U is invertible
    over Z_n.  That holds exactly when z_i is a multiple of n / g_i,
    g_i = gcd(d_i, n), so the solutions are the direct sum of the cyclic
    modules generated by (n / g_i)·V e_i; a place with d_i = 1 adds
    nothing.  V is unimodular, so V e_i has coprime entries and that
    generator has order g_i.  The chain d_i | d_{i+1}, zeros last,
    orders the g_i.
    """
    orders = [d for d in divisors if d != 1]
    orders += [0] * (len(generators) - len(orders))
    basis = []
    for d, y in zip(orders, generators):
        g = math.gcd(d, n)
        if g > 1:
            basis.append((g, tuple(n // g * v % n for v in y)))
    return basis
