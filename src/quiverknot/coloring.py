"""Quandle colorings and shadow colorings of a diagram.

An X-coloring labels every arc with a quandle element so that
``c(under_in) * c(over) == c(under_out)`` holds at each crossing.  A
shadow coloring additionally labels every region so that crossing an
edge from its right side to its left side acts by the edge's arc label:
``c(left) == c(right) * c(arc)``.

Over a dihedral quandle R_n the colorings are the solutions of the
linearized crossing relations (x + z - 2y = 0 over Z_n), a Z_n-module.
``Diagram.coloring_reduction`` reduces those relations once per
diagram; counts are read off its elementary divisors, and the colorings
are listed from the module basis read off its generators.  Over every
other quandle enumeration is a depth-first search over arcs with unit
propagation, branching in a fail-first order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .diagram import Diagram, coloring_rows
from .quandle import FiniteQuandle, InvalidParameterError, QuandleMap, _backtrack, check_order
from .snf import kernel_basis, solution_count_mod


class ShadowConflictError(RuntimeError):
    """Region propagation reached contradictory values.

    This signals a diagram or sidedness bug (or a coloring theory in
    which region labels are not globally consistent), not bad user input.
    """


@dataclass(frozen=True)
class Coloring:
    """An arc coloring in canonical vector form, indexed by arc id."""

    values: tuple[int, ...]

    def __getitem__(self, arc: int) -> int:
        return self.values[arc]

    def is_trivial(self) -> bool:
        return len(set(self.values)) <= 1

    def to_json(self) -> list[int]:
        return list(self.values)


@dataclass(frozen=True)
class ShadowColoring:
    """An arc coloring together with region values indexed by region id."""

    arc_values: Coloring
    region_values: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "arcs": list(self.arc_values.values),
            "regions": {str(i): v for i, v in enumerate(self.region_values)},
        }


@dataclass(frozen=True)
class ColoringMatrix:
    """Linearized crossing relations over the arcs, one row per crossing,
    with the elementary divisors of the integer matrix."""

    rows: tuple[tuple[int, ...], ...]
    n_arcs: int
    elementary_divisors: tuple[int, ...]


def is_valid_coloring(d: Diagram, X: FiniteQuandle, values) -> bool:
    """Check the crossing condition directly; independent of the enumerator."""
    if len(values) != d.n_arcs:
        return False
    if any(not 0 <= v < X.order for v in values):
        return False
    for cr in d.crossings:
        if X.op[values[cr.under_in_arc]][values[cr.over_arc]] != values[cr.under_out_arc]:
            return False
    return True


def _branch_order(rels, touching) -> list[int]:
    """A fail-first order of the arcs for the coloring search.

    Each step picks the arc whose assignment closes the most arcs under
    the crossing rule, where the over arc and one under arc known force
    the other under arc; ties go to the lowest index.  The pick is
    followed by the arcs it closes, so the search branches exactly on the
    picks (Haralick & Elliott, "Increasing tree search efficiency for
    constraint satisfaction problems", 1980).

    Closure sizes are cached on a max-heap.  A size depends only on the
    crossings its closure visited, so each crossing lists the arcs whose
    cached size read it, and when one of its arcs becomes known only
    those arcs are recomputed.
    """
    n_arcs = len(touching)
    known = [False] * n_arcs
    readers: list[list[int]] = [[] for _ in rels]

    def closure(a: int) -> list[int]:
        new, seen = [a], {a}
        for x in new:  # appended to while walked: a FIFO queue
            for c in touching[x]:
                i, j, k = rels[c]
                if not (known[j] or j in seen):
                    continue
                if known[i] or i in seen:
                    t = k
                elif known[k] or k in seen:
                    t = i
                else:
                    continue
                if not (known[t] or t in seen):
                    seen.add(t)
                    new.append(t)
        return new

    size = [0] * n_arcs
    heap: list[tuple[int, int]] = []

    def evaluate(a: int) -> None:
        closed = closure(a)
        size[a] = len(closed)
        for x in closed:
            for c in touching[x]:
                readers[c].append(a)
        heapq.heappush(heap, (-size[a], a))

    for a in range(n_arcs):
        evaluate(a)
    order: list[int] = []
    while len(order) < n_arcs:
        neg, a = heapq.heappop(heap)
        if known[a] or size[a] != -neg:
            continue  # stale entry
        stale: set[int] = set()
        for x in closure(a):
            known[x] = True
            order.append(x)
            for c in touching[x]:
                stale.update(readers[c])
                readers[c] = []
        for b in stale:
            if not known[b]:
                evaluate(b)
    return order


def enumerate_colorings(d: Diagram, X: FiniteQuandle) -> list[Coloring]:
    """All X-colorings, sorted by value vector.

    Over R_n (a ``dihedral`` X) the colorings are the module listed by
    ``module_colorings`` from the basis ``kernel_basis`` reads off
    ``d.coloring_reduction``, with no search; the docstring of
    ``Diagram.coloring_reduction`` gives the argument.

    Over any other X: ``_backtrack`` over the arcs relabelled by
    ``_branch_order``, so its cost depends little on how the PD code
    numbers the arcs.  A crossing with its under-in and over arcs known
    forces the under-out arc via ``op``, and with under-out and over
    known forces under-in via ``inv_op``.  The trail is the queue: each
    newly assigned arc visits the crossings it touches.  When x -> x+1 is
    an automorphism of X, c -> (arc -> c(arc) + 1) maps colorings to
    colorings, so the search runs for one value of the first arc and
    ``_backtrack`` adds the translates.  The driver's output is
    lexicographic in the relabelled order only, so the colorings are
    mapped back.  Either way they are sorted.

    Known limitation: the rule reads no crossing sign, which is right
    only when * is an involution (dihedral quandles, Alexander with
    t^2 = 1).  Otherwise counts can change under a Reidemeister II move:
    over alexander:7:3, 3_1 has 49 colorings and 3_1_kinked 7.
    """
    if X.is_dihedral:
        n = X.order
        found = module_colorings(n, d.n_arcs, kernel_basis(*d.coloring_reduction, n))
        return [Coloring(v) for v in sorted(found)]
    rels = [(cr.under_in_arc, cr.over_arc, cr.under_out_arc) for cr in d.crossings]
    touching: list[list[int]] = [[] for _ in range(d.n_arcs)]
    for c, rel in enumerate(rels):
        for arc in set(rel):
            touching[arc].append(c)
    order = _branch_order(rels, touching)
    pos = [0] * d.n_arcs
    for p, arc in enumerate(order):
        pos[arc] = p
    new_rels = [(pos[i], pos[j], pos[k]) for i, j, k in rels]
    new_touching = [[new_rels[c] for c in touching[arc]] for arc in order]
    op, inv_op = X.op, X.inv_op

    def propagate(values: list[int], trail: list[int], done: int) -> bool:
        while done < len(trail):
            for i, j, k in new_touching[trail[done]]:
                vj = values[j]
                if vj < 0:
                    # under_in and under_out alone force nothing through
                    # the tables; checked once the over arc is set.
                    continue
                if values[i] >= 0:
                    t, v = k, op[values[i]][vj]
                elif values[k] >= 0:
                    t, v = i, inv_op[values[k]][vj]
                else:
                    continue
                if values[t] < 0:
                    values[t] = v
                    trail.append(t)
                elif values[t] != v:
                    return False
            done += 1
        return True

    found = _backtrack(d.n_arcs, X.order, propagate, X.translation_is_auto)
    return [Coloring(v) for v in sorted(tuple(s[p] for p in pos) for s in found)]


def module_colorings(n: int, n_arcs: int,
                     basis: list[tuple[int, tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """The R_n-colorings b·1 + z_1·(0, y_1) + ... + z_k·(0, y_k) for b in
    Z_n and z_i in Z_{g_i}, given the basis (g_i, y_i) of M', y_i holding
    the values on arcs 1 onward; b varies fastest, then z_1, and so on.

    Each arc's column of values is built whole: it starts as 0..n-1, and
    each generator replaces it by the concatenation of its translates by
    z·y_i[arc] for z = 0..g_i - 1, each a C-level lookup in a table of
    x -> x + w mod n."""
    shift = [tuple(range(w, n)) + tuple(range(w)) for w in range(n)]
    size = n * math.prod(g for g, _ in basis)
    columns = [list(range(n)) * (size // n)]
    for arc in range(n_arcs - 1):
        column = list(range(n))
        for g, y in basis:
            block, column = column, []
            for z in range(g):
                w = z * y[arc] % n
                column += map(shift[w].__getitem__, block) if w else block
        columns.append(column)
    return list(zip(*columns))


def coloring_matrix(d: Diagram) -> ColoringMatrix:
    """The coloring rows with their elementary divisors: those of
    ``d.coloring_reduction`` followed by zeros, up to min(crossings, arcs)."""
    divisors = d.coloring_reduction[0]
    size = min(d.n_crossings, d.n_arcs)
    return ColoringMatrix(coloring_rows(d), d.n_arcs,
                          divisors + (0,) * (size - len(divisors)))


def count_colorings_dihedral(d: Diagram, n: int) -> int:
    """|Col_{R_n}(D)| = n·|M'|, the constants times the colorings with
    c(arc 0) = 0, counted from ``d.coloring_reduction``'s divisors."""
    check_order(n)
    return n * solution_count_mod(d.coloring_reduction[0], d.n_arcs - 1, n)


def apply_endo(f: QuandleMap, c: Coloring) -> Coloring:
    """Post-compose a coloring with an endomorphism (arcwise image)."""
    return Coloring(tuple(f.image[v] for v in c.values))


def extend_shadow(d: Diagram, X: FiniteQuandle, c: Coloring, base: int) -> ShadowColoring:
    """The unique shadow coloring extending c with the unbounded region
    labeled ``base``.

    Region values are set by walking ``d.shadow_plan``'s steps, a
    breadth-first order from the unbounded region built once per diagram,
    using ``c(left) = c(right) * c(arc)`` forward and its inverse
    backward.  Every relation is then re-verified on every call, so the
    result does not depend on the spanning tree; an unreachable region or
    any conflict raises ShadowConflictError.
    """
    if not 0 <= base < X.order:
        raise InvalidParameterError(f"base label {base} out of range")
    steps, relations = d.shadow_plan
    if len(steps) != d.n_regions - 1:
        raise ShadowConflictError("region adjacency graph did not cover all regions")
    op, inv_op, values = X.op, X.inv_op, c.values
    region_vals = [base] * d.n_regions
    for region, source, arc, forward in steps:
        if forward:
            region_vals[region] = op[region_vals[source]][values[arc]]
        else:
            region_vals[region] = inv_op[region_vals[source]][values[arc]]
    for left, right, arc in relations:
        if op[region_vals[right]][values[arc]] != region_vals[left]:
            raise ShadowConflictError(
                f"inconsistent region values across an edge of arc {arc}"
            )
    return ShadowColoring(c, tuple(region_vals))
