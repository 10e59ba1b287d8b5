"""Coloring quivers, shadow cocycle quivers and their invariants.

Given a diagram D, a finite quandle X and a set S of endomorphisms, the
coloring quiver has one vertex per X-coloring and, for every vertex v
and every f in S, one edge v -> f o v (parallel edges and loops kept).
The shadow cocycle quiver weights each vertex with the cocycle weight
sum of its unique shadow extension for a fixed base label; summing
``s^weight(v) t^weight(w)`` over all edges (v, w) gives the quiver
polynomial.

The quiver is stored as a target table, one row per f in S.  When the
translation x -> x+1 is in S, most rows are composed from its row and
the row of a predecessor (``coloring_quiver``) instead of being looked
up vertex by vertex.  Building, writing and comparing the quiver come
down to gathers from that table; each one runs in C through
``operator.itemgetter`` (``_gather``), not element by element in Python.
The JSON and DOT writers spell each vertex's out-edges as one join over
a piece list made once per quiver, refilled per vertex by two slice
assignments: the vertex's prefix, and its column of targets gathered
into their names (``_vertex_texts``).

Quiver isomorphism is directed-multigraph isomorphism, ignoring the
endomorphism labels on edges and optionally requiring vertex weights to
match.  It is decided by colour refinement of the disjoint union of
the two quivers, run from a worklist of split cells that skips the
largest piece of each split (``_joint_refine``).  When the refined
partition is discrete, one vertex of each quiver per cell, the only
colour-preserving bijection is read off the cells and verified edge by
edge, with no search.  Otherwise an iterative backtracking search on
an explicit stack follows.  It keeps the candidates of each unmapped
vertex as an int bitmask over the other quiver's vertices and cuts
every mask with one ``&`` as each vertex is mapped, undoing the cuts
from a trail on backtrack.  Quivers of two diagrams over R_n with all
of End(R_n) need neither, nor need they be built to be told apart:
``end_modules`` reads the verdict off the diagrams' coloring modules
before any quiver exists and, when the module types agree, the two
vertex lists and a witness as vertex indices.  The quivers are built
on those lists (``coloring_quiver(..., colorings=...)``), and
``quiver_isomorphic`` given the witness as ``over`` proves it row by
row (``_keeps_rows``).  A returned witness is always verified edge by
edge.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, itemgetter
from typing import Iterator, Optional, Sequence

from .cocycle import Cocycle3, weight_sum
from .coloring import Coloring, enumerate_colorings, extend_shadow, module_colorings
from .diagram import Diagram
from .quandle import (
    FiniteQuandle,
    Homs,
    InvalidParameterError,
    QuandleMap,
    is_affine_end,
    is_homomorphism,
)
from .snf import kernel_basis


@dataclass(frozen=True)
class WeightedQuiver:
    """Directed multigraph on colorings, stored as a target table.

    Vertex v has one out-edge per row e, to ``targets[e][v]``: the index of ``endos[e] o v``.
    ``weights`` is parallel to ``vertices`` when present, with values in
    Z_weight_modulus.  Vertex order is the coloring enumeration order,
    so construction is reproducible.
    """

    vertices: tuple[Coloring, ...]
    targets: tuple[tuple[int, ...], ...]
    endos: tuple[QuandleMap, ...]
    weights: Optional[tuple[int, ...]] = None
    weight_modulus: Optional[int] = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.vertices) * len(self.targets)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(source, target, row) per edge, by vertex, then row; derived from
        ``targets`` for ``quiver_to_json``."""
        edges: list[tuple[int, int, int]] = []
        for vi, row in enumerate(zip(*self.targets)):
            edges.extend(zip(repeat(vi), row, range(len(row))))
        return tuple(edges)


@dataclass(frozen=True)
class Polynomial2:
    """A two-variable polynomial sum(coeff * s^i t^j) with exponents in
    Z_modulus and non-negative integer coefficients."""

    modulus: int
    coeffs: tuple[tuple[tuple[int, int], int], ...]

    def total(self) -> int:
        return sum(c for _, c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for (i, j), coeff in self.coeffs:
            svar = "" if i == 0 else ("s" if i == 1 else f"s^{i}")
            tvar = "" if j == 0 else ("t" if j == 1 else f"t^{j}")
            if not svar and not tvar:
                terms.append(str(coeff))
            else:
                prefix = "" if coeff == 1 else str(coeff)
                terms.append(f"{prefix}{svar}{tvar}")
        return " + ".join(terms)


def _gather(seq, idx: Sequence[int]) -> tuple:
    """``tuple(seq[i] for i in idx)``, gathered in C.  ``itemgetter``
    returns a bare item for one index and takes no zero indices, so
    those two lengths are handled here."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return (seq[idx[0]],) if idx else ()


def _check_endos(X: FiniteQuandle, endos: Sequence[QuandleMap]) -> tuple[QuandleMap, ...]:
    """The maps as a tuple: ``Homs`` proved for X -> X as they are, any other
    sequence (a slice of ``Homs`` is a plain tuple) checked exhaustively, once per
    call.  f o c is a coloring for every coloring c only when f is an endomorphism,
    and only then is the projection lookup of f o c in ``coloring_quiver`` sure to find it."""
    if isinstance(endos, Homs) and endos.source == X == endos.target:
        return endos
    for f in endos:
        if not is_homomorphism(f, X, X):
            raise InvalidParameterError(f"{f!r} is not an endomorphism of {X!r}")
    return tuple(endos)


def _determining_arcs(vertices: Sequence[Coloring]) -> list[int]:
    """Arcs, taken greedily in index order, whose values tell the
    colorings apart.  An arc is kept only when it splits more colorings
    apart, until the projection onto the kept arcs is injective; the
    count of distinct projections verifies that.
    """
    arcs: list[int] = []
    keys = [()] * len(vertices)
    distinct = min(len(vertices), 1)
    for arc in range(len(vertices[0].values) if vertices else 0):
        if distinct == len(vertices):
            break
        refined = [k + (c.values[arc],) for k, c in zip(keys, vertices)]
        if len(set(refined)) > distinct:
            arcs.append(arc)
            keys, distinct = refined, len(set(refined))
    if distinct != len(vertices):
        raise AssertionError("the colorings are not distinct")
    return arcs


def _codes(columns: Sequence[Sequence[int]], n_vertices: int, order: int,
           image: Sequence[int]) -> list[int]:
    """The code of f o c for every vertex c, where f has this image: its
    values on the determining arcs, ``columns``, read in radix ``order``."""
    out = [0] * n_vertices
    for k, col in enumerate(columns):
        w = order**k
        scaled = [y * w for y in image]
        out = list(map(add, out, _gather(scaled, col)))
    return out


def coloring_quiver(
    d: Diagram, X: FiniteQuandle, endos: Sequence[QuandleMap],
    colorings: Optional[Sequence[Coloring]] = None,
) -> WeightedQuiver:
    """The coloring quiver of D over X with edge set S = endos.

    ``colorings`` are the X-colorings of D in ``enumerate_colorings``'
    order, sorted by value vector, when the caller already has them (as
    ``end_modules`` gives them); otherwise they are enumerated here.

    A row of targets is built directly from the determining arcs, on
    which the colorings project injectively: the values on those arcs
    are read as one integer in radix |X| (``_codes``), and the codes of
    all f o c are computed arc by arc through ``f.image`` and looked up.
    Each f is proved an endomorphism where its ``Homs`` was made or in
    ``_check_endos``, so f o c is a coloring, named by its code.

    When the translation t(x) = x+1 is in S, row(t) is built directly
    and the other maps are taken by ascending f(0): f's row is
    row(t)[row(g)] when g = t^-1 o f, found by its image, already has a
    row, since targets[t o g][v] = targets[t][targets[g][v]] for any two
    maps in S.  Every other row is built directly; maps with equal
    images share one row.  Rows are composed, and codes looked up, by
    ``_gather`` in C.
    """
    S = _check_endos(X, endos)
    vertices = tuple(enumerate_colorings(d, X) if colorings is None else colorings)
    n = X.order
    columns = [[c.values[arc] for c in vertices] for arc in _determining_arcs(vertices)]
    index = {code: vi for vi, code in enumerate(_codes(columns, len(vertices), n, range(n)))}

    def direct(image: Sequence[int]) -> tuple[int, ...]:
        return _gather(index, _codes(columns, len(vertices), n, image))

    shift = tuple(range(1, n)) + (0,)
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    row_t = None
    if any(f.image == shift for f in S):
        minus_1 = [(y - 1) % n for y in range(n)]
        row_t = rows[shift] = direct(shift)
    for f in sorted(S, key=lambda f: f.image[0]):
        if f.image not in rows:
            g = None if row_t is None else rows.get(_gather(minus_1, f.image))
            rows[f.image] = direct(f.image) if g is None else _gather(row_t, g)
    targets = tuple(rows[f.image] for f in S)
    return WeightedQuiver(vertices, targets, S)


def shadow_cocycle_quiver(
    d: Diagram,
    X: FiniteQuandle,
    endos: Sequence[QuandleMap],
    base: int,
    theta: Cocycle3,
) -> WeightedQuiver:
    """The coloring quiver with each vertex weighted by the cocycle
    weight sum of its unique shadow extension over ``base``.

    Vertices correspond to the shadow colorings with the given base
    label via the unique-extension bijection, so the underlying quiver
    equals the unweighted coloring quiver.
    """
    if theta.quandle_order != X.order:
        raise InvalidParameterError(
            f"cocycle order {theta.quandle_order} != quandle order {X.order}"
        )
    q = coloring_quiver(d, X, endos)
    weights = tuple(
        weight_sum(d, extend_shadow(d, X, c, base), theta) for c in q.vertices
    )
    return WeightedQuiver(q.vertices, q.targets, q.endos, weights, theta.modulus)


def _adjacency(q: WeightedQuiver):
    """Edge multiplicities per vertex: ``out_adj[v][w]`` and
    ``in_adj[w][v]`` both count the edges v -> w.  Each out-adjacency is
    one ``Counter`` of the vertex's column; in-adjacency is filled once
    per distinct (source, target) pair, not once per edge."""
    n = q.n_vertices
    if q.targets:
        out_adj = [Counter(col) for col in zip(*q.targets)]
    else:
        out_adj = [Counter() for _ in range(n)]
    in_adj: list[dict[int, int]] = [{} for _ in range(n)]
    for src, out in enumerate(out_adj):
        for dst, m in out.items():
            in_adj[dst][src] = m
    return out_adj, in_adj


def _joint_refine(q1: WeightedQuiver, q2: WeightedQuiver, respect_weights: bool):
    """Colour refinement of the disjoint union of the two quivers, so
    colour ids are comparable across them.  Returns (colors1, colors2,
    out1, in1, out2, in2), or None when some colour has unequal counts
    in the two quivers.

    The result is the coarsest partition of the union that refines the
    initial cells (the weights, or one cell) and is stable: any two
    vertices of a cell have, for every cell C, direction and
    multiplicity m, equally many neighbours in C joined to them by m
    edges that way.  That partition is unique, and a split by counts
    into a union of its cells separates only vertices it separates, so
    any schedule of such splits that stops at a stable partition reaches
    it: the search sees the same cells whatever the order, and only the
    ids depend on it.
    A cell with unequal counts is a union of final cells, one of which
    has unequal counts too, so the None verdict does not depend on the
    order either.

    Union vertex v is q1's v for v < n and q2's v - n otherwise.  The
    weights only seed the cells: the first split is by each vertex's own
    weight, when weights count, and its sorted out- and in-multiplicities.
    Those multiplicities are its edges to and from the whole union, so
    after this split the partition is stable against the union.  Then
    counts into any one cell are the counts into the union minus the
    counts into the other cells, and stability against all cells but one
    gives stability against that one too: any one cell may be left out
    of the worklist.  The one left out is the largest, so that every
    queued cell holds at most half of the union, as the bound below
    needs.  A neighbour's weight needs no code of its own, since cells
    of different weights are different splitters.  A splitter S gives
    each vertex with an edge to or from S the sorted multiset of the
    multiplicities of those edges, negated for edges from S; each
    touched cell splits by it, its untouched members forming one more
    piece.  A queued cell queues all its pieces, any other all but its
    largest, by the same subtraction against the whole cell, against
    which the partition is already stable.  So each vertex is in
    O(log n) processed splitters, and refinement takes O((n + m) log n)
    steps for m distinct (source, target) pairs (Paige & Tarjan 1987;
    Berkholz, Bonsma & Grohe 2013).
    """
    n = q1.n_vertices
    # The initial cells' counts, checked before any adjacency is built.
    if respect_weights and Counter(q1.weights) != Counter(q2.weights):
        return None
    out1, in1 = _adjacency(q1)
    out2, in2 = _adjacency(q2)
    palette: dict = {}
    cell: list[int] = []
    for q, out_adj, in_adj in ((q1, out1, in1), (q2, out2, in2)):
        for v in range(n):
            sig = (q.weights[v] if respect_weights else 0,
                   tuple(sorted(out_adj[v].values())), tuple(sorted(in_adj[v].values())))
            cell.append(palette.setdefault(sig, len(palette)))
    if Counter(cell[:n]) != Counter(cell[n:]):
        return None
    members: list[set[int]] = [set() for _ in palette]
    for v, c in enumerate(cell):
        members[c].add(v)
    queue = sorted(range(len(members)), key=lambda c: len(members[c]))[:-1]
    queued = set(queue)

    while queue:
        s = queue.pop()
        queued.discard(s)
        hits: dict[int, list[int]] = {}
        for x in members[s]:
            if x < n:
                into, out, off = in1[x], out1[x], 0
            else:
                into, out, off = in2[x - n], out2[x - n], n
            for u, m in into.items():
                hits.setdefault(u + off, []).append(m)
            for u, m in out.items():
                hits.setdefault(u + off, []).append(-m)
        splits: dict[int, dict[tuple, list[int]]] = {}
        for v, sig in hits.items():
            sig.sort()
            splits.setdefault(cell[v], {}).setdefault(tuple(sig), []).append(v)
        for c, groups in splits.items():
            rest = members[c]
            moved = list(groups.values())
            if len(moved[0]) == len(rest):
                continue
            if sum(map(len, moved)) == len(rest):
                moved.pop()
            first = len(members)
            for piece in moved:
                # c had equal counts, so the piece left in c has them
                # when every moved piece has.
                if 2 * sum(v < n for v in piece) != len(piece):
                    return None
                for v in piece:
                    cell[v] = len(members)
                members.append(set(piece))
                rest.difference_update(piece)
            new = range(first, len(members))
            if c not in queued:
                new = [c, *new]
                new.remove(max(new, key=lambda p: len(members[p])))
            queue += new
            queued.update(new)
    return cell[:n], cell[n:], out1, in1, out2, in2


def _search(colors1, colors2, out1, in1, out2, in2) -> Optional[list[int]]:
    """Backtracking search for a bijection v -> w between the vertices of
    two quivers that keeps refined colors, loop counts and the edge
    multiplicities between every two mapped vertices.  Returns
    mapping[v1] = v2, or None when there is none.

    Every unmapped vertex u of q1 keeps the set of q2 vertices it can
    still map to, as an int bitmask: bit x is set when u -> x is still
    possible.  Assigning v -> w groups q2's vertices, in one pass over
    w's neighbours, into masks keyed by the pair (edges x -> w, edges
    w -> x); every vertex not adjacent to w falls in the (0, 0) mask, and
    w itself in none.  Each unmapped u is then cut with one ``&``
    against the mask of its own pair (edges u -> v, edges v -> u).  That
    is the pairwise compatibility test against all mapped vertices, done
    one mapped vertex at a time.  A changed mask replaces its
    predecessor, which goes on a trail that backtracking unwinds.  The
    search branches on the unmapped vertex with the fewest candidates,
    the lowest index on a tie, tries its candidates from the lowest bit
    up, and runs on an explicit stack, so its depth is not bounded by
    the recursion limit.
    """
    n = len(colors1)
    bits = [1 << x for x in range(n)]
    full = (1 << n) - 1
    by_key: dict[tuple[int, int], int] = {}
    for w, col in enumerate(colors2):
        key = (col, out2[w].get(w, 0))
        by_key[key] = by_key.get(key, 0) | bits[w]
    cand = [by_key.get((colors1[v], out1[v].get(v, 0)), 0) for v in range(n)]
    if not all(cand):
        return None

    mapping = [-1] * n
    trail: list[tuple[int, int]] = []

    def assign(v: int, w: int) -> bool:
        """Map v -> w and cut the masks; False when one runs empty."""
        mapping[v] = w
        to_w, from_w = in2[w], out2[w]
        masks: dict[tuple[int, int], int] = {}
        adjacent = bits[w]
        for x in to_w.keys() | from_w.keys():
            if x != w:
                key = (to_w.get(x, 0), from_w.get(x, 0))
                masks[key] = masks.get(key, 0) | bits[x]
                adjacent |= bits[x]
        masks[(0, 0)] = full & ~adjacent
        to_v, from_v = in1[v].get, out1[v].get
        for u in range(n):
            if mapping[u] >= 0:
                continue
            old = cand[u]
            new = old & masks.get((to_v(u, 0), from_v(u, 0)), 0)
            if new != old:
                trail.append((u, old))
                cand[u] = new
                if not new:
                    return False
        return True

    def select() -> int:
        best_v, best_len = -1, n + 1
        for v in range(n):
            if mapping[v] < 0:
                size = cand[v].bit_count()
                if size < best_len:
                    best_v, best_len = v, size
                    if best_len <= 1:
                        break
        return best_v

    # A frame is [vertex, mask of its untried candidates, trail length].
    v = select()
    stack = [[v, cand[v], 0]]
    while stack:
        frame = stack[-1]
        v, options, mark = frame
        while len(trail) > mark:
            u, old = trail.pop()
            cand[u] = old
        mapping[v] = -1
        if not options:
            stack.pop()
            continue
        low = options & -options
        frame[1] = options ^ low
        if assign(v, low.bit_length() - 1):
            v = select()
            if v < 0:
                return mapping
            stack.append([v, cand[v], len(trail)])
    return None


def quiver_isomorphic(
    q1: WeightedQuiver, q2: WeightedQuiver, respect_weights: bool = False,
    over: Optional[tuple[int, ...]] = None,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Decide directed-multigraph isomorphism, ignoring edge labels.

    With ``respect_weights`` the vertex weights must be preserved
    exactly.  Returns (True, mapping) with mapping[v1] = v2 on success,
    (False, None) otherwise.  The witness is verified edge by edge
    before being returned.

    ``over`` is the witness of ``end_modules(X, S, d1, d2)`` when S is
    all of End(R_n) and the quivers were built on its vertex lists.  An
    unweighted compare given it returns it once ``_keeps_rows`` has
    proved it, row by row with the labels, with no refinement or search;
    a witness that fails is an error, not a verdict.  Every other
    compare is searched.
    """
    if q1.n_vertices != q2.n_vertices or q1.n_edges != q2.n_edges:
        return (False, None)
    if over is not None and not respect_weights:
        if not _keeps_rows(q1, q2, over):
            raise AssertionError("the coloring module map is not a quiver isomorphism")
        return (True, over)
    if respect_weights:
        if q1.weights is None or q2.weights is None:
            raise InvalidParameterError("both quivers need weights to compare them")
        if q1.weight_modulus != q2.weight_modulus:
            return (False, None)
    n = q1.n_vertices
    if n == 0:
        return (True, ())

    refined = _joint_refine(q1, q2, respect_weights)
    if refined is None:
        return (False, None)
    colors1, colors2 = refined[:2]
    if len(set(colors1)) == n:
        # A discrete partition allows one colour-preserving bijection,
        # the mapping the search would return; it is an isomorphism or
        # none is.
        position = dict(zip(colors2, range(n)))
        witness = _gather(position, colors1)
        if _verify_witness(q1, q2, witness, respect_weights):
            return (True, witness)
        return (False, None)
    mapping = _search(*refined)
    if mapping is None:
        return (False, None)

    witness = tuple(mapping)
    if not _verify_witness(q1, q2, witness, respect_weights):
        raise AssertionError("isomorphism search returned an invalid witness")
    return (True, witness)


def end_modules(
    X: FiniteQuandle, S: Sequence[QuandleMap], d1: Diagram, d2: Diagram
) -> Optional[tuple[list[int], Optional[tuple]]]:
    """The verdict of ``quiver_isomorphic`` on the coloring quivers of d1
    and d2 over X with the maps S, read off the diagrams' coloring
    modules before either quiver is built.  None unless X is R_n and S
    is all of End(R_n), the n^2 maps x -> a*x + b (``is_affine_end``).

    Returns (counts, None) when the quivers are not isomorphic, and
    otherwise (counts, (vertices1, vertices2, witness)).  counts are the
    two coloring counts; the vertex lists are the colorings
    ``enumerate_colorings`` lists; witness[v] is the index in vertices2
    of the image of vertices1[v] under a module isomorphism phi.  Built
    on those lists, the two quivers are isomorphic by that witness, which
    ``quiver_isomorphic(q1, q2, over=witness)`` proves; it may differ
    from the search's.

    The colorings of a diagram over R_n are the module M = <1> + M',
    where M' holds the colorings with c(arc 0) = 0; the docstring of
    ``Diagram.coloring_reduction`` gives the argument.  A basis of M' is
    read off the generators of each diagram's cached reduction by
    ``kernel_basis``, with no elimination, and |M| = n·(the product of
    the basis orders).

    Not isomorphic when the orders of the two bases differ.  Proof:
    vertex c has the out-neighbours a·c + b·1 for (a, b) in Z_n^2, which
    are |Z_n c + Z_n 1| = n·|Z_n [c]| distinct vertices, [c] being c's
    part in M' (1 has order n and spans a summand).  An isomorphism keeps
    each vertex's count of distinct out-neighbours, so it keeps how many
    elements of M' have each order, and so, for every m, how many x in M'
    have m·x = 0: the product of gcd(m, g) over the basis orders g.  For
    each prime p, those counts at m = p, p^2, ... give the multiset of
    the p-parts of the orders, so they fix the orders.

    Otherwise the map phi with phi(1) = 1 that sends each basis
    generator of d1 to d2's at the same place, of the same order, is a
    module isomorphism M1 -> M2.  ``module_colorings`` lists both modules
    by the same coefficients in the same order, so phi sends the i-th
    coloring of d1's list to the i-th of d2's.  With order_k the argsort
    of list k, vertices_k[r] = list_k[order_k[r]], and the argsort of
    order_2, its inverse, ranks d2's list in vertices2: witness[v] =
    rank2[order1[v]], gathered with no lookup by value.
    phi is a quiver isomorphism, label for label: End(R_n) is the n^2
    maps x -> a*x + b, in closed form (``enumerate_homs``), and
    phi(a·c + b·1) = a·phi(c) + b·1, so phi sends the edge of each map f
    out of c to the edge of f out of phi(c).
    """
    if not is_affine_end(X, S):
        return None
    n = X.order
    bases = [kernel_basis(*d.coloring_reduction, n) for d in (d1, d2)]
    orders = [[g for g, _ in basis] for basis in bases]
    counts = [n * math.prod(o) for o in orders]
    if orders[0] != orders[1]:
        return counts, None
    vertices, ranks = [], []
    for d, basis in zip((d1, d2), bases):
        listed = module_colorings(n, d.n_arcs, basis)
        ranks.append(sorted(range(counts[0]), key=listed.__getitem__))
        vertices.append(list(map(Coloring, _gather(listed, ranks[-1]))))
    inverse = sorted(range(counts[0]), key=ranks[1].__getitem__)
    return counts, (*vertices, _gather(inverse, ranks[0]))


def _keeps_rows(q1: WeightedQuiver, q2: WeightedQuiver, w: tuple[int, ...]) -> bool:
    """Whether w is a bijection of the vertices that sends every edge of
    q1 to the edge of q2 with the same map: w[targets1[f][v]] =
    targets2[f][w[v]] for each map f and vertex v.  The rows are paired
    by the maps' images, which must be distinct and the same in both
    quivers, as for the n^2 maps of ``is_affine_end``."""
    n = q1.n_vertices
    rows1, rows2 = ({f.image: row for f, row in zip(q.endos, q.targets)} for q in (q1, q2))
    if (q2.n_vertices != n or sorted(w) != list(range(n)) or rows1.keys() != rows2.keys()
            or not len(rows1) == len(q1.targets) == len(q2.targets)):
        return False
    return all(_gather(w, row) == _gather(rows2[image], w) for image, row in rows1.items())


def _verify_witness(
    q1: WeightedQuiver, q2: WeightedQuiver, mapping: tuple[int, ...], respect_weights: bool
) -> bool:
    n = q1.n_vertices
    if (q2.n_vertices, q2.n_edges) != (n, q1.n_edges) or sorted(mapping) != list(range(n)):
        return False
    out1, out2 = list(zip(*q1.targets)), list(zip(*q2.targets))
    for v, w in enumerate(mapping):
        if respect_weights and q1.weights[v] != q2.weights[w]:
            return False
        if out1 and sorted(_gather(mapping, out1[v])) != sorted(out2[w]):
            return False
    return True


def cocycle_polynomial(q: WeightedQuiver) -> Polynomial2:
    """Sum of s^weight(source) t^weight(target) over the quiver's edges."""
    if q.weights is None:
        raise InvalidParameterError("quiver has no vertex weights")
    pairs = (zip(q.weights, _gather(q.weights, row)) for row in q.targets)
    counts = Counter(chain.from_iterable(pairs))
    return Polynomial2(q.weight_modulus, tuple(sorted(counts.items())))


def dot_chunks(q: WeightedQuiver, collapse_parallel: bool = False) -> Iterator[str]:
    """The DOT text of ``to_dot`` in pieces that join with newlines: the
    header, the vertex lines, then each vertex's out-edge lines, read
    from its column of the target table (``_vertex_texts``): per row,
    ``  vN -> v``, the target's name and the row's label, which ends in a
    newline on every row but the last."""
    if q.n_vertices == 0:
        yield "digraph { }"
        return
    yield "digraph {"
    if q.weights is not None:
        yield "\n".join(f'  v{i} [label="{i} (w={w})"];' for i, w in enumerate(q.weights))
    else:
        yield "\n".join(f'  v{i} [label="{i}"];' for i in range(q.n_vertices))
    names = list(map(str, range(q.n_vertices)))
    if collapse_parallel:
        for src, col in enumerate(zip(*q.targets)):
            head = f"  v{src} -> v"
            yield "\n".join(
                head + names[dst] + (f' [label="x{count}"];' if count > 1 else ";")
                for dst, count in sorted(Counter(col).items())
            )
    else:
        labels = [f' [label="f{e}"];\n' for e in range(len(q.targets))]
        if labels:
            labels[-1] = labels[-1][:-1]
        yield from _vertex_texts(q, names, (f"  v{name} -> v" for name in names), labels)
    yield "}"


def to_dot(q: WeightedQuiver, collapse_parallel: bool = False,
           write=None) -> Optional[str]:
    """Deterministic DOT text; parallel edges are emitted individually.

    ``collapse_parallel`` merges parallel edges into one line with a
    multiplicity label.  Display convenience only: isomorphism tests and
    polynomials always see the full multigraph.  With ``write``, the
    text and a closing newline are passed to it one vertex at a time and
    None is returned, so the whole text is never held.
    """
    if write is None:
        return "\n".join(dot_chunks(q, collapse_parallel))
    for chunk in dot_chunks(q, collapse_parallel):
        write(chunk + "\n")
    return None


def _vertex_entries(q: WeightedQuiver) -> list[dict]:
    if q.weights is None:
        return [{"id": i} for i in range(q.n_vertices)]
    return [{"id": i, "weight": w} for i, w in enumerate(q.weights)]


def quiver_to_json(q: WeightedQuiver, write=None) -> Optional[dict]:
    """The quiver as a JSON-ready dict; ``edges`` is the derived edge list.

    With ``write``, the text of ``json.dumps`` of that dict is passed to
    it one vertex at a time (``quiver_json_chunks``) and None is
    returned, so no edge list is built.
    """
    if write is not None:
        for chunk in quiver_json_chunks(q):
            write(chunk)
        return None
    return {
        "vertices": _vertex_entries(q),
        "edges": q.edges,
        "endos": [f.image for f in q.endos],
    }


def quiver_json_chunks(q: WeightedQuiver) -> Iterator[str]:
    """The text of ``json.dumps(quiver_to_json(q))`` in pieces, with no
    edge list built: one piece per vertex holds its out-edges, spelled
    ``[v, target, row]`` as ``json.dumps`` spells them, read from the
    vertex's column of the target table (``_vertex_texts``).  Each edge
    opens with ``, ``, which the first vertex's piece drops."""
    yield '{"vertices": ' + json.dumps(_vertex_entries(q)) + ', "edges": ['
    names = list(map(str, range(q.n_vertices)))
    heads = (", [" + name + ", " for name in names)
    texts = _vertex_texts(q, names, heads, [f", {e}]" for e in range(len(q.targets))])
    for v, text in enumerate(texts):
        yield text if v else text[2:]
    yield '], "endos": ' + json.dumps([f.image for f in q.endos]) + "}"


def _vertex_texts(q: WeightedQuiver, names: list[str], heads: Iterator[str],
                  tails: list[str]) -> Iterator[str]:
    """Per vertex v, the join over the rows e of v's head, the name of
    ``targets[e][v]`` and ``tails[e]``.  The list of those 3r pieces for
    r rows is made once; per vertex, two slice assignments put in the
    head and the gathered target names, so no Python code runs per edge."""
    r = len(tails)
    pieces = [""] * (3 * r)
    pieces[2::3] = tails
    for head, col in zip(heads, zip(*q.targets)):
        pieces[0::3] = [head] * r
        pieces[1::3] = _gather(names, col)
        yield "".join(pieces)
