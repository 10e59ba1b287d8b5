"""Finite quandles and their homomorphisms.

A quandle is a set with a binary operation ``*`` such that ``x*x == x``
(Q1), every right translation ``x -> x*y`` is a bijection (Q2), and the
operation is right self-distributive, ``(x*y)*z == (x*z)*(y*z)`` (Q3).

Elements are always the integers ``0..n-1`` and every quandle has a
full operation table, so every axiom and every claimed homomorphism can
be checked exhaustively.  The dihedral quandle of order n is Z_n with
``x*y = 2y - x``; the Alexander quandle with unit t is Z_n with
``x*y = t*x + (1-t)*y``.  Both are formula quandles: R_n is the
Alexander formula at t = -1, and every path that knows the formula
reads its t (``FiniteQuandle.formula_t``), not the name it was built
under.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence


class InvalidParameterError(ValueError):
    """A constructor or operation received unusable parameters."""


class QuandleAxiomError(ValueError):
    """An operation table violates a quandle axiom.

    ``witness`` is ("Q1", x), ("Q2", y) or ("Q3", x, y, z), naming the
    first tuple at which the axiom fails.
    """

    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"axiom {witness[0]} fails at {witness[1:]}")


@dataclass(frozen=True)
class FiniteQuandle:
    """Order-n quandle on 0..n-1.

    ``op[x][y]`` is x*y and ``inv_op[z][y]`` is the unique x with
    x*y == z (the inverse of the Q2 column bijection).  ``kind`` tags
    the construction: ("dihedral", n), ("alexander", n, t) or ("table",).
    A formula quandle is its (n, t) and builds ``op`` and ``inv_op`` on
    first read; a table quandle holds its checked ``tables``, (op,
    inv_op), and equality compares them.  Instances are immutable and
    safe to share between threads: two concurrent first reads at worst
    build the same table twice.
    """

    order: int
    kind: tuple
    tables: Optional[tuple] = None

    def mul(self, x: int, y: int) -> int:
        return self.op[x][y]

    def unmul(self, z: int, y: int) -> int:
        """The unique x with x*y == z."""
        return self.inv_op[z][y]

    @property
    def formula_t(self) -> Optional[int]:
        """The t of a formula quandle, x*y = t*x + (1-t)*y on Z_n, as the
        integer its coloring rows are built with: -1 for every t that is
        -1 mod n, R_n among them, else t in 0..n-1; None for a table."""
        if self.kind[0] == "dihedral":
            return -1
        if self.kind[0] == "alexander":
            t = self.kind[2]
            return -1 if (t + 1) % self.order == 0 else t
        return None

    @functools.cached_property
    def op(self) -> tuple[tuple[int, ...], ...]:
        t = self.formula_t
        return self.tables[0] if t is None else _alexander_table(self.order, t)

    @functools.cached_property
    def inv_op(self) -> tuple[tuple[int, ...], ...]:
        """x*y == z exactly when x = t^-1*z + (1 - t^-1)*y, so a formula
        quandle's inverse table is the formula's table at t^-1."""
        t = self.formula_t
        if t is None:
            return self.tables[1]
        return self.op if t == -1 else _alexander_table(self.order, pow(t, -1, self.order))

    @functools.cached_property
    def translation_is_auto(self) -> bool:
        """Whether the translation x -> x+1 (mod n) is an automorphism.

        For the dihedral and Alexander formulas it is, since
        (x+1)*(y+1) = t(x+1) + (1-t)(y+1) = x*y + 1; the test suite proves
        that on the tables.  A table is checked exhaustively, once per
        object.
        """
        if self.formula_t is not None:
            return True
        n = self.order
        shift = QuandleMap(n, n, tuple(range(1, n)) + (0,))
        return is_homomorphism(shift, self, self)

    def __repr__(self) -> str:
        return f"FiniteQuandle({'/'.join(map(str, self.kind))}, order={self.order})"


def _alexander_table(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The table of x*y = t*x + (1-t)*y on Z_n."""
    return tuple(tuple((t * x + (1 - t) * y) % n for y in range(n)) for x in range(n))


def check_order(n: int) -> None:
    """Reject an order below 1 for the formula quandles."""
    if n < 1:
        raise InvalidParameterError(f"order must be >= 1, got {n}")


def make_dihedral(n: int) -> FiniteQuandle:
    """The dihedral quandle R_n: Z_n with x*y = 2y - x (so inv_op == op)."""
    check_order(n)
    return FiniteQuandle(n, ("dihedral", n))


def make_alexander(n: int, t: int) -> FiniteQuandle:
    """The Alexander quandle on Z_n with x*y = t*x + (1-t)*y.

    Requires gcd(t, n) == 1, otherwise right translations are not
    bijections and Q2 fails.  t = n-1 reproduces the dihedral table.
    """
    check_order(n)
    if math.gcd(t, n) != 1:
        raise InvalidParameterError(f"t={t} is not a unit mod {n}")
    return FiniteQuandle(n, ("alexander", n, t % n))


def from_table(rows: Sequence[Sequence[int]]) -> FiniteQuandle:
    """Build a quandle from an explicit table, validating all three axioms."""
    n = len(rows)
    if n == 0:
        raise InvalidParameterError("empty operation table")
    op = tuple(tuple(int(v) for v in row) for row in rows)
    for x, row in enumerate(op):
        if len(row) != n:
            raise InvalidParameterError(f"row {x} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise InvalidParameterError(f"entry {v} out of range 0..{n - 1}")
    for x in range(n):
        if op[x][x] != x:
            raise QuandleAxiomError(("Q1", x))
    inv = [[-1] * n for _ in range(n)]
    for y in range(n):
        seen = [False] * n
        for x in range(n):
            z = op[x][y]
            if seen[z]:
                raise QuandleAxiomError(("Q2", y))
            seen[z] = True
            inv[z][y] = x
    for x in range(n):
        for y in range(n):
            xy = op[x][y]
            for z in range(n):
                if op[xy][z] != op[op[x][z]][op[y][z]]:
                    raise QuandleAxiomError(("Q3", x, y, z))
    return FiniteQuandle(n, ("table",), (op, tuple(tuple(r) for r in inv)))


def parse_table_text(text: str) -> FiniteQuandle:
    """Parse the table file format: first line n, then n rows of n integers."""
    tokens = text.split()
    if not tokens:
        raise InvalidParameterError("empty quandle table text")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidParameterError(f"non-integer token in quandle table: {exc}") from None
    n = values[0]
    if n < 1 or len(values) != 1 + n * n:
        raise InvalidParameterError(
            f"expected {n}x{n} entries after the header, got {len(values) - 1}"
        )
    rows = [values[1 + i * n : 1 + (i + 1) * n] for i in range(n)]
    return from_table(rows)


def table_text(q: FiniteQuandle) -> str:
    """Serialize a quandle in the table file format."""
    lines = [str(q.order)]
    lines += [" ".join(str(v) for v in row) for row in q.op]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class QuandleMap:
    """A map between quandles, stored as its image vector.

    The image is the whole map: two maps with the same orders and image
    are equal however they were built.
    """

    source_order: int
    target_order: int
    image: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.image[x]

    def is_bijection(self) -> bool:
        return len(set(self.image)) == self.source_order

    def __repr__(self) -> str:
        return f"QuandleMap(image={self.image})"


class Homs(tuple):
    """Homomorphisms ``source -> target``, proved where this module made them."""

    def __new__(cls, source: FiniteQuandle, target: FiniteQuandle, maps: Iterable):
        self = super().__new__(cls, maps)
        self.source, self.target = source, target
        return self

    def __reduce__(self):  # for copy and pickle; tuple's passes only the maps
        return Homs, (self.source, self.target, tuple(self))


def is_homomorphism(f: QuandleMap, X: FiniteQuandle, Y: FiniteQuandle) -> bool:
    """Exhaustive check of f(x*y) == f(x)*f(y)."""
    img = f.image
    if f.source_order != X.order or f.target_order != Y.order or len(img) != X.order:
        return False
    if not 0 <= min(img) <= max(img) < Y.order:
        return False
    for row, fx in zip(X.op, img):
        Yrow = Y.op[fx]
        for y in range(X.order):
            if img[row[y]] != Yrow[img[y]]:
                return False
    return True


def _backtrack(n_vars: int, n_values: int, propagate,
               translated: bool = False) -> list[tuple[int, ...]]:
    """Every complete assignment of values 0..n_values-1 to variables
    0..n_vars-1 (n_vars >= 1) that ``propagate`` accepts, in ascending
    lexicographic order.

    ``propagate(img, trail, done)`` closes a partial assignment: ``img``
    holds each variable's value or -1, ``trail`` lists the assigned
    variables in assignment order, and the variables from ``trail[done]``
    on are new since the last closure.  It appends each value it forces
    to both, and returns False on a clash.  The search branches on the
    lowest unassigned variable, runs on an explicit stack and undoes
    assignments from the trail.

    The output needs no sort.  Two leaves first differ at some branch
    variable x, where the earlier leaf took the smaller value.  When x is
    branched it is the lowest unassigned variable, so every variable
    below x is assigned and equal in both leaves.  Values are tried in
    ascending order, so the leaves come out in lexicographic order.
    That order is the driver's own variable order: a caller that numbers
    its variables differently and maps the solutions back must sort them.

    ``translated`` is the caller's promise that the solution set is
    closed under the translation s -> s + 1 (every value plus 1 mod
    n_values).  The search then branches variable 0 on the value 0 only,
    and each solution found is emitted with all its translates.  That is
    exact: s -> s + b changes variable 0 by b, so the n_values translates
    of a solution are distinct, and each solution s is the translate by
    s[0] of exactly one solution with variable 0 equal to 0, which the
    search finds.  The translates by b are the solutions with variable 0
    equal to b, so emitting them by ascending b, each group sorted, keeps
    the lexicographic order.
    """
    img = [-1] * n_vars
    trail: list[int] = []
    out: list[tuple[int, ...]] = []
    roots = 1 if translated else n_values  # values tried for variable 0
    # A frame is [branch variable, next value to try, trail length before it].
    stack = [[0, 0, 0]]
    while stack:
        frame = stack[-1]
        x, v, mark = frame
        for t in trail[mark:]:
            img[t] = -1
        del trail[mark:]
        if v == (n_values if x else roots):
            stack.pop()
            continue
        frame[1] = v + 1
        img[x] = v
        trail.append(x)
        if not propagate(img, trail, mark):
            continue
        nxt = x + 1
        while nxt < n_vars and img[nxt] >= 0:
            nxt += 1
        if nxt == n_vars:
            out.append(tuple(img))
        else:
            stack.append([nxt, 0, len(trail)])
    if not translated:
        return out
    translates = list(out)
    for b in range(1, n_values):
        plus_b = [(v + b) % n_values for v in range(n_values)].__getitem__
        translates += sorted(tuple(map(plus_b, s)) for s in out)
    return translates


def enumerate_homs(X: FiniteQuandle, Y: FiniteQuandle) -> Homs:
    """All quandle homomorphisms X -> Y, sorted by image vector.

    ``_backtrack`` with closure propagation.  When x -> x+1 is an
    automorphism of Y, f -> (x -> f(x) + 1) maps homomorphisms to
    homomorphisms, so the search runs for f(0) = 0 only and
    ``_backtrack`` adds the translates.  Otherwise one search serves
    every f(0).  Assigned elements are closed under ``*``: once x and y
    have images, x*y is forced to f(x)*f(y), or checked against the
    image it already has.  The trail doubles as the propagation queue;
    an element is paired with every element before it when its turn
    comes, so on a complete assignment each relation x*y with x != y has
    been checked exactly once.  The diagonal relations x*x == x need no
    check: they hold by Q1 in X and in Y, by the formula for dihedral and
    Alexander quandles and by ``from_table``'s check for tables.

    End(R_n) needs no search: it is the n^2 maps f(x) = a*x + b, for
    every n, and so is End of every formula quandle whose t is -1 mod n,
    which has R_n's table (``FiniteQuandle.formula_t``).  Each map is an
    endomorphism (``is_affine_end``).  Conversely
    (k-1)*k = k+1, so R_n is generated by 0 and 1, and an endomorphism f
    has f(k+1) = 2f(k) - f(k-1): f(0) = b and f(1) = a + b force
    f(k) = a*k + b by induction.  So f is fixed by (f(0), f(1)), the
    pairs (a, b) give n^2 distinct maps, and sorted by image they come
    b ascending, then a = (k - b) mod n for f(1) = k ascending.  Image
    (a, b) is gathered in C: the values b, b+1, ... at the positions a*x.
    """
    n, m = X.order, Y.order
    if n == m and X.formula_t == -1 == Y.formula_t:
        ring = range(n)
        shifts = [tuple(ring[b:]) + tuple(ring[:b]) for b in ring]  # y -> y + b
        steps = [itemgetter(*[a * x % n for x in ring]) for a in ring]  # x -> a*x
        images = [steps[(k - b) % n](shifts[b]) for b in ring for k in ring] if n > 1 else [(0,)]
        return Homs(X, Y, (QuandleMap(n, n, image) for image in images))
    Xop, Yop = X.op, Y.op
    Xcols, Ycols = tuple(zip(*Xop)), tuple(zip(*Yop))  # Xcols[x][y] == y*x

    def propagate(img: list[int], trail: list[int], done: int) -> bool:
        while done < len(trail):
            x = trail[done]
            fx = img[x]
            row_x, col_x = Xop[x], Xcols[x]
            frow_x, fcol_x = Yop[fx], Ycols[fx]
            for y in trail[:done]:
                fy = img[y]
                t, v = row_x[y], frow_x[fy]
                if img[t] < 0:
                    img[t] = v
                    trail.append(t)
                elif img[t] != v:
                    return False
                t, v = col_x[y], fcol_x[fy]
                if img[t] < 0:
                    img[t] = v
                    trail.append(t)
                elif img[t] != v:
                    return False
            done += 1
        return True

    images = _backtrack(n, m, propagate, Y.translation_is_auto)
    return Homs(X, Y, (QuandleMap(n, m, image) for image in images))


def enumerate_autos(X: FiniteQuandle) -> Homs:
    """All quandle automorphisms of X (bijective endomorphisms)."""
    return Homs(X, X, (f for f in enumerate_homs(X, X) if f.is_bijection()))


def affine_endos(X: FiniteQuandle, pairs: Iterable[tuple[int, int]]) -> Homs:
    """The maps f(x) = a*x + b of the formula quandle X, x*y = t*x +
    (1-t)*y on Z_n, one per pair (a, b).  All are endomorphisms, for
    every t: f(x*y) = a(t*x + (1-t)*y) + b = t(a*x + b) + (1-t)(a*y + b)
    = f(x)*f(y)."""
    if X.formula_t is None:
        raise InvalidParameterError(
            "explicit a,b endomorphism lists require dihedral:n or alexander:n:t")
    n = X.order
    return Homs(X, X, (QuandleMap(n, n, tuple((a % n * x + b) % n for x in range(n)))
                       for a, b in pairs))


def is_affine_end(X: FiniteQuandle, maps: Sequence[QuandleMap]) -> bool:
    """Whether X is a formula quandle, x*y = t*x + (1-t)*y on Z_n, and
    ``maps`` are the n^2 maps x -> a*x + b, once each.

    Each such map is an endomorphism: a(t*x + (1-t)*y) + b =
    t(a*x + b) + (1-t)(a*y + b).  ``maps`` must be endomorphisms of X,
    as a ``Homs`` and a quiver's maps are.  When t is -1 mod n, every
    endomorphism is affine and fixed by (f(0), f(1)) (``enumerate_homs``),
    so n^2 maps with n^2 distinct such pairs are the affine maps: O(n^2)
    steps, with no image rebuilt.  For any other t, End(X) may hold more
    (1,024 maps for alexander:8:5), so each image is also checked to be
    x -> f(0) + (f(1) - f(0))*x: O(n^3).
    """
    n, t = X.order, X.formula_t
    if t is None or not len(maps) == n * n == len({f.image[:2] for f in maps}):
        return False
    return t == -1 or all(
        f.image == tuple((f.image[0] + (f.image[1] - f.image[0]) * x) % n for x in range(n))
        for f in maps)


def identity_map(X: FiniteQuandle) -> QuandleMap:
    return QuandleMap(X.order, X.order, tuple(range(X.order)))


def constant_map(X: FiniteQuandle, value: int) -> QuandleMap:
    if not 0 <= value < X.order:
        raise InvalidParameterError(f"constant {value} out of range")
    return QuandleMap(X.order, X.order, (value,) * X.order)


def compose(f: QuandleMap, g: QuandleMap) -> QuandleMap:
    """The composite f(g(x)).  Requires g's target to be f's source."""
    if g.target_order != f.source_order:
        raise InvalidParameterError(
            f"cannot compose: g maps into order {g.target_order}, "
            f"f maps from order {f.source_order}"
        )
    image = tuple(f.image[g.image[x]] for x in range(g.source_order))
    return QuandleMap(g.source_order, f.target_order, image)
