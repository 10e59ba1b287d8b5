"""Oriented link diagrams built from planar diagram (PD) codes.

A PD code gives one quadruple of edge labels per crossing, read
counterclockwise starting at the incoming under-strand edge; edges are
numbered consecutively along each component, wrapping cyclically.  From
that single convention the builder recovers:

* the over-strand direction at each crossing (the over-out edge is the
  cyclic successor of the over-in edge; on a component of one or two
  edges both readings are successors, and the component's other
  passage, or +1 when that leaves a choice, decides),
* the crossing sign (+1 when the over-strand crosses left to right as
  seen along the under-strand direction),
* the faces of the underlying 4-valent plane graph, by following the
  corner permutation of the rotation system,
* which face lies to the left and to the right of every directed edge.

Each crossing then gives one coloring relation, read by its sign
(``crossing_relation``), and over a formula quandle x*y = t*x +
(1-t)*y that relation is one linear row with coefficients 1, -t and
t - 1 (``coloring_rows``), R_n's rows at t = -1.

Terminology: an *edge* is a segment between two crossing passages (2c of
them for a c-crossing knot); an *arc* is a maximal over-path, i.e. edges
merged across over-passages (these are what quandle colorings label).

Slot layout at a crossing (a, b, c, d), under-strand drawn pointing
north: slot 0 = a = south (under-in), slot 1 = b = east, slot 2 = c =
north (under-out), slot 3 = d = west.  Corner q is the quadrant between
slots q and q+1, so corner 0 = SE, 1 = NE, 2 = NW, 3 = SW.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .snf import smith_generators


class ParseError(ValueError):
    """Malformed PD text.  ``position`` is a character offset when known."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class StructuralError(ValueError):
    """Well-formed text that does not describe a valid planar diagram."""


class UnsupportedDiagramError(StructuralError):
    """Valid diagram outside the supported class (e.g. a split link)."""


@dataclass(frozen=True)
class PDCode:
    """A validated PD code.

    ``components`` partitions the edge labels into link components; each
    component is a consecutive integer range stored as a sorted tuple.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Crossing:
    """One crossing of a built diagram.

    ``corner_regions[q]`` is the region id of corner q.  The *_arc
    fields index into Diagram.arcs.
    """

    pd: tuple[int, int, int, int]
    sign: int
    under_in_arc: int
    over_arc: int
    under_out_arc: int
    corner_regions: tuple[int, int, int, int]


@dataclass(frozen=True)
class Diagram:
    """A built diagram: arcs, signed crossings, regions and incidence.

    ``arcs[i]`` is the sorted tuple of edge labels forming arc i.
    ``edge_sides[label]`` is (left region, right region) relative to the
    edge's direction along the strand orientation, keyed in label order.
    ``region_corners`` lists, per region, its (crossing index, corner)
    pairs.  Immutable after construction and safe to share between
    threads.

    Three derived tables are computed on first read and cached on the
    object: ``shadow_plan`` (the region propagation order of a shadow
    extension), ``crossing_terms`` (what each crossing's cocycle weight
    reads) and ``coloring_reduction(t)`` (the one reduction of the
    coloring rows at t, which the fingerprint, every count and listing
    over a formula quandle with that t, and every compare over its
    affine maps read).  They live and die with the diagram, and
    ``with_r_infinity`` returns a fresh object that computes its own.
    Two concurrent first reads at worst compute the same value twice, so
    a diagram stays safe to share.
    """

    pd: PDCode
    arcs: tuple[tuple[int, ...], ...]
    arc_of_edge: dict
    crossings: tuple[Crossing, ...]
    n_regions: int
    r_infinity: int
    region_corners: tuple[tuple[tuple[int, int], ...], ...]
    edge_sides: dict

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def writhe(self) -> int:
        return sum(cr.sign for cr in self.crossings)

    @functools.cached_property
    def shadow_plan(self) -> tuple[tuple, tuple]:
        """``(steps, relations)``: how a shadow coloring fills the regions.

        ``relations`` holds one ``(left, right, arc)`` per edge, in label
        order; a shadow coloring satisfies
        ``c(left) == c(right) * c(arc)`` across each.  ``steps`` is a
        breadth-first search of the region adjacency graph from
        ``r_infinity``: each ``(region, from_region, arc, forward)`` sets
        ``region`` from the already set ``from_region`` across an edge of
        ``arc``, through ``*`` when ``region`` is the edge's left side
        (``forward``) and through its inverse when it is the right.  The
        order reads only the diagram, never a coloring's values.  A
        connected diagram has ``n_regions - 1`` steps; fewer means some
        region is unreachable.
        """
        relations = tuple(
            (left, right, self.arc_of_edge[label])
            for label, (left, right) in self.edge_sides.items()
        )
        by_region: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_regions)]
        for rel in relations:
            by_region[rel[0]].append(rel)
            by_region[rel[1]].append(rel)
        reached = [False] * self.n_regions
        reached[self.r_infinity] = True
        steps = []
        pending = [self.r_infinity]
        for region in pending:  # appended to while walked: a FIFO queue
            for left, right, arc in by_region[region]:
                if not reached[left]:
                    reached[left] = True
                    steps.append((left, region, arc, True))
                    pending.append(left)
                elif not reached[right]:
                    reached[right] = True
                    steps.append((right, region, arc, False))
                    pending.append(right)
        return tuple(steps), relations

    @functools.cached_property
    def crossing_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per crossing, ``(sign, source region, under_in arc, over arc)``.

        The source corner is the one both strand orientations point away
        from: corner 3 (SW) at a positive crossing, corner 0 (SE) at a
        negative one.
        """
        return tuple(
            (cr.sign, cr.corner_regions[3 if cr.sign > 0 else 0], cr.under_in_arc, cr.over_arc)
            for cr in self.crossings
        )

    @functools.cached_property
    def _reductions(self) -> dict:
        return {}

    def coloring_reduction(self, t: int = -1) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
        """``(divisors, generators)``: ``smith_generators`` of
        ``coloring_rows(self, t)`` without arc 0's column, built sparse,
        once per diagram and integer t.

        Over Z_n the colorings by the formula quandle x*y = t*x +
        (1 - t)*y are the module M of solutions of those rows taken mod
        n (Inoue, JKTR 2001).  Every row sums to 0, so M holds the
        constants Z_n·1, and c -> c(arc 0) splits them off: M = <1> + M',
        where M' holds the colorings with c(arc 0) = 0, the solutions of
        the rows without arc 0's column.  So |M| = n·|M'|, and
        ``snf.kernel_basis`` reads a basis of M' off the generators for
        any n: generator k holds the values on arcs 1 onward.  Column 0
        is minus the sum of the others, so the full matrix's elementary
        divisors are these ``divisors`` followed by zeros, up to
        min(crossings, arcs).  The reduction reads no n, so every t that
        is -1 mod n takes t = -1 (``FiniteQuandle.formula_t``): one
        reduction serves R_n for every n.
        """
        found = self._reductions.get(t)
        if found is None:
            rows = [{arc - 1: v for arc, v in row.items() if arc}
                    for row in _coloring_entries(self, t)]
            divisors, generators = smith_generators(rows, self.n_arcs - 1)
            found = self._reductions[t] = (tuple(divisors), tuple(generators))
        return found

    def with_r_infinity(self, region: int) -> "Diagram":
        """The same diagram with a different face designated unbounded.

        A new object, so its ``shadow_plan`` is computed afresh."""
        if not 0 <= region < self.n_regions:
            raise StructuralError(f"no region {region} in this diagram")
        return replace(self, r_infinity=region)


_TERM_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\Z")


def parse_pd(text: str) -> PDCode:
    """Parse PD text: whitespace-separated ``X(a,b,c,d)`` terms or the
    bracket form ``[[a,b,c,d],...]``."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("no crossings in PD text", position=0)
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad bracket form: {exc.msg}", position=exc.pos) from None
        except RecursionError:
            raise ParseError("bad bracket form: nested too deeply") from None
        except ValueError:  # an integer of more digits than int() converts
            raise ParseError("bad bracket form: a number has too many digits") from None
        if not isinstance(data, list) or not data:
            raise ParseError("bracket form must be a non-empty list of quadruples")
        quads = []
        for i, item in enumerate(data):
            if (
                not isinstance(item, list)
                or len(item) != 4
                or not all(type(v) is int for v in item)  # JSON true is an int too
            ):
                raise ParseError(f"crossing {i} is not a quadruple of integers")
            quads.append(tuple(item))
        return pd_from_quadruples(quads)
    quads = []
    for match in re.finditer(r"\S+", text):
        term = match.group(0)
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad crossing term {term!r}", position=match.start())
        try:
            quads.append(tuple(int(g) for g in m.groups()))
        except ValueError:  # more digits than int() converts
            raise ParseError("edge label has too many digits", position=match.start()) from None
    return pd_from_quadruples(quads)


def _find(parent, x: int) -> int:
    """Union-find root of x with path halving; ``parent`` is a list or a
    dict mapping each element to its parent."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def pd_from_quadruples(quads: Sequence[tuple[int, int, int, int]]) -> PDCode:
    """Validate quadruples: labels occur exactly twice and components are
    consecutively numbered.  Components are recovered by merging the two
    labels of each strand passage (a with c, b with d)."""
    if not quads:
        raise ParseError("no crossings in PD code")
    counts: dict[int, int] = {}
    for quad in quads:
        for label in quad:
            if label < 0:
                raise StructuralError(f"negative edge label {label}")
            counts[label] = counts.get(label, 0) + 1
    bad = sorted(l for l, c in counts.items() if c != 2)
    if bad:
        raise StructuralError(
            f"edge labels must appear exactly twice; offending labels {bad}"
        )

    parent = {l: l for l in counts}
    for a, b, c, d in quads:
        parent[_find(parent, a)] = _find(parent, c)
        parent[_find(parent, b)] = _find(parent, d)
    groups: dict[int, list[int]] = {}
    for label in counts:
        groups.setdefault(_find(parent, label), []).append(label)
    components = []
    for labels in groups.values():
        labels.sort()
        if labels[-1] - labels[0] + 1 != len(labels):
            raise StructuralError(
                f"component labels {labels} are not consecutive integers"
            )
        components.append(tuple(labels))
    components.sort()
    return PDCode(tuple(tuple(q) for q in quads), tuple(components))


def _successor_map(pd: PDCode) -> dict:
    nxt = {}
    for comp in pd.components:
        lo, hi = comp[0], comp[-1]
        for label in comp:
            nxt[label] = lo if label == hi else label + 1
    return nxt


def build_diagram(pd: PDCode, r_infinity_corner: Optional[tuple[int, int]] = None) -> Diagram:
    """Build the full diagram structure from a validated PD code.

    ``r_infinity_corner`` optionally names the unbounded face as a
    (crossing index, corner) pair; by default the face with the most
    corners is chosen.  Raises StructuralError when the rotation system
    is not planar (face count differs from crossings + 2) or the
    orientation conventions cannot be satisfied, and
    UnsupportedDiagramError for disconnected diagrams.

    Orientation is one pass.  Each edge gets one head (the slot where it
    arrives) and one tail.  Under passages and the over passages whose
    reading the numbering fixes are placed first; then each ambiguous over
    passage, in crossing order, reads d -> b (sign +1) unless d already
    has a head or b a tail, and b -> d (sign -1) otherwise.  Placing a
    label twice in either role means no orientation exists.  This is the
    first consistent sign vector with +1 preferred in crossing order: a
    passage is ambiguous only when its strand's component has one or two
    edges, whose labels appear at no other passage.  One edge: nothing
    else constrains it and +1 fits.  Two edges: if the other passage is an
    under passage, exactly one reading fits and the rule finds it; if it
    is an over passage, both readings fit the first of the two, which
    takes +1 and forces the second.  No constraint links two components.
    """
    quads = pd.crossings
    c = len(quads)
    if c == 0:
        raise StructuralError("PD code with no crossings; use unknot_diagram()")
    nxt = _successor_map(pd)

    # Reading of each over strand from the numbering: +1 for d -> b, -1
    # for b -> d, 0 when both are consecutive (a component of one or two
    # edges).  Every crossing is checked before any edge is placed.
    signs: list[int] = []
    for i, (a, b, cc, d) in enumerate(quads):
        if nxt[a] != cc:
            raise StructuralError(
                f"crossing {i}: under-out edge {cc} is not the successor of {a}"
            )
        pos = nxt[d] == b
        neg = nxt[b] == d
        if not (pos or neg):
            raise StructuralError(
                f"crossing {i}: over-strand edges {b},{d} are not consecutive"
            )
        signs.append(pos - neg)

    slots: dict[int, list[tuple[int, int]]] = {}
    for i, quad in enumerate(quads):
        for p, label in enumerate(quad):
            slots.setdefault(label, []).append((i, p))

    # One head (arrival slot) and one tail per edge: the fixed passages
    # first, then the ambiguous ones in crossing order.
    head: dict[int, tuple[int, int]] = {}
    tail: dict[int, tuple[int, int]] = {}

    def place(store: dict, label: int, slot: tuple[int, int]) -> None:
        if label in store:
            raise StructuralError(
                "no consistent strand orientation exists for this PD code"
            )
        store[label] = slot

    def place_over(i: int) -> None:
        _, b, _, d = quads[i]
        if signs[i] > 0:
            place(head, d, (i, 3))
            place(tail, b, (i, 1))
        else:
            place(head, b, (i, 1))
            place(tail, d, (i, 3))

    for i, (a, _, cc, _) in enumerate(quads):
        place(head, a, (i, 0))
        place(tail, cc, (i, 2))
        if signs[i]:
            place_over(i)
    for i, (_, b, _, d) in enumerate(quads):
        if not signs[i]:
            signs[i] = -1 if d in head or b in tail else 1
            place_over(i)

    # Dart involution: the two slots of each label are the ends of the edge.
    mate: dict[tuple[int, int], tuple[int, int]] = {}
    for label, pair in slots.items():
        s1, s2 = pair
        mate[s1] = s2
        mate[s2] = s1

    # Connectivity of the underlying 4-valent graph, checked before the
    # Euler count so split links get the specific error.
    cparent = list(range(c))
    for pair in slots.values():
        (i1, _), (i2, _) = pair
        cparent[_find(cparent, i1)] = _find(cparent, i2)
    if len({_find(cparent, i) for i in range(c)}) != 1:
        raise UnsupportedDiagramError("disconnected (split) diagrams are not supported")

    # Faces: orbits of dart -> rotate(mate(dart)); the orbit through dart
    # (v, p) carries corner (v, p-1).
    face_of_corner: dict[tuple[int, int], int] = {}
    region_corners: list[tuple[tuple[int, int], ...]] = []
    seen_darts = set()
    for i in range(c):
        for p in range(4):
            start = (i, p)
            if start in seen_darts:
                continue
            face_id = len(region_corners)
            corners = []
            dart = start
            while True:
                seen_darts.add(dart)
                v, q = dart
                corners.append((v, (q - 1) % 4))
                mv, mq = mate[dart]
                dart = (mv, (mq + 1) % 4)
                if dart == start:
                    break
            for corner in corners:
                face_of_corner[corner] = face_id
            region_corners.append(tuple(corners))
    if len(region_corners) != c + 2:
        raise StructuralError(
            f"face tracing produced {len(region_corners)} regions, expected "
            f"{c + 2}; the PD code does not describe a planar diagram"
        )

    # Unbounded region.
    if r_infinity_corner is not None:
        ci, q = r_infinity_corner
        if not (0 <= ci < c and 0 <= q < 4):
            raise StructuralError(f"bad unbounded-face corner {r_infinity_corner}")
        r_infinity = face_of_corner[(ci, q)]
    else:
        r_infinity = max(
            range(len(region_corners)),
            key=lambda f: (len(region_corners[f]), -f),
        )

    # Side incidence per directed edge, read at its tail.
    edge_sides: dict[int, tuple[int, int]] = {}
    for label in sorted(slots):
        tv, tp = tail[label]
        edge_sides[label] = (face_of_corner[(tv, tp)], face_of_corner[(tv, (tp - 1) % 4)])

    # Arcs: merge the over edges at every crossing.
    aparent = {l: l for l in slots}
    for a, b, cc, d in quads:
        aparent[_find(aparent, b)] = _find(aparent, d)
    arc_groups: dict[int, list[int]] = {}
    for label in slots:
        arc_groups.setdefault(_find(aparent, label), []).append(label)
    arcs = tuple(sorted(tuple(sorted(g)) for g in arc_groups.values()))
    arc_of_edge = {label: i for i, arc in enumerate(arcs) for label in arc}

    crossings = []
    for i, (a, b, cc, d) in enumerate(quads):
        crossings.append(
            Crossing(
                pd=(a, b, cc, d),
                sign=signs[i],
                under_in_arc=arc_of_edge[a],
                over_arc=arc_of_edge[b],
                under_out_arc=arc_of_edge[cc],
                corner_regions=tuple(face_of_corner[(i, q)] for q in range(4)),
            )
        )

    return Diagram(
        pd=pd,
        arcs=arcs,
        arc_of_edge=arc_of_edge,
        crossings=tuple(crossings),
        n_regions=len(region_corners),
        r_infinity=r_infinity,
        region_corners=tuple(region_corners),
        edge_sides=edge_sides,
    )


def unknot_diagram() -> Diagram:
    """The 0-crossing unknot: one closed arc, a bounded region on its
    left (region 0) and the unbounded region on its right (region 1)."""
    pd = PDCode(crossings=(), components=((1,),))
    return Diagram(
        pd=pd,
        arcs=((1,),),
        arc_of_edge={1: 0},
        crossings=(),
        n_regions=2,
        r_infinity=1,
        region_corners=((), ()),
        edge_sides={1: (0, 1)},
    )


def emit_pd(d: Diagram) -> str:
    """Serialize back to PD text; the 0-crossing unknot emits ``unknot``."""
    if not d.crossings:
        return "unknot"
    return " ".join("X({},{},{},{})".format(*cr.pd) for cr in d.crossings)


def crossing_relation(d: Diagram, k: int) -> tuple[int, int, int]:
    """Arc ids (source, over, result) at crossing k: every coloring
    satisfies c(source) * c(over) == c(result).  The rule is read by the
    crossing sign: (under_in, over, under_out) at a positive crossing and
    (under_out, over, under_in) at a negative one (Carter, Jelsovsky,
    Kamada, Langford & Saito, Trans. AMS 2003).  The two readings differ
    only when * is not an involution.  This is the one place the rule
    is spelled."""
    cr = d.crossings[k]
    if cr.sign > 0:
        return (cr.under_in_arc, cr.over_arc, cr.under_out_arc)
    return (cr.under_out_arc, cr.over_arc, cr.under_in_arc)


def _coloring_entries(d: Diagram, t: int) -> list[dict[int, int]]:
    """The nonzero entries of ``coloring_rows(d, t)``, as {arc: coefficient}."""
    rows = []
    for k in range(d.n_crossings):
        source, over, result = crossing_relation(d, k)
        row = {source: -t}
        row[over] = row.get(over, 0) + t - 1
        row[result] = row.get(result, 0) + 1
        rows.append({arc: v for arc, v in row.items() if v})
    return rows


def coloring_rows(d: Diagram, t: int = -1) -> tuple[tuple[int, ...], ...]:
    """One row per crossing over the arcs, result - t*source + (t - 1)*over
    = 0 for its ``crossing_relation``: the rule of the formula quandle
    x*y = t*x + (1 - t)*y made linear, R_n's under_in - 2*over +
    under_out = 0 at t = -1.  Coincident arcs sum, and every row sums
    to 0."""
    rows = []
    for entries in _coloring_entries(d, t):
        row = [0] * d.n_arcs
        for arc, v in entries.items():
            row[arc] = v
        rows.append(tuple(row))
    return tuple(rows)
