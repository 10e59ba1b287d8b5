"""PD parsing, diagram building, faces, signs and incidence."""

import random
from itertools import product

import pytest

from quiverknot.catalog import load_catalog
from quiverknot.diagram import (
    ParseError,
    StructuralError,
    UnsupportedDiagramError,
    build_diagram,
    crossing_relation,
    emit_pd,
    parse_pd,
    unknot_diagram,
)
from pd_generators import meridian_chain_pd, torus_pd

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
KINKS = ("X(1,2,2,1)", "X(1,1,2,2)", "X(2,2,1,1)", "X(2,1,1,2)")
HOPF_LINKS = ("X(4,1,3,2) X(2,3,1,4)", "X(1,3,2,4) X(3,1,4,2)",
              "X(1,3,2,4) X(4,2,3,1)", "X(3,2,4,1) X(1,4,2,3)")


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_parse_term_and_bracket_forms_agree():
    a = parse_pd(TREFOIL)
    b = parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")
    assert a == b
    assert a.components == ((1, 2, 3, 4, 5, 6),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pd("")
    with pytest.raises(ParseError):
        parse_pd("   ")
    with pytest.raises(ParseError) as exc:
        parse_pd("X(1,2,3)")
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_pd("X(1,4,2,5) Y(3,6,4,1)")
    assert exc.value.position == 11
    with pytest.raises(ParseError):
        parse_pd("[[1,2,3],[4,5,6]]")
    with pytest.raises(ParseError):
        parse_pd("[")


def test_structural_errors():
    # label 1 appears four times
    with pytest.raises(StructuralError):
        parse_pd("X(1,1,2,1) X(1,3,2,3)")
    # labels appear twice but are not consecutive within the component
    with pytest.raises(StructuralError):
        parse_pd("X(1,5,3,9) X(3,9,1,5)")


def test_trefoil_structure():
    d = build_diagram(parse_pd(TREFOIL))
    assert d.n_regions == 5
    assert d.n_arcs == 3
    assert d.arcs == ((1, 6), (2, 3), (4, 5))
    signs = {cr.sign for cr in d.crossings}
    assert len(signs) == 1
    assert abs(d.writhe) == 3


def test_trefoil_crossing_relation():
    # Crossing 0, X(1,4,2,5), is negative, so the relation reads the
    # under strand backwards: source is the under-out arc (edge 2) and
    # result the under-in arc (edge 1).
    d = build_diagram(parse_pd(TREFOIL))
    assert d.crossings[0].sign == -1
    source, over, result = crossing_relation(d, 0)
    assert 2 in d.arcs[source]
    assert 1 in d.arcs[result]
    assert d.arcs[over] == (4, 5)


def test_relation_count_matches_crossings(catalog):
    d = catalog.diagram("4_1")
    assert d.n_regions == 6
    rels = [crossing_relation(d, k) for k in range(d.n_crossings)]
    assert len(rels) == 4
    assert unknot_diagram().crossings == ()


def test_figure_eight_has_balanced_signs(catalog):
    assert catalog.diagram("4_1").writhe == 0


def test_euler_formula_all_catalog(catalog):
    for name in catalog.names():
        d = catalog.diagram(name)
        if d.n_crossings:
            assert d.n_regions == d.n_crossings + 2


def test_corner_orbits_partition_all_corners(catalog):
    for name in catalog.names():
        d = catalog.diagram(name)
        seen = set()
        for corners in d.region_corners:
            for corner in corners:
                assert corner not in seen
                seen.add(corner)
        assert len(seen) == 4 * d.n_crossings


def test_every_region_touches_a_crossing(catalog):
    for name in catalog.names():
        d = catalog.diagram(name)
        if d.n_crossings:
            assert all(len(c) >= 1 for c in d.region_corners)


def test_edge_sides_are_real_regions(catalog):
    for name in catalog.names():
        d = catalog.diagram(name)
        for left, right in d.edge_sides.values():
            assert 0 <= left < d.n_regions
            assert 0 <= right < d.n_regions
            assert left != right


def test_nonplanar_pd_rejected():
    # trefoil with one crossing's over entries swapped: the rotation
    # system closes on a torus (3 faces), so the Euler check fires
    with pytest.raises(StructuralError):
        build_diagram(parse_pd("X(1,5,2,4) X(3,6,4,1) X(5,2,6,3)"))


def test_split_link_rejected():
    two = TREFOIL + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
    with pytest.raises(UnsupportedDiagramError):
        build_diagram(parse_pd(two))


def test_kinks_build():
    for text in KINKS:
        d = build_diagram(parse_pd(text))
        assert d.n_regions == 3
        assert d.n_arcs == 1


def test_torus_knot_with_1001_crossings_builds():
    d = build_diagram(parse_pd(torus_pd(1001)))
    assert d.n_crossings == 1001
    assert d.n_arcs == 1001
    assert d.n_regions == 1003
    assert len({cr.sign for cr in d.crossings}) == 1


def test_even_torus_links_build():
    # T(2,2) is the Hopf link: both of its crossings are ambiguous.
    for k in (2, 6):
        d = build_diagram(parse_pd(torus_pd(k)))
        assert len(d.pd.components) == 2
        assert d.n_regions == k + 2
        assert [cr.sign for cr in d.crossings] == [-1] * k


def oracle_orientation(pd):
    """Brute force: try every sign vector of the ambiguous crossings in
    index order, +1 first, and keep the first under which every edge has
    one head and one tail.  Returns (signs, tail slot per edge) or None."""
    nxt = {}
    for comp in pd.components:
        for label in comp:
            nxt[label] = comp[0] if label == comp[-1] else label + 1
    choices = [[s for s, ok in ((1, nxt[d] == b), (-1, nxt[b] == d)) if ok]
               for a, b, c, d in pd.crossings]
    for signs in product(*choices):
        head, tail = {}, {}
        consistent = True
        for i, ((a, b, c, d), sign) in enumerate(zip(pd.crossings, signs)):
            over_in, over_out = ((d, 3), (b, 1)) if sign > 0 else ((b, 1), (d, 3))
            for store, (label, p) in ((head, (a, 0)), (tail, (c, 2)),
                                      (head, over_in), (tail, over_out)):
                consistent &= label not in store
                store[label] = (i, p)
        if consistent:
            return list(signs), tail
    return None


def test_orientation_matches_brute_force_oracle():
    rng = random.Random(14)
    texts = list(KINKS) + list(HOPF_LINKS)
    texts += [torus_pd(2 * m) for m in range(1, 6)]
    for m in range(1, 7):
        terms = meridian_chain_pd(m).split()
        for _ in range(5):
            texts.append(" ".join(terms))
            rng.shuffle(terms)
    for text in texts:
        pd = parse_pd(text)
        d = build_diagram(pd)
        signs, tail = oracle_orientation(pd)
        assert [cr.sign for cr in d.crossings] == signs, text
        regions = [cr.corner_regions for cr in d.crossings]
        assert d.edge_sides == {
            label: (regions[i][p], regions[i][(p - 1) % 4])
            for label, (i, p) in tail.items()
        }, text


def test_meridian_chain_orients_in_one_pass():
    # Each loop's over passage reads both ways and only its later under
    # passage rules one out, the worst case for a sign search.
    m = 40
    d = build_diagram(parse_pd(meridian_chain_pd(m)))
    assert d.n_crossings == 2 * m
    assert len(d.pd.components) == m + 1
    assert [cr.sign for cr in d.crossings] == [-1] * (2 * m)
    # A last loop that passes under twice in the same direction.
    extra = f" X({4*m+1},{4*m+3},{4*m+2},{4*m+4}) X({4*m+1},{4*m+4},{4*m+2},{4*m+3})"
    with pytest.raises(StructuralError, match="no consistent strand orientation"):
        build_diagram(parse_pd(meridian_chain_pd(m) + extra))


def test_emit_roundtrip(catalog):
    for name in catalog.names():
        d = catalog.diagram(name)
        if not d.n_crossings:
            assert emit_pd(d) == "unknot"
            continue
        again = build_diagram(parse_pd(emit_pd(d)),
                              r_infinity_corner=None)
        # r_infinity may have been overridden by the catalog; compare the rest
        assert again.pd == d.pd
        assert again.arcs == d.arcs
        assert again.crossings == d.crossings
        assert again.region_corners == d.region_corners
        assert again.edge_sides == d.edge_sides


def test_unknot_diagram():
    u = unknot_diagram()
    assert u.n_regions == 2
    assert u.arcs == ((1,),)
    assert u.r_infinity == 1


def test_r_infinity_default_and_override():
    d = build_diagram(parse_pd(TREFOIL))
    sizes = [len(c) for c in d.region_corners]
    assert sizes[d.r_infinity] == max(sizes)
    d2 = d.with_r_infinity(0)
    assert d2.r_infinity == 0
    assert d2.arcs == d.arcs
    with pytest.raises(StructuralError):
        d.with_r_infinity(99)
    d3 = build_diagram(parse_pd(TREFOIL), r_infinity_corner=(0, 1))
    assert d3.r_infinity == d.crossings[0].corner_regions[1]
