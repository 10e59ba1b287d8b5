"""Cocycle tables, crossing weights and the weight-sum multiset."""

import random
from collections import Counter
from itertools import product

import pytest

from quiverknot.catalog import load_catalog
from quiverknot.cocycle import (
    Cocycle3,
    invariant_multiset,
    mochizuki,
    multiset_to_json,
    verify_cocycle,
    weight_sum,
    zero_cocycle,
)
from quiverknot.coloring import Coloring, ShadowColoring, enumerate_colorings, extend_shadow
from quiverknot.diagram import build_diagram, parse_pd, unknot_diagram
from quiverknot.quandle import InvalidParameterError, from_table, make_dihedral
from pd_generators import relabel_pd, torus_pd

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def reference_theta(p, x, y, z):
    """Exact big-integer evaluation, independent of the table builder."""
    num = (2 * z - y) ** p + y ** p - 2 * z ** p
    assert num % (2 * p) == 0
    return ((x - y) * (num // (2 * p))) % p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_table_matches_exact_integer_evaluation(p):
    theta = mochizuki(p)
    for x, y, z in product(range(p), repeat=3):
        assert theta(x, y, z) == reference_theta(p, x, y, z)
        # representative independence: shift inputs by p
        assert theta(x, y, z) == reference_theta(p, x + p, y + p, z)
        assert theta(x, y, z) == reference_theta(p, x, y, z + p)


def test_theta3_worked_value():
    # (2*2-1)^3 + 1^3 - 2*2^3 = 27 + 1 - 16 = 12; 12/(2*3) = 2;
    # (0-1)*2 = -2 = 1 mod 3
    assert mochizuki(3)(0, 1, 2) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_degeneracy(p):
    theta = mochizuki(p)
    for x, y in product(range(p), repeat=2):
        assert theta(x, x, y) == 0
        assert theta(x, y, y) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_mochizuki_passes_cocycle_conditions(p):
    assert verify_cocycle(mochizuki(p), make_dihedral(p)) is None


def test_mochizuki_rejects_non_odd_primes():
    # twice each: an error is never cached
    for bad in (2, 4, 9, 15, 1, 0) * 2:
        with pytest.raises(InvalidParameterError, match="not an odd prime"):
            mochizuki(bad)


def test_mochizuki_table_is_built_once_per_prime():
    for p in (3, 5, 13):
        assert mochizuki(p) is mochizuki(p)
    assert mochizuki(3) is not mochizuki(5)


def test_zero_cocycle_and_corrupted_table():
    R3 = make_dihedral(3)
    assert verify_cocycle(zero_cocycle(3, 3), R3) is None
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][2] = 1
    bad = Cocycle3(3, 3, tuple(tuple(map(tuple, plane)) for plane in table))
    witness = verify_cocycle(bad, R3)
    assert witness is not None


def test_verify_rejects_order_mismatch():
    with pytest.raises(InvalidParameterError):
        verify_cocycle(mochizuki(3), make_dihedral(5))


def test_nontrivial_cocycle_exists_over_nontable_quandle():
    # the same table fed through from_table still verifies
    R5 = from_table(make_dihedral(5).op)
    assert verify_cocycle(mochizuki(5), R5) is None


def test_weight_trivial_shadow_is_zero(catalog):
    theta = mochizuki(5)
    R5 = make_dihedral(5)
    for name in ("3_1", "4_1", "8_18"):
        d = catalog.diagram(name)
        for k in range(5):
            c = Coloring((k,) * d.n_arcs)
            s = extend_shadow(d, R5, c, k)
            assert set(s.region_values) == {k}
            assert weight_sum(d, s, theta) == 0


def test_unknot_weight_zero():
    u = unknot_diagram()
    theta = mochizuki(3)
    R3 = make_dihedral(3)
    s = extend_shadow(u, R3, Coloring((1,)), 0)
    assert weight_sum(u, s, theta) == 0


def test_trefoil_has_nonzero_weight():
    # brute force: all 27 arc assignments, keep the 9 valid colorings,
    # extend with base 0; the trefoil's invariant is nontrivial
    d = build_diagram(parse_pd(TREFOIL))
    R3 = make_dihedral(3)
    theta = mochizuki(3)
    weights = []
    for values in product(range(3), repeat=3):
        if all(
            R3.op[values[i]][values[j]] == values[k]
            for i, j, k in (
                (cr.under_in_arc, cr.over_arc, cr.under_out_arc) for cr in d.crossings
            )
        ):
            s = extend_shadow(d, R3, Coloring(values), 0)
            weights.append(weight_sum(d, s, theta))
    assert len(weights) == 9
    assert any(w != 0 for w in weights)


def test_unknot_multisets():
    u = unknot_diagram()
    for p in (3, 5):
        theta = mochizuki(p)
        Rp = make_dihedral(p)
        assert invariant_multiset(u, Rp, theta) == Counter({0: p * p})
        assert invariant_multiset(u, Rp, theta, base=0) == Counter({0: p})


def test_figure_eight_base_histogram(catalog):
    got = invariant_multiset(catalog.diagram("4_1"), make_dihedral(5), mochizuki(5), base=0)
    assert got == Counter({0: 5, 1: 10, 4: 10})
    got51 = invariant_multiset(catalog.diagram("5_1"), make_dihedral(5), mochizuki(5), base=0)
    assert got51 == Counter({0: 5, 2: 10, 3: 10})


def test_full_multiset_is_order_times_base_fixed(catalog):
    # Every base b has the multiset of any other (the docstring of
    # cli._weight_multiset proves it), so p times the base-b multiset is
    # the sum over all bases: on every catalog knot, relabelled PD text,
    # T(2,k) knots and links, for every b.
    rng = random.Random(28)
    texts = [relabel_pd(parse_pd(catalog.entries[name].pd).crossings, rng)[0]
             for name in catalog.names() if catalog.diagram(name).n_crossings]
    texts += [torus_pd(k) for k in range(2, 16)]
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    diagrams += [build_diagram(parse_pd(text)) for text in texts]
    for p in (3, 5, 7, 11, 13):
        Rp = make_dihedral(p)
        theta = mochizuki(p)
        for d in diagrams:
            full = invariant_multiset(d, Rp, theta)
            for base in range(p):
                base_fixed = invariant_multiset(d, Rp, theta, base)
                assert full == Counter({k: p * v for k, v in base_fixed.items()}), (d.pd, p)


def test_weight_independent_of_base_region(catalog):
    # same arc coloring, every base label: identical weight
    for p in (3, 5):
        Rp = make_dihedral(p)
        theta = mochizuki(p)
        for name in ("3_1", "4_1"):
            d = catalog.diagram(name)
            for c in enumerate_colorings(d, Rp):
                weights = {
                    weight_sum(d, extend_shadow(d, Rp, c, a), theta)
                    for a in range(p)
                }
                assert len(weights) == 1


def test_weight_scales_quadratically(catalog):
    for p in (3, 5):
        Rp = make_dihedral(p)
        theta = mochizuki(p)
        d = catalog.diagram("3_1" if p == 3 else "4_1")
        for c in enumerate_colorings(d, Rp):
            for base in range(p):
                s = extend_shadow(d, Rp, c, base)
                w = weight_sum(d, s, theta)
                for a in range(p):
                    scaled = ShadowColoring(
                        Coloring(tuple((a * v) % p for v in c.values)),
                        tuple((a * v) % p for v in s.region_values),
                    )
                    assert weight_sum(d, scaled, theta) == (a * a * w) % p


def test_weight_unchanged_by_adding_trivial_arc_shadow(catalog):
    for p in (3, 5):
        Rp = make_dihedral(p)
        theta = mochizuki(p)
        d = catalog.diagram("5_2")
        cols = enumerate_colorings(d, Rp)
        for c in cols[:: max(1, len(cols) // 6)]:
            for base in (0, 1):
                s = extend_shadow(d, Rp, c, base)
                w = weight_sum(d, s, theta)
                for k in range(p):
                    for b in range(p):
                        triv = extend_shadow(d, Rp, Coloring((k,) * d.n_arcs), b)
                        summed = ShadowColoring(
                            Coloring(
                                tuple(
                                    (u + v) % p
                                    for u, v in zip(c.values, triv.arc_values.values)
                                )
                            ),
                            tuple(
                                (u + v) % p
                                for u, v in zip(s.region_values, triv.region_values)
                            ),
                        )
                        assert weight_sum(d, summed, theta) == w


def test_multiset_independent_of_unbounded_face(catalog):
    # recompute the full multiset designating every face as unbounded
    theta = mochizuki(3)
    R3 = make_dihedral(3)
    for name in ("3_1", "4_1"):
        d = catalog.diagram(name)
        reference = invariant_multiset(d, R3, theta)
        for region in range(d.n_regions):
            assert invariant_multiset(d.with_r_infinity(region), R3, theta) == reference


def test_per_coloring_weight_independent_of_unbounded_face(catalog):
    # stronger than the multiset statement: with the arc coloring fixed,
    # any face designation and any base give the same weight sum
    theta = mochizuki(3)
    R3 = make_dihedral(3)
    d = catalog.diagram("3_1")
    for c in enumerate_colorings(d, R3):
        weights = set()
        for region in range(d.n_regions):
            moved = d.with_r_infinity(region)
            for base in range(3):
                s = extend_shadow(moved, R3, c, base)
                weights.add(weight_sum(moved, s, theta))
        assert len(weights) == 1


def sink_weight_sum(d, s, theta):
    """weight_sum with the sink corner (both orientations point toward
    it) in place of the source corner."""
    sink_corner = {1: 1, -1: 2}
    total = 0
    for cr in d.crossings:
        x = s.region_values[cr.corner_regions[sink_corner[cr.sign]]]
        y = s.arc_values.values[cr.under_in_arc]
        z = s.arc_values.values[cr.over_arc]
        total += cr.sign * theta.table[x][y][z]
    return total % theta.modulus


def test_sink_region_convention_fails_reference_values(catalog):
    # documents the rejected alternative: with the sink corner the
    # figure-eight histogram does not match the pinned reference
    R5 = make_dihedral(5)
    theta = mochizuki(5)
    d = catalog.diagram("4_1")
    got = Counter()
    for c in enumerate_colorings(d, R5):
        s = extend_shadow(d, R5, c, 0)
        got[sink_weight_sum(d, s, theta)] += 1
    assert got != Counter({0: 5, 1: 10, 4: 10})


def test_multiset_serialization():
    assert multiset_to_json(Counter({4: 2, 0: 5})) == [[0, 5], [4, 2]]
