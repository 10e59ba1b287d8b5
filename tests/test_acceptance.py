"""Acceptance suite: every criterion at its stated tolerance.

All checks are exact (integer counts, exact strings, booleans).  Each
criterion prints one PASS line; a failure raises inside the criterion,
so pytest reports it as the failing line item.
"""

import random
from collections import Counter
from itertools import combinations, product

from quiverknot.catalog import load_catalog
from quiverknot.cocycle import invariant_multiset, mochizuki, verify_cocycle, weight_sum
from quiverknot.coloring import (
    Coloring,
    ShadowColoring,
    count_colorings_dihedral,
    enumerate_colorings,
    extend_shadow,
)
from quiverknot.quandle import (
    QuandleMap,
    enumerate_autos,
    enumerate_homs,
    make_alexander,
    make_dihedral,
)
from quiverknot.quiver import (
    cocycle_polynomial,
    coloring_quiver,
    quiver_isomorphic,
    shadow_cocycle_quiver,
)

CATALOG = load_catalog()
KNOTS = CATALOG.names()

_quandles: dict = {}
_quivers: dict = {}
_colorings: dict = {}


def dihedral(n):
    if n not in _quandles:
        _quandles[n] = make_dihedral(n)
    return _quandles[n]


def colorings(name, n):
    key = (name, n)
    if key not in _colorings:
        _colorings[key] = enumerate_colorings(CATALOG.diagram(name), dihedral(n))
    return _colorings[key]


def quiver(name, n, s_key, S):
    key = (name, n, s_key)
    if key not in _quivers:
        _quivers[key] = coloring_quiver(CATALOG.diagram(name), dihedral(n), S)
    return _quivers[key]


def report(num, text):
    print(f"[criterion {num}] PASS - {text}")


def test_criterion_1_coloring_counts():
    for name, n, want in (("4_1", 5, 25), ("5_1", 5, 25),
                          ("8_10", 9, 81), ("8_18", 9, 81)):
        d = CATALOG.diagram(name)
        assert count_colorings_dihedral(d, n) == want, f"SNF count for {name}"
        assert len(colorings(name, n)) == want, f"enumeration count for {name}"
    report(1, "coloring counts 25/25/81/81 via both SNF and enumeration")


def test_criterion_2_reference_polynomials():
    R5 = dihedral(5)
    theta = mochizuki(5)
    f = QuandleMap(5, 5, tuple((x + 2) % 5 for x in range(5)))
    expected = {"4_1": "5 + 10st + 10s^4t^4", "5_1": "5 + 10s^2t^2 + 10s^3t^3"}
    for name, want in expected.items():
        q = shadow_cocycle_quiver(CATALOG.diagram(name), R5, [f], 0, theta)
        got = str(cocycle_polynomial(q))
        assert got == want, f"{name}: got {got!r}, want {want!r}"
    report(2, "quiver polynomials match the reference strings exactly")


def test_criterion_3_quiver_verdicts():
    R5 = dihedral(5)
    end5 = enumerate_homs(R5, R5)
    aut5 = enumerate_autos(R5)
    rng = random.Random(20260810)
    subsets = [rng.sample(end5, k) for k in (1, 4, 9)]
    for s_key, S in [("end", end5), ("aut", aut5)] + [
        (f"rnd{i}", S) for i, S in enumerate(subsets)
    ]:
        qa = coloring_quiver(CATALOG.diagram("4_1"), R5, S)
        qb = coloring_quiver(CATALOG.diagram("5_1"), R5, S)
        iso, witness = quiver_isomorphic(qa, qb)
        assert iso, f"4_1 vs 5_1 must be isomorphic for S={s_key}"
        assert witness is not None

    R9 = dihedral(9)
    end9 = enumerate_homs(R9, R9)
    iso, _ = quiver_isomorphic(
        coloring_quiver(CATALOG.diagram("8_10"), R9, end9),
        coloring_quiver(CATALOG.diagram("8_18"), R9, end9),
    )
    assert not iso, "8_10 vs 8_18 over R_9 must NOT be isomorphic"

    theta = mochizuki(5)
    iso, _ = quiver_isomorphic(
        shadow_cocycle_quiver(CATALOG.diagram("4_1"), R5, end5, 0, theta),
        shadow_cocycle_quiver(CATALOG.diagram("5_1"), R5, end5, 0, theta),
        respect_weights=True,
    )
    assert not iso, "weighted 4_1 vs 5_1 must NOT be isomorphic"
    report(3, "quiver verdicts: 4_1~5_1 (5 endo sets), 8_10!~8_18, weighted 4_1!~5_1")


def test_criterion_4_axioms_and_cocycle_conditions():
    import math

    checked = 0
    quandles = [dihedral(n) for n in range(1, 13)]
    quandles += [
        make_alexander(n, t)
        for n in range(2, 13)
        for t in range(2, n)
        if math.gcd(t, n) == 1
    ]
    for q in quandles:
        n = q.order
        op = q.op
        for x in range(n):
            assert op[x][x] == x
        for y in range(n):
            assert sorted(op[x][y] for x in range(n)) == list(range(n))
        for x, y, z in product(range(n), repeat=3):
            assert op[op[x][y]][z] == op[op[x][z]][op[y][z]]
        checked += 1
    for p in (3, 5, 7, 11):
        assert verify_cocycle(mochizuki(p), dihedral(p)) is None
    report(4, f"axioms exhaustively verified on {checked} quandles; "
              "mochizuki cocycle conditions hold for p in 3,5,7,11")


def test_criterion_5_oracle_equivalence():
    for name in KNOTS:
        d = CATALOG.diagram(name)
        for n in range(2, 10):
            snf = count_colorings_dihedral(d, n)
            enum = len(colorings(name, n))
            assert snf == enum, f"{name} n={n}: snf {snf} != enumeration {enum}"

    for n in range(2, 8):
        op = dihedral(n).op
        brute = []
        rng = range(n)
        for img in product(rng, repeat=n):
            ok = True
            for x in rng:
                row = op[x]
                fx = img[x]
                for y in rng:
                    if img[row[y]] != op[fx][img[y]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                brute.append(img)
        fast = [f.image for f in enumerate_homs(dihedral(n), dihedral(n))]
        assert sorted(brute) == fast, f"End(R_{n}) mismatch"
    report(5, "SNF = enumeration for 12 knots x n in 2..9; "
              "affine endomorphism path = n^n brute force for n in 2..7")


def test_criterion_6_weight_sum_properties():
    for p in (3, 5):
        Rp = dihedral(p)
        theta = mochizuki(p)
        for name in KNOTS:
            d = CATALOG.diagram(name)
            cols = colorings(name, p)

            base_fixed = Counter()
            for c in cols:
                shadows = [extend_shadow(d, Rp, c, a) for a in range(p)]
                weights = {weight_sum(d, s, theta) for s in shadows}
                assert len(weights) == 1, "weight must not depend on the base label"
                w = weights.pop()
                base_fixed[w] += 1

                s0 = shadows[0]
                for a in range(p):
                    scaled = ShadowColoring(
                        Coloring(tuple((a * v) % p for v in c.values)),
                        tuple((a * v) % p for v in s0.region_values),
                    )
                    assert weight_sum(d, scaled, theta) == (a * a * w) % p

                for k in range(p):
                    for b in range(p):
                        triv = extend_shadow(d, Rp, Coloring((k,) * d.n_arcs), b)
                        summed = ShadowColoring(
                            Coloring(tuple(
                                (u + v) % p
                                for u, v in zip(c.values, triv.arc_values.values)
                            )),
                            tuple(
                                (u + v) % p
                                for u, v in zip(s0.region_values, triv.region_values)
                            ),
                        )
                        assert weight_sum(d, summed, theta) == w

            full = invariant_multiset(d, Rp, theta)
            assert full == Counter({k: p * v for k, v in base_fixed.items()})
    report(6, "base-independence, quadratic scaling, trivial-shift invariance "
              "and full = p x base-fixed, exhaustively for p in 3,5 on 12 knots")


def test_criterion_7_structural_invariants():
    for name in KNOTS:
        d = CATALOG.diagram(name)
        if d.n_crossings:
            assert d.n_regions == d.n_crossings + 2

    R3 = dihedral(3)
    S3 = enumerate_homs(R3, R3)
    for name in ("3_1", "4_1", "8_18"):
        q = quiver(name, 3, "end", S3)
        degrees = Counter(src for src, _, _ in q.edges)
        assert all(degrees[v] == len(S3) for v in range(q.n_vertices))

    for name in KNOTS:
        d = CATALOG.diagram(name)
        for p in (3, 5):
            Rp = dihedral(p)
            cols = colorings(name, p)
            for a in range(p):
                shadows = {extend_shadow(d, Rp, c, a) for c in cols}
                assert len(shadows) == len(cols)
    report(7, "region counts, out-degree regularity, and |SCol(D,a)| = |Col(D)| "
              "for 12 knots x p in 3,5 x all bases")


def test_criterion_8_weighted_iff_multisets_and_squarefree_iff_counts():
    for p in (3, 5):
        Rp = dihedral(p)
        endp = enumerate_homs(Rp, Rp)
        theta = mochizuki(p)
        weighted = {
            name: shadow_cocycle_quiver(CATALOG.diagram(name), Rp, endp, 0, theta)
            for name in KNOTS
        }
        multisets = {
            name: invariant_multiset(CATALOG.diagram(name), Rp, theta)
            for name in KNOTS
        }
        for a, b in combinations(KNOTS, 2):
            iso, _ = quiver_isomorphic(weighted[a], weighted[b], respect_weights=True)
            assert iso == (multisets[a] == multisets[b]), (
                f"p={p}: weighted iso({a},{b})={iso} but multiset equality is "
                f"{multisets[a] == multisets[b]}"
            )

    for P in (6, 15):
        RP = dihedral(P)
        endP = enumerate_homs(RP, RP)
        quivers = {name: quiver(name, P, "end", endP) for name in KNOTS}
        counts = {name: len(colorings(name, P)) for name in KNOTS}
        for a, b in combinations(KNOTS, 2):
            iso, _ = quiver_isomorphic(quivers[a], quivers[b])
            assert iso == (counts[a] == counts[b]), (
                f"P={P}: iso({a},{b})={iso} but counts {counts[a]} vs {counts[b]}"
            )
    report(8, "weighted iso <=> weight multiset equality (p in 3,5) and "
              "unweighted iso <=> coloring counts (P in 6,15), all 66 pairs each")


def test_criterion_9_diagram_invariance():
    d1 = CATALOG.diagram("3_1")
    d2 = CATALOG.diagram("3_1_kinked")
    for n in range(2, 10):
        assert count_colorings_dihedral(d1, n) == count_colorings_dihedral(d2, n)

    for p in (3, 5):
        Rp = dihedral(p)
        S = enumerate_homs(Rp, Rp)
        iso, _ = quiver_isomorphic(
            coloring_quiver(d1, Rp, S), coloring_quiver(d2, Rp, S)
        )
        assert iso, f"kinked trefoil quiver differs over R_{p}"
        theta = mochizuki(p)
        assert invariant_multiset(d1, Rp, theta) == invariant_multiset(d2, Rp, theta)
        iso, _ = quiver_isomorphic(
            shadow_cocycle_quiver(d1, Rp, S, 0, theta),
            shadow_cocycle_quiver(d2, Rp, S, 0, theta),
            respect_weights=True,
        )
        assert iso, f"kinked trefoil weighted quiver differs over R_{p}"

        shift = QuandleMap(p, p, tuple((x + p - 3) % p for x in range(p)))
        polys = []
        for d in (d1, d2):
            q = shadow_cocycle_quiver(d, Rp, [shift], 0, theta)
            polys.append(str(cocycle_polynomial(q)))
        assert polys[0] == polys[1]
    report(9, "trefoil and its kinked variant agree on counts, quiver classes, "
              "weight multisets and polynomials")
