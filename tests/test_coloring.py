"""Coloring enumeration, SNF counting and shadow extension."""

import math
import random
from dataclasses import replace
from itertools import combinations, product

import pytest

import quiverknot.coloring
from quiverknot.catalog import load_catalog
from quiverknot.coloring import (
    Coloring,
    ShadowColoring,
    ShadowConflictError,
    _branch_order,
    apply_endo,
    coloring_matrix,
    coloring_rows,
    count_colorings_dihedral,
    enumerate_colorings,
    extend_shadow,
    is_valid_coloring,
)
from quiverknot.diagram import build_diagram, parse_pd, unknot_diagram
from quiverknot.quandle import (
    constant_map,
    enumerate_homs,
    from_table,
    identity_map,
    make_alexander,
    make_dihedral,
)
from quiverknot.snf import (
    kernel_basis,
    kernel_basis_mod,
    smith_normal_form,
    smith_transform,
    solution_count_mod,
)
from pd_generators import meridian_chain_pd, relabel_pd, torus_pd, trefoil_sum_pd
from test_diagram import KINKS
from test_quandle import ALEXANDER_UNITS, Q3_ROWS, spy_backtrack, swapped_r5, tetrahedral

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def brute_force_colorings(d, X):
    # The rule read by sign here, not through crossing_relation:
    # under_in * over == under_out at a positive crossing, and
    # under_out * over == under_in at a negative one.
    out = []
    rels = [(cr.under_in_arc, cr.over_arc, cr.under_out_arc) if cr.sign > 0
            else (cr.under_out_arc, cr.over_arc, cr.under_in_arc) for cr in d.crossings]
    for values in product(range(X.order), repeat=d.n_arcs):
        if all(X.op[values[i]][values[j]] == values[k] for i, j, k in rels):
            out.append(values)
    return out


def test_reference_coloring_counts(catalog):
    R5 = make_dihedral(5)
    assert len(enumerate_colorings(catalog.diagram("4_1"), R5)) == 25
    assert len(enumerate_colorings(catalog.diagram("5_1"), R5)) == 25
    assert count_colorings_dihedral(catalog.diagram("8_10"), 9) == 81
    assert count_colorings_dihedral(catalog.diagram("8_18"), 9) == 81


def test_trefoil_enumeration_vs_brute_force():
    d = build_diagram(parse_pd(TREFOIL))
    R3 = make_dihedral(3)
    cols = enumerate_colorings(d, R3)
    assert len(cols) == 9
    assert [c.values for c in cols] == sorted(brute_force_colorings(d, R3))


def test_enumeration_vs_brute_force_more(catalog):
    cases = [
        (catalog.diagram("4_1"), make_dihedral(4)),
        (catalog.diagram("5_2"), make_dihedral(3)),
        (build_diagram(parse_pd("X(1,2,2,1)")), make_dihedral(5)),
        (catalog.diagram("4_1"), make_alexander(5, 2)),
    ]
    # Every catalog knot with at most 70,000 candidate colorings, over
    # quandles with asymmetric, trivial and non-dihedral tables.  3_1_kinked
    # and X(1,2,2,1) have crossings whose arcs coincide.
    quandles = [
        make_dihedral(3),
        make_dihedral(4),
        from_table(Q3_ROWS),
        tetrahedral(),
        from_table([[x] * 3 for x in range(3)]),
        make_alexander(5, 2),
        make_alexander(5, 3),
        make_alexander(7, 3),
    ]
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    diagrams.append(build_diagram(parse_pd("X(1,2,2,1)")))
    assert "3_1_kinked" in catalog.names()
    cases += [(d, X) for d in diagrams for X in quandles if X.order ** d.n_arcs <= 70_000]
    for d, X in cases:
        got = [c.values for c in enumerate_colorings(d, X)]
        assert got == sorted(brute_force_colorings(d, X))


def test_torus_knot_counts():
    # det T(2,k) = k, so T(2,k) has n * gcd(k, n) colorings over R_n.
    quandles = [make_dihedral(n) for n in range(3, 16, 2)]
    for k in range(3, 202, 2):
        d = build_diagram(parse_pd(torus_pd(k)))
        for X in quandles:
            assert len(enumerate_colorings(d, X)) == X.order * math.gcd(k, X.order), k


def test_torus_knot_enumeration_matches_snf_count():
    # The search, over untagged copies of R_n, against the divisor count.
    for k in range(3, 62, 2):
        d = build_diagram(parse_pd(torus_pd(k)))
        for n in range(3, 16):
            X = from_table(make_dihedral(n).op)
            assert len(enumerate_colorings(d, X)) == count_colorings_dihedral(d, n)


def test_torus_knot_elementary_divisors():
    # The coloring matrix of T(2,k) is k x k with Smith form diag(1, ..., 1, k, 0):
    # k - 2 unit divisors, the determinant k, and the zero of the constant colorings.
    # Even k gives the two-component link.
    for k in range(2, 62):
        m = coloring_matrix(build_diagram(parse_pd(torus_pd(k))))
        assert m.elementary_divisors == (1,) * (k - 2) + (k, 0), k


def test_alexander_counts_survive_a_reidemeister_2_finger(catalog):
    # 3_1_kinked is 3_1 with an R2 finger.  Over alexander:7:3 (3^2 != 1)
    # a rule that read no sign gave 3_1 49 colorings and 3_1_kinked 7;
    # reading it backwards at negative crossings gives 49 for both.
    X = make_alexander(7, 3)
    counts = [len(enumerate_colorings(catalog.diagram(k), X)) for k in ("3_1", "3_1_kinked")]
    assert counts == [49, 49], counts


def test_large_torus_knots_enumerate():
    # Read off the coloring module over R_3, searched over its table copy.
    R3 = make_dihedral(3)
    for k in (101, 1001):
        d = build_diagram(parse_pd(torus_pd(k)))
        for X in (R3, from_table(R3.op)):
            cols = enumerate_colorings(d, X)
            assert [c.values for c in cols] == [(v,) * k for v in range(3)]


def test_enumeration_independent_of_arc_labelling(catalog):
    rng = random.Random(20201006)
    quandles = [make_dihedral(n) for n in range(3, 14)]
    for name in catalog.names():
        d = catalog.diagram(name)
        if not d.n_crossings:
            continue
        quads = parse_pd(catalog.entries[name].pd).crossings
        expected = [[c.values for c in enumerate_colorings(d, X)] for X in quandles]
        for _ in range(3):
            text, moved = relabel_pd(quads, rng)
            e = build_diagram(parse_pd(text))
            # arc_perm[j] is the arc of e that carries arc j of d.
            arc_perm = [e.arc_of_edge[moved(arc[0])] for arc in d.arcs]
            for X, want in zip(quandles, expected):
                got = sorted(tuple(c.values[a] for a in arc_perm)
                             for c in enumerate_colorings(e, X))
                assert got == want, (name, text, X.order)


def test_orbit_search_matches_full_search(catalog, monkeypatch):
    # Same colorings in the same order, over quandles whose translation
    # x -> x+1 is an automorphism, on catalog, relabelled and T(2,k) diagrams.
    # Colorings over a formula quandle are read off the coloring module,
    # so only untagged table copies take the search.
    rng = random.Random(13)
    quandles = [from_table(make_dihedral(n).op) for n in range(2, 14)]
    quandles.append(from_table(make_alexander(27, 2).op))
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    for name in catalog.names():
        if catalog.diagram(name).n_crossings:
            text, _ = relabel_pd(parse_pd(catalog.entries[name].pd).crossings, rng)
            diagrams.append(build_diagram(parse_pd(text)))
    diagrams += [build_diagram(parse_pd(torus_pd(k))) for k in (3, 5, 9, 21, 45)]
    flags = spy_backtrack(monkeypatch, quiverknot.coloring, full=False)
    orbit = [[enumerate_colorings(d, X) for X in quandles] for d in diagrams]
    assert flags == [True] * len(diagrams) * len(quandles)
    spy_backtrack(monkeypatch, quiverknot.coloring, full=True)
    for d, per_quandle in zip(diagrams, orbit):
        for X, cols in zip(quandles, per_quandle):
            assert cols == enumerate_colorings(d, X), (d.pd, X)


def test_a_table_without_the_translation_colors_by_full_search(catalog, monkeypatch):
    X = swapped_r5()
    flags = spy_backtrack(monkeypatch, quiverknot.coloring, full=False)
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    diagrams = [d for d in diagrams if X.order ** d.n_arcs <= 20_000]
    assert len(diagrams) >= 4
    for d in diagrams:
        got = [c.values for c in enumerate_colorings(d, X)]
        assert got == sorted(brute_force_colorings(d, X)), d.pd
    assert flags == [False] * len(diagrams)


def naive_branch_order(rels, n_arcs):
    """Each pick with the arcs it closes, every closure recomputed."""

    def closure(arcs):
        arcs = set(arcs)
        grown = True
        while grown:
            grown = False
            for i, j, k in rels:
                if j in arcs and (i in arcs) != (k in arcs):
                    arcs.add(k if i in arcs else i)
                    grown = True
        return arcs

    known, picks = set(), []
    while len(known) < n_arcs:
        a = min((a for a in range(n_arcs) if a not in known),
                key=lambda a: (-len(closure(known | {a})), a))
        closed = closure(known | {a}) - known
        picks.append((a, closed))
        known |= closed
    return picks


def test_branch_order_matches_naive_recomputation(catalog):
    rng = random.Random(6)
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    for name in catalog.names():
        if catalog.diagram(name).n_crossings:
            text, _ = relabel_pd(parse_pd(catalog.entries[name].pd).crossings, rng)
            diagrams.append(build_diagram(parse_pd(text)))
    diagrams += [build_diagram(parse_pd(torus_pd(k))) for k in (3, 5, 9, 21)]
    diagrams += [build_diagram(parse_pd(trefoil_sum_pd(m))) for m in (1, 2, 6)]
    diagrams.append(build_diagram(parse_pd("X(1,2,2,1)")))
    for d in diagrams:
        rels = [(cr.under_in_arc, cr.over_arc, cr.under_out_arc) for cr in d.crossings]
        touching = [[] for _ in range(d.n_arcs)]
        for c, rel in enumerate(rels):
            for arc in set(rel):
                touching[arc].append(c)
        order = _branch_order(rels, touching)
        assert sorted(order) == list(range(d.n_arcs))
        at = 0
        for pick, closed in naive_branch_order(rels, d.n_arcs):
            assert order[at] == pick and set(order[at:at + len(closed)]) == closed, d.pd
            at += len(closed)


def test_unknot_colorings():
    u = unknot_diagram()
    for X in (make_dihedral(7), make_alexander(5, 2)):
        cols = enumerate_colorings(u, X)
        assert len(cols) == X.order
        assert all(c.is_trivial() for c in cols)


def test_colorings_satisfy_relations_independently(catalog):
    R5 = make_dihedral(5)
    for name in ("3_1", "4_1", "6_2"):
        d = catalog.diagram(name)
        for c in enumerate_colorings(d, R5):
            assert is_valid_coloring(d, R5, c.values)
            for cr in d.crossings:
                x = c.values[cr.under_in_arc]
                y = c.values[cr.over_arc]
                z = c.values[cr.under_out_arc]
                assert (2 * y - x - z) % 5 == 0


def test_trivial_colorings_always_present(catalog):
    X = make_dihedral(6)
    for name in ("3_1", "6_1"):
        values = {c.values for c in enumerate_colorings(catalog.diagram(name), X)}
        for k in range(6):
            assert (k,) * catalog.diagram(name).n_arcs in values


def test_closure_under_endomorphisms(catalog):
    d = catalog.diagram("4_1")
    R5 = make_dihedral(5)
    cols = enumerate_colorings(d, R5)
    index = {c.values for c in cols}
    for f in enumerate_homs(R5, R5):
        for c in cols:
            assert apply_endo(f, c).values in index


def test_apply_endo_examples():
    c = Coloring((1, 1, 1))
    R5 = make_dihedral(5)
    assert apply_endo(identity_map(R5), c) == c
    assert apply_endo(constant_map(R5, 3), c).values == (3, 3, 3)
    from quiverknot.quandle import QuandleMap

    plus2 = QuandleMap(5, 5, tuple((x + 2) % 5 for x in range(5)))
    assert apply_endo(plus2, c).values == (3, 3, 3)


def test_snf_known_values():
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]], 2) == [0, 0]
    assert smith_normal_form([], 3) == []
    assert smith_normal_form([[6, 4], [4, 6]], 2) == [2, 10]
    divs = smith_normal_form([[1, 0, -1], [0, 2, -2]], 3)
    assert divs == [1, 2]


def test_snf_divisibility_chain_random():
    rng = random.Random(20260810)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        divs = smith_normal_form(mat, cols)
        for a, b in zip(divs, divs[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_snf_solution_count_vs_brute_force():
    rng = random.Random(977)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        mat = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        divs = smith_normal_form(mat, cols)
        for n in (2, 3, 4, 5, 6):
            brute = 0
            for v in product(range(n), repeat=cols):
                if all(
                    sum(row[j] * v[j] for j in range(cols)) % n == 0 for row in mat
                ):
                    brute += 1
            assert solution_count_mod(divs, cols, n) == brute


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _determinantal_divisors(mat, cols):
    """d_k = D_k / D_{k-1}, where D_k is the gcd of all k x k minors."""
    out, prev = [], 1
    for k in range(1, min(len(mat), cols) + 1):
        g = 0
        for rs in combinations(range(len(mat)), k):
            for cs in combinations(range(cols), k):
                g = math.gcd(g, _det([[mat[r][c] for c in cs] for r in rs]))
        out.append(g // prev if prev else 0)
        prev = g
    return out


def test_snf_chain_and_counts_without_repair_random():
    # Half the matrices are U * diag * V with unimodular U and V and a
    # diagonal that is not a divisor chain, so the pivot fold must run.
    rng = random.Random(4)
    for trial in range(400):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        if trial % 2:
            mat = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        else:
            mat = [[0] * cols for _ in range(rows)]
            for i in range(min(rows, cols)):
                mat[i][i] = rng.choice([0, 1, 2, 3, 4, 6, 9, 10])
            for _ in range(6):
                i, j = rng.sample(range(rows), 2) if rows > 1 else (0, 0)
                if i != j:
                    q = rng.randrange(-2, 3)
                    mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]
                i, j = rng.sample(range(cols), 2) if cols > 1 else (0, 0)
                if i != j:
                    q = rng.randrange(-2, 3)
                    for row in mat:
                        row[i] += q * row[j]
        divs = smith_normal_form(mat, cols)
        assert divs == _determinantal_divisors(mat, cols), mat
        for a, b in zip(divs, divs[1:]):
            assert (b == 0) if a == 0 else (b % a == 0)
        if cols <= 3:
            for n in (2, 4, 6):
                brute = sum(
                    all(sum(r * x for r, x in zip(row, v)) % n == 0 for row in mat)
                    for v in product(range(n), repeat=cols)
                )
                assert solution_count_mod(divs, cols, n) == brute, (mat, n)


def _bareiss_det(m):
    """Exact determinant by fraction-free elimination."""
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def assert_column_transform(mat, cols):
    divs, V = smith_transform(mat, cols)
    assert divs == smith_normal_form(mat, cols)
    assert [len(row) for row in V] == [cols] * cols
    assert abs(_bareiss_det(V)) == 1
    for i in range(cols):
        column = [sum(a * V[k][i] for k, a in enumerate(row)) for row in mat]
        d = divs[i] if i < len(divs) else 0
        assert all(x % d == 0 for x in column) if d else not any(column), (mat, i)


def test_smith_transform_random():
    rng = random.Random(20261019)
    for _ in range(300):
        rows, cols = rng.randrange(0, 6), rng.randrange(0, 6)
        mat = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert_column_transform(mat, cols)


def test_smith_transform_of_torus_knots_and_links():
    for k in range(2, 62):
        assert_column_transform(coloring_rows(build_diagram(parse_pd(torus_pd(k)))), k)


def test_kernel_basis_spans_the_solutions_directly():
    rng = random.Random(5)
    for _ in range(150):
        rows, cols = rng.randrange(0, 4), rng.randrange(0, 4)
        mat = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        for n in (1, 2, 4, 6, 9, 12):
            basis = kernel_basis_mod(mat, cols, n)
            orders = [g for g, _ in basis]
            assert all(g > 1 and b % g == 0 for g, b in zip(orders, orders[1:] + [n]))
            span = {(0,) * cols}
            for g, y in basis:
                assert all((g * v) % n == 0 for v in y)
                span = {tuple((u + z * v) % n for u, v in zip(x, y))
                        for z in range(g) for x in span}
            solutions = {v for v in product(range(n), repeat=cols)
                         if all(sum(a * x for a, x in zip(row, v)) % n == 0 for row in mat)}
            assert span == solutions and len(span) == math.prod(orders), (mat, n)


def test_coloring_matrix_shape(catalog):
    d = catalog.diagram("3_1")
    mat = coloring_matrix(d)
    for row in mat.rows:
        assert sum(row) == 0
        assert sum(1 for v in row if v) <= 3
    # a kink yields an all-zero row (all three arcs coincide)
    k = build_diagram(parse_pd("X(1,2,2,1)"))
    assert coloring_matrix(k).rows == ((0,),)


def test_snf_count_equals_enumeration(catalog):
    # Every diagram's one cached reduction drops arc 0's column: its
    # divisors, zero-padded, must be the dense Smith form of the full
    # matrix, and n times its count over Z_n must be the enumerated count.
    texts = [torus_pd(k) for k in range(2, 62)]
    texts += [meridian_chain_pd(m) for m in range(1, 7)] + list(KINKS)
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    diagrams += [build_diagram(parse_pd(text)) for text in texts]
    for d in diagrams:
        divisors = d.coloring_reduction()[0]
        full = smith_normal_form(coloring_rows(d), d.n_arcs)
        assert list(divisors) + [0] * (len(full) - len(divisors)) == full
        assert coloring_matrix(d).elementary_divisors == tuple(full)
        for n in range(2, 14):
            count = n * solution_count_mod(divisors, d.n_arcs - 1, n)
            enumerated = len(enumerate_colorings(d, from_table(make_dihedral(n).op)))
            assert count_colorings_dihedral(d, n) == count == enumerated, (d.pd, n)


def oracle_diagrams(catalog):
    """Catalog diagrams, their relabelled PD text, T(2,k) for k = 2..39
    and 101 (links for even k), the meridian chains F(1..6) and sums of
    one to four trefoils."""
    rng = random.Random(28)
    texts = [relabel_pd(parse_pd(catalog.entries[name].pd).crossings, rng)[0]
             for name in catalog.names() if catalog.diagram(name).n_crossings]
    texts += [torus_pd(k) for k in [*range(2, 40), 101]]
    texts += [meridian_chain_pd(m) for m in range(1, 7)]
    texts += [trefoil_sum_pd(m) for m in range(1, 5)]
    return [catalog.diagram(name) for name in catalog.names()] + [
        build_diagram(parse_pd(text)) for text in texts]


ORACLE_ORDERS = [*range(1, 16), 27, 45]


def test_sparse_reduction_matches_the_dense_oracle(catalog):
    # The sparse divisors are the dense Smith form, the basis orders over
    # Z_n are the dense transform's, each integer generator solves every
    # row modulo its divisor, and each basis element every row mod n.
    for d in oracle_diagrams(catalog):
        divisors, generators = d.coloring_reduction()
        rows = [row[1:] for row in coloring_rows(d)]
        dense = smith_normal_form(rows, d.n_arcs - 1)
        assert list(divisors) == dense, d.pd
        orders = [g for g in divisors if g != 1]
        orders += [0] * (len(generators) - len(orders))
        for order, y in zip(orders, generators):
            for row in rows:
                value = sum(a * v for a, v in zip(row, y))
                assert (value % order if order else value) == 0, (d.pd, order)
        for n in ORACLE_ORDERS:
            basis = kernel_basis(divisors, generators, n)
            want = kernel_basis_mod(rows, d.n_arcs - 1, n)
            assert [g for g, _ in basis] == [g for g, _ in want], (d.pd, n)
            for _, y in basis:
                assert all(sum(a * v for a, v in zip(row, y)) % n == 0 for row in rows)


def test_listed_colorings_match_the_search(catalog, monkeypatch):
    # Over R_n the colorings are listed from the module, with no search;
    # over the untagged table copy of R_n the search finds the same list.
    flags = spy_backtrack(monkeypatch, quiverknot.coloring, full=False)
    searched = 0
    for d in oracle_diagrams(catalog):
        for n in ORACLE_ORDERS:
            X = make_dihedral(n)
            listed = enumerate_colorings(d, X)
            assert flags == [True] * searched
            assert listed == enumerate_colorings(d, from_table(X.op)), (d.pd, n)
            searched += 1


def test_alexander_listings_match_the_search_and_the_dense_oracle(catalog):
    # Over alexander:n:t the colorings are listed from the reduction at
    # t: its divisors must be the dense Smith form of coloring_rows(d, t)
    # without arc 0's column, and its listing the search's over the
    # untagged table.
    quandles = [make_alexander(n, t) for n, t in ALEXANDER_UNITS]
    tables = [from_table(X.op) for X in quandles]
    for d in oracle_diagrams(catalog):
        for t in sorted({X.formula_t for X in quandles}):
            rows = [row[1:] for row in coloring_rows(d, t)]
            assert list(d.coloring_reduction(t)[0]) == smith_normal_form(
                rows, d.n_arcs - 1), (d.pd, t)
        for X, table in zip(quandles, tables):
            assert enumerate_colorings(d, X) == enumerate_colorings(d, table), (d.pd, X)


def test_crt_factorization(catalog):
    for name in ("3_1", "4_1", "6_1", "8_18"):
        d = catalog.diagram(name)
        for m, n in ((2, 3), (3, 5), (2, 5), (4, 9)):
            assert math.gcd(m, n) == 1
            assert count_colorings_dihedral(d, m * n) == count_colorings_dihedral(
                d, m
            ) * count_colorings_dihedral(d, n)


def test_coloring_space_is_linear_mod_p(catalog):
    for p in (3, 5):
        Rp = make_dihedral(p)
        d = catalog.diagram("3_1" if p == 3 else "4_1")
        cols = [c.values for c in enumerate_colorings(d, Rp)]
        values = set(cols)
        for a in range(p):
            for b in range(p):
                for c in cols:
                    combo = tuple((a * v + b) % p for v in c)
                    assert combo in values


def test_extension_exists_and_unique_brute_force(catalog):
    # brute-force all region assignments: exactly one extension per
    # (coloring, base) pair
    R3 = make_dihedral(3)
    d = catalog.diagram("3_1")
    for c in enumerate_colorings(d, R3):
        for base in range(3):
            count = 0
            for regions in product(range(3), repeat=d.n_regions):
                if regions[d.r_infinity] != base:
                    continue
                ok = True
                for label, (left, right) in d.edge_sides.items():
                    arc = d.arc_of_edge[label]
                    if R3.op[regions[right]][c.values[arc]] != regions[left]:
                        ok = False
                        break
                if ok:
                    count += 1
            assert count == 1
            s = extend_shadow(d, R3, c, base)
            assert s.region_values[d.r_infinity] == base


def test_shadow_extension_reports_an_unreached_region(catalog):
    # A region that no edge borders is never reached from the unbounded one.
    R3 = make_dihedral(3)
    d = catalog.diagram("3_1")
    bad = replace(d, n_regions=d.n_regions + 1)
    for c in enumerate_colorings(d, R3):
        for base in range(3):
            with pytest.raises(ShadowConflictError, match="did not cover all regions"):
                extend_shadow(bad, R3, c, base)


def test_shadow_extension_reports_inconsistent_regions(catalog):
    # An edge read as part of the wrong arc breaks the relation across
    # some edge under every nontrivial coloring and every base.
    R3 = make_dihedral(3)
    d = catalog.diagram("3_1")
    nontrivial = [c for c in enumerate_colorings(d, R3) if len(set(c.values)) > 1]
    assert len(nontrivial) == 6
    for label, arc in d.arc_of_edge.items():
        for other in range(d.n_arcs):
            if other == arc:
                continue
            bad = replace(d, arc_of_edge={**d.arc_of_edge, label: other})
            for c in nontrivial:
                for base in range(3):
                    with pytest.raises(ShadowConflictError, match="inconsistent region values"):
                        extend_shadow(bad, R3, c, base)


def test_shadow_count_matches_coloring_count(catalog):
    for name in ("4_1", "5_2", "unknot"):
        d = catalog.diagram(name)
        for X in (make_dihedral(3), make_dihedral(5)):
            cols = enumerate_colorings(d, X)
            for a in range(X.order):
                shadows = {extend_shadow(d, X, c, a) for c in cols}
                assert len(shadows) == len(cols)


def test_unknot_shadow_rule():
    u = unknot_diagram()
    R5 = make_dihedral(5)
    s = extend_shadow(u, R5, Coloring((1,)), 3)
    assert s.region_values[u.r_infinity] == 3
    assert s.region_values[0] == R5.mul(3, 1)


def test_trefoil_trivial_shadow_all_zero():
    d = build_diagram(parse_pd(TREFOIL))
    R3 = make_dihedral(3)
    s = extend_shadow(d, R3, Coloring((0, 0, 0)), 0)
    assert set(s.region_values) == {0}


def test_shadow_serialization():
    u = unknot_diagram()
    R3 = make_dihedral(3)
    s = extend_shadow(u, R3, Coloring((2,)), 1)
    blob = s.to_json()
    assert blob["arcs"] == [2]
    assert set(blob["regions"]) == {"0", "1"}


def reference_extend_shadow(d, X, c, base):
    """Reference: the shadow extension with its breadth-first search
    rebuilt on every call, from the diagram's edges alone."""
    region_vals = [None] * d.n_regions
    region_vals[d.r_infinity] = base
    by_region = [[] for _ in range(d.n_regions)]
    relations = []
    for label, (left, right) in d.edge_sides.items():
        arc = d.arc_of_edge[label]
        relations.append((left, right, arc))
        by_region[left].append((left, right, arc))
        by_region[right].append((left, right, arc))
    pending = [d.r_infinity]
    for region in pending:
        val = region_vals[region]
        for left, right, arc in by_region[region]:
            x = c.values[arc]
            if region_vals[left] is None:
                region_vals[left] = X.op[val][x]
                pending.append(left)
            elif region_vals[right] is None:
                region_vals[right] = X.inv_op[val][x]
                pending.append(right)
    if any(v is None for v in region_vals):
        raise ShadowConflictError("region adjacency graph did not cover all regions")
    for left, right, arc in relations:
        if X.op[region_vals[right]][c.values[arc]] != region_vals[left]:
            raise ShadowConflictError(f"inconsistent region values across an edge of arc {arc}")
    return ShadowColoring(c, tuple(region_vals))


def shadow_outcome(extend, d, X, c, base):
    try:
        return extend(d, X, c, base)
    except ShadowConflictError as exc:
        return str(exc)


def assert_extensions_match_reference(d, quandles):
    for X in quandles:
        for c in enumerate_colorings(d, X):
            for base in range(X.order):
                assert (shadow_outcome(extend_shadow, d, X, c, base)
                        == shadow_outcome(reference_extend_shadow, d, X, c, base))


# Over alexander:5:2 * is not an involution, so that quandle tells the
# forward steps (through op) from the backward ones (through inv_op),
# which no dihedral quandle can.  Read by the crossing sign, every
# coloring over it extends (test_shadows_over_non_involutory_alexander_quandles).
SHADOW_QUANDLES = [make_dihedral(3), make_dihedral(5), make_dihedral(7), make_alexander(5, 2)]


def test_shadows_over_non_involutory_alexander_quandles(catalog):
    # With the crossing rule read by sign, every coloring extends to a
    # shadow coloring at every base, on every unbounded region.  A rule
    # that read no sign left 100 of the 125 (coloring, base) pairs of 4_1
    # over alexander:5:2 with no extension.
    for X in (make_alexander(5, 2), make_alexander(5, 3), make_alexander(7, 3)):
        assert any(X.op[X.op[x][y]][y] != x for x in range(X.order) for y in range(X.order))
        for name in catalog.names():
            d = catalog.diagram(name)
            for region in range(d.n_regions):
                moved = d.with_r_infinity(region)
                for c in enumerate_colorings(d, X):
                    for base in range(X.order):
                        extend_shadow(moved, X, c, base)


def test_shadow_plan_matches_reference_on_every_unbounded_region(catalog):
    for name in catalog.names():
        d = catalog.diagram(name)
        for region in range(d.n_regions):
            assert_extensions_match_reference(d.with_r_infinity(region), SHADOW_QUANDLES)


def test_shadow_plan_matches_reference_on_generated_links():
    quandles = SHADOW_QUANDLES[:2]  # R_3 and R_5
    pds = [torus_pd(k) for k in range(2, 10)] + [meridian_chain_pd(m) for m in range(1, 4)]
    for pd in pds:
        d = build_diagram(parse_pd(pd))
        for region in range(d.n_regions):
            assert_extensions_match_reference(d.with_r_infinity(region), quandles)


def test_shadow_plan_is_not_carried_over_to_another_unbounded_region(catalog):
    # with_r_infinity makes a new diagram, whose plan starts from its own
    # unbounded region; a plan copied from d would start from d's.
    R5 = make_dihedral(5)
    d = catalog.diagram("4_1")
    steps, _ = d.shadow_plan
    assert steps[0][1] == d.r_infinity
    cols = enumerate_colorings(d, R5)
    for region in range(d.n_regions):
        moved = d.with_r_infinity(region)
        for c in cols:
            for base in range(5):
                assert extend_shadow(moved, R5, c, base).region_values[region] == base
    assert d.shadow_plan[0] is steps
