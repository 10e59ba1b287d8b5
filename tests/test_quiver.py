"""Quiver construction, isomorphism, polynomials and DOT export."""

import hashlib
import io
import json
import random
import re
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from itertools import chain, combinations, permutations, product

import pytest

import quiverknot.quiver
from quiverknot.catalog import load_catalog
from quiverknot.cli import main, parse_endo_spec, parse_quandle_spec
from quiverknot.cocycle import invariant_multiset, mochizuki
from quiverknot.coloring import apply_endo, enumerate_colorings
from quiverknot.diagram import build_diagram, parse_pd, unknot_diagram
from quiverknot.quandle import (
    InvalidParameterError,
    QuandleMap,
    enumerate_autos,
    enumerate_homs,
    from_table,
    identity_map,
    is_affine_end,
    is_homomorphism,
    make_alexander,
    make_dihedral,
)
from quiverknot.quiver import (
    WeightedQuiver,
    _adjacency,
    _determining_arcs,
    _gather,
    _joint_refine,
    _keeps_rows,
    _verify_witness,
    cocycle_polynomial,
    coloring_quiver,
    end_modules,
    quiver_isomorphic,
    quiver_json_chunks,
    quiver_to_json,
    shadow_cocycle_quiver,
    to_dot,
)
from pd_generators import meridian_chain_pd, relabel_pd, torus_pd


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def plus2(n=5):
    return QuandleMap(n, n, tuple((x + 2) % n for x in range(n)))


def test_unknot_quiver():
    R3 = make_dihedral(3)
    q = coloring_quiver(unknot_diagram(), R3, enumerate_homs(R3, R3))
    assert q.n_vertices == 3
    assert q.n_edges == 27
    out_degree = Counter(src for src, _, _ in q.edges)
    assert set(out_degree.values()) == {9}


def test_identity_only_gives_self_loops(catalog):
    R5 = make_dihedral(5)
    q = coloring_quiver(catalog.diagram("4_1"), R5, [identity_map(R5)])
    assert all(src == dst for src, dst, _ in q.edges)


def test_figure_eight_quiver_size(catalog):
    R5 = make_dihedral(5)
    q = coloring_quiver(catalog.diagram("4_1"), R5, enumerate_homs(R5, R5))
    assert (q.n_vertices, q.n_edges) == (25, 625)


def test_out_degree_regularity(catalog):
    R3 = make_dihedral(3)
    for name in ("3_1", "6_1"):
        for S in (enumerate_homs(R3, R3), enumerate_autos(R3), [identity_map(R3)]):
            q = coloring_quiver(catalog.diagram(name), R3, S)
            degrees = Counter(src for src, _, _ in q.edges)
            assert all(degrees[v] == len(S) for v in range(q.n_vertices))


def test_edges_point_to_endo_images(catalog):
    R3 = make_dihedral(3)
    d = catalog.diagram("3_1")
    S = enumerate_homs(R3, R3)
    q = coloring_quiver(d, R3, S)
    for src, dst, fi in q.edges:
        assert apply_endo(S[fi], q.vertices[src]) == q.vertices[dst]


def naive_edges(d, X, S):
    """Oracle: every edge target by applying the map and looking the
    whole coloring up."""
    vertices = enumerate_colorings(d, X)
    index = {c.values: i for i, c in enumerate(vertices)}
    return tuple(
        (vi, index[apply_endo(f, c).values], fi)
        for vi, c in enumerate(vertices)
        for fi, f in enumerate(S)
    )


def shift(n):
    return QuandleMap(n, n, tuple((x + 1) % n for x in range(n)))


def endo_sets(X):
    """End(X), Aut(X), an explicit list, the empty list, and lists that
    hold x -> x+1 with and without the predecessor t^-1 o f of each map
    f, some with repeated maps."""
    homs = enumerate_homs(X, X)
    if X.is_dihedral:
        explicit = parse_endo_spec("1,0;2,1;0,3;5,2;1,1", X)
    else:
        explicit = homs[1::3]
    t = shift(X.order)
    # Each f listed here has an odd f(0); its predecessor, with the even
    # f(0) - 1, is not listed.
    odd = [f for f in homs if f.image[0] % 2 and f != t]
    return {"all": homs, "auto": enumerate_autos(X), "explicit": explicit, "none": [],
            "shift, predecessors": [*reversed(homs), t],
            "shift, no predecessors": [t, *odd],
            "shift, repeated": [t, t, *homs[::2], *homs[::2], t]}


QUIVER_ORACLE_QUANDLES = {
    "R1": make_dihedral(1),
    "R2": make_dihedral(2),
    "R3": make_dihedral(3),
    "R5": make_dihedral(5),
    "R9": make_dihedral(9),
    "A9_2": make_alexander(9, 2),
    "T_R6": from_table(make_dihedral(6).op),
}


@pytest.mark.parametrize("qname", list(QUIVER_ORACLE_QUANDLES))
def test_edges_match_naive_construction(catalog, qname):
    X = QUIVER_ORACLE_QUANDLES[qname]
    for knot in catalog.names():
        d = catalog.diagram(knot)
        for label, S in endo_sets(X).items():
            q = coloring_quiver(d, X, S)
            assert q.edges == naive_edges(d, X, S), (knot, label)
            assert q.endos == tuple(S)


def test_translation_builds_few_rows_directly(catalog, monkeypatch):
    # With x -> x+1 in End(R_27), only its row and the rows of the 27 maps
    # with f(0) = 0 are looked up code by code; the rest are composed.
    R27, d = make_dihedral(27), catalog.diagram("8_10")
    S = enumerate_homs(R27, R27)
    real, looked_up = quiverknot.quiver._codes, []

    def counted(columns, n_vertices, order, image):
        looked_up.append(tuple(image))
        return real(columns, n_vertices, order, image)

    monkeypatch.setattr(quiverknot.quiver, "_codes", counted)
    q = coloring_quiver(d, R27, S)
    direct = looked_up[1:]  # the first call codes the vertices themselves
    assert len(direct) <= 27 + 1
    assert direct == [shift(27).image] + [f.image for f in S if f.image[0] == 0]
    # Without the translation every row is built directly, to the same targets.
    del looked_up[:]
    rest = [f for f in S if f != shift(27)]
    assert coloring_quiver(d, R27, rest).targets == tuple(
        row for row, f in zip(q.targets, S) if f != shift(27))
    assert len(looked_up) == 1 + len(rest)


def test_gather_takes_any_number_of_indices():
    # itemgetter alone returns a bare item for one index and refuses none.
    for seq in ((5, 6, 7), [5, 6, 7], {0: 5, 1: 6, 2: 7}):
        for idx in ((), [1], (2,), (2, 0, 2), range(3)):
            got = _gather(seq, idx)
            assert type(got) is tuple and got == tuple(seq[i] for i in idx), (seq, idx)


def test_determining_arcs_project_injectively(catalog):
    for X in QUIVER_ORACLE_QUANDLES.values():
        for knot in catalog.names():
            vertices = enumerate_colorings(catalog.diagram(knot), X)
            arcs = _determining_arcs(vertices)
            keys = {tuple(c.values[a] for a in arcs) for c in vertices}
            assert len(keys) == len(vertices), (knot, X)
            assert arcs == sorted(set(arcs))


def test_quiver_holds_no_per_edge_objects(catalog):
    # 8_18 over R_15 has 675 vertices and 151,875 edges; one tuple per edge
    # held 11.1 MB, the target table holds about 1.5 MB
    R15 = make_dihedral(15)
    d, S = catalog.diagram("8_18"), enumerate_homs(R15, R15)
    tracemalloc.start()
    try:
        q = coloring_quiver(d, R15, S)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.n_edges == 151875
    assert held < 4_000_000, held


def test_rejects_non_endomorphism(catalog):
    R5 = make_dihedral(5)
    not_hom = QuandleMap(5, 5, (0, 0, 1, 2, 3))
    with pytest.raises(InvalidParameterError):
        coloring_quiver(catalog.diagram("3_1"), R5, [not_hom])


def count_endo_checks(monkeypatch) -> list:
    """Record every map the quiver builders check, by patching the
    ``is_homomorphism`` that ``quiverknot.quiver`` calls."""
    checked = []

    def counted(f, X, Y):
        checked.append(f)
        return is_homomorphism(f, X, Y)

    monkeypatch.setattr(quiverknot.quiver, "is_homomorphism", counted)
    return checked


def test_proof_is_taken_for_an_equal_quandle(catalog, monkeypatch):
    checked = count_endo_checks(monkeypatch)
    R5 = make_dihedral(5)
    q = coloring_quiver(catalog.diagram("4_1"), make_dihedral(5), enumerate_homs(R5, R5))
    assert (q.n_edges, checked) == (625, [])


def test_proof_for_another_quandle_is_checked(catalog, monkeypatch):
    d = catalog.diagram("4_1")
    A9, R9 = make_alexander(9, 4), make_dihedral(9)
    end_a9 = enumerate_homs(A9, A9)
    assert len(end_a9) == 243
    assert sum(not is_homomorphism(f, R9, R9) for f in end_a9) == 162
    with pytest.raises(InvalidParameterError):
        coloring_quiver(d, R9, end_a9)
    # Hom(R_5, alexander:5:4) holds the same maps as End(R_5), but its
    # target is another quandle, so it is checked, and passes.
    R5 = make_dihedral(5)
    homs = enumerate_homs(R5, make_alexander(5, 4))
    checked = count_endo_checks(monkeypatch)
    assert coloring_quiver(d, R5, homs).targets == coloring_quiver(
        d, R5, enumerate_homs(R5, R5)).targets
    assert checked == list(homs)


def test_plain_sequences_are_checked_once_per_call(catalog, monkeypatch):
    d, R5 = catalog.diagram("4_1"), make_dihedral(5)
    sliced = enumerate_homs(R5, R5)[1::3]
    assert type(sliced) is tuple
    checked = count_endo_checks(monkeypatch)
    coloring_quiver(d, R5, sliced)
    assert checked == list(sliced)
    plain = list(enumerate_autos(R5))
    for calls in (1, 2):
        coloring_quiver(d, R5, plain)
        assert checked == list(sliced) + plain * calls
    del checked[:]
    shadow_cocycle_quiver(d, R5, plain, 0, mochizuki(5))
    assert checked == plain


def test_shadow_quiver_matches_coloring_quiver(catalog):
    R5 = make_dihedral(5)
    theta = mochizuki(5)
    S = enumerate_autos(R5)
    for name in ("4_1", "5_1"):
        d = catalog.diagram(name)
        plain = coloring_quiver(d, R5, S)
        weighted = shadow_cocycle_quiver(d, R5, S, 0, theta)
        assert weighted.vertices == plain.vertices
        assert weighted.edges == plain.edges
        iso, witness = quiver_isomorphic(plain, weighted)
        assert iso


def test_shadow_quiver_weights(catalog):
    R5 = make_dihedral(5)
    q = shadow_cocycle_quiver(catalog.diagram("4_1"), R5, [plus2()], 0, mochizuki(5))
    assert Counter(q.weights) == Counter({0: 5, 1: 10, 4: 10})


def test_adjacency_counts_every_edge(catalog):
    quivers = [WeightedQuiver((0, 1, 2), (), ())]
    for n in range(3, 10):
        X = make_dihedral(n)
        S = enumerate_homs(X, X)
        quivers += [coloring_quiver(catalog.diagram(knot), X, S) for knot in catalog.names()]
    for q in quivers:
        out_ref = [Counter() for _ in range(q.n_vertices)]
        in_ref = [Counter() for _ in range(q.n_vertices)]
        for src, dst, _ in q.edges:
            out_ref[src][dst] += 1
            in_ref[dst][src] += 1
        out_adj, in_adj = _adjacency(q)
        assert [dict(c) for c in out_adj] == [dict(c) for c in out_ref]
        assert [dict(c) for c in in_adj] == [dict(c) for c in in_ref]


def test_self_isomorphism_with_identity_witness(catalog):
    R5 = make_dihedral(5)
    q = coloring_quiver(catalog.diagram("4_1"), R5, enumerate_autos(R5))
    iso, witness = quiver_isomorphic(q, q)
    assert iso and witness == tuple(range(q.n_vertices))


def test_reference_quiver_verdicts(catalog):
    R5 = make_dihedral(5)
    R9 = make_dihedral(9)
    end5 = enumerate_homs(R5, R5)
    q41 = coloring_quiver(catalog.diagram("4_1"), R5, end5)
    q51 = coloring_quiver(catalog.diagram("5_1"), R5, end5)
    iso, witness = quiver_isomorphic(q41, q51)
    assert iso
    # the witness really maps edges onto edges
    edge_multiset = Counter((witness[s], witness[t]) for s, t, _ in q41.edges)
    assert edge_multiset == Counter((s, t) for s, t, _ in q51.edges)

    end9 = enumerate_homs(R9, R9)
    q810 = coloring_quiver(catalog.diagram("8_10"), R9, end9)
    q818 = coloring_quiver(catalog.diagram("8_18"), R9, end9)
    iso, _ = quiver_isomorphic(q810, q818)
    assert not iso

    theta = mochizuki(5)
    w41 = shadow_cocycle_quiver(catalog.diagram("4_1"), R5, end5, 0, theta)
    w51 = shadow_cocycle_quiver(catalog.diagram("5_1"), R5, end5, 0, theta)
    iso, _ = quiver_isomorphic(w41, w51, respect_weights=True)
    assert not iso


def test_isomorphism_is_symmetric(catalog):
    R3 = make_dihedral(3)
    S = enumerate_homs(R3, R3)
    q31 = coloring_quiver(catalog.diagram("3_1"), R3, S)
    q61 = coloring_quiver(catalog.diagram("6_1"), R3, S)
    assert quiver_isomorphic(q31, q61)[0] == quiver_isomorphic(q61, q31)[0]


def test_isomorphism_weight_requires_weights(catalog):
    R3 = make_dihedral(3)
    q = coloring_quiver(catalog.diagram("3_1"), R3, [identity_map(R3)])
    with pytest.raises(InvalidParameterError):
        quiver_isomorphic(q, q, respect_weights=True)


def test_weights_of_different_moduli_never_match(catalog):
    # The same weights read modulo another number: equal histograms, so
    # only the moduli tell the two apart.
    R5 = make_dihedral(5)
    q = shadow_cocycle_quiver(catalog.diagram("4_1"), R5, enumerate_autos(R5), 0, mochizuki(5))
    other = replace(q, weight_modulus=q.weight_modulus + 1)
    identity = (True, tuple(range(q.n_vertices)))
    assert quiver_isomorphic(q, q, respect_weights=True) == identity
    assert quiver_isomorphic(q, other) == identity
    assert quiver_isomorphic(q, other, respect_weights=True) == (False, None)
    assert quiver_isomorphic(other, q, respect_weights=True) == (False, None)


def test_polynomials_reference_values(catalog):
    R5 = make_dihedral(5)
    theta = mochizuki(5)
    q41 = shadow_cocycle_quiver(catalog.diagram("4_1"), R5, [plus2()], 0, theta)
    q51 = shadow_cocycle_quiver(catalog.diagram("5_1"), R5, [plus2()], 0, theta)
    assert str(cocycle_polynomial(q41)) == "5 + 10st + 10s^4t^4"
    assert str(cocycle_polynomial(q51)) == "5 + 10s^2t^2 + 10s^3t^3"


def test_unknot_polynomial_is_constant():
    R5 = make_dihedral(5)
    q = shadow_cocycle_quiver(unknot_diagram(), R5, [identity_map(R5)], 0, mochizuki(5))
    assert str(cocycle_polynomial(q)) == "5"


def test_polynomial_coefficients_sum_to_edges(catalog):
    R5 = make_dihedral(5)
    theta = mochizuki(5)
    S = enumerate_autos(R5)
    q = shadow_cocycle_quiver(catalog.diagram("5_1"), R5, S, 2, theta)
    assert cocycle_polynomial(q).total() == q.n_edges


def test_polynomial_invariant_under_vertex_shuffle(catalog):
    R5 = make_dihedral(5)
    theta = mochizuki(5)
    q = shadow_cocycle_quiver(catalog.diagram("4_1"), R5, enumerate_autos(R5), 0, theta)
    rng = random.Random(7)
    perm = list(range(q.n_vertices))
    rng.shuffle(perm)
    moved_from = [perm.index(i) for i in range(q.n_vertices)]
    shuffled = WeightedQuiver(
        vertices=tuple(q.vertices[v] for v in moved_from),
        targets=tuple(tuple(perm[row[v]] for v in moved_from) for row in q.targets),
        endos=q.endos,
        weights=tuple(q.weights[v] for v in moved_from),
        weight_modulus=q.weight_modulus,
    )
    assert str(cocycle_polynomial(shuffled)) == str(cocycle_polynomial(q))
    iso, _ = quiver_isomorphic(q, shuffled, respect_weights=True)
    assert iso


def test_polynomial_requires_weights(catalog):
    R3 = make_dihedral(3)
    q = coloring_quiver(catalog.diagram("3_1"), R3, [identity_map(R3)])
    with pytest.raises(InvalidParameterError):
        cocycle_polynomial(q)


def test_polynomial_rendering_rules():
    from quiverknot.quiver import Polynomial2

    assert str(Polynomial2(5, ())) == "0"
    assert str(Polynomial2(5, (((0, 0), 1),))) == "1"
    assert str(Polynomial2(5, (((0, 2), 3), ((1, 1), 1)))) == "3t^2 + st"
    assert str(Polynomial2(5, (((2, 0), 1),))) == "s^2"


def test_dot_output(catalog):
    assert to_dot(WeightedQuiver((), (), ())) == "digraph { }"
    R3 = make_dihedral(3)
    u = coloring_quiver(unknot_diagram(), R3, [identity_map(R3)])
    dot = to_dot(u)
    assert dot.count("->") == u.n_edges
    q = shadow_cocycle_quiver(catalog.diagram("3_1"), R3, enumerate_autos(R3), 0, mochizuki(3))
    dot = to_dot(q)
    assert dot.count("->") == q.n_edges
    assert "(w=" in dot
    assert dot == to_dot(q)


def test_dot_of_a_hand_built_multigraph():
    # row 0 sends 0 -> 1 and 1 -> 1, row 1 sends 0 -> 1 and 1 -> 0
    q = WeightedQuiver((0, 1), ((1, 1), (1, 0)), ())
    assert to_dot(q) == "\n".join([
        "digraph {", '  v0 [label="0"];', '  v1 [label="1"];',
        '  v0 -> v1 [label="f0"];', '  v0 -> v1 [label="f1"];',
        '  v1 -> v1 [label="f0"];', '  v1 -> v0 [label="f1"];', "}",
    ])
    assert to_dot(q, collapse_parallel=True) == "\n".join([
        "digraph {", '  v0 [label="0"];', '  v1 [label="1"];',
        '  v0 -> v1 [label="x2"];', "  v1 -> v0;", "  v1 -> v1;", "}",
    ])


def test_quiver_json_schema(catalog):
    R3 = make_dihedral(3)
    q = shadow_cocycle_quiver(catalog.diagram("3_1"), R3, enumerate_autos(R3), 1, mochizuki(3))
    blob = quiver_to_json(q)
    assert {v["id"] for v in blob["vertices"]} == set(range(q.n_vertices))
    assert all("weight" in v for v in blob["vertices"])
    assert len(blob["edges"]) == q.n_edges
    assert len(blob["endos"]) == len(q.endos)


def _streamed_quivers(catalog):
    """Hand-built edge cases, then catalog quivers over three quandles."""
    yield WeightedQuiver((), (), ())
    yield WeightedQuiver((), ((), ()), ())
    yield WeightedQuiver((0, 1, 2), (), ())
    yield WeightedQuiver((0, 1, 2), ((2, 0, 0),), (QuandleMap(3, 3, (0, 2, 1)),))
    yield WeightedQuiver((0, 1), ((1, 1), (1, 0)), (), (3, 0), 5)
    yield WeightedQuiver((0,), ((0,), (0,)), (), (2,), 3)
    yield WeightedQuiver((0, 1), ((1, 1),), (), (3, 0), 5)
    lists = ("all", "auto", "1,2;2,0")
    for spec, endo_specs in (("dihedral:3", lists), ("dihedral:5", lists),
                             ("alexander:9:2", lists[:2])):
        X = parse_quandle_spec(spec)
        for endos in endo_specs:
            S = parse_endo_spec(endos, X)
            for knot in ("unknot", "3_1", "4_1", "8_18"):
                yield coloring_quiver(catalog.diagram(knot), X, S)
    R5 = make_dihedral(5)
    yield shadow_cocycle_quiver(catalog.diagram("4_1"), R5, enumerate_homs(R5, R5), 2,
                                mochizuki(5))


def test_streamed_json_equals_json_dumps(catalog):
    for q in _streamed_quivers(catalog):
        chunks = list(quiver_json_chunks(q))
        blob = quiver_to_json(q)
        assert "".join(chunks) == json.dumps(blob)
        # the edge array alone, between the head and the endos
        assert "[" + "".join(chunks[1:-1]) + "]" == json.dumps(blob["edges"])
        assert len(chunks) == 2 + (q.n_vertices if q.targets else 0)
        # the writing forms used by the CLI pass the same text on
        pieces: list[str] = []
        assert quiver_to_json(q, pieces.append) is None
        assert pieces == chunks
        pieces.clear()
        for collapse in (False, True):
            assert to_dot(q, collapse, pieces.append) is None
            assert "".join(pieces) == to_dot(q, collapse) + "\n"
            pieces.clear()


def _edge_by_edge_texts(q):
    """DOT and JSON spelled edge by edge with f-strings: an oracle that
    shares no code with the writers."""
    n = q.n_vertices
    if q.weights is None:
        labels = [f'  v{i} [label="{i}"];' for i in range(n)]
        entries = [f'{{"id": {i}}}' for i in range(n)]
    else:
        labels = [f'  v{i} [label="{i} (w={w})"];' for i, w in enumerate(q.weights)]
        entries = [f'{{"id": {i}, "weight": {w}}}' for i, w in enumerate(q.weights)]
    arrows = [f'  v{v} -> v{row[v]} [label="f{e}"];'
              for v in range(n) for e, row in enumerate(q.targets)]
    dot = "\n".join(["digraph {", *labels, *arrows, "}"]) if n else "digraph { }"
    edges = [f"[{v}, {row[v]}, {e}]" for v in range(n) for e, row in enumerate(q.targets)]
    images = ["[" + ", ".join(f"{y}" for y in f.image) + "]" for f in q.endos]
    text = (f'{{"vertices": [{", ".join(entries)}], "edges": [{", ".join(edges)}], '
            f'"endos": [{", ".join(images)}]}}')
    return dot, text


def test_writers_match_an_edge_by_edge_oracle(catalog):
    R15 = make_dihedral(15)
    large = coloring_quiver(catalog.diagram("8_18"), R15, enumerate_homs(R15, R15))
    for q in chain(_streamed_quivers(catalog), [large]):
        dot, text = _edge_by_edge_texts(q)
        assert to_dot(q) == dot
        pieces: list[str] = []
        assert to_dot(q, False, pieces.append) is None
        assert "".join(pieces) == dot + "\n"
        assert "".join(quiver_json_chunks(q)) == text


def test_collapse_parallel_is_display_only(catalog):
    R3 = make_dihedral(3)
    q = coloring_quiver(unknot_diagram(), R3, enumerate_homs(R3, R3))
    full = to_dot(q)
    merged = to_dot(q, collapse_parallel=True)
    assert full.count("->") == q.n_edges
    assert merged.count("->") < q.n_edges
    assert "x" in merged  # multiplicity labels
    # quiver data untouched
    assert q.n_edges == 27


def test_prime_order_iso_iff_counts(catalog):
    # both directions at desk scale: over a prime-order dihedral
    # quandle, quivers are isomorphic exactly when counts agree, for
    # End, Aut and three random endomorphism subsets
    from itertools import combinations

    rng = random.Random(99)
    names = catalog.names()
    for p in (3, 5, 7):
        Rp = make_dihedral(p)
        end = enumerate_homs(Rp, Rp)
        aut = enumerate_autos(Rp)
        subsets = [("end", end), ("aut", aut)]
        subsets += [(f"rnd{i}", rng.sample(end, k)) for i, k in enumerate((1, 3, 5))]
        for s_key, S in subsets:
            quivers = {n: coloring_quiver(catalog.diagram(n), Rp, S) for n in names}
            for a, b in combinations(names, 2):
                iso, _ = quiver_isomorphic(quivers[a], quivers[b])
                assert iso == (quivers[a].n_vertices == quivers[b].n_vertices), (
                    p, s_key, a, b)


def test_weighted_verdict_tracks_multiset_equality(catalog):
    # spot check on one pair: weighted isomorphism agrees with equality
    # of the full weight multisets
    R3 = make_dihedral(3)
    theta = mochizuki(3)
    S = enumerate_homs(R3, R3)
    d31 = catalog.diagram("3_1")
    d61 = catalog.diagram("6_1")
    q31 = shadow_cocycle_quiver(d31, R3, S, 0, theta)
    q61 = shadow_cocycle_quiver(d61, R3, S, 0, theta)
    iso, _ = quiver_isomorphic(q31, q61, respect_weights=True)
    same = invariant_multiset(d31, R3, theta) == invariant_multiset(d61, R3, theta)
    assert iso == same


def path_quiver(n, copies=1):
    """``copies`` disjoint directed paths of n vertices: i -> i + 1, and a
    loop on the last vertex of each."""
    row = tuple(range(1, n)) + (n - 1,)
    targets = tuple(t + k * n for k in range(copies) for t in row)
    return WeightedQuiver(tuple(range(n * copies)), (targets,), ())


def test_long_rigid_path_needs_no_recursion():
    # The path refines to a discrete partition, so no search runs.  Two
    # copies of a 550-vertex path refine to cells of one vertex of each
    # copy per quiver, and the search runs one level per vertex, 1,100
    # levels: deeper than the default recursion limit.
    for path in (path_quiver(1100), path_quiver(550, copies=2)):
        assert quiver_isomorphic(path, path) == (True, tuple(range(1100)))


def test_discrete_partition_skips_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran on a discrete partition")

    monkeypatch.setattr(quiverknot.quiver, "_search", no_search)
    path = path_quiver(2025)
    assert quiver_isomorphic(path, path) == (True, tuple(range(2025)))
    perm = list(range(50))
    random.Random(16).shuffle(perm)
    assert quiver_isomorphic(path_quiver(50), relabelled(path_quiver(50), perm)) == (
        True, tuple(perm))
    # the forced bijection is the only candidate, so a failed check is a
    # verdict, not a reason to search
    monkeypatch.setattr(quiverknot.quiver, "_verify_witness", lambda *args: False)
    assert quiver_isomorphic(path, path) == (False, None)


def round_refine(q1, q2, respect_weights):
    """Reference: joint colour refinement in rounds.  Each round recolours
    every vertex by its colour and the sorted (colour, multiplicity)
    pairs of its out- and in-neighbours, until a round splits nothing.
    Returns (colors1, colors2), or None when a round's colour counts
    differ between the quivers."""
    n = q1.n_vertices
    if respect_weights:
        colors1 = list(q1.weights)
        colors2 = list(q2.weights)
    else:
        colors1 = [0] * n
        colors2 = [0] * n
    if Counter(colors1) != Counter(colors2):
        return None
    out1, in1 = _adjacency(q1)
    out2, in2 = _adjacency(q2)

    for _ in range(n):
        palette: dict = {}

        def recolor(colors, out_adj, in_adj):
            new = []
            for v in range(n):
                sig = (
                    colors[v],
                    tuple(sorted((colors[u], m) for u, m in out_adj[v].items())),
                    tuple(sorted((colors[u], m) for u, m in in_adj[v].items())),
                )
                new.append(palette.setdefault(sig, len(palette)))
            return new

        new1 = recolor(colors1, out1, in1)
        new2 = recolor(colors2, out2, in2)
        if Counter(new1) != Counter(new2):
            return None
        # Refinement only splits classes, so an unchanged class count
        # means the partition is stable.
        stable = len(set(new1)) == len(set(colors1))
        colors1, colors2 = new1, new2
        if stable:
            break
    return colors1, colors2


def union_partition(colors1, colors2):
    """The set partition of the union of the two vertex sets that the
    colours make, as colour ids renumbered by first appearance."""
    first: dict = {}
    return [first.setdefault(c, len(first)) for c in chain(colors1, colors2)]


def assert_same_partition(q1, q2, respect_weights=False):
    expected = round_refine(q1, q2, respect_weights)
    refined = _joint_refine(q1, q2, respect_weights)
    if expected is None:
        assert refined is None
    else:
        assert refined is not None
        assert union_partition(*refined[:2]) == union_partition(*expected)


def test_worklist_refinement_matches_rounds_on_catalog_quivers(catalog):
    # every ordered pair of catalog quivers with equal vertex counts: End
    # over R_3, R_5 and R_9, and shadow quivers with and without weights
    names = catalog.names()
    for p in (3, 5, 9):
        X = make_dihedral(p)
        end = enumerate_homs(X, X)
        families = [([coloring_quiver(catalog.diagram(k), X, end) for k in names], (False,))]
        if p < 9:  # Mochizuki's cocycle needs a prime order
            theta = mochizuki(p)
            shadows = [shadow_cocycle_quiver(catalog.diagram(k), X, end, 0, theta)
                       for k in names]
            families.append((shadows, (False, True)))
        for family, respects in families:
            for q1, q2 in product(family, repeat=2):
                if q1.n_vertices == q2.n_vertices:
                    for respect in respects:
                        assert_same_partition(q1, q2, respect)


def test_worklist_refinement_matches_rounds_on_random_and_path_quivers():
    rng = random.Random(1987)
    for trial in range(400):
        n = 1 + trial % 16
        weighted = trial % 2 == 1
        rows = rng.randint(0, 3)
        q1 = random_quiver(rng, n, rows, weighted)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [list(row) for row in q1.targets]
        if moved:
            moved[0][rng.randrange(n)] = rng.randrange(n)
        moved = WeightedQuiver(q1.vertices, tuple(map(tuple, moved)), (), q1.weights,
                               q1.weight_modulus)
        for q2 in (q1, relabelled(q1, perm), relabelled(moved, perm),
                   random_quiver(rng, n, rows, weighted)):
            for respect in (False, True) if weighted else (False,):
                assert_same_partition(q1, q2, respect)
    for n in (1, 2, 3, 10, 61):
        assert_same_partition(path_quiver(n), path_quiver(n))
        assert_same_partition(path_quiver(n, copies=2), path_quiver(n, copies=2))
        assert_same_partition(path_quiver(2 * n), path_quiver(n, copies=2))
        assert_same_partition(path_quiver(n, copies=2), path_quiver(2 * n))


# SHA-256 of the lines "n knotA knotB verdict witness" below, recorded
# with the candidate-list search that the bitset search replaced.
CATALOG_END_VERDICTS_SHA256 = "704669c6530f6c324231c7361fc4da4571403fc523dbdf6916cf2b5b8d9fadd9"


def test_catalog_verdicts_and_witnesses_are_pinned(catalog):
    # every ordered catalog pair over R_5 and R_9 with End: the verdicts
    # and the exact witnesses the search returns
    digest = hashlib.sha256()
    names = catalog.names()
    for n in (5, 9):
        X = make_dihedral(n)
        end = enumerate_homs(X, X)
        quivers = {k: coloring_quiver(catalog.diagram(k), X, end) for k in names}
        for a in names:
            for b in names:
                iso, witness = quiver_isomorphic(quivers[a], quivers[b])
                digest.update(f"{n} {a} {b} {iso} {witness}\n".encode())
    assert digest.hexdigest() == CATALOG_END_VERDICTS_SHA256


# SHA-256 of the CLI's `compare --endos all` JSON below, timing stripped
# and witnesses kept, recorded while compare still read its witness off
# a map of value tuples.
COMPARE_END_JSON_SHA256 = "9829cd3219743c399c0e26043185e047363e278f82aa0eac6320f5649d9f5818"


def test_cli_end_compare_json_is_pinned(catalog):
    # every ordered catalog pair over R_3, R_5, R_9 and R_15, and every
    # ordered pair of 8_10, 8_18, 6_1 and a relabelled copy of each, at
    # least one of them a copy, over those and R_27: 711 compares, whose
    # witnesses are not the identity on the relabelled pairs
    rng = random.Random(29)
    names = catalog.names()
    knots = ["8_10", "8_18", "6_1"]
    knots += [relabel_pd(parse_pd(catalog.entries[k].pd).crossings, rng)[0] for k in knots]
    pairs = [(n, a, b) for n in (3, 5, 9, 15) for a, b in product(names, repeat=2)]
    pairs += [(n, a, b) for n in (3, 5, 9, 15, 27) for a, b in product(knots, repeat=2)
              if a not in names or b not in names]
    timing = re.compile(r', "timing": \{[^}]*\}')
    digest = hashlib.sha256()
    for n, a, b in pairs:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["compare", a, b, "--quandle", f"dihedral:{n}", "--endos", "all"]) == 0
        digest.update(timing.sub("", out.getvalue()).encode())
    assert len(pairs) == 711
    assert digest.hexdigest() == COMPARE_END_JSON_SHA256


def test_large_self_compare_returns_the_identity(catalog):
    # 675 vertices and 151,875 edges in 4 refined classes: the search
    # assigns every vertex without a backtrack and keeps the identity
    R15 = make_dihedral(15)
    q = coloring_quiver(catalog.diagram("8_18"), R15, enumerate_homs(R15, R15))
    iso, witness = quiver_isomorphic(q, q)
    assert iso and witness == tuple(range(675))
    assert _verify_witness(q, q, witness, False)


def module_verdict(X, S, da, db, qa, qb):
    """The verdict compare reads for the End(R_n)-quivers qa and qb of da
    and db, built on the enumerated colorings: none when the module types
    differ, else ``end_modules``' witness, proved through ``over``.  Its
    vertex lists must be the quivers' vertices."""
    found = end_modules(X, S, da, db)[1]
    if found is None:
        return (False, None)
    assert found[:2] == (list(qa.vertices), list(qb.vertices))
    return quiver_isomorphic(qa, qb, over=found[2])


def module_verdicts_against_search(diagrams, orders):
    """Every ordered pair of the diagrams' End(R_n)-quivers: the module
    verdict must be the search's, and each module witness must be an
    isomorphism, the identity on a self-compare.  Returns the verdicts."""
    verdicts = Counter()
    for n in orders:
        X = make_dihedral(n)
        end = enumerate_homs(X, X)
        quivers = [coloring_quiver(d, X, end) for d in diagrams]
        for (da, qa), (db, qb) in product(zip(diagrams, quivers), repeat=2):
            iso, witness = module_verdict(X, end, da, db, qa, qb)
            assert iso == quiver_isomorphic(qa, qb)[0], (n, qa.n_vertices, qb.n_vertices)
            assert iso == (witness is not None)
            if iso:
                assert _verify_witness(qa, qb, witness, False)
            if da is db:
                assert witness == tuple(range(qa.n_vertices))
            verdicts[iso, qa.n_vertices == qb.n_vertices] += 1
    return verdicts


def test_module_verdicts_match_the_search_on_catalog_pairs(catalog):
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    verdicts = module_verdicts_against_search(diagrams, range(1, 16))
    assert sum(verdicts.values()) == 15 * 12 * 12
    # Pairs of equal size with unequal module types are among them.
    assert verdicts[True, True] and verdicts[False, True] and verdicts[False, False]


def test_module_verdicts_match_the_search_on_links_and_relabellings(catalog):
    # M = <1> + M' must hold for links too: T(2,k) has two components
    # for even k, and a chain of m meridian loops m + 1.  Relabelled
    # knots give pairs whose witness is not the identity.
    texts = [torus_pd(k) for k in range(2, 13)] + [meridian_chain_pd(m) for m in range(1, 5)]
    rng = random.Random(20)
    for pd in (catalog.entries["8_18"].pd, catalog.entries["6_1"].pd, torus_pd(9)):
        texts.append(relabel_pd(parse_pd(pd).crossings, rng)[0])
    diagrams = [build_diagram(parse_pd(text)) for text in texts]
    verdicts = module_verdicts_against_search(diagrams, (2, 3, 4, 6, 8, 9, 12))
    assert verdicts[True, True] and verdicts[False, True]


def test_module_colorings_are_the_enumerated_colorings(catalog):
    # The vertex lists compare builds its End(R_n)-quivers on are read off
    # the coloring modules: they must be the colorings enumerate_colorings
    # lists, in its order, the counts their number, and a self-compare's
    # witness the identity.
    knots = [catalog.entries[name].pd for name in catalog.names()]
    knots.remove("unknot")
    rng = random.Random(26)
    texts = [relabel_pd(parse_pd(text).crossings, rng)[0] for text in knots]
    texts += [torus_pd(k) for k in range(2, 13)] + [meridian_chain_pd(m) for m in range(1, 5)]
    diagrams = [catalog.diagram(name) for name in catalog.names()]
    diagrams += [build_diagram(parse_pd(text)) for text in texts]
    for n in range(2, 16):
        X = make_dihedral(n)
        end = enumerate_homs(X, X)
        for d, other in zip(diagrams, diagrams[1:] + diagrams[:1]):
            colorings = enumerate_colorings(d, X)
            counts, (first, second, witness) = end_modules(X, end, d, d)
            assert counts == [len(colorings)] * 2, n
            assert first == second == colorings
            assert witness == tuple(range(len(colorings)))
            counts, found = end_modules(X, end, other, d)
            assert counts[1] == len(colorings)
            assert found is None or found[:2] == (enumerate_colorings(other, X), colorings)
    # Only all of End(R_n) is read off the modules.
    R5 = make_dihedral(5)
    d = catalog.diagram("4_1")
    assert end_modules(R5, enumerate_autos(R5), d, d) is None
    A = make_alexander(5, 4)
    assert end_modules(A, enumerate_homs(A, A), d, d) is None


def test_row_check_rejects_what_is_no_labelled_isomorphism(catalog):
    X = make_dihedral(9)
    end = enumerate_homs(X, X)
    da, db = catalog.diagram("6_1"), catalog.diagram("8_10")
    _, (va, vb, witness) = end_modules(X, end, da, db)
    qa, qb = coloring_quiver(da, X, end, va), coloring_quiver(db, X, end, vb)
    assert quiver_isomorphic(qa, qb, over=witness) == (True, witness)
    assert _keeps_rows(qa, qb, witness)
    # Vertex 0, the constant coloring 0, has 9 distinct out-neighbours and
    # a non-constant vertex more, so swapping their images is no isomorphism.
    k = next(v for v, c in enumerate(qa.vertices) if len(set(c.values)) > 1)
    swapped = list(witness)
    swapped[0], swapped[k] = swapped[k], swapped[0]
    swapped = tuple(swapped)
    assert not _keeps_rows(qa, qb, swapped)
    assert not _verify_witness(qa, qb, swapped, False)
    # a rejected module witness is an error, not a verdict
    with pytest.raises(AssertionError):
        quiver_isomorphic(qa, qb, over=swapped)
    # c -> 2c sends the edges of x -> a*x + b onto those of x -> a*x + 2b:
    # an isomorphism of the unlabelled quiver, but not of the labelled one.
    position = {c.values: w for w, c in enumerate(qa.vertices)}
    double = tuple(position[tuple(2 * y % 9 for y in c.values)] for c in qa.vertices)
    assert _verify_witness(qa, qa, double, False)
    assert not _keeps_rows(qa, qa, double)
    # the rows must pair up by image
    assert not _keeps_rows(qa, replace(qa, endos=qa.endos[1:], targets=qa.targets[1:]),
                           tuple(range(qa.n_vertices)))


def test_end_of_a_dihedral_quandle_is_its_affine_maps():
    # End(R_n) as the search finds it over the untagged table, not the
    # closed form that is_affine_end's reading of (f(0), f(1)) rests on
    for n in range(1, 28):
        X = make_dihedral(n)
        plain = from_table(X.op)
        assert is_affine_end(X, enumerate_homs(plain, plain)), n
    R5 = make_dihedral(5)
    assert not is_affine_end(R5, enumerate_autos(R5))
    assert not is_affine_end(R5, parse_endo_spec("1,0;2,0", R5))
    # n^2 maps, but not n^2 distinct ones
    assert not is_affine_end(R5, parse_endo_spec(";".join(["1,0"] * 25), R5))
    assert not is_affine_end(R5, parse_endo_spec(";".join(["1,0"] * 24 + ["2,0"]), R5))
    # the same maps over a quandle that is not dihedral by kind
    assert not is_affine_end(from_table(R5.op), enumerate_homs(R5, R5))
    A = make_alexander(5, 2)
    assert not is_affine_end(A, enumerate_homs(A, A))


def brute_force_isomorphic(q1, q2, respect_weights):
    """Oracle: try every vertex permutation."""
    n = q1.n_vertices
    if n != q2.n_vertices:
        return False
    target = Counter((s, t) for s, t, _ in q2.edges)
    for perm in permutations(range(n)):
        if respect_weights and any(q1.weights[v] != q2.weights[perm[v]] for v in range(n)):
            continue
        if Counter((perm[s], perm[t]) for s, t, _ in q1.edges) == target:
            return True
    return False


def random_quiver(rng, n, rows, weighted):
    targets = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(rows))
    weights = tuple(rng.randrange(2) for _ in range(n)) if weighted else None
    return WeightedQuiver(tuple(range(n)), targets, (), weights, 2 if weighted else None)


def relabelled(q, perm, weights=None):
    """q with vertex v renamed perm[v]; ``weights`` replaces the moved weights."""
    if weights is None and q.weights is not None:
        weights = [0] * q.n_vertices
        for v, w in enumerate(q.weights):
            weights[perm[v]] = w
    targets = []
    for row in q.targets:
        moved = [0] * q.n_vertices
        for v, t in enumerate(row):
            moved[perm[v]] = perm[t]
        targets.append(tuple(moved))
    return WeightedQuiver(
        q.vertices, tuple(targets), q.endos,
        None if weights is None else tuple(weights), q.weight_modulus,
    )


def test_search_matches_brute_force_oracle():
    rng = random.Random(20040124)
    verdicts = Counter()
    for trial in range(90):
        n = 1 + trial % 7
        weighted = trial % 2 == 1
        rows = rng.randint(0, 3)
        q1 = random_quiver(rng, n, rows, weighted)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [list(row) for row in q1.targets]
        if moved:
            moved[0][0] = rng.randrange(n)
        moved = WeightedQuiver(q1.vertices, tuple(map(tuple, moved)), (), q1.weights,
                               q1.weight_modulus)
        pairs = [relabelled(q1, perm), relabelled(moved, perm),
                 random_quiver(rng, n, rows, weighted)]
        if weighted:
            shuffled = list(q1.weights)
            rng.shuffle(shuffled)
            pairs.append(relabelled(q1, perm, weights=shuffled))
        for q2 in pairs:
            for respect in ((False, True) if weighted else (False,)):
                expected = brute_force_isomorphic(q1, q2, respect)
                iso, witness = quiver_isomorphic(q1, q2, respect_weights=respect)
                assert iso == expected, (trial, respect)
                assert iso == (witness is not None)
                if iso:
                    assert _verify_witness(q1, q2, witness, respect)
                verdicts[(respect, iso)] += 1
        assert quiver_isomorphic(q1, pairs[0], respect_weights=weighted)[0]
    # both verdicts occur, with and without weights
    assert min(verdicts.values()) >= 10, verdicts


def test_verify_witness_rejects_bad_witnesses():
    # edges 0 -> 1 twice, 1 -> 2, 1 -> 0 and 2 -> 2 twice
    q = WeightedQuiver((0, 1, 2), ((1, 2, 2), (1, 0, 2)), (), (0, 1, 1), 2)
    assert _verify_witness(q, q, (0, 1, 2), True)
    # not a bijection of the vertices
    for mapping in ((0, 0, 2), (0, 1), (0, 1, 2, 3), (0, 1, 3)):
        assert not _verify_witness(q, q, mapping, False), mapping
    # a bijection that keeps the weights but not the edge multiset
    assert not _verify_witness(q, q, (0, 2, 1), True)
    # one edge moved: 0 -> 1 once and 0 -> 2 once
    moved = WeightedQuiver(q.vertices, ((1, 2, 2), (2, 0, 2)), (), q.weights, 2)
    assert not _verify_witness(q, moved, (0, 1, 2), False)
    # no edges at all on one side
    bare = WeightedQuiver(q.vertices, (), (), q.weights, 2)
    assert not _verify_witness(q, bare, (0, 1, 2), False)
    # the same edges, weights swapped between vertices 0 and 1
    swapped = WeightedQuiver(q.vertices, q.targets, (), (1, 0, 1), 2)
    assert _verify_witness(q, swapped, (0, 1, 2), False)
    assert not _verify_witness(q, swapped, (0, 1, 2), True)


def test_verdicts_match_networkx(catalog):
    nx = pytest.importorskip("networkx")

    def as_graph(q):
        g = nx.MultiDiGraph()
        for v in range(q.n_vertices):
            g.add_node(v, weight=None if q.weights is None else q.weights[v])
        g.add_edges_from((s, t) for s, t, _ in q.edges)
        return g

    def same_weight(a, b):
        return a["weight"] == b["weight"]

    names = catalog.names()
    for p in (3, 5, 7):
        Rp = make_dihedral(p)
        end = enumerate_homs(Rp, Rp)
        theta = mochizuki(p)
        plain = {k: coloring_quiver(catalog.diagram(k), Rp, end) for k in names}
        weighted = {k: shadow_cocycle_quiver(catalog.diagram(k), Rp, end, 0, theta)
                    for k in names}
        graphs = {k: as_graph(q) for k, q in plain.items()}
        wgraphs = {k: as_graph(q) for k, q in weighted.items()}
        for a, b in combinations(names, 2):
            assert quiver_isomorphic(plain[a], plain[b])[0] == nx.is_isomorphic(
                graphs[a], graphs[b]), (p, a, b)
            assert quiver_isomorphic(weighted[a], weighted[b], respect_weights=True)[0] == (
                nx.is_isomorphic(wgraphs[a], wgraphs[b], node_match=same_weight)), (p, a, b)

    # Seeded random quivers that refinement makes discrete, against
    # relabelled copies (the search is skipped) and relabelled copies with
    # one edge moved.  The forced bijection of a discrete stable partition
    # is always an isomorphism, so the False verdicts come from
    # refinement.
    rng = random.Random(2013)
    verdicts = Counter()
    rigid = Counter()
    while min(rigid[rows, w] for rows in (1, 2, 3) for w in (False, True)) < 5:
        n = rng.randint(8, 30)
        rows = rng.randint(1, 3)
        weighted = rng.random() < 0.5
        q1 = random_quiver(rng, n, rows, weighted)
        if len(set(_joint_refine(q1, q1, weighted)[0])) < n:
            continue
        rigid[rows, weighted] += 1
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [list(row) for row in q1.targets]
        moved[rng.randrange(rows)][rng.randrange(n)] = rng.randrange(n)
        moved = WeightedQuiver(q1.vertices, tuple(map(tuple, moved)), (), q1.weights,
                               q1.weight_modulus)
        for q2 in (relabelled(q1, perm), relabelled(moved, perm)):
            iso, witness = quiver_isomorphic(q1, q2, respect_weights=weighted)
            expected = nx.is_isomorphic(as_graph(q1), as_graph(q2),
                                        node_match=same_weight if weighted else None)
            assert iso == expected, (n, rows, weighted)
            assert iso == (witness is not None)
            verdicts[weighted, iso] += 1
    assert min(verdicts[w, iso] for w in (False, True) for iso in (False, True)) >= 5, verdicts
