"""Quandle construction, axioms and homomorphism enumeration."""

import copy
import functools
import math
import pickle
from itertools import product

import pytest

import quiverknot.quandle
from quiverknot.quandle import (
    Homs,
    InvalidParameterError,
    QuandleAxiomError,
    QuandleMap,
    affine_endos,
    compose,
    constant_map,
    enumerate_autos,
    enumerate_homs,
    from_table,
    identity_map,
    is_homomorphism,
    make_alexander,
    make_dihedral,
    parse_table_text,
    table_text,
)


def axioms_hold(op):
    """Independent exhaustive axiom check, no library internals."""
    n = len(op)
    for x in range(n):
        if op[x][x] != x:
            return False
    for y in range(n):
        if sorted(op[x][y] for x in range(n)) != list(range(n)):
            return False
    for x, y, z in product(range(n), repeat=3):
        if op[op[x][y]][z] != op[op[x][z]][op[y][z]]:
            return False
    return True


def brute_force_homs(Xop, Yop):
    """All homomorphism image vectors by exhausting |Y|^|X| maps."""
    n, m = len(Xop), len(Yop)
    found = []
    for img in product(range(m), repeat=n):
        ok = True
        for x in range(n):
            for y in range(n):
                if img[Xop[x][y]] != Yop[img[x]][img[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(img)
    return found


def test_dihedral_examples():
    assert make_dihedral(3).mul(0, 1) == 2
    assert make_dihedral(5).mul(1, 3) == 0
    q1 = make_dihedral(1)
    assert q1.mul(0, 0) == 0


def test_dihedral_rejects_zero():
    with pytest.raises(InvalidParameterError):
        make_dihedral(0)


def test_alexander_examples():
    assert make_alexander(5, 2).mul(1, 3) == 4
    assert make_alexander(5, 4).op == make_dihedral(5).op
    with pytest.raises(InvalidParameterError):
        make_alexander(4, 2)


def test_formula_quandles_build_tables_on_first_read():
    # A formula quandle is its (n, t); equality and hashing read no table,
    # R_5 and alexander:5:4 are one value, and a table quandle compares
    # its tables.
    R5, A5 = make_dihedral(5), make_alexander(5, 2)
    assert (R5, A5) == (make_dihedral(5), make_alexander(5, 7))
    assert hash(A5) == hash(make_alexander(5, -3))
    assert A5 != make_alexander(5, 3)
    assert make_alexander(5, 4) == R5 and hash(make_alexander(5, 4)) == hash(R5)
    assert "op" not in vars(R5) and "inv_op" not in vars(A5)
    table = from_table(A5.op)
    assert table == from_table(A5.op) != from_table(R5.op)
    assert R5.inv_op is R5.op and A5.inv_op == make_alexander(5, 3).op
    for X in (R5, A5, table, make_alexander(7, 3)):
        for clone in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert clone == X and (clone.op, clone.inv_op) == (X.op, X.inv_op)


def test_r_n_is_alexander_n_minus_1_as_a_value():
    for n in range(1, 31):
        R, A = make_dihedral(n), make_alexander(n, n - 1)
        assert R == A and hash(R) == hash(A) and R.formula_t == A.formula_t == -1


def test_repr_names_order_and_t_or_table():
    assert repr(make_dihedral(5)) == "FiniteQuandle(order=5, t=-1)"
    assert repr(make_alexander(5, 4)) == "FiniteQuandle(order=5, t=-1)"
    assert repr(make_alexander(9, 11)) == "FiniteQuandle(order=9, t=2)"
    assert repr(from_table(make_dihedral(3).op)) == "FiniteQuandle(order=3, table)"


def test_axioms_exhaustive_all_constructions():
    for n in range(1, 13):
        qs = [make_dihedral(n)]
        qs += [make_alexander(n, t) for t in range(1, n + 1) if math.gcd(t, n) == 1]
        for q in qs:
            assert axioms_hold(q.op)
            # from_table checks the axioms and builds the inverse table by
            # inverting each column, independently of the closed forms
            checked = from_table(q.op)
            assert (checked.op, checked.inv_op) == (q.op, q.inv_op)


def test_axioms_hold_at_order_thirty():
    # constructors build their tables from formulas and do not check
    # them; check the upper bound of the exhaustive-check contract here
    assert axioms_hold(make_dihedral(30).op)
    assert axioms_hold(make_alexander(30, 7).op)


def test_inverse_table():
    for q in (make_dihedral(6), make_alexander(7, 3)):
        for x in range(q.order):
            for y in range(q.order):
                assert q.unmul(q.mul(x, y), y) == x


def test_from_table_valid_and_witnesses():
    assert from_table(make_dihedral(3).op).order == 3
    bad = [list(row) for row in make_dihedral(3).op]
    bad[0][0] = 1
    with pytest.raises(QuandleAxiomError) as exc:
        from_table(bad)
    assert exc.value.witness == ("Q1", 0)
    # trivial quandle: x*y = x
    assert from_table([[0, 0], [1, 1]]).order == 2


def test_from_table_q2_q3_witnesses():
    # column 0 not a permutation
    with pytest.raises(QuandleAxiomError) as exc:
        from_table([[0, 0, 0], [0, 1, 1], [2, 2, 2]])
    assert exc.value.witness[0] == "Q2"
    # idempotent latin-ish square failing distributivity: conjugation
    # table of S_3 restricted badly; build any Q1+Q2 table and break Q3
    op = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]  # this is R_3, valid
    assert axioms_hold(op)
    broken = [[0, 2, 2], [2, 1, 0], [1, 0, 1]]
    with pytest.raises(QuandleAxiomError):
        from_table(broken)


@pytest.mark.parametrize("n,expected", [(3, 9), (5, 25)])
def test_endo_counts_vs_brute_force(n, expected):
    op = make_dihedral(n).op
    brute = brute_force_homs(op, op)
    homs = enumerate_homs(make_dihedral(n), make_dihedral(n))
    assert len(homs) == expected
    assert [f.image for f in homs] == sorted(brute)


def test_hom_r2_r3_constants_only():
    R2, R3 = make_dihedral(2), make_dihedral(3)
    brute = brute_force_homs(R2.op, R3.op)
    homs = enumerate_homs(R2, R3)
    assert [f.image for f in homs] == sorted(brute)
    assert len(homs) == 3
    assert all(len(set(f.image)) == 1 for f in homs)


@functools.cache
def searched_end(n):
    """End(R_n) as the backtracking search finds it over R_n's table
    without the dihedral tag, which takes the closed form."""
    plain = from_table(make_dihedral(n).op)
    return [f.image for f in enumerate_homs(plain, plain)]


def test_affine_path_matches_backtracking():
    # the closed form for End(R_n) gives the search's maps, in its order
    for n in range(1, 28):
        Rn = make_dihedral(n)
        homs = enumerate_homs(Rn, Rn)
        assert [f.image for f in homs] == searched_end(n), n
        assert (homs.source, homs.target) == (Rn, Rn)


def test_affine_candidates_cross_validated_8_to_12():
    for n in range(8, 13):
        Rn = make_dihedral(n)
        homs = enumerate_homs(Rn, Rn)
        assert len(homs) == n * n
        for f in homs:
            a, b = (f.image[1] - f.image[0]) % n, f.image[0]
            assert f.image == tuple((a * x + b) % n for x in range(n))
            assert f.is_bijection() == (math.gcd(a, n) == 1)
            assert is_homomorphism(f, Rn, Rn)


def test_affine_form_unique_for_all_endos():
    # End(R_n) is exactly the n^2 affine maps x -> a*x + b, one per (a, b),
    # as the search finds it
    for n in range(1, 28):
        affine = sorted({tuple((a * x + b) % n for x in range(n))
                         for a in range(n) for b in range(n)})
        assert len(affine) == n * n
        assert searched_end(n) == affine, n


def test_affine_endos_are_all_of_end_in_pair_order():
    for n in (1, 2, 5, 9, 12):
        Rn = make_dihedral(n)
        pairs = [(a, b) for a in range(-n, n) for b in range(n)]
        endos = affine_endos(Rn, iter(pairs))
        assert [f.image for f in endos] == [
            tuple((a * x + b) % n for x in range(n)) for a, b in pairs]
        assert set(endos) == set(enumerate_homs(Rn, Rn))
        assert (endos.source, endos.target) == (Rn, Rn)
    a, b = 10**400 + 3, -(10**400)
    assert affine_endos(make_dihedral(7), [(a, b)])[0].image == tuple(
        (a * x + b) % 7 for x in range(7))


def test_affine_endos_need_a_formula_quandle():
    # x -> a*x + b is an endomorphism of x*y = t*x + (1-t)*y for every t;
    # a table quandle has no formula to read a and b against.
    with pytest.raises(InvalidParameterError):
        affine_endos(from_table(make_dihedral(5).op), [(1, 0)])
    A5 = make_alexander(5, 2)
    pairs = [(a, b) for a in range(-5, 5) for b in range(5)]
    endos = affine_endos(A5, pairs)
    assert [f.image for f in endos] == [
        tuple((a * x + b) % 5 for x in range(5)) for a, b in pairs]
    # End(alexander:5:2) is exactly its 25 affine maps.
    assert set(endos) == set(enumerate_homs(A5, A5))
    assert (endos.source, endos.target) == (A5, A5)


def test_proved_sets_are_tuples_that_name_their_quandles():
    R5, A5 = make_dihedral(5), make_alexander(5, 2)
    sets = [enumerate_homs(R5, A5), enumerate_autos(R5), affine_endos(R5, [(1, 2), (2, 0)])]
    for S, source, target in zip(sets, (R5, R5, R5), (A5, R5, R5)):
        assert type(S) is Homs and (S.source, S.target) == (source, target)
        assert type(S[1:]) is tuple and S == tuple(S)
        for clone in (copy.copy(S), copy.deepcopy(S), pickle.loads(pickle.dumps(S))):
            assert type(clone) is Homs and clone == S
            assert (clone.source, clone.target) == (source, target)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_endos_are_autos_plus_constants(p):
    Rp = make_dihedral(p)
    homs = enumerate_homs(Rp, Rp)
    assert len(homs) == p * p
    autos = [f for f in homs if f.is_bijection()]
    constants = [f for f in homs if len(set(f.image)) == 1]
    assert len(autos) + len(constants) == len(homs)
    assert len(constants) == p
    for f in homs:
        a = (f.image[1] - f.image[0]) % p
        assert f.is_bijection() == (math.gcd(a, p) == 1)


def test_auto_counts():
    assert len(enumerate_autos(make_dihedral(5))) == 20
    assert len(enumerate_autos(make_dihedral(3))) == 6
    for X in (make_dihedral(4), make_alexander(5, 2), from_table([[0, 0], [1, 1]])):
        assert identity_map(X).image in [f.image for f in enumerate_autos(X)]


def test_enumeration_order_is_lexicographic():
    for X in (make_dihedral(5), from_table(make_dihedral(4).op)):
        images = [f.image for f in enumerate_homs(X, X)]
        assert images == sorted(images)


def test_compose():
    R5 = make_dihedral(5)
    f = QuandleMap(5, 5, tuple((2 * x + 1) % 5 for x in range(5)))
    g = QuandleMap(5, 5, tuple((3 * x) % 5 for x in range(5)))
    fg = compose(f, g)
    assert fg.image == tuple((x + 1) % 5 for x in range(5))
    ident = identity_map(R5)
    assert compose(ident, g).image == g.image
    assert compose(g, ident).image == g.image
    const = constant_map(R5, 2)
    assert compose(const, f).image == const.image
    with pytest.raises(InvalidParameterError):
        compose(QuandleMap(3, 3, (0, 1, 2)), QuandleMap(5, 5, (0,) * 5))


def test_maps_with_equal_images_are_equal_wherever_built():
    R5 = make_dihedral(5)
    end = enumerate_homs(R5, R5)
    assert QuandleMap(5, 5, tuple(range(5))) == identity_map(R5)
    assert QuandleMap(5, 5, (2,) * 5) == constant_map(R5, 2)
    assert QuandleMap(5, 5, tuple((2 * x + 1) % 5 for x in range(5))) in end
    assert enumerate_homs(from_table(R5.op), from_table(R5.op)) == end


def test_compose_associative_and_identity_neutral_over_end_r5():
    R5 = make_dihedral(5)
    end = enumerate_homs(R5, R5)
    ident = identity_map(R5)
    for f in end:
        assert compose(f, ident).image == f.image
        assert compose(ident, f).image == f.image
    for f in end:
        for g in end:
            fg = compose(f, g)
            for h in end[::6]:
                assert compose(fg, h).image == compose(f, compose(g, h)).image


def test_composition_closed_and_hom():
    R5 = make_dihedral(5)
    end = {f.image for f in enumerate_homs(R5, R5)}
    maps = [QuandleMap(5, 5, img) for img in end]
    for f in maps[:8]:
        for g in maps[:8]:
            assert compose(f, g).image in end


def test_table_text_roundtrip():
    q = make_alexander(5, 2)
    assert parse_table_text(table_text(q)).op == q.op
    with pytest.raises(InvalidParameterError):
        parse_table_text("")
    with pytest.raises(InvalidParameterError):
        parse_table_text("2\n0 0\n1")


def tetrahedral():
    """The Alexander quandle on GF(4) with t = w, x*y = w*x + w^2*y, a
    quandle that is neither dihedral nor an Alexander quandle on Z_n."""
    # GF(4) = {0, 1, w, w^2} as 0..3, with addition XOR on bits (w = 2).
    logs, exps = {1: 0, 2: 1, 3: 2}, [1, 2, 3]

    def mul(a, b):
        return 0 if a == 0 or b == 0 else exps[(logs[a] + logs[b]) % 3]

    return from_table([[mul(2, x) ^ mul(3, y) for y in range(4)] for x in range(4)])


def prefix_pruned_homs(Xop, Yop):
    """Oracle for orders where |Y|^|X| is too many maps to try one by one:
    extend image vectors element by element, dropping a prefix as soon as
    a relation among its elements fails."""
    n, m = len(Xop), len(Yop)
    found = []

    def extend(img):
        k = len(img)
        for x in range(k):
            for y in range(k):
                t = Xop[x][y]
                if t < k and img[t] != Yop[img[x]][img[y]]:
                    return
        if k == n:
            found.append(tuple(img))
            return
        for v in range(m):
            extend(img + [v])

    extend([])
    return found


Q3_ROWS = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]

HOM_ORACLE_CASES = [
    ("R3-R9", make_dihedral(3), make_dihedral(9)),
    ("R4-R3", make_dihedral(4), make_dihedral(3)),
    ("R4-R2", make_dihedral(4), make_dihedral(2)),
    ("R3-R6", make_dihedral(3), make_dihedral(6)),
    ("R5-plain", from_table(make_dihedral(5).op), from_table(make_dihedral(5).op)),
    ("A5_2-A5_2", make_alexander(5, 2), make_alexander(5, 2)),
    ("A5_3-R5", make_alexander(5, 3), make_dihedral(5)),
    ("A4_3-A4_3", make_alexander(4, 3), make_alexander(4, 3)),
    ("T3-R5", from_table([[x] * 3 for x in range(3)]), make_dihedral(5)),
    ("R5-T3", make_dihedral(5), from_table([[x] * 3 for x in range(3)])),
    ("Tet-Tet", tetrahedral(), tetrahedral()),
    ("R5-Tet", make_dihedral(5), tetrahedral()),
    ("Tet-R3", tetrahedral(), make_dihedral(3)),
    ("R1-R4", make_dihedral(1), make_dihedral(4)),
    # In Q3, 2 swaps 0 and 1 while 0 and 1 act trivially.  The search
    # needs both orientations of each pair and must compare forced
    # images: End(Q3) has 7 maps, but 15 when only x*y with x after y
    # in the trail is checked, and 27 when forced images are never
    # compared.  T2 -> Q3 gives 5, 7 and 9 maps in the same three cases.
    ("Q3-Q3", from_table(Q3_ROWS), from_table(Q3_ROWS)),
    ("T2-Q3", from_table([[0, 0], [1, 1]]), from_table(Q3_ROWS)),
]


@pytest.mark.parametrize("X,Y", [c[1:] for c in HOM_ORACLE_CASES],
                         ids=[c[0] for c in HOM_ORACLE_CASES])
def test_closure_search_matches_brute_force(X, Y):
    homs = enumerate_homs(X, Y)
    assert [f.image for f in homs] == brute_force_homs(X.op, Y.op)
    assert all(is_homomorphism(f, X, Y) for f in homs)


@pytest.mark.parametrize("X,Y", [
    (make_alexander(9, 2), make_dihedral(9)),
    (make_alexander(9, 2), make_alexander(9, 2)),
    (make_dihedral(9), make_alexander(9, 4)),
    (from_table(make_dihedral(8).op), make_dihedral(8)),
], ids=["A9_2-R9", "A9_2-A9_2", "R9-A9_4", "R8plain-R8"])
def test_closure_search_matches_pruned_oracle(X, Y):
    homs = enumerate_homs(X, Y)
    assert [f.image for f in homs] == prefix_pruned_homs(X.op, Y.op)
    assert all(is_homomorphism(f, X, Y) for f in homs)


def test_alexander_27_2_endos_are_the_affine_maps():
    # x -> a*x + b commutes with x*y = t*x + (1-t)*y for every a and b,
    # and the search finds no other endomorphism.
    A = make_alexander(27, 2)
    homs = enumerate_homs(A, A)
    assert len(homs) == 729
    affine = {tuple((a * x + b) % 27 for x in range(27)) for a in range(27) for b in range(27)}
    assert {f.image for f in homs} == affine


def test_is_homomorphism_rejects_wrong_shapes():
    R3 = make_dihedral(3)
    assert is_homomorphism(identity_map(R3), R3, R3)
    assert not is_homomorphism(QuandleMap(3, 3, (0, 1)), R3, R3)
    assert not is_homomorphism(QuandleMap(3, 3, (0, 1, 2, 0)), R3, R3)
    assert not is_homomorphism(identity_map(R3), R3, make_dihedral(5))
    assert not is_homomorphism(QuandleMap(3, 3, (0, 0, 1)), R3, R3)
    assert not is_homomorphism(QuandleMap(3, 3, (0, 1, 3)), R3, R3)
    assert not is_homomorphism(QuandleMap(3, 3, (0, -2, -1)), R3, R3)


REAL_BACKTRACK = quiverknot.quandle._backtrack


def spy_backtrack(monkeypatch, module, full: bool) -> list:
    """Patch the ``_backtrack`` that ``module`` calls: record each call's
    ``translated`` argument and, with ``full``, run the full search
    whatever the caller promised."""
    flags = []

    def patched(n_vars, n_values, propagate, translated=False):
        flags.append(translated)
        return REAL_BACKTRACK(n_vars, n_values, propagate, translated and not full)

    monkeypatch.setattr(module, "_backtrack", patched)
    return flags


def swapped_r5():
    """R_5 relabelled by swapping 0 and 1: x -> x+1 is no automorphism."""
    sigma = (1, 0, 2, 3, 4)
    rows = [[0] * 5 for _ in range(5)]
    for x, row in enumerate(make_dihedral(5).op):
        for y, z in enumerate(row):
            rows[sigma[x]][sigma[y]] = sigma[z]
    return from_table(rows)


ALEXANDER_UNITS = [(5, 2), (5, 3), (7, 3), (9, 2), (9, 4), (10, 3), (12, 5), (27, 2)]


def test_translation_is_an_automorphism_of_the_formula_quandles():
    # (x+1)*(y+1) = x*y + 1 on every table the dihedral and Alexander
    # formulas build, so the flag they report without a check is true.
    quandles = [make_dihedral(n) for n in range(1, 28)]
    quandles += [make_alexander(n, t) for n, t in ALEXANDER_UNITS]
    for X in quandles:
        n = X.order
        assert X.translation_is_auto, X
        for x, y in product(range(n), repeat=2):
            assert X.op[(x + 1) % n][(y + 1) % n] == (X.op[x][y] + 1) % n, (X, x, y)


def test_translation_flag_of_tables():
    assert not swapped_r5().translation_is_auto
    assert not from_table(Q3_ROWS).translation_is_auto
    assert from_table([[x] * 3 for x in range(3)]).translation_is_auto
    assert from_table([[0]]).translation_is_auto
    assert from_table(make_dihedral(6).op).translation_is_auto
    assert from_table(make_alexander(9, 2).op).translation_is_auto


def test_table_translation_check_runs_once_per_object(monkeypatch):
    checked = []

    def counted(f, X, Y):
        checked.append(X)
        return is_homomorphism(f, X, Y)

    monkeypatch.setattr(quiverknot.quandle, "is_homomorphism", counted)
    R5, A5, X = make_dihedral(5), make_alexander(5, 2), swapped_r5()
    for _ in range(3):
        enumerate_homs(X, X)
        enumerate_homs(R5, X)
        enumerate_homs(R5, A5)
    assert checked == [X]
    twin = swapped_r5()
    enumerate_autos(twin)
    enumerate_homs(R5, twin)
    assert checked == [X, twin]


def test_a_table_without_the_translation_takes_the_full_search(monkeypatch):
    X, R3 = swapped_r5(), make_dihedral(3)
    flags = spy_backtrack(monkeypatch, quiverknot.quandle, full=False)
    for source, target in ((X, X), (R3, X), (X, R3)):
        homs = enumerate_homs(source, target)
        assert [f.image for f in homs] == brute_force_homs(source.op, target.op)
    assert flags == [False, False, True]


# End(R_n) of a dihedral-tagged quandle is read off a closed form, with no
# search, so its search runs over the untagged tables.
ORBIT_HOM_CASES = [(T, T) for T in (from_table(make_dihedral(n).op) for n in range(1, 28))] + [
    (make_alexander(9, 2), make_alexander(9, 2)),
    (make_alexander(27, 2), make_alexander(27, 2)),
    (make_dihedral(2), make_dihedral(3)),
    (make_dihedral(3), make_dihedral(2)),
    (make_dihedral(3), make_dihedral(9)),
    (make_dihedral(9), make_dihedral(3)),
    (make_dihedral(4), make_dihedral(6)),
    (make_dihedral(6), make_dihedral(4)),
    (make_dihedral(1), make_dihedral(5)),
    (make_dihedral(5), make_alexander(5, 2)),
    (make_alexander(9, 2), make_dihedral(3)),
    (make_dihedral(9), make_alexander(9, 4)),
    (from_table(Q3_ROWS), make_dihedral(4)),
    (tetrahedral(), make_dihedral(5)),
    (from_table([[x] * 3 for x in range(3)]), make_dihedral(6)),
]


def test_orbit_search_matches_full_search(monkeypatch):
    # Same maps in the same order, with x -> x+1 an automorphism of every target.
    flags = spy_backtrack(monkeypatch, quiverknot.quandle, full=False)
    orbit = [enumerate_homs(X, Y) for X, Y in ORBIT_HOM_CASES]
    assert flags == [True] * len(ORBIT_HOM_CASES)
    spy_backtrack(monkeypatch, quiverknot.quandle, full=True)
    for (X, Y), homs in zip(ORBIT_HOM_CASES, orbit):
        full = enumerate_homs(X, Y)
        assert type(homs) is Homs and (homs.source, homs.target) == (X, Y)
        assert homs == full, (X, Y)
    assert [len(h) for h in orbit[:27]] == [n * n for n in range(1, 28)]
