"""Catalog loading/validation and the command-line frontend."""

import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout

import pytest

import quiverknot
import quiverknot.catalog
import quiverknot.cli
import quiverknot.quandle
import quiverknot.quiver
import quiverknot.snf
from quiverknot.catalog import CatalogError, load_catalog
from quiverknot.cli import main, parse_endo_spec, parse_quandle_spec
from quiverknot.cocycle import mochizuki
from quiverknot.quandle import enumerate_homs, make_dihedral, table_text
from quiverknot.quiver import (
    coloring_quiver,
    quiver_to_json,
    shadow_cocycle_quiver,
    to_dot,
)
from pd_generators import trefoil_sum_pd
from test_quiver import count_endo_checks, module_verdict


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_default_catalog_loads(catalog):
    assert len(catalog.entries) == 12
    assert set(catalog.names()) >= {"unknot", "3_1", "3_1_kinked", "4_1", "5_1",
                                    "5_2", "6_1", "6_2", "6_3", "7_4", "8_10", "8_18"}
    for name in catalog.names():
        d = catalog.diagram(name)
        if d.n_crossings:
            assert d.n_regions == d.n_crossings + 2


def test_catalog_fingerprints(catalog):
    assert catalog.entries["8_18"].homology == (3, 15)
    assert catalog.entries["8_10"].homology == (27,)
    assert catalog.entries["unknot"].determinant == 1


def test_user_catalog_merge(tmp_path, catalog):
    # override 4_1 with the trefoil's diagram (and its fingerprint)
    path = tmp_path / "user.json"
    path.write_text(json.dumps({
        "4_1": {"pd": catalog.entries["3_1"].pd, "determinant": 3},
        "extra": {"pd": "X(1,2,2,1)", "determinant": 1, "homology": []},
    }))
    merged = load_catalog(str(path))
    assert merged.diagram("4_1").n_crossings == 3
    assert merged.diagram("extra").n_crossings == 1
    assert len(merged.entries) == 13


def test_catalog_errors_name_the_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"wonky": {"pd": "X(1,2,3)", "determinant": 1}}))
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(path))
    assert "wonky" in str(exc.value)

    path.write_text(json.dumps({"liar": {"pd": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
                                         "determinant": 7}}))
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(path))
    assert "liar" in str(exc.value)

    path.write_text(json.dumps({"schema": {"nopd": 1}}))
    with pytest.raises(CatalogError):
        load_catalog(str(path))

    path.write_text("not json")
    with pytest.raises(CatalogError):
        load_catalog(str(path))


def test_catalog_fingerprints_reject_booleans(tmp_path):
    # JSON true loads as a bool, and bool is a subclass of int.
    path = tmp_path / "bools.json"
    for raw in ({"pd": "X(1,2,2,1)", "determinant": True},
                {"pd": "X(1,2,2,1)", "homology": [True]},
                {"pd": "X(1,2,2,1)", "determinant": 1, "r_infinity": [0, True]}):
        path.write_text(json.dumps({"truthy": raw}))
        with pytest.raises(CatalogError) as exc:
            load_catalog(str(path))
        assert "truthy" in str(exc.value)


def test_catalog_env_var(tmp_path, monkeypatch, catalog):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"envknot": {"pd": catalog.entries["3_1"].pd,
                                            "determinant": 3}}))
    monkeypatch.setenv("QUIVERKNOT_CATALOG", str(path))
    merged = load_catalog()
    assert "envknot" in merged


def test_user_entries_stay_in_their_catalog(tmp_path, monkeypatch, catalog):
    # The built-in entries are shared between loads; a user file's
    # entries, overrides included, must not reach a later load.
    path = tmp_path / "env.json"
    path.write_text(json.dumps({
        "4_1": {"pd": catalog.entries["3_1"].pd, "determinant": 3},
        "envknot": {"pd": catalog.entries["3_1"].pd, "determinant": 3},
    }))
    monkeypatch.setenv("QUIVERKNOT_CATALOG", str(path))
    merged = load_catalog()
    assert "envknot" in merged and merged.entries["4_1"].determinant == 3
    monkeypatch.delenv("QUIVERKNOT_CATALOG")
    plain = load_catalog()
    assert "envknot" not in plain and len(plain.entries) == 12
    assert plain.entries["4_1"] == catalog.entries["4_1"]
    assert plain.diagram("4_1").n_crossings == 4


@pytest.fixture
def unbuilt_builtins():
    """No built-in diagram built yet, as in a fresh process: built-ins
    are built once per process, so a test that counts builds or cached
    plans within a call starts from an empty cache."""
    quiverknot.catalog._builtin_diagram.cache_clear()


def test_builtin_diagrams_are_built_once_per_process(
        capsys, monkeypatch, tmp_path, unbuilt_builtins):
    calls = []
    real = quiverknot.catalog._build_entry
    monkeypatch.setattr(quiverknot.catalog, "_build_entry",
                        lambda entry: calls.append(entry.name) or real(entry))
    monkeypatch.delenv("QUIVERKNOT_CATALOG", raising=False)
    for _ in range(3):
        blob = run_json(capsys, "colorings", "--knot", "8_10", "--quandle", "dihedral:3")
        assert blob["outputs"]["count"] == 9
    assert calls == ["8_10"]
    # A user entry is input from outside: built and checked at every load,
    # and never taken for the built-in of the same name.
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"8_10": {"pd": load_catalog().entries["3_1"].pd,
                                         "determinant": 3}}))
    monkeypatch.setenv("QUIVERKNOT_CATALOG", str(path))
    for _ in range(2):
        blob = run_json(capsys, "colorings", "--knot", "8_10", "--quandle", "dihedral:9")
        assert blob["outputs"]["count"] == 27
    assert calls == ["8_10"] * 3


def test_one_elimination_per_diagram(capsys, monkeypatch, unbuilt_builtins):
    # The fingerprint, every R_n count and every End(R_n) compare of a
    # diagram read its one cached coloring_reduction.  Its unit pivots are
    # eliminated sparsely, so the dense elimination sees only the core
    # left: 3 of 8_18's 8 rows.
    calls = []
    real = quiverknot.snf._eliminate
    monkeypatch.setattr(quiverknot.snf, "_eliminate",
                        lambda *a: calls.append(len(a[0])) or real(*a))
    monkeypatch.delenv("QUIVERKNOT_CATALOG", raising=False)
    load_catalog().diagram("8_18")
    blob = run_json(capsys, "colorings", "--knot", "8_18", "--quandle", "dihedral:15", "--count")
    assert blob["outputs"]["count"] == 675
    blob = run_json(capsys, "compare", "8_18", "8_18", "--quandle", "dihedral:5", "--endos", "all")
    assert blob["outputs"]["isomorphic"] is True
    assert calls == [3]
    # PD text named twice builds one Diagram, reduced once, and one quiver.
    calls.clear()
    built = []
    real_quiver = quiverknot.cli.coloring_quiver
    monkeypatch.setattr(quiverknot.cli, "coloring_quiver",
                        lambda *a: built.append(a[0]) or real_quiver(*a))
    pd = load_catalog().entries["8_18"].pd
    blob = run_json(capsys, "compare", pd, pd, "--quandle", "dihedral:5", "--endos", "all")
    assert blob["outputs"]["witness"] == list(range(25))
    assert calls == [3]
    assert len(built) == 1
    # A name against its own PD text is two diagrams, so two quivers, on
    # equal vertex lists: the witness is the identity.
    calls.clear()
    built.clear()
    blob = run_json(capsys, "compare", "8_18", pd, "--quandle", "dihedral:5", "--endos", "all")
    assert blob["outputs"]["witness"] == list(range(25))
    assert calls == [3]
    assert len(built) == 2 and built[0] is not built[1]


def test_builtin_entries_are_read_once(monkeypatch):
    load_catalog()
    calls = []
    real = quiverknot.catalog._entry_from_dict

    def spy(name, raw):
        calls.append(name)
        return real(name, raw)

    monkeypatch.setattr(quiverknot.catalog, "_entry_from_dict", spy)
    assert len(load_catalog().entries) == 12
    assert calls == []


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TIMING = re.compile(r', "timing": \{"seconds": [0-9.e-]+\}')


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_cli_colorings_counts(capsys):
    blob = run_json(capsys, "colorings", "--knot", "4_1", "--quandle", "dihedral:5",
                    "--count")
    assert blob["outputs"] == {"count": 25, "method": "snf"}
    blob = run_json(capsys, "colorings", "--knot", "8_10", "--quandle", "dihedral:9",
                    "--count")
    assert blob["outputs"]["count"] == 81
    blob = run_json(capsys, "colorings", "--knot", "unknot", "--quandle", "dihedral:7",
                    "--count")
    assert blob["outputs"]["count"] == 7


def test_cli_colorings_list_and_pd_input(capsys):
    blob = run_json(capsys, "colorings", "--knot", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
                    "--quandle", "dihedral:3", "--list")
    assert blob["outputs"]["count"] == 9
    assert len(blob["outputs"]["colorings"]) == 9
    assert blob["outputs"]["method"] == "enumeration"


def test_cli_colorings_table_quandle(capsys, tmp_path):
    path = tmp_path / "r5.txt"
    path.write_text(table_text(make_dihedral(5)))
    blob = run_json(capsys, "colorings", "--knot", "4_1", "--quandle",
                    f"table:{path}")
    assert blob["outputs"]["count"] == 25
    assert blob["outputs"]["method"] == "enumeration"


def test_cli_table_path_may_contain_colons(capsys, tmp_path):
    path = tmp_path / "a:b.txt"
    path.write_text(table_text(make_dihedral(5)))
    blob = run_json(capsys, "colorings", "--knot", "4_1", "--quandle",
                    f"table:{path}")
    assert blob["outputs"]["count"] == 25


def test_cli_quiver_summary(capsys):
    blob = run_json(capsys, "quiver", "--knot", "4_1", "--quandle", "dihedral:5",
                    "--endos", "all")
    assert blob["outputs"]["vertices"] == 25
    assert blob["outputs"]["edges"] == 625
    assert len(blob["outputs"]["quiver"]["edges"]) == 625


def test_cli_quiver_endo_specs(capsys):
    blob = run_json(capsys, "quiver", "--knot", "4_1", "--quandle", "dihedral:5",
                    "--endos", "1,2")
    assert blob["outputs"]["edges"] == 25
    # brute-force hom check of f(x) = 2x over the order-4 dihedral table
    op = make_dihedral(4).op
    img = tuple((2 * x) % 4 for x in range(4))
    assert all(img[op[x][y]] == op[img[x]][img[y]] for x in range(4) for y in range(4))
    blob = run_json(capsys, "quiver", "--knot", "4_1", "--quandle", "dihedral:4",
                    "--endos", "2,0")
    assert blob["outputs"]["vertices"] > 0
    blob = run_json(capsys, "quiver", "--knot", "3_1", "--quandle", "dihedral:3",
                    "--endos", "auto")
    assert blob["outputs"]["edges"] == blob["outputs"]["vertices"] * 6


def test_cli_quiver_dot(capsys, tmp_path):
    code, out, err = run_cli(capsys, "quiver", "--knot", "unknot", "--quandle",
                             "dihedral:3", "--endos", "1,0", "--out", "dot")
    assert code == 0
    assert out.startswith("digraph {")
    assert out.count("->") == 3
    path = tmp_path / "q.dot"
    blob = run_json(capsys, "quiver", "--knot", "unknot", "--quandle", "dihedral:3",
                    "--endos", "1,0", "--dot", str(path))
    assert path.read_text().startswith("digraph {")
    assert blob["outputs"]["vertices"] == 3


STREAMED_RUNS = [
    ("quiver", knot, spec, endos)
    for spec, endo_specs in (("dihedral:3", ("all", "auto", "1,2;2,0")),
                             ("dihedral:5", ("all", "auto", "1,2;2,0")),
                             ("alexander:9:2", ("all", "auto")))
    for endos in endo_specs
    for knot in ("unknot", "4_1", "8_18")
] + [("shadow", "4_1", "dihedral:5", "all"), ("shadow", "8_18", "dihedral:3", "1,2")]


def _library_quiver(catalog, cmd, knot, spec, endos):
    """The quiver the CLI builds for these arguments, at the default base 0."""
    X = parse_quandle_spec(spec)
    S = parse_endo_spec(endos, X)
    if cmd == "shadow":
        return shadow_cocycle_quiver(catalog.diagram(knot), X, S, 0, mochizuki(X.order))
    return coloring_quiver(catalog.diagram(knot), X, S)


def test_cli_streamed_json_equals_json_dumps(capsys, catalog):
    for cmd, knot, spec, endos in STREAMED_RUNS:
        code, out, err = run_cli(capsys, cmd, "--knot", knot, "--quandle", spec,
                                 "--endos", endos)
        assert code == 0, err
        blob = json.loads(out)
        timing = blob.pop("timing")
        blob["outputs"]["quiver"] = quiver_to_json(
            _library_quiver(catalog, cmd, knot, spec, endos))
        assert out == json.dumps({**blob, "timing": timing}) + "\n", (cmd, knot, spec, endos)


def test_cli_dot_stdout_equals_dot_file(capsys, tmp_path, catalog):
    path = tmp_path / "q.dot"
    for cmd, knot, spec, endos in STREAMED_RUNS[::3]:
        q = _library_quiver(catalog, cmd, knot, spec, endos)
        for collapse in ([], ["--collapse-parallel"]):
            argv = [cmd, "--knot", knot, "--quandle", spec, "--endos", endos, *collapse]
            code, out, _ = run_cli(capsys, *argv, "--out", "dot")
            assert code == 0
            assert out == to_dot(q, collapse_parallel=bool(collapse)) + "\n"
            run_json(capsys, *argv, "--dot", str(path))
            assert path.read_text(encoding="utf-8") == out


def test_cli_quiver_output_holds_no_per_edge_objects():
    # 8_10 over R_27: 729 vertices and 531,441 edges.  Building the whole
    # edge list, line list or output string peaked near 70 MB; the quiver
    # itself holds about 4.5 MB.
    class Sink:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    argv = ["quiver", "--knot", "8_10", "--quandle", "dihedral:27", "--endos", "all"]
    with redirect_stdout(Sink()):
        assert main(argv) == 0  # warm-up: the quandle and catalog are not counted
        for out in ("json", "dot"):
            tracemalloc.start()
            try:
                assert main([*argv, "--out", out]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 12_000_000, (out, peak)


def test_cli_unwritable_dot_file_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.dot")
    for cmd in ("quiver", "shadow"):
        code, out, err = run_cli(capsys, cmd, "--knot", "4_1", "--quandle",
                                 "dihedral:5", "--dot", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write DOT file") and path in err


def test_cli_shadow_reference_polynomials(capsys):
    blob = run_json(capsys, "shadow", "--knot", "4_1", "--quandle", "dihedral:5",
                    "--cocycle", "mochizuki", "--base", "0", "--endos", "1,2")
    assert blob["outputs"]["polynomial"] == "5 + 10st + 10s^4t^4"
    assert blob["outputs"]["weight_histogram"] == [[0, 5], [1, 10], [4, 10]]
    blob = run_json(capsys, "shadow", "--knot", "5_1", "--quandle", "dihedral:5",
                    "--cocycle", "mochizuki", "--base", "0", "--endos", "1,2")
    assert blob["outputs"]["polynomial"] == "5 + 10s^2t^2 + 10s^3t^3"


def test_cli_shadow_base_independence(capsys):
    polys = set()
    for base in range(5):
        blob = run_json(capsys, "shadow", "--knot", "4_1", "--quandle", "dihedral:5",
                        "--cocycle", "mochizuki", "--base", str(base),
                        "--endos", "1,2")
        polys.add(blob["outputs"]["polynomial"])
    assert polys == {"5 + 10st + 10s^4t^4"}


def test_cli_compare(capsys):
    blob = run_json(capsys, "compare", "8_10", "8_18", "--quandle", "dihedral:9",
                    "--endos", "all")
    assert blob["outputs"]["isomorphic"] is False
    assert blob["outputs"]["witness"] is None
    blob = run_json(capsys, "compare", "4_1", "5_1", "--quandle", "dihedral:5",
                    "--endos", "all")
    assert blob["outputs"]["isomorphic"] is True
    assert sorted(blob["outputs"]["witness"]) == list(range(25))
    blob = run_json(capsys, "compare", "4_1", "5_1", "--quandle", "dihedral:5",
                    "--endos", "all", "--weighted", "--cocycle", "mochizuki",
                    "--base", "0")
    assert blob["outputs"]["isomorphic"] is False
    assert blob["outputs"]["multisets"]["equal"] is False


def test_cli_r_n_is_alexander_n_minus_1(capsys, catalog):
    # R_n is the Alexander quandle at t = -1, and no path reads the name,
    # only (n, t): the count, the listing, the quiver as JSON and DOT over
    # End and over an a,b list, compare with --endos all and auto,
    # witnesses included, and over R_p the shadow quiver and a weighted
    # compare print the same bytes over dihedral:n and alexander:n:n-1,
    # apart from the echoed quandle and the timing.
    names = catalog.names()
    pairs = [(a, a) for a in names] + list(zip(names, names[1:]))
    for n in (3, 5, 9, 27):
        specs = (f"dihedral:{n}", f"alexander:{n}:{n - 1}")
        runs = [["colorings", "--knot", k, mode] for k in names for mode in ("--list", "--count")]
        runs += [["quiver", "--knot", k, *out] for k in names
                 for out in ([], ["--out", "dot"], ["--endos", "1,0;2,1;0,3"])]
        runs += [["compare", a, b, "--endos", endos] for a, b in pairs
                 for endos in ("all", "auto")]
        if n in (3, 5):
            runs += [["shadow", "--knot", k, "--cocycle", "mochizuki"] for k in names]
            runs += [["compare", a, b, "--weighted"] for a, b in pairs]
        for argv in runs:
            outs = []
            for spec in specs:
                code, out, err = run_cli(capsys, *argv, "--quandle", spec)
                assert code == 0, err
                outs.append(TIMING.sub("", out).replace(f'"quandle": "{spec}"', '"quandle": X'))
            assert outs[0] == outs[1], (n, argv)


def test_cli_compare_decides_only_all_of_end_r_n_from_the_module(capsys, monkeypatch, tmp_path):
    # An unweighted compare over the n^2 maps x -> a*x + b of a formula
    # quandle asks end_modules first; on a self-compare the module types
    # agree, so compare builds the quivers and its one quiver_isomorphic
    # call, given the module witness as over, proves it with one
    # _keeps_rows call, with no refinement.  Every other compare makes one
    # quiver_isomorphic call, which refines and searches; a weighted one
    # does not ask end_modules.
    calls = []
    for module, name in ((quiverknot.cli, "end_modules"),
                         (quiverknot.cli, "quiver_isomorphic"),
                         (quiverknot.quiver, "_keeps_rows"),
                         (quiverknot.quiver, "_joint_refine")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    path = tmp_path / "r5.txt"
    path.write_text(table_text(make_dihedral(5)))
    every_pair = ";".join(f"{a},{b}" for a in range(5) for b in range(5))
    module = ["end_modules", "quiver_isomorphic", "_keeps_rows"]
    searched = ["end_modules", "quiver_isomorphic", "_joint_refine"]
    cases = [
        ("dihedral:5", ["--endos", "all"], module),
        ("dihedral:5", ["--endos", every_pair], module),
        ("dihedral:5", ["--endos", "auto"], searched),
        ("dihedral:5", ["--endos", "1,0;2,1"], searched),
        ("dihedral:5", ["--endos", every_pair + ";1,0"], searched),
        ("dihedral:5", ["--endos", "all", "--weighted"], searched[1:]),
        # End(alexander:5:2) is its 25 affine maps; End(alexander:8:5)
        # has 1,024 maps, so it is searched.
        ("alexander:5:2", ["--endos", "all"], module),
        ("alexander:8:5", ["--endos", "all"], searched),
        (f"table:{path}", ["--endos", "all"], searched),
    ]
    for spec, extra, want in cases:
        calls.clear()
        # A self-compare, so that no size mismatch answers first.
        run_json(capsys, "compare", "4_1", "4_1", "--quandle", spec, *extra)
        assert calls == want, (spec, extra)


def test_cli_end_compare_lists_each_diagram_once(capsys, monkeypatch):
    # With equal module types, each quiver lists its own colorings and
    # end_modules lists none again for it: two strings, two listings in
    # coloring_quiver.  A knot named twice is one diagram, whose witness
    # is the identity with no module listed.
    calls = []
    for name in ("enumerate_colorings", "module_colorings"):
        real = getattr(quiverknot.quiver, name)
        monkeypatch.setattr(quiverknot.quiver, name, lambda *a, _real=real, _name=name:
                            calls.append((_name, a[0])) or _real(*a))
    blob = run_json(capsys, "compare", "4_1", "5_1", "--quandle", "dihedral:5",
                    "--endos", "all")
    assert blob["outputs"]["isomorphic"] is True
    listed = [d for name, d in calls if name == "enumerate_colorings"]
    assert len(listed) == 2 and listed[0] is not listed[1]
    calls.clear()
    blob = run_json(capsys, "compare", "8_10", "8_10", "--quandle", "dihedral:27",
                    "--endos", "all")
    assert blob["outputs"]["witness"] == list(range(729))
    assert [name for name, _ in calls] == ["enumerate_colorings"]


def test_cli_compare_of_unequal_module_types_builds_no_quiver(capsys, monkeypatch):
    # 8_10 and 8_18 both have 81 colorings over R_9, in modules of types
    # Z_9 + Z_9 and Z_9 + Z_3 + Z_3: the verdict needs no quiver, no
    # coloring list and no isomorphism call.
    calls = []
    for module, name in ((quiverknot.cli, "coloring_quiver"),
                         (quiverknot.quiver, "coloring_quiver"),
                         (quiverknot.cli, "enumerate_colorings"),
                         (quiverknot.quiver, "enumerate_colorings"),
                         (quiverknot.cli, "quiver_isomorphic")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
    blob = run_json(capsys, "compare", "8_10", "8_18", "--quandle", "dihedral:9",
                    "--endos", "all")
    assert blob["outputs"] == {"counts": [81, 81], "isomorphic": False, "witness": None}
    assert calls == []


def test_cli_compare_matches_searched_quivers_on_equal_count_pairs(capsys, catalog):
    # The CLI reads the verdict and the witness off the coloring modules;
    # its JSON must be the one built from the module verdict on quivers
    # made here (the module verdicts are checked against the isomorphism
    # search in test_quiver.py).
    names = catalog.names()
    compared = Counter()
    for n in range(3, 16):
        X = make_dihedral(n)
        end = enumerate_homs(X, X)
        quivers = {k: coloring_quiver(catalog.diagram(k), X, end) for k in names}
        for i, a in enumerate(names):
            for b in names[i:]:
                qa, qb = quivers[a], quivers[b]
                if qa.n_vertices != qb.n_vertices:
                    continue
                iso, witness = module_verdict(X, end, catalog.diagram(a), catalog.diagram(b),
                                              qa, qb)
                params = {"knotA": a, "knotB": b, "quandle": f"dihedral:{n}",
                          "endos": "all", "weighted": False}
                outputs = {"counts": [qa.n_vertices, qb.n_vertices], "isomorphic": iso,
                           "witness": list(witness) if witness is not None else None}
                expected = json.dumps({"command": "compare", "parameters": params,
                                       "outputs": outputs}) + "\n"
                code, out, _ = run_cli(capsys, "compare", a, b, "--quandle", f"dihedral:{n}",
                                       "--endos", "all")
                assert (code, TIMING.sub("", out)) == (0, expected), (n, a, b)
                compared[iso] += 1
    assert compared[True] and compared[False]


def test_cli_weighted_self_compare_sums_the_weights_once(capsys, monkeypatch, catalog):
    # One quiver, so one multiset: the output equals that of a compare
    # naming the knot once by name and once as PD text, two quivers.
    calls = []
    real = quiverknot.cli._weight_multiset
    monkeypatch.setattr(quiverknot.cli, "_weight_multiset",
                        lambda *a: calls.append(a[0]) or real(*a))
    r13 = ["--quandle", "dihedral:13", "--endos", "all", "--weighted", "--base", "5"]
    once = run_json(capsys, "compare", "6_3", "6_3", *r13)
    assert len(calls) == 1
    calls.clear()
    twice = run_json(capsys, "compare", "6_3", catalog.entries["6_3"].pd, *r13)
    assert len(calls) == 2
    assert once["outputs"] == twice["outputs"]
    assert once["outputs"]["multisets"]["equal"] is True
    assert once["outputs"]["witness"] == list(range(169))


def test_cli_deterministic_output(capsys):
    def snap():
        blob = run_json(capsys, "shadow", "--knot", "5_2", "--quandle", "dihedral:3",
                        "--cocycle", "mochizuki", "--base", "1", "--endos", "all")
        del blob["timing"]
        return json.dumps(blob)

    assert snap() == snap()


def test_cli_timing_counts_catalog_load(capsys, monkeypatch):
    from quiverknot import cli

    def slow_load():
        time.sleep(0.05)
        return load_catalog()

    monkeypatch.setattr(cli, "load_catalog", slow_load)
    blob = run_json(capsys, "colorings", "--knot", "3_1", "--quandle", "dihedral:3")
    assert blob["timing"]["seconds"] >= 0.05


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "colorings", "--knot", "nosuch",
                           "--quandle", "dihedral:5")
    assert code == 2 and "nosuch" in err
    code, _, err = run_cli(capsys, "colorings", "--knot", "4_1",
                           "--quandle", "dihedral:x")
    assert code == 2
    code, _, err = run_cli(capsys, "colorings", "--knot", "4_1",
                           "--quandle", "alexander:4:2")
    assert code == 2
    code, _, err = run_cli(capsys, "shadow", "--knot", "4_1",
                           "--quandle", "dihedral:9", "--cocycle", "mochizuki")
    assert code == 2  # composite order with mochizuki
    code, _, err = run_cli(capsys, "quiver", "--knot", "4_1",
                           "--quandle", "dihedral:5", "--endos", "bogus")
    assert code == 2
    # malformed PD text is a data error
    code, _, err = run_cli(capsys, "colorings", "--knot", "X(1,2,3)",
                           "--quandle", "dihedral:3")
    assert code == 3
    code, _, err = run_cli(capsys, "colorings", "--knot", "X(1,5,2,4) X(3,6,4,1) X(5,2,6,3)",
                           "--quandle", "dihedral:3")
    assert code == 3


def test_cli_far_apart_labels_are_data_error(capsys):
    # Consecutiveness is read from the extreme labels, so a huge gap
    # builds no list of the labels in between.
    code, out, err = run_cli(capsys, "colorings", "--knot",
                             "X(1,1,1000000000000,1000000000000)", "--quandle", "dihedral:3")
    assert (code, out) == (3, "")
    assert "component labels [1, 1000000000000] are not consecutive integers" in err


# More digits than int() converts under the default limit of 4,300.
LONG = "9" * 5000


@pytest.mark.parametrize("knot, catalog_text, message", [
    (f"X(1,1,{LONG},2)", None, "error: edge label has too many digits"),
    (f"[[1,1,{LONG},2]]", None, "error: bad bracket form: a number has too many digits"),
    ("4_1", '{"long": {"pd": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "determinant": %s}}' % LONG,
     "holds a number with too many digits"),
], ids=["x-form", "bracket-form", "catalog"])
def test_cli_long_numbers_are_data_errors(tmp_path, knot, catalog_text, message):
    src = os.path.dirname(os.path.dirname(quiverknot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QUIVERKNOT_CATALOG", None)
    if catalog_text is not None:
        path = tmp_path / "long.json"
        path.write_text(catalog_text)
        env["QUIVERKNOT_CATALOG"] = str(path)
    run = subprocess.run([sys.executable, "-m", "quiverknot", "colorings", "--knot", knot,
                          "--quandle", "dihedral:3"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr.startswith("error: ") and message in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("out", ["json", "dot"])
def test_cli_reader_closing_the_pipe_is_a_usage_error(out):
    # `| head -c 100`: the reader takes 100 bytes of several MB and closes
    # the pipe; the write that fails then, or the flush at exit, must not
    # print a traceback.
    src = os.path.dirname(os.path.dirname(quiverknot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QUIVERKNOT_CATALOG", None)
    with subprocess.Popen([sys.executable, "-m", "quiverknot", "quiver", "--knot", "8_10",
                           "--quandle", "dihedral:27", "--out", out], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: stdout was closed before all output was written\n"


def test_cli_compare_reports_a_bad_knot_before_a_bad_quandle(capsys):
    # compare checks its inputs in the order quiver and shadow use
    code, out, err = run_cli(capsys, "compare", "4_1", "nosuch", "--quandle", "dihedral:0")
    assert (code, out) == (2, "")
    assert err == "error: unknown knot 'nosuch' (not a catalog name or PD code)\n"


def test_cli_compare_takes_cocycle_and_base_only_when_weighted(capsys):
    r5 = ["compare", "4_1", "5_1", "--quandle", "dihedral:5"]
    for extra, named in ((["--base", "9"], "--base"), (["--base", "0"], "--base"),
                         (["--cocycle", "mochizuki"], "--cocycle"),
                         (["--cocycle", "foo", "--base", "0"], "--cocycle and --base")):
        code, out, err = run_cli(capsys, *r5, *extra)
        assert (code, out) == (2, ""), extra
        assert err == f"error: compare reads {named} only with --weighted\n"
    code, out, err = run_cli(capsys, *r5, "--base", "9", "--weighted")
    assert (code, out, err) == (2, "", "error: base 9 out of range 0..4\n")
    # the options' defaults still apply to a weighted compare
    _, default, _ = run_cli(capsys, *r5, "--weighted")
    _, given, _ = run_cli(capsys, *r5, "--weighted", "--cocycle", "mochizuki", "--base", "0")
    assert TIMING.sub("", default) == TIMING.sub("", given)
    assert json.loads(default)["outputs"]["multisets"]["A"] == [[0, 25], [1, 50], [4, 50]]


def test_cli_weighted_compare_extends_each_shadow_once_per_base(capsys, monkeypatch, catalog):
    # the multisets are the weights the shadow quivers hold at --base,
    # times p, so no shadow is extended again: 25 colorings per knot, each
    # extended once, at --base
    from quiverknot import cocycle as cocycle_module
    from quiverknot import quiver as quiver_module
    from quiverknot.cocycle import invariant_multiset, multiset_to_json

    calls = []
    for module in (cocycle_module, quiver_module):
        real = module.extend_shadow
        monkeypatch.setattr(module, "extend_shadow",
                            lambda *args, real=real: calls.append(args) or real(*args))
    for base in range(5):
        calls.clear()
        blob = run_json(capsys, "compare", "4_1", "5_1", "--quandle", "dihedral:5",
                        "--weighted", "--base", str(base))
        assert len(calls) == 50
        assert Counter(args[3] for args in calls) == {base: 50}
        X, theta = make_dihedral(5), mochizuki(5)
        for side, knot in (("A", "4_1"), ("B", "5_1")):
            full = invariant_multiset(catalog.diagram(knot), X, theta)
            assert blob["outputs"]["multisets"][side] == multiset_to_json(full)


def test_cli_weighted_multisets_are_the_all_base_multisets(capsys, catalog):
    # compare reads each multiset off one base's quiver; it must be
    # invariant_multiset's sum over every base, on every equal-count
    # catalog pair over R_3..R_13 and at every base.  The multisets read
    # no endomorphism, so the one map x -> x keeps the quivers small.
    from quiverknot.cocycle import invariant_multiset, multiset_to_json

    names = catalog.names()
    compared = 0
    for p in (3, 5, 7, 11, 13):
        X, theta = make_dihedral(p), mochizuki(p)
        full = {k: invariant_multiset(catalog.diagram(k), X, theta) for k in names}
        for i, a in enumerate(names):
            for b in names[i:]:
                if sum(full[a].values()) != sum(full[b].values()):
                    continue
                for base in range(p):
                    blob = run_json(capsys, "compare", a, b, "--quandle", f"dihedral:{p}",
                                    "--endos", "1,0", "--weighted", "--base", str(base))
                    assert blob["outputs"]["multisets"] == {
                        "A": multiset_to_json(full[a]), "B": multiset_to_json(full[b]),
                        "equal": full[a] == full[b]}, (p, a, b, base)
                    compared += 1
    assert compared > 300


def test_cli_weighted_compare_builds_one_shadow_plan_per_diagram(
        capsys, monkeypatch, unbuilt_builtins):
    from quiverknot.diagram import Diagram

    plan = Diagram.__dict__["shadow_plan"]
    built = []
    real = plan.func
    monkeypatch.setattr(plan, "func", lambda d: built.append(d) or real(d))
    run_json(capsys, "compare", "4_1", "5_1", "--quandle", "dihedral:5", "--weighted")
    assert [d.n_crossings for d in built] == [4, 5]


USAGE = {
    None: "usage: quiverknot [-h] {colorings,quiver,shadow,compare} ...\n",
    # Python 3.13 wraps a mutually exclusive group between its members.
    "colorings": ("usage: quiverknot colorings [-h] --knot KNOT --quandle QUANDLE [--count |\n"
                  "                            --list] [--format {json,text}]\n"
                  if sys.version_info >= (3, 13) else
                  "usage: quiverknot colorings [-h] --knot KNOT --quandle QUANDLE\n"
                  "                            [--count | --list] [--format {json,text}]\n"),
    "quiver": "usage: quiverknot quiver [-h] --knot KNOT --quandle QUANDLE [--endos ENDOS]\n"
              "                         [--out {json,dot}] [--dot FILE] [--collapse-parallel]\n"
              "                         [--format {json,text}]\n",
    "shadow": "usage: quiverknot shadow [-h] --knot KNOT --quandle QUANDLE\n"
              "                         [--cocycle COCYCLE] [--base BASE] [--endos ENDOS]\n"
              "                         [--out {json,dot}] [--dot FILE] [--collapse-parallel]\n"
              "                         [--format {json,text}]\n",
    "compare": "usage: quiverknot compare [-h] --quandle QUANDLE [--endos ENDOS] [--weighted]\n"
               "                          [--cocycle COCYCLE] [--base BASE]\n"
               "                          [--format {json,text}]\n"
               "                          knotA knotB\n",
}

FORMATS = ("json", "text")
ARGPARSE_ERRORS = [
    # (argv, subcommand, message, choices the message lists)
    ([], None, "the following arguments are required: subcommand", ()),
    (["nosuch"], None, "argument subcommand: invalid choice: 'nosuch' (choose from {})",
     ("colorings", "quiver", "shadow", "compare")),
    (["colorings", "--knot", "4_1"], "colorings",
     "the following arguments are required: --quandle", ()),
    (["colorings", "--knot", "4_1", "--quandle", "dihedral:3", "--format", "xml"], "colorings",
     "argument --format: invalid choice: 'xml' (choose from {})", FORMATS),
    (["quiver", "--quandle", "dihedral:3"], "quiver",
     "the following arguments are required: --knot", ()),
    (["quiver", "--knot", "4_1", "--quandle", "dihedral:3", "--out", "png"], "quiver",
     "argument --out: invalid choice: 'png' (choose from {})", ("json", "dot")),
    (["shadow", "--knot", "4_1"], "shadow",
     "the following arguments are required: --quandle", ()),
    (["shadow", "--knot", "4_1", "--quandle", "dihedral:3", "--format", "xml"], "shadow",
     "argument --format: invalid choice: 'xml' (choose from {})", FORMATS),
    (["shadow", "--knot", "4_1", "--quandle", "dihedral:3", "--base", "x"], "shadow",
     "argument --base: invalid int value: 'x'", ()),
    (["compare", "4_1", "--quandle", "dihedral:3"], "compare",
     "the following arguments are required: knotB", ()),
    (["compare", "4_1", "5_1", "--quandle", "dihedral:3", "--format", "yaml"], "compare",
     "argument --format: invalid choice: 'yaml' (choose from {})", FORMATS),
    (["compare", "4_1", "5_1", "--quandle", "dihedral:3", "--base", "x"], "compare",
     "argument --base: invalid int value: 'x'", ()),
    (["colorings", "--knot", "4_1", "--quandle", "dihedral:3", "--count", "--list"],
     "colorings", "argument --list: not allowed with argument --count", ()),
]


@pytest.mark.parametrize("argv, command, message, choices", ARGPARSE_ERRORS)
def test_cli_argparse_errors(capsys, monkeypatch, argv, command, message, choices):
    # argparse wraps the usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    prog = "quiverknot" if command is None else f"quiverknot {command}"
    # Later argparse releases list the choices with str() instead of repr().
    expected = {USAGE[command] + f"{prog}: error: " + message.format(listed) + "\n"
                for listed in (", ".join(map(repr, choices)), ", ".join(choices))}
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err in expected


def test_cli_reused_parser_leaks_no_flags(capsys):
    # main builds its parser once per process; each call must still see
    # only its own flags, as a fresh process does.
    src = os.path.dirname(os.path.dirname(quiverknot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["compare", "4_1", "5_1", "--quandle", "dihedral:5", "--weighted"],
                 ["compare", "4_1", "5_1", "--quandle", "dihedral:5"],
                 ["quiver", "--knot", "4_1", "--quandle", "dihedral:3", "--out", "dot"],
                 ["quiver", "--knot", "4_1", "--quandle", "dihedral:3"]):
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "quiverknot", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, TIMING.sub("", out)) == (fresh.returncode, TIMING.sub("", fresh.stdout))


def test_cli_bracket_pd_rejects_booleans(capsys):
    # JSON true and false load as bools, and bool is a subclass of int.
    for knot in ("[[true,2,2,true]]", "[[1,false,2,3],[3,0,1,2]]"):
        code, out, err = run_cli(capsys, "colorings", "--knot", knot,
                                 "--quandle", "dihedral:3", "--list")
        assert code == 3
        assert out == ""
        assert "crossing 0 is not a quadruple of integers" in err


def test_cli_bad_catalog_is_data_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "broken.json"
    path.write_text("{")
    monkeypatch.setenv("QUIVERKNOT_CATALOG", str(path))
    code, _, err = run_cli(capsys, "colorings", "--knot", "4_1",
                           "--quandle", "dihedral:5")
    assert code == 3


def test_cli_undecodable_catalog_is_data_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    monkeypatch.setenv("QUIVERKNOT_CATALOG", str(path))
    code, out, err = run_cli(capsys, "colorings", "--knot", "4_1",
                             "--quandle", "dihedral:3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: catalog file") and "not valid UTF-8" in err


def test_cli_undecodable_table_is_data_error(capsys, tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe3")
    code, out, err = run_cli(capsys, "colorings", "--knot", "4_1",
                             "--quandle", f"table:{path}")
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: quandle table {str(path)!r} is not valid UTF-8")
    code, out, err = run_cli(capsys, "colorings", "--knot", "4_1",
                             "--quandle", "table:nul\0path")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad quandle spec")


@pytest.mark.parametrize("endos", ["all", "auto", "1,2;2,0"])
def test_cli_checks_no_endomorphism_after_it_is_made(capsys, monkeypatch, catalog, endos):
    checked = count_endo_checks(monkeypatch)
    for argv in (["quiver", "--knot", "4_1"], ["shadow", "--knot", "4_1"],
                 ["compare", "4_1", "5_1"], ["compare", "4_1", "5_1", "--weighted"]):
        code, out, err = run_cli(capsys, *argv, "--quandle", "dihedral:5", "--endos", endos)
        assert (code, err) == (0, ""), argv
    assert checked == []
    # The patch is live: the same maps as a plain list are checked.
    X = make_dihedral(5)
    S = list(parse_endo_spec(endos, X))
    coloring_quiver(catalog.diagram("4_1"), X, S)
    assert checked == S


def test_cli_text_format(capsys):
    code, out, _ = run_cli(capsys, "compare", "4_1", "5_1", "--quandle",
                           "dihedral:5", "--endos", "auto", "--format", "text")
    assert code == 0
    assert "isomorphic" in out


def test_cli_deeply_nested_bracket_pd_is_data_error(capsys):
    code, out, err = run_cli(capsys, "colorings", "--knot", "[" * 100000,
                             "--quandle", "dihedral:3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: bad bracket form")


def test_cli_deeply_nested_catalog_is_data_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    monkeypatch.setenv("QUIVERKNOT_CATALOG", str(path))
    code, out, err = run_cli(capsys, "colorings", "--knot", "4_1",
                             "--quandle", "dihedral:3")
    assert code == 3
    assert out == ""
    assert str(path) in err


def test_cli_builds_only_the_catalog_diagram_it_names(capsys, monkeypatch, unbuilt_builtins):
    from quiverknot import catalog as catalog_module

    built = []
    real_build = catalog_module.build_diagram

    def counting_build(*args, **kwargs):
        built.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "build_diagram", counting_build)
    monkeypatch.delenv("QUIVERKNOT_CATALOG", raising=False)
    run_json(capsys, "colorings", "--knot", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
             "--quandle", "dihedral:3")
    assert len(built) == 0
    run_json(capsys, "colorings", "--knot", "4_1", "--quandle", "dihedral:3")
    assert len(built) == 1


def test_cli_counts_over_a_large_dihedral_quandle(capsys):
    # R_1001 is built from its formula; no O(n^3) axiom check runs
    blob = run_json(capsys, "colorings", "--knot", "4_1", "--quandle",
                    "dihedral:1001", "--count")
    assert blob["outputs"] == {"count": 1001, "method": "snf"}


def _cap_memory():
    # Runs in the child only, between fork and exec.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("knot, quandle, mode, count", [
    (trefoil_sum_pd(10), "alexander:7:3", "--count", 7**11),
    ("4_1", "alexander:1000003:2", "--count", 1000003),
    ("3_1", "dihedral:100000", "--list", 100000),
], ids=["trefoil-sum-alexander-7-3", "4_1-alexander-1000003-2", "3_1-dihedral-100000-list"])
def test_cli_large_formula_quandles_answer_in_bounded_memory(knot, quandle, mode, count):
    # No table of the quandle is built, and a listing builds only the
    # shifts it reads: each answers in a child capped at 1 GB of address
    # space and a minute of wall time.
    src = os.path.dirname(os.path.dirname(quiverknot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QUIVERKNOT_CATALOG", None)
    run = subprocess.run([sys.executable, "-m", "quiverknot", "colorings", "--knot", knot,
                          "--quandle", quandle, mode], env=env, preexec_fn=_cap_memory,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    outputs = json.loads(run.stdout)["outputs"]
    assert outputs["count"] == count
    if mode == "--list":
        assert outputs["colorings"] == [[c] * 3 for c in range(count)]
    else:
        assert outputs["method"] == "snf"


def test_cli_dihedral_count_reads_only_the_order(capsys, monkeypatch, tmp_path):
    # The SNF count over a formula quandle needs (n, t) alone, so no table
    # is built on that path; a bad spec gets the error of the one parse.
    path = tmp_path / "r5.txt"
    path.write_text(table_text(make_dihedral(5)))

    def no_table(n, t):
        raise AssertionError(f"built the table of x*y = {t}x + {1 - t}y on Z_{n}")

    monkeypatch.setattr(quiverknot.quandle, "_alexander_table", no_table)
    bad = "error: bad quandle spec {!r}: {}\n"
    cases = [
        ("dihedral:0", 2, "", bad.format("dihedral:0", "order must be >= 1, got 0")),
        ("dihedral:-3", 2, "", bad.format("dihedral:-3", "order must be >= 1, got -3")),
        ("dihedral:x", 2, "", bad.format(
            "dihedral:x", "invalid literal for int() with base 10: 'x'")),
        ("dihedral:1001", 0, '"outputs": {"count": 7007, "method": "snf"}', ""),
        ("alexander:0:1", 2, "", bad.format("alexander:0:1", "order must be >= 1, got 0")),
        ("alexander:5:5", 2, "", bad.format("alexander:5:5", "t=5 is not a unit mod 5")),
        ("alexander:x:2", 2, "", bad.format(
            "alexander:x:2", "invalid literal for int() with base 10: 'x'")),
        ("alexander:5", 2, "", "error: bad quandle spec 'alexander:5' "
         "(grammar: dihedral:n | alexander:n:t | table:PATH)\n"),
        ("alexander:1001:1000", 0, '"outputs": {"count": 7007, "method": "snf"}', ""),
        ("alexander:11:3", 0, '"outputs": {"count": 121, "method": "snf"}', ""),
        ("alexander:5:2", 0, '"outputs": {"count": 5, "method": "snf"}', ""),
        (f"table:{path}", 0, '"outputs": {"count": 5, "method": "enumeration"}', ""),
    ]
    for spec, code, outputs, err in cases:
        got = run_cli(capsys, "colorings", "--knot", "5_2", "--quandle", spec, "--count")
        out = ('{"command": "colorings", "parameters": {"knot": "5_2", "quandle": '
               + json.dumps(spec) + ', "mode": "count"}, ' + outputs + "}\n") if outputs else ""
        assert (got[0], TIMING.sub("", got[1]), got[2]) == (code, out, err), spec
