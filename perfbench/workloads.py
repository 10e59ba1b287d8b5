"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: the argv passed to ``quiverknot.cli.main``,
the exit code it must return, the golden key its output digest is
recorded under, and what the output checks need to know about it.
Everything random comes from ``random.Random(seed)``: relabelled PD text,
bases and the affine endomorphism subsets.  The package only ever sees
the argv.

The golden key names a job up to the seeded choices that cannot change
its output: relabelled PD text is keyed by the catalog name it came
from, and the base is left out where the output does not depend on it
(``golden.py`` records every base and checks that).  Every key a seed
can produce is recorded, so any seed can be checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

PRIMES = (3, 5, 7, 11, 13)
# Affine endomorphism subsets x -> a*x + b offered per prime; the seed
# picks one of them for every shadow and weighted compare job.
ENDO_POOL_SIZE = 4
ENDO_POOL_SEED = 20200426

WORKLOADS = ("iso-end", "build-large", "shadow-sweep")


@dataclass
class Job:
    argv: list
    key: str
    expect_rc: int = 0
    # Output handling: "json" (parsed and canonicalised), "raw" (large
    # JSON digested as text), "dot" (DOT text) or "error" (no stdout).
    out: str = "json"
    # Catalog name of each relabelled PD text in argv.
    relabelled: dict = field(default_factory=dict)
    # Values the job must reproduce exactly (paper values, closed forms).
    expect: dict = field(default_factory=dict)


@dataclass
class Relabelled:
    name: str
    text: str
    # arc_perm[j] is the arc of the relabelled diagram that carries arc j
    # of the catalog diagram.
    arc_perm: tuple


def endo_pool(p: int) -> list[str]:
    """The fixed pool of affine endomorphism specs offered over R_p."""
    rng = random.Random(ENDO_POOL_SEED * 100 + p)
    pool = []
    while len(pool) < ENDO_POOL_SIZE:
        pairs = sorted({(rng.randrange(1, p), rng.randrange(p)) for _ in range(2)})
        spec = ";".join(f"{a},{b}" for a, b in pairs)
        if spec not in pool:
            pool.append(spec)
    return pool


def closed_form_count(homology, n: int) -> int:
    """|Col_{R_n}| of a knot from its catalog fingerprint: the coloring
    module is Z_n plus Z_gcd(h, n) for every homology divisor h."""
    return n * math.prod(math.gcd(h, n) for h in homology)


def relabel(catalog, name: str, rng: random.Random) -> Relabelled:
    """The catalog PD code of ``name`` with its edge labels cyclically
    shifted and its crossings shuffled, checked against the catalog
    fingerprint before use."""
    from quiverknot import build_diagram, coloring_matrix, parse_pd

    entry = catalog.entries[name]
    quads = list(parse_pd(entry.pd).crossings)
    m = 2 * len(quads)
    shift = rng.randrange(m)

    def moved(e: int) -> int:
        return (e - 1 + shift) % m + 1

    quads = [tuple(moved(e) for e in q) for q in quads]
    rng.shuffle(quads)
    text = " ".join("X({},{},{},{})".format(*q) for q in quads)
    d = build_diagram(parse_pd(text))
    divisors = sorted(x for x in coloring_matrix(d).elementary_divisors if x not in (0, 1))
    if divisors != sorted(entry.homology) or math.prod(divisors) != entry.determinant:
        raise ValueError(f"relabelled {name} lost its fingerprint: {divisors}")
    orig = catalog.diagram(name)
    arc_perm = tuple(d.arc_of_edge[moved(arc[0])] for arc in orig.arcs)
    return Relabelled(name, text, arc_perm)


def nontrivial_knots(catalog) -> list[str]:
    return [n for n in catalog.names() if catalog.entries[n].pd != "unknot"]


def iso_end(catalog, rng: random.Random) -> list[Job]:
    copy = relabel(catalog, "8_18", rng)
    r9 = ["--quandle", "dihedral:9", "--endos", "all"]
    r5 = ["--quandle", "dihedral:5", "--endos", "all"]
    return [
        Job(["compare", "8_10", "8_18", *r9], "compare|8_10|8_18|dihedral:9|all",
            expect={"counts": [81, 81], "isomorphic": False}),
        Job(["compare", "6_1", "8_10", *r9], "compare|6_1|8_10|dihedral:9|all",
            expect={"isomorphic": True}),
        Job(["compare", "8_18", copy.text, *r9], "compare|8_18|@8_18|dihedral:9|all",
            relabelled={copy.text: copy}, expect={"isomorphic": True}),
        Job(["compare", "4_1", "5_1", *r5], "compare|4_1|5_1|dihedral:5|all",
            expect={"counts": [25, 25]}),
        Job(["compare", "4_1", "5_1", *r5, "--weighted", "--base", "0"],
            "compare|4_1|5_1|dihedral:5|all|weighted|base=0",
            expect={"counts": [25, 25], "isomorphic": False}),
    ]


def build_large(catalog, rng: random.Random) -> list[Job]:
    jobs = []
    for knot, n in (("8_10", 27), ("8_18", 15)):
        vertices = closed_form_count(catalog.entries[knot].homology, n)
        for out in ("json", "dot"):
            argv = ["quiver", "--knot", knot, "--quandle", f"dihedral:{n}",
                    "--endos", "all", "--out", out]
            # End(R_n) is the n^2 affine maps, so every vertex has n^2 out-edges.
            jobs.append(Job(argv, "|".join(argv), out="raw" if out == "json" else "dot",
                            expect={"vertices": vertices, "edges": vertices * n * n}))
    argv = ["quiver", "--knot", "8_18", "--quandle", "alexander:27:2", "--endos", "all"]
    jobs.append(Job(argv, "|".join(argv), out="raw"))
    return jobs


def colorings_job(catalog, c: Relabelled, p: int, mode: str) -> Job:
    return Job(["colorings", "--knot", c.text, "--quandle", f"dihedral:{p}", f"--{mode}"],
               f"colorings|@{c.name}|dihedral:{p}|{mode}", relabelled={c.text: c},
               expect={"count": closed_form_count(catalog.entries[c.name].homology, p)})


def shadow_job(catalog, c: Relabelled, p: int, endos: str, base: int) -> Job:
    return Job(["shadow", "--knot", c.text, "--quandle", f"dihedral:{p}",
                "--endos", endos, "--base", str(base)],
               f"shadow|@{c.name}|dihedral:{p}|{endos}", relabelled={c.text: c},
               expect={"vertices": closed_form_count(catalog.entries[c.name].homology, p)})


def weighted_compare_job(a: Relabelled, b: Relabelled, p: int, endos: str, base: int) -> Job:
    return Job(["compare", a.text, b.text, "--quandle", f"dihedral:{p}", "--endos", endos,
                "--weighted", "--base", str(base)],
               f"compare|@{a.name}|@{b.name}|dihedral:{p}|{endos}|weighted",
               relabelled={a.text: a, b.text: b})


def equal_count_pairs(catalog, p: int) -> list[tuple[str, str]]:
    """Pairs of knots with the same nontrivial coloring count over R_p."""
    counts = {k: closed_form_count(catalog.entries[k].homology, p)
              for k in nontrivial_knots(catalog)}
    knots = [k for k in counts if counts[k] > p]
    return [(a, b) for i, a in enumerate(knots) for b in knots[i + 1:]
            if counts[a] == counts[b]]


# The paper's reference polynomials, over R_5 with --endos 1,2 --base 0.
PAPER_POLYNOMIALS = {"4_1": "5 + 10st + 10s^4t^4", "5_1": "5 + 10s^2t^2 + 10s^3t^3"}


def paper_job(catalog, c: Relabelled) -> Job:
    job = shadow_job(catalog, c, 5, "1,2", 0)
    job.expect["polynomial"] = PAPER_POLYNOMIALS[c.name]
    return job


def error_jobs(rng: random.Random, text: str) -> list[Job]:
    terms = text.split()
    cut = rng.randrange(1, len(terms))
    truncated = " ".join(terms[:cut]) + " " + terms[cut][: rng.randrange(2, len(terms[cut]) - 1)]
    cases = [
        # Malformed PD text is a data error under the CLI's exit-code contract.
        ("truncated-pd", ["colorings", "--knot", truncated, "--quandle", "dihedral:3"], 3),
        ("unpaired-labels", ["colorings", "--knot", "X(1,2,3,4)", "--quandle", "dihedral:3"], 3),
        ("dihedral-0", ["colorings", "--knot", "4_1", "--quandle", "dihedral:0"], 2),
        ("alexander-9-3", ["colorings", "--knot", "4_1", "--quandle", "alexander:9:3"], 2),
        ("shadow-dihedral-9", ["shadow", "--knot", "4_1", "--quandle", "dihedral:9"], 2),
        ("base-7-dihedral-5", ["shadow", "--knot", "4_1", "--quandle", "dihedral:5",
                               "--base", "7"], 2),
        ("endo-pair-1-x", ["quiver", "--knot", "4_1", "--quandle", "dihedral:5",
                           "--endos", "1,x"], 2),
    ]
    return [Job(argv, f"error|{name}", expect_rc=rc, out="error") for name, argv, rc in cases]


# 8_10 over R_13 enumerates in 4 to 140 ms on a 2-vCPU VM depending on
# the arc order, so a sweep of seeded labellings alone would have as its
# slowest job whichever labelling the seed drew.  The sweep therefore
# always holds one fixed job that outweighs any seeded one about four
# times: a weighted compare of two slow labellings of 8_10 over R_13,
# which enumerates the colorings of each twice (about 70 ms each; seeds
# "anchor:1096" and "anchor:95" are among the slowest of the labellings
# drawn from "anchor:0" to "anchor:1499").
ANCHOR = ("8_10", "anchor:1096", "anchor:95")


def anchor_job(catalog) -> Job:
    name, seed_a, seed_b = ANCHOR
    a, b = (relabel(catalog, name, random.Random(s)) for s in (seed_a, seed_b))
    job = weighted_compare_job(a, b, 13, "all", 0)
    job.expect = {"counts": [13, 13], "isomorphic": True}
    return job


def shadow_sweep(catalog, rng: random.Random) -> list[Job]:
    # Every job gets its own relabelling, so one unlucky arc order cannot
    # set the cost of all of a knot's jobs.
    knots = nontrivial_knots(catalog)

    def copy(k: str) -> Relabelled:
        return relabel(catalog, k, rng)

    jobs = [colorings_job(catalog, copy(k), p, mode)
            for k in knots for p in PRIMES for mode in ("count", "list")]
    for k in knots:
        for p in PRIMES:
            jobs.append(shadow_job(catalog, copy(k), p, rng.choice(endo_pool(p)),
                                   rng.randrange(p)))
    for p in PRIMES:
        for a, b in equal_count_pairs(catalog, p):
            jobs.append(weighted_compare_job(copy(a), copy(b), p,
                                             rng.choice(endo_pool(p)), rng.randrange(p)))
    jobs += [paper_job(catalog, copy(k)) for k in PAPER_POLYNOMIALS]
    jobs.append(anchor_job(catalog))
    return jobs + error_jobs(rng, copy("8_18").text)


_JOB_LISTS = {"iso-end": iso_end, "build-large": build_large, "shadow-sweep": shadow_sweep}


def make_jobs(workload: str, seed: int, catalog) -> list[Job]:
    return _JOB_LISTS[workload](catalog, random.Random(f"{workload}:{seed}"))


def describe(workload: str, seed: int, jobs: list[Job], catalog) -> dict:
    """The workload parameters recorded with every result."""
    names = set(catalog.names())
    knots = {a for j in jobs for a in j.argv if a in names}
    knots.update(r.name for j in jobs for r in j.relabelled.values())

    def values(flag: str) -> list[str]:
        return sorted({j.argv[j.argv.index(flag) + 1] for j in jobs if flag in j.argv})

    return {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "knots": sorted(knots),
        "quandles": values("--quandle"),
        "endos": values("--endos"),
        "bases": values("--base"),
        "commands": sorted({j.argv[0] for j in jobs}),
        "argv": [j.argv for j in jobs],
        "expect": [j.expect for j in jobs],
    }
