"""Output checks, run on every job after its timing stops.

``Checker.check`` returns the list of problems found with one job's
result; an empty list means the job passed.  It checks:

* the exit code, and that nothing was raised (``SystemExit`` from
  argparse and ``RecursionError`` included);
* the echoed parameters against the argv the benchmark generated;
* the values the job must reproduce (paper values, closed-form counts,
  relabelled copies being isomorphic);
* every isomorphism witness, edge by edge, on quivers rebuilt here from
  the colorings;
* the digest of the canonical output against the one recorded in
  ``golden.json`` at the seed commit, and against the digest of the same
  job in every earlier pass.

The canonical output is stdout without ``timing`` and ``witness``.  For
relabelled PD input it also drops the echoed parameters (checked
against the argv instead), lists colorings in the catalog's arc order,
and replaces a quiver's vertex and edge lists, whose numbering follows
the labelling, by the counts and polynomial recomputed from them.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

_TIMING_RE = re.compile(r', "timing": \{[^{}]*\}\}\Z')
_PREFIX_RE = re.compile(r'"outputs": \{"vertices": (\d+), "edges": (\d+)')
_DOT_EDGE = " -> "


def strip_timing(text: str) -> str:
    stripped, n = _TIMING_RE.subn("}", text.rstrip("\n"))
    if n != 1:
        raise ValueError("output has no trailing timing field")
    return stripped


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def poly_text(pairs: Counter) -> str:
    """A polynomial in s, t written by the README's conventions."""
    if not pairs:
        return "0"
    terms = []
    for (i, j), coeff in sorted(pairs.items()):
        svar = "" if i == 0 else ("s" if i == 1 else f"s^{i}")
        tvar = "" if j == 0 else ("t" if j == 1 else f"t^{j}")
        if not svar and not tvar:
            terms.append(str(coeff))
        else:
            terms.append(f"{'' if coeff == 1 else coeff}{svar}{tvar}")
    return " + ".join(terms)


def affine_images(spec: str, n: int) -> list[tuple[int, ...]]:
    images = []
    for chunk in spec.split(";"):
        a, b = (int(v) % n for v in chunk.split(","))
        images.append(tuple((a * x + b) % n for x in range(n)))
    return images


def _flag(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def expected_parameters(argv: list) -> dict:
    """The parameters block the CLI echoes for this argv."""
    cmd = argv[0]
    quandle = _flag(argv, "--quandle")
    if cmd == "colorings":
        return {"knot": _flag(argv, "--knot"), "quandle": quandle,
                "mode": "list" if "--list" in argv else "count"}
    if cmd == "quiver":
        return {"knot": _flag(argv, "--knot"), "quandle": quandle,
                "endos": _flag(argv, "--endos", "all"), "out": _flag(argv, "--out", "json")}
    if cmd == "shadow":
        return {"knot": _flag(argv, "--knot"), "quandle": quandle, "cocycle": "mochizuki",
                "base": int(_flag(argv, "--base", 0)), "endos": _flag(argv, "--endos", "all"),
                "out": _flag(argv, "--out", "json")}
    return {"knotA": argv[1], "knotB": argv[2], "quandle": quandle,
            "endos": _flag(argv, "--endos", "all"), "weighted": "--weighted" in argv}


class Checker:
    def __init__(self, catalog, golden: dict | None):
        """``golden`` maps golden keys to digests; None records instead
        of checking (``golden.py``)."""
        self.catalog = catalog
        self.golden = golden
        self.seen: dict[int, str] = {}
        self._quivers: dict = {}

    def check(self, index: int, job, rc, exc, out: str, err: str) -> tuple[list[str], str]:
        """Problems with one job's result, and its canonical digest."""
        if exc is not None:
            return [f"raised {type(exc).__name__}: {exc}"], ""
        problems = []
        if rc != job.expect_rc:
            problems.append(f"exit code {rc}, expected {job.expect_rc}")
        try:
            canonical = self._canonical(job, out, err, problems)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return problems + [f"unreadable output: {type(e).__name__}: {e}"], ""
        d = digest(canonical)
        if self.golden is not None and self.golden.get(job.key) != d:
            problems.append(f"digest {d} differs from the golden {self.golden.get(job.key)}")
        if self.seen.setdefault(index, d) != d:
            problems.append("output differs from the same job's earlier pass")
        return problems, d

    def _canonical(self, job, out: str, err: str, problems: list) -> str:
        if job.out == "error":
            if out or not err.startswith("error: ") or "Traceback" in err:
                problems.append(f"error path printed {out[:80]!r} / {err[:80]!r}")
            return out
        if err:
            problems.append(f"unexpected stderr {err[:80]!r}")
        if job.out == "dot":
            self._expect(job, {"vertices": out.count("\n  v") - out.count(_DOT_EDGE),
                               "edges": out.count(_DOT_EDGE)}, problems)
            return out
        if job.out == "raw":
            text = strip_timing(out)
            m = _PREFIX_RE.search(text, 0, 4096)
            if m is None:
                raise ValueError("no vertex and edge counts at the start of the output")
            self._expect(job, {"vertices": int(m.group(1)), "edges": int(m.group(2))}, problems)
            return text
        result = json.loads(out)
        del result["timing"]
        outputs = result["outputs"]
        params = result.pop("parameters")
        if params != expected_parameters(job.argv):
            problems.append(f"parameters echoed as {params}")
        witness = outputs.pop("witness", None)
        cmd = job.argv[0]
        if cmd == "colorings":
            self._check_colorings(job, outputs, problems)
        elif cmd == "shadow":
            self._check_shadow(job, outputs, problems)
        elif cmd == "compare":
            if outputs["isomorphic"] != (witness is not None):
                problems.append("verdict and witness disagree")
            if witness is not None:
                self._check_witness(job, witness, problems)
        self._expect(job, outputs, problems)
        return json.dumps(result, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _expect(job, values: dict, problems: list) -> None:
        for name, want in job.expect.items():
            if values.get(name) != want:
                problems.append(f"{name} is {values.get(name)!r}, expected {want!r}")

    def _check_colorings(self, job, outputs: dict, problems: list) -> None:
        want = "enumeration" if "--list" in job.argv else "snf"
        if outputs["method"] != want:
            problems.append(f"method {outputs['method']}, expected {want}")
        if "colorings" in outputs:
            cols = outputs["colorings"]
            if len(cols) != outputs["count"]:
                problems.append(f"{len(cols)} colorings listed, count {outputs['count']}")
            relabelled = job.relabelled.get(_flag(job.argv, "--knot"))
            if relabelled is not None:
                perm = relabelled.arc_perm
                outputs["colorings"] = sorted([c[j] for j in perm] for c in cols)

    def _check_shadow(self, job, outputs: dict, problems: list) -> None:
        quiver = outputs.pop("quiver")
        n = int(_flag(job.argv, "--quandle").split(":")[1])
        weights = [v["weight"] for v in quiver["vertices"]]
        pairs = Counter((weights[s], weights[t]) for s, t, _ in quiver["edges"])
        histogram = sorted(Counter(weights).items())
        if [list(p) for p in histogram] != outputs["weight_histogram"]:
            problems.append("weight histogram disagrees with the quiver's weights")
        if poly_text(pairs) != outputs["polynomial"]:
            problems.append("polynomial disagrees with the quiver's edges")
        if (len(weights), len(quiver["edges"])) != (outputs["vertices"], outputs["edges"]):
            problems.append("vertex or edge count disagrees with the quiver")
        if [tuple(f) for f in quiver["endos"]] != affine_images(_flag(job.argv, "--endos"), n):
            problems.append("quiver endomorphisms differ from the --endos spec")
        if outputs["edges"] != outputs["vertices"] * len(quiver["endos"]):
            problems.append("edge count is not vertices times endomorphisms")

    def _diagram(self, job, arg: str):
        from quiverknot import build_diagram, parse_pd

        if arg in job.relabelled:
            return build_diagram(parse_pd(arg))
        return self.catalog.diagram(arg)

    def _quiver(self, job, arg: str):
        """(vertex count, edge multiset, vertex weights) of the quiver on the
        sorted colorings, rebuilt without the package's quiver module."""
        quandle = _flag(job.argv, "--quandle")
        endos = _flag(job.argv, "--endos", "all")
        base = int(_flag(job.argv, "--base", 0)) if "--weighted" in job.argv else None
        key = (arg, quandle, endos, base)
        if key not in self._quivers:
            from quiverknot import (Coloring, enumerate_colorings, enumerate_homs,
                                    extend_shadow, make_dihedral, mochizuki, weight_sum)

            n = int(quandle.split(":")[1])
            X = make_dihedral(n)
            d = self._diagram(job, arg)
            images = ([f.image for f in enumerate_homs(X, X)] if endos == "all"
                      else affine_images(endos, n))
            cols = sorted(c.values for c in enumerate_colorings(d, X))
            index = {c: i for i, c in enumerate(cols)}
            edges = Counter()
            for i, c in enumerate(cols):
                for img in images:
                    edges[i, index[tuple(img[v] for v in c)]] += 1
            weights = None
            if base is not None:
                theta = mochizuki(n)
                weights = [weight_sum(d, extend_shadow(d, X, Coloring(c), base), theta)
                           for c in cols]
            self._quivers[key] = (len(cols), edges, weights)
        return self._quivers[key]

    def _check_witness(self, job, witness: list, problems: list) -> None:
        na, edges_a, weights_a = self._quiver(job, job.argv[1])
        nb, edges_b, weights_b = self._quiver(job, job.argv[2])
        if na != nb or sorted(witness) != list(range(nb)):
            problems.append("witness is not a bijection of the vertices")
            return
        if weights_a is not None and any(
            weights_a[v] != weights_b[witness[v]] for v in range(na)
        ):
            problems.append("witness does not preserve vertex weights")
        mapped = Counter()
        for (s, t), m in edges_a.items():
            mapped[witness[s], witness[t]] += m
        if mapped != edges_b:
            problems.append("witness does not map the edges of A onto those of B")
