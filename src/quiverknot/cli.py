"""Command-line frontend.

Subcommands: ``colorings``, ``quiver``, ``shadow``, ``compare``.  Knots
are catalog names or literal PD text; quandles use the grammar
``dihedral:n`` | ``alexander:n:t`` | ``table:PATH``; endomorphism sets
are ``all``, ``auto`` or semicolon-separated ``a,b`` pairs meaning
f(x) = a*x + b (formula quandles only).

Results go to stdout as a single JSON object (``--format text`` for a
human summary, ``--dot FILE`` to write DOT output to a file).  Exit
codes: 0 success, 2 usage or parameter error (an unwritable ``--dot``
file and a stdout its reader closed early among them), 3 data or
validation error.  Identical invocations produce byte-identical JSON
apart from the trailing timing field, which gives the seconds from just
before catalog load to just before that closing field is written, on a
monotonic clock.  Quiver JSON and DOT are written one vertex at a time
from the quiver's target table, so no whole edge list or output string
is held.

Every command checks its inputs in one order: knots, quandle,
endomorphisms, then cocycle and base; ``compare`` takes ``--cocycle`` and
``--base`` only with ``--weighted``.  ``dihedral:n`` and
``alexander:n:t`` are formula quandles, x*y = t*x + (1-t)*y on Z_n with
R_n at t = -1, and no path reads the name, only (n, t): ``dihedral:n``
and ``alexander:n:n-1`` print the same bytes apart from the echoed
quandle.  ``colorings --count`` over a formula quandle is read off the
divisors of the diagram's coloring reduction at t (``"snf"``), and only
a ``table:`` quandle is enumerated.  After those checks, an unweighted
``compare`` over the n^2 maps x -> a*x + b of a formula quandle
(``--endos all`` on ``dihedral:n``, listed in closed form, or on an
``alexander:n:t`` whose End holds no other map) takes its verdict from
the coloring modules first (``end_modules``): unequal
module types print the counts and a null witness with no quiver built
and no ``quiver_isomorphic`` call; equal types build both quivers and
pass the witness ``end_modules`` returns, a tuple of vertex indices,
to ``quiver_isomorphic`` as ``over``, which proves it.  A weighted
``compare`` reads each knot's multiset over every base off its shadow
quiver at ``--base`` (``_weight_multiset``), so no shadow is extended
twice.  Each option is declared once, in ``OPTIONS``, and the parser
is built once per process, so in-process callers do not rebuild it per
call.  ``main`` looks the command up by name at call time, so a
wrapper set later on a ``cmd_*`` attribute (a tracer, a test's
monkeypatch) is the function called.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter
from typing import Optional, Sequence

from .catalog import Catalog, CatalogError, load_catalog
# invariant_multiset is not called here; perfbench's tracer wraps it by
# this name (WRAP_POINTS), so it stays importable from this module.
from .cocycle import Cocycle3, invariant_multiset, mochizuki, multiset_to_json
from .coloring import count_colorings_dihedral, enumerate_colorings
from .diagram import (
    Diagram,
    ParseError,
    StructuralError,
    build_diagram,
    parse_pd,
)
from .quandle import (
    FiniteQuandle,
    Homs,
    InvalidParameterError,
    affine_endos,
    enumerate_autos,
    enumerate_homs,
    make_alexander,
    make_dihedral,
    parse_table_text,
)
from .quiver import (
    cocycle_polynomial,
    coloring_quiver,
    end_modules,
    quiver_isomorphic,
    quiver_to_json,
    shadow_cocycle_quiver,
    to_dot,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(ValueError):
    """Bad parameter values (exit code 2)."""


class QuandleDataError(ValueError):
    """Table file content failed validation (exit code 3)."""


def parse_quandle_spec(spec: str) -> FiniteQuandle:
    kind, colon, path = spec.partition(":")
    if kind == "table" and colon:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read quandle table {path!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise QuandleDataError(
                f"quandle table {path!r} is not valid UTF-8: {exc}") from None
        except ValueError as exc:  # a NUL in the path
            raise UsageError(f"bad quandle spec {spec!r}: {exc}") from None
        try:
            return parse_table_text(text)
        except ValueError as exc:
            raise QuandleDataError(f"bad quandle table {path!r}: {exc}") from None
    parts = spec.split(":")
    try:
        if parts[0] == "dihedral" and len(parts) == 2:
            return make_dihedral(int(parts[1]))
        if parts[0] == "alexander" and len(parts) == 3:
            return make_alexander(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise UsageError(f"bad quandle spec {spec!r}: {exc}") from None
    raise UsageError(
        f"bad quandle spec {spec!r} (grammar: dihedral:n | alexander:n:t | table:PATH)"
    )


def parse_endo_spec(spec: str, X: FiniteQuandle) -> Homs:
    if spec == "all":
        return enumerate_homs(X, X)
    if spec == "auto":
        return enumerate_autos(X)
    return affine_endos(X, map(_endo_pair, spec.split(";")))  # X is checked first


def _endo_pair(chunk: str) -> tuple[int, int]:
    parts = chunk.split(",")
    if len(parts) != 2:
        raise UsageError(f"bad endo pair {chunk!r} (expected 'a,b')")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"bad endo pair {chunk!r} (expected integers)") from None


def resolve_knot(name_or_pd: str, catalog: Catalog) -> Diagram:
    if name_or_pd in catalog:
        return catalog.diagram(name_or_pd)
    if "(" in name_or_pd or name_or_pd.lstrip().startswith("["):
        return build_diagram(parse_pd(name_or_pd))
    raise UsageError(f"unknown knot {name_or_pd!r} (not a catalog name or PD code)")


def _emit(result: dict, fmt: str, text_lines: list[str], started: float,
          quiver=None) -> None:
    """Print the result as ``json.dumps`` would, with the timing field last.

    With ``quiver``, JSON output gains ``outputs.quiver``, the value of
    ``quiver_to_json(quiver)``, written piece by piece.  The timing is
    taken once everything before it is written.
    """
    if fmt == "text":
        for line in text_lines:
            print(line)
        return
    write = sys.stdout.write
    # Drop the closing braces of the fields that get a last member:
    # the result gets timing, and outputs gets quiver.
    text = json.dumps(result)
    if quiver is None:
        write(text[:-1])
    else:
        write(text[:-2] + ', "quiver": ')
        quiver_to_json(quiver, write)
        write("}")
    timing = {"seconds": round(time.perf_counter() - started, 6)}
    write(', "timing": ' + json.dumps(timing) + "}\n")


def cmd_colorings(args, catalog: Catalog, started: float) -> int:
    d = resolve_knot(args.knot, catalog)
    list_mode = args.list
    X = parse_quandle_spec(args.quandle)
    outputs: dict = {}
    if not list_mode and X.formula_t is not None:
        outputs["count"] = count_colorings_dihedral(d, X.order, X.formula_t)
        outputs["method"] = "snf"
    else:
        cols = enumerate_colorings(d, X)
        outputs["count"] = len(cols)
        outputs["method"] = "enumeration"
        if list_mode:
            outputs["colorings"] = [c.to_json() for c in cols]
    result = {
        "command": "colorings",
        "parameters": {"knot": args.knot, "quandle": args.quandle,
                       "mode": "list" if list_mode else "count"},
        "outputs": outputs,
    }
    lines = [f"{outputs['count']} colorings ({outputs['method']})"]
    if list_mode:
        lines += [str(c) for c in outputs.get("colorings", [])]
    _emit(result, args.format, lines, started)
    return EXIT_OK


def _option(args, name: str):
    """The value of ``--name``, or its declared default where the parser
    left it None (see ``UNSET``)."""
    value = getattr(args, name)
    return OPTIONS["--" + name]["default"] if value is None else value


def _cocycle(args, X: FiniteQuandle) -> tuple[Cocycle3, int]:
    """The cocycle of ``--cocycle`` over X and the checked ``--base``."""
    name, base = _option(args, "cocycle"), _option(args, "base")
    if name != "mochizuki":
        raise UsageError(f"unknown cocycle {name!r} (only 'mochizuki')")
    if X.formula_t != -1:
        raise UsageError("the mochizuki cocycle needs R_p: dihedral:p or alexander:p:p-1")
    theta = mochizuki(X.order)
    if not 0 <= base < X.order:
        raise UsageError(f"base {base} out of range 0..{X.order - 1}")
    return theta, base


def _inputs(args, catalog: Catalog, knots: list[str], weighted: bool):
    """Resolve the knots, the quandle, the endomorphisms and the cocycle
    and base, in that order; return one diagram per distinct knot string,
    X, S, theta and the base.  theta and the base are None unless
    weighted, and then an explicit ``--cocycle`` or ``--base`` is an
    error."""
    resolved = {knot: resolve_knot(knot, catalog) for knot in knots}
    X = parse_quandle_spec(args.quandle)
    S = parse_endo_spec(args.endos, X)
    if weighted:
        return (resolved, X, S, *_cocycle(args, X))
    given = [f"--{name}" for name in ("cocycle", "base") if getattr(args, name, None) is not None]
    if given:
        raise UsageError(f"compare reads {' and '.join(given)} only with --weighted")
    return resolved, X, S, None, None


def _build_quivers(resolved: dict, X: FiniteQuandle, S: Homs, theta, base) -> dict:
    """One quiver per distinct knot string: a shadow cocycle quiver when
    theta is given, else a coloring quiver."""
    if theta is not None:
        return {knot: shadow_cocycle_quiver(d, X, S, base, theta) for knot, d in resolved.items()}
    return {knot: coloring_quiver(d, X, S) for knot, d in resolved.items()}


def _quiver(args, catalog: Catalog, weighted: bool):
    """The quiver of ``--knot``, checked and built as ``compare`` builds its two."""
    resolved, *inputs = _inputs(args, catalog, [args.knot], weighted)
    return _build_quivers(resolved, *inputs)[args.knot]


def _weight_multiset(X: FiniteQuandle, q) -> Counter:
    """``invariant_multiset(d, X, theta)``, the weights of all shadow
    colorings of d over R_p (p an odd prime, as ``mochizuki`` requires),
    read off the shadow quiver q of d at one base b: p times the
    multiset of q's weights.  No shadow is extended here.

    - x -> x*y = 2y - x is an automorphism of R_p.  So applying it to
      every arc and region label of a shadow coloring S gives a shadow
      coloring S*y.
    - W(S*y) = W(S).  Draw a circle labelled y in the unbounded region
      and sweep it over the whole diagram by Reidemeister moves.  It ends
      around the diagram with S*y inside it.  The moves keep each weight
      sum, and the circle has no crossings before or after.
    - Two such maps compose to x -> x + 2(z - y).  Since p is odd, that
      gives every translation.
    - So S -> S + k maps the base-b shadow colorings one-to-one onto the
      base-(b+k) ones, weight for weight.  Every base therefore has the
      multiset of ``q.weights``.
    """
    return Counter({w: X.order * m for w, m in Counter(q.weights).items()})


def _dot_output(args, q) -> bool:
    """Write DOT to ``--dot FILE``, or print it for ``--out dot``.

    Returns True when DOT went to stdout and nothing more is printed.
    DOT is made only when one of the two asks for it.
    """
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                to_dot(q, args.collapse_parallel, fh.write)
        except OSError as exc:
            raise UsageError(f"cannot write DOT file {args.dot!r}: {exc}") from None
        return False
    if args.out == "dot":
        to_dot(q, args.collapse_parallel, sys.stdout.write)
        return True
    return False


def cmd_quiver(args, catalog: Catalog, started: float) -> int:
    q = _quiver(args, catalog, weighted=False)
    if _dot_output(args, q):
        return EXIT_OK
    outputs: dict = {"vertices": q.n_vertices, "edges": q.n_edges}
    result = {
        "command": "quiver",
        "parameters": {"knot": args.knot, "quandle": args.quandle,
                       "endos": args.endos, "out": args.out},
        "outputs": outputs,
    }
    _emit(result, args.format, [f"{q.n_vertices} vertices, {q.n_edges} edges"], started,
          q if args.out == "json" else None)
    return EXIT_OK


def cmd_shadow(args, catalog: Catalog, started: float) -> int:
    q = _quiver(args, catalog, weighted=True)
    if _dot_output(args, q):
        return EXIT_OK
    poly = cocycle_polynomial(q)
    outputs: dict = {
        "vertices": q.n_vertices,
        "edges": q.n_edges,
        "weight_histogram": multiset_to_json(Counter(q.weights)),
        "polynomial": str(poly),
    }
    result = {
        "command": "shadow",
        "parameters": {"knot": args.knot, "quandle": args.quandle,
                       "cocycle": args.cocycle, "base": args.base,
                       "endos": args.endos, "out": args.out},
        "outputs": outputs,
    }
    lines = [
        f"{q.n_vertices} vertices, {q.n_edges} edges",
        "weights " + " ".join(f"{w}:{c}" for w, c in outputs["weight_histogram"]),
        f"polynomial {poly}",
    ]
    _emit(result, args.format, lines, started, q if args.out == "json" else None)
    return EXIT_OK


def cmd_compare(args, catalog: Catalog, started: float) -> int:
    knots = [args.knotA, args.knotB]
    resolved, X, S, theta, base = _inputs(args, catalog, knots, args.weighted)
    dA, dB = (resolved[knot] for knot in knots)
    # The verdict of an unweighted compare over all of End(R_n) comes
    # from the coloring modules; quivers are built only to prove a witness.
    modules = None if args.weighted else end_modules(X, S, dA, dB)
    outputs: dict = {}
    if modules is not None and modules[1] is None:
        counts, iso, witness = modules[0], False, None
    else:
        quivers = _build_quivers(resolved, X, S, theta, base)
        qA, qB = (quivers[knot] for knot in knots)
        over = None if modules is None else modules[1]
        iso, witness = quiver_isomorphic(qA, qB, respect_weights=args.weighted, over=over)
        counts = [qA.n_vertices, qB.n_vertices]
        if args.weighted:
            mA = _weight_multiset(X, qA)
            mB = mA if qB is qA else _weight_multiset(X, qB)
            outputs["multisets"] = {
                "A": multiset_to_json(mA),
                "B": multiset_to_json(mB),
                "equal": mA == mB,
            }
    outputs["counts"] = counts
    outputs["isomorphic"] = iso
    outputs["witness"] = list(witness) if witness is not None else None
    result = {
        "command": "compare",
        "parameters": {"knotA": args.knotA, "knotB": args.knotB,
                       "quandle": args.quandle, "endos": args.endos,
                       "weighted": args.weighted},
        "outputs": outputs,
    }
    verdict = "isomorphic" if iso else "NOT isomorphic"
    _emit(result, args.format, [f"{args.knotA} vs {args.knotB}: {verdict}"], started)
    return EXIT_OK


_KNOT_HELP = "catalog name or PD code"

# Each option's add_argument keywords, declared once.
OPTIONS = {
    "knotA": {"help": _KNOT_HELP},
    "knotB": {"help": _KNOT_HELP},
    "--knot": {"required": True, "help": _KNOT_HELP},
    "--quandle": {"required": True, "help": "dihedral:n | alexander:n:t | table:PATH"},
    "--count": {"action": "store_true", "help": "count only (default)"},
    "--list": {"action": "store_true", "help": "list the colorings"},
    "--endos": {"default": "all", "help": "all | auto | 'a,b;a,b;...'"},
    "--weighted": {"action": "store_true", "help": "compare shadow cocycle quivers"},
    "--cocycle": {"default": "mochizuki",
                  "help": "only mochizuki, which needs R_p (dihedral:p or alexander:p:p-1) "
                          "with p an odd prime"},
    "--base": {"type": int, "default": 0, "help": "label of the unbounded region"},
    "--out": {"choices": ["json", "dot"], "default": "json", "help": "print JSON or DOT"},
    "--dot": {"metavar": "FILE", "help": "write DOT to a file"},
    "--collapse-parallel": {"action": "store_true",
                            "help": "merge parallel edges in DOT output (display only)"},
    "--format": {"choices": ["json", "text"], "default": "json",
                 "help": "JSON, or a short human summary"},
}

# Each subcommand's help and its option names, in usage-line order;
# names joined by "|" are mutually exclusive.
COMMANDS = {
    "colorings": ("count or list quandle colorings",
                  "--knot --quandle --count|--list --format"),
    "quiver": ("build a quandle coloring quiver",
               "--knot --quandle --endos --out --dot --collapse-parallel --format"),
    "shadow": ("build a shadow cocycle quiver",
               "--knot --quandle --cocycle --base --endos --out --dot --collapse-parallel "
               "--format"),
    "compare": ("decide quiver isomorphism of two knots",
                "knotA knotB --quandle --endos --weighted --cocycle --base --format"),
}

# Options a subcommand's parser leaves None when not given, so that an
# explicit value is told apart from the default: compare reads --cocycle
# and --base only with --weighted.
UNSET = {"compare": ("cocycle", "base")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built the first time a process asks for it."""
    parser = argparse.ArgumentParser(
        prog="quiverknot",
        description="Quandle coloring quivers and shadow cocycle invariants "
                    "of knots given as PD codes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for token in names.split():
            group = p.add_mutually_exclusive_group() if "|" in token else p
            for name in token.split("|"):
                group.add_argument(name, **OPTIONS[name])
        p.set_defaults(**dict.fromkeys(UNSET.get(command, ()), None))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        catalog = load_catalog()
        code = globals()["cmd_" + args.subcommand](args, catalog, started)
        sys.stdout.flush()  # a reader gone early is told here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull,
        # so that the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CatalogError, ParseError, StructuralError, QuandleDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
