"""The built-in knot catalog and user catalog loading.

Entries carry a PD code plus recorded invariants used as a validation
fingerprint: the knot determinant and the nontrivial elementary
divisors of the coloring matrix (the first homology of the double
branched cover).  The built-in entries are read once per process, and
each is built and checked against its fingerprint once, the first time
the process uses it; a user file's entries are built and checked at
each load.  Dihedral coloring counts for any n follow from those
divisors, so a corrupted PD code cannot silently feed the invariants.
The check reads ``Diagram.coloring_reduction()``, the one reduction at
t = -1 that every later R_n count, R_n listing and End(R_n)-quiver
compare of the diagram reuses.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from .diagram import Diagram, build_diagram, parse_pd, unknot_diagram

ENV_CATALOG = "QUIVERKNOT_CATALOG"


class CatalogError(ValueError):
    """A catalog file or entry failed schema or fingerprint validation."""


# PD codes generated from canonical braid-word, 4-plat and Montesinos
# presentations of the named knots, fingerprint-checked on first use.
# Chirality may differ from printed tables; nothing computed here
# distinguishes mirrors.
_DEFAULT_ENTRIES: dict = {
    "unknot": {
        "pd": "unknot",
        "determinant": 1,
        "homology": [],
        "notes": "0-crossing round unknot",
    },
    "3_1": {
        "pd": "X(6,3,1,4) X(4,1,5,2) X(2,5,3,6)",
        "determinant": 3,
        "homology": [3],
        "notes": "trefoil, closure of a 3-crossing 2-braid",
    },
    "3_1_kinked": {
        "pd": "X(10,5,1,6) X(6,1,7,2) X(2,7,3,8) X(3,9,4,8) X(4,9,5,10)",
        "determinant": 3,
        "homology": [3],
        "notes": "trefoil with an extra Reidemeister-II finger, 5 crossings",
    },
    "4_1": {
        "pd": "X(5,1,6,8) X(3,6,4,7) X(1,5,2,4) X(7,2,8,3)",
        "determinant": 5,
        "homology": [5],
        "notes": "figure-eight knot",
    },
    "5_1": {
        "pd": "X(10,5,1,6) X(6,1,7,2) X(2,7,3,8) X(8,3,9,4) X(4,9,5,10)",
        "determinant": 5,
        "homology": [5],
        "notes": "cinquefoil, closure of a 5-crossing 2-braid",
    },
    "5_2": {
        "pd": "X(7,10,8,1) X(1,6,2,7) X(5,2,6,3) X(3,8,4,9) X(9,4,10,5)",
        "determinant": 7,
        "homology": [7],
        "notes": "twist knot, 4-plat of 7/2",
    },
    "6_1": {
        "pd": "X(9,12,10,1) X(1,8,2,9) X(7,2,8,3) X(3,6,4,7) X(5,11,6,10) "
              "X(11,5,12,4)",
        "determinant": 9,
        "homology": [9],
        "notes": "twist knot, 4-plat of 9/2",
    },
    "6_2": {
        "pd": "X(7,1,8,12) X(1,9,2,8) X(9,3,10,2) X(3,7,4,6) X(5,10,6,11) "
              "X(11,4,12,5)",
        "determinant": 11,
        "homology": [11],
        "notes": "4-plat of 11/3",
    },
    "6_3": {
        "pd": "X(7,1,8,12) X(1,9,2,8) X(9,7,10,6) X(5,2,6,3) X(3,10,4,11) "
              "X(11,4,12,5)",
        "determinant": 13,
        "homology": [13],
        "notes": "4-plat of 13/5",
    },
    "7_4": {
        "pd": "X(9,14,10,1) X(1,8,2,9) X(7,2,8,3) X(3,10,4,11) X(11,6,12,7) "
              "X(5,12,6,13) X(13,4,14,5)",
        "determinant": 15,
        "homology": [15],
        "notes": "4-plat of 15/4",
    },
    "8_10": {
        "pd": "X(5,1,6,16) X(1,7,2,6) X(7,3,8,2) X(15,10,16,11) X(9,14,10,15) "
              "X(11,8,12,9) X(13,5,14,4) X(3,13,4,12)",
        "determinant": 27,
        "homology": [27],
        "notes": "Montesinos assembly of columns 3, 21, 2",
    },
    "8_18": {
        "pd": "X(5,1,6,16) X(11,6,12,7) X(1,13,2,12) X(7,2,8,3) X(13,9,14,8) "
              "X(3,14,4,15) X(9,5,10,4) X(15,10,16,11)",
        "determinant": 45,
        "homology": [3, 15],
        "notes": "closure of an 8-crossing alternating 3-braid",
    },
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    pd: str
    r_infinity: Optional[tuple[int, int]]
    notes: str
    determinant: int
    homology: tuple[int, ...]


class Catalog:
    """A name -> diagram table; each diagram is built and checked on first use."""

    def __init__(self, entries: dict[str, CatalogEntry]):
        self.entries = entries
        self._diagrams: dict[str, Diagram] = {}

    def names(self) -> list[str]:
        return sorted(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def diagram(self, name: str) -> Diagram:
        if name not in self.entries:
            raise CatalogError(f"unknown catalog entry {name!r}")
        entry = self.entries[name]
        if default_entries().get(name) is entry:
            return _builtin_diagram(name)
        if name not in self._diagrams:
            self._diagrams[name] = _build_entry(entry)
        return self._diagrams[name]


@functools.cache
def _builtin_diagram(name: str) -> Diagram:
    """A built-in entry's diagram, built and checked once per process and
    shared by every catalog, so its cached shadow plan is kept too."""
    return _build_entry(default_entries()[name])


def _build_entry(entry: CatalogEntry) -> Diagram:
    try:
        if entry.pd == "unknot":
            d = unknot_diagram()
        else:
            d = build_diagram(parse_pd(entry.pd), r_infinity_corner=entry.r_infinity)
    except ValueError as exc:
        raise CatalogError(f"entry {entry.name!r} failed to build: {exc}") from None
    _check_fingerprint(entry, d)
    return d


def _check_fingerprint(entry: CatalogEntry, d: Diagram) -> None:
    divisors = [dd for dd in d.coloring_reduction()[0] if dd not in (0, 1)]
    det = math.prod(divisors) if divisors else 1
    if det != entry.determinant:
        raise CatalogError(
            f"entry {entry.name!r}: determinant {det} does not match the "
            f"recorded value {entry.determinant}"
        )
    if tuple(sorted(divisors)) != tuple(sorted(entry.homology)):
        raise CatalogError(
            f"entry {entry.name!r}: homology divisors {sorted(divisors)} do not "
            f"match the recorded {sorted(entry.homology)}"
        )


def _entry_from_dict(name: str, raw: dict) -> CatalogEntry:
    if not isinstance(raw, dict) or "pd" not in raw:
        raise CatalogError(f"entry {name!r}: expected an object with a 'pd' field")
    pd = raw["pd"]
    if not isinstance(pd, str):
        raise CatalogError(f"entry {name!r}: 'pd' must be a string")
    r_inf = raw.get("r_infinity")
    if r_inf is not None:
        if (
            not isinstance(r_inf, (list, tuple))
            or len(r_inf) != 2
            or not all(type(v) is int for v in r_inf)  # JSON true is an int too
        ):
            raise CatalogError(
                f"entry {name!r}: 'r_infinity' must be a [crossing, corner] pair"
            )
        r_inf = (r_inf[0], r_inf[1])
    det = raw.get("determinant")
    hom = raw.get("homology")
    if det is None and hom is None:
        raise CatalogError(
            f"entry {name!r}: a fingerprint is required "
            "('determinant' and/or 'homology')"
        )
    if hom is not None:
        if not isinstance(hom, (list, tuple)) or not all(type(v) is int for v in hom):
            raise CatalogError(f"entry {name!r}: 'homology' must be a list of integers")
        hom = tuple(hom)
        implied = math.prod(hom) if hom else 1
        if det is None:
            det = implied
        elif det != implied:
            raise CatalogError(
                f"entry {name!r}: determinant {det} contradicts homology {list(hom)}"
            )
    else:
        hom = (det,) if det != 1 else ()
    if type(det) is not int or det < 1:
        raise CatalogError(f"entry {name!r}: bad determinant {det!r}")
    return CatalogEntry(
        name=name,
        pd=pd,
        r_infinity=r_inf,
        notes=str(raw.get("notes", "")),
        determinant=det,
        homology=hom,
    )


@functools.cache
def default_entries() -> dict[str, CatalogEntry]:
    """The built-in entries, read from their constants once per process.
    The dict is shared: copy it before adding to it."""
    return {
        name: _entry_from_dict(name, raw) for name, raw in _DEFAULT_ENTRIES.items()
    }


def load_catalog(path: Optional[str] = None) -> Catalog:
    """The built-in catalog, with user entries merged over it.

    ``path`` defaults to the QUIVERKNOT_CATALOG environment variable.
    The user file is a JSON object mapping names to entry objects; user
    entries override built-ins of the same name.  User entries are built
    and fingerprint-checked here, built-ins on first use; a failure names its entry.
    """
    catalog = Catalog(dict(default_entries()))
    if path is None:
        path = os.environ.get(ENV_CATALOG) or None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CatalogError(f"cannot read catalog file {path!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CatalogError(f"catalog file {path!r} is not valid UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog file {path!r} is not valid JSON: {exc}") from None
        except ValueError:  # an integer of more digits than int() converts
            raise CatalogError(f"catalog file {path!r} holds a number with too many digits") from None
        except RecursionError:
            raise CatalogError(f"catalog file {path!r} is nested too deeply") from None
        if not isinstance(data, dict):
            raise CatalogError(f"catalog file {path!r} must hold a JSON object")
        for name, raw in data.items():
            catalog.entries[name] = _entry_from_dict(name, raw)
        for name in sorted(data):
            catalog.diagram(name)
    return catalog
