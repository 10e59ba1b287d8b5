"""Record the golden output digests that every benchmark run checks.

    python3 perfbench/golden.py

Runs every job any seed can produce: each workload's fixed jobs, and
for the seeded ones every endomorphism subset in the pool with every
base, each on two different relabellings of its PD codes.  All
variants that share a golden key must give one digest; that is what
lets a key leave the base and the labelling out.  The digests go to
``golden.json`` next to this file, with the commit they were recorded
at.  Run it only on a commit whose output is known to be right.
"""

import json
import os
import random
import sys

from child import load_package, run_job
from run import commit


def variants(catalog):
    import workloads as w

    for seed in (0, 1):
        for name in w.WORKLOADS:
            yield from w.make_jobs(name, seed, catalog)
        rng = random.Random(f"golden:{seed}")
        copies = {k: w.relabel(catalog, k, rng) for k in w.nontrivial_knots(catalog)}
        for p in w.PRIMES:
            for endos in w.endo_pool(p):
                for base in range(p):
                    for k in copies:
                        yield w.shadow_job(catalog, copies[k], p, endos, base)
                    for a, b in w.equal_count_pairs(catalog, p):
                        yield w.weighted_compare_job(copies[a], copies[b], p, endos, base)
        yield from (w.paper_job(catalog, copies[k]) for k in w.PAPER_POLYNOMIALS)


def main() -> int:
    load_package()
    import quiverknot
    from quiverknot import cli

    from checks import Checker

    catalog = quiverknot.load_catalog()
    checker = Checker(catalog, None)
    digests: dict[str, str] = {}
    bad = 0
    for index, job in enumerate(variants(catalog)):
        rc, exc, out, err, _ = run_job(cli, job)
        problems, d = checker.check(index, job, rc, exc, out, err)
        if digests.setdefault(job.key, d) != d:
            problems.append(f"digest {d} differs from {digests[job.key]} under the same key")
        if problems:
            bad += 1
            print(job.key, job.argv, problems, file=sys.stderr)
    if bad:
        print(f"{bad} jobs failed; golden.json not written", file=sys.stderr)
        return 1
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit(), "digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"{len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
