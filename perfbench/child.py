"""One workload run, in a child process of ``run.py``.

The child imports ``quiverknot`` from the checkout's ``src`` and loads
the catalog first, before any benchmark module, and reports the
``time.monotonic()`` reading at that point; the parent subtracts the
reading it took before spawning.  With ``--probe`` it stops there.

Otherwise it builds the seeded job list and runs passes over it through
``quiverknot.cli.main``, with stdout and stderr captured in memory, until
``--seconds`` have passed.  With ``--trace 1`` passes alternate untraced
and traced.  Each job is timed around the ``main`` call alone, and its
output is checked after the timing stops.  Between passes the child
spawns setup probes, about one per two seconds measured, so that the
set-up samples spread over the whole run as the passes do.  The last
line of stdout is a JSON summary for the parent.
"""

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_package():
    sys.path.insert(0, SRC)
    import quiverknot

    quiverknot.load_catalog()
    ready = time.monotonic()
    if not os.path.abspath(quiverknot.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"quiverknot was imported from {quiverknot.__file__}, not {SRC}")
    return ready


def probe() -> float:
    """Seconds from spawning a ``--probe`` child to its ready mark."""
    spawned = time.monotonic()
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe"],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1]) - spawned


class Capture:
    """A write-only text stream that keeps the written strings."""

    def __init__(self):
        self.chunks = []

    def write(self, s):
        self.chunks.append(s)
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.chunks)


def run_job(cli, job):
    """(exit code, exception, stdout, stderr, seconds) of one main() call."""
    from contextlib import redirect_stderr, redirect_stdout

    out, err = Capture(), Capture()
    rc = exc = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(job.argv))
        except (Exception, SystemExit) as e:
            exc = e
        seconds = time.perf_counter() - start
    return rc, exc, out.text(), err.text(), seconds


def run_pass(cli, jobs, checker, tracer, pass_no, traced):
    record = {"traced": traced, "wall_s": 0.0, "slowest_job_s": 0.0, "out_bytes": 0,
              "attempted": 0, "failed": 0, "failures": []}
    for i, job in enumerate(jobs):
        if traced:
            tracer.start_job(f"{pass_no}:{i}")
        rc, exc, out, err, seconds = run_job(cli, job)
        tracer.stop_job()
        record["wall_s"] += seconds
        record["slowest_job_s"] = max(record["slowest_job_s"], seconds)
        record["out_bytes"] += len(out)
        record["attempted"] += 1
        problems, _ = checker.check(i, job, rc, exc, out, err)
        del out, err
        if problems:
            record["failed"] += 1
            if len(record["failures"]) < 20:
                record["failures"].append({"pass": pass_no, "job": i, "argv": job.argv[:3],
                                           "problems": problems})
    if traced:
        record["self_s"], counts = tracer.take()
        record["counts"] = dict(counts)
    return record


def main(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    ready = load_package()
    if args.probe:
        print(ready)
        return 0

    import json

    import quiverknot
    from quiverknot import cli

    from checks import Checker
    from tracer import Tracer
    from workloads import describe, make_jobs

    catalog = quiverknot.load_catalog()
    jobs = make_jobs(args.workload, args.seed, catalog)
    with open(os.path.join(os.path.dirname(__file__), "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["digests"]
    checker = Checker(catalog, golden)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    passes, probes = [], []
    started = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(cli, jobs, checker, tracer, len(passes), traced))
            probes += [probe() for _ in range(max(1, round(passes[-1]["wall_s"] / 2)))]
            kinds = {p["traced"] for p in passes}
            if time.monotonic() - started >= args.seconds and len(kinds) == 1 + args.trace:
                break
    finally:
        tracer.uninstall()
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
    summary = {
        "ready": ready,
        "python": sys.version.split()[0],
        "workload": describe(args.workload, args.seed, jobs, catalog),
        "passes": passes,
        "probes": probes,
        "unwrapped": tracer.missing,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
