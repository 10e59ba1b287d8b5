"""quiverknot benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload iso-end --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``iso-end``: ``compare`` on End-quivers over R_9 and R_5; isomorphism
  is nearly all of the time.
* ``build-large``: ``quiver`` JSON and DOT output of 8_10/R_27,
  8_18/R_15 and 8_18 over alexander:27:2; construction, hom enumeration,
  serialisation and memory, no isomorphism.
* ``shadow-sweep``: about 190 small ``colorings``, ``shadow`` and
  weighted ``compare`` jobs over every nontrivial catalog knot as
  relabelled PD text and R_3 to R_13, plus error paths; per-call fixed
  costs.

Each run spawns one child for the workload (``child.py``), which in turn
spawns setup probes that only import the package and load the catalog.
Jobs run one after another in that single process, a closed loop with
one client.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: spawn to the end of ``import quiverknot`` plus one
  ``load_catalog()``, median over the probes and the workload child.
* ``wall_s``: time inside ``main`` summed over one pass of the job list,
  median over the passes.  Passes are warm: the child has imported the
  package and loaded the catalog before the first one.
* ``slowest_job_s``: the slowest job of a pass, mean over passes (see
  ``REPORTED``).  The record also holds its median and quartiles.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload child, from ``os.wait4``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (``tracer.py``): self times and counts per layer,
exceptions per layer, the failed-job ratio, and the tracing overhead as
traced minus untraced ``wall_s``.

Every job's output is checked (``checks.py``) against the digests in
``golden.json``.  The full record of a run, with the workload parameters
and the machine, goes to ``perfbench/results/``; the last stdout line is
the JSON summary.  Exits 2, printing no summary, when the checkout has no
``src/quiverknot`` to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB"}
# The statistic each end-to-end metric reports.  A slowest job of well
# under a second falls wholly inside one of the host's fast or slow
# spells, so its per-pass values form two clusters and their median jumps
# between them from run to run; the mean follows the share of slow
# passes smoothly.  A pass takes seconds and averages over the spells.
REPORTED = {"setup_s": "median", "wall_s": "median", "slowest_job_s": "mean",
            "peak_rss_mb": "median"}
LAYER_TIMES = ["quiver.iso", "quiver.build", "quandle.homs", "quiver.json", "quiver.dot",
               "cli.self", "coloring.enumerate", "snf.count", "coloring.shadow",
               "cocycle.weight", "cocycle.multiset", "quiver.poly", "catalog.load",
               "diagram.build"]
LAYER_COUNTS = ["quiver.iso_calls", "quiver.edges", "quandle.homs", "coloring.colorings",
                "coloring.shadow_calls"]
LAYERS = ("cli", "catalog", "diagram", "quandle", "coloring", "snf", "cocycle", "quiver")


class RunError(RuntimeError):
    pass


def run_child(args: list, deadline: float):
    """Run child.py; (its summary, its rusage, seconds from spawn to ready)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunError(f"child {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"child {args} printed nothing")
    summary = json.loads(lines[-1])
    return summary, usage, summary["ready"] - spawned


def quartiles(values: list) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "mean": statistics.fmean(values),
            "q1": q[0], "q3": q[2], "n": len(values)}


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
        for line in fh:
            if line.rstrip().endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": sys.platform, "git_commit": commit()}


def end_to_end(summary: dict, setups: list, usage) -> dict:
    untraced = [p for p in summary["passes"] if not p["traced"]]
    stats = {
        "setup_s": quartiles(setups),
        "wall_s": quartiles([p["wall_s"] for p in untraced]),
        "slowest_job_s": quartiles([p["slowest_job_s"] for p in untraced]),
        "peak_rss_mb": {"median": usage.ru_maxrss / 1024, "n": 1},
    }
    for name, unit in END_TO_END_UNITS.items():
        stats[name]["unit"] = unit
    return stats


def per_layer(summary: dict, attempted: int, failed: int) -> dict:
    traced = [p for p in summary["passes"] if p["traced"]]
    untraced = [p for p in summary["passes"] if not p["traced"]]

    def median_of(get) -> float:
        return statistics.median(get(p) for p in traced)

    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (median_of(lambda p: p["self_s"].get(name, 0.0)), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (median_of(lambda p: p["counts"].get(name, 0)), "count")
    for layer in LAYERS:
        metrics[f"{layer}.exceptions"] = (
            median_of(lambda p: p["counts"].get(f"{layer}.exceptions", 0)), "count")
    metrics["cli.out_bytes"] = (median_of(lambda p: p["out_bytes"]), "bytes")
    traced_wall = median_of(lambda p: p["wall_s"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(p["wall_s"] for p in untraced), "s")
    # Nothing in the package waits on another thread or process.
    metrics["wait_s"] = (0.0, "s")
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quiverknot", "__init__.py")):
        print(f"error: no src/quiverknot under {ROOT} to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            child_args += ["--spans", stem + "-spans.jsonl"]
        summary, usage, setup = run_child(child_args, deadline)
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs = summary["passes"]
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    e2e = end_to_end(summary, [setup, *summary["probes"]], usage)
    if args.trace:
        metrics = per_layer(summary, attempted, failed)
    else:
        metrics = {name: (e2e[name][REPORTED[name]], unit)
                   for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": summary["workload"],
        "trace": args.trace,
        "seconds": args.seconds,
        "python": summary["python"],
        "machine": machine(),
        "end_to_end": e2e,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": failed / attempted,
        "passes": [{k: v for k, v in p.items() if k != "failures"} for p in summary["passes"]],
        "failures": [f for p in runs for f in p["failures"]][:50],
        "unwrapped": summary["unwrapped"],
        "closed_loop": "one client; each job starts when the previous one returns",
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for failure in record["failures"][:10]:
        print("FAILED", json.dumps(failure))
    for name, (value, unit) in metrics.items():
        print(f"{name:24} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
