"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import load_package, run_job, run_pass  # noqa: E402

load_package()

import quiverknot  # noqa: E402
from quiverknot import cli  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, strip_timing  # noqa: E402
from run import quartiles  # noqa: E402
from tracer import Tracer  # noqa: E402

CATALOG = quiverknot.load_catalog()


def golden_digests() -> dict:
    import json

    with open(os.path.join(os.path.dirname(__file__), "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def small_jobs() -> list:
    """A quick mix: every command, relabelled input, a witness, error paths."""
    jobs = workloads.make_jobs("shadow-sweep", 7, CATALOG)
    pick = [j for j in jobs if "@4_1" in j.key or "@5_1" in j.key or j.out == "error"]
    iso = workloads.make_jobs("iso-end", 7, CATALOG)
    return pick + [j for j in iso if "dihedral:5" in j.key]


class CheckTests(unittest.TestCase):
    def test_seed_jobs_pass(self):
        tracer = Tracer()
        record = run_pass(cli, small_jobs(), Checker(CATALOG, golden_digests()), tracer, 0, False)
        self.assertEqual(record["failed"], 0, record["failures"])

    def test_corrupted_digest_fails_the_job(self):
        jobs = small_jobs()
        golden = golden_digests()
        golden[jobs[0].key] = "0" * 32
        record = run_pass(cli, jobs, Checker(CATALOG, golden), Tracer(), 0, False)
        self.assertEqual(record["failed"], 1)
        self.assertIn("golden", record["failures"][0]["problems"][0])

    def test_corrupted_output_fails_the_job(self):
        job = next(j for j in small_jobs() if j.key.startswith("shadow|@4_1|dihedral:5|1,2"))
        rc, exc, out, err, _ = run_job(cli, job)
        checker = Checker(CATALOG, golden_digests())
        self.assertEqual(checker.check(0, job, rc, exc, out, err)[0], [])
        corrupted = out.replace('"polynomial": "5 + 10st', '"polynomial": "5 + 11st')
        problems, _ = Checker(CATALOG, golden_digests()).check(0, job, rc, exc, corrupted, err)
        self.assertTrue(problems)

    def test_wrong_exit_code_and_raise_fail(self):
        job = next(j for j in small_jobs() if j.out == "error")
        checker = Checker(CATALOG, golden_digests())
        self.assertTrue(checker.check(0, job, 0, None, "", "error: x")[0])
        self.assertTrue(checker.check(0, job, None, SystemExit(2), "", "")[0])

    def test_strip_timing(self):
        self.assertEqual(strip_timing('{"a": 1, "timing": {"seconds": 0.5}}\n'), '{"a": 1}')
        with self.assertRaises(ValueError):
            strip_timing('{"a": 1}')


class RelabelTests(unittest.TestCase):
    def test_relabelled_code_keeps_fingerprint_and_colorings(self):
        from quiverknot import build_diagram, enumerate_colorings, make_dihedral, parse_pd

        for seed in range(3):
            rng = random.Random(seed)
            for name in workloads.nontrivial_knots(CATALOG):
                c = workloads.relabel(CATALOG, name, rng)
                self.assertEqual(sorted(c.arc_perm), list(range(len(c.arc_perm))))
                X = make_dihedral(3)
                moved = enumerate_colorings(build_diagram(parse_pd(c.text)), X)
                original = enumerate_colorings(CATALOG.diagram(name), X)
                self.assertEqual(sorted([v[j] for j in c.arc_perm] for v in
                                        (m.values for m in moved)),
                                 sorted(list(o.values) for o in original))

    def test_same_seed_same_jobs(self):
        for name in workloads.WORKLOADS[::2]:
            a = workloads.make_jobs(name, 3, CATALOG)
            b = workloads.make_jobs(name, 3, CATALOG)
            self.assertEqual([j.argv for j in a], [j.argv for j in b])

    def test_every_seeded_key_is_recorded(self):
        golden = golden_digests()
        for seed in range(20):
            for name in workloads.WORKLOADS:
                for job in workloads.make_jobs(name, seed, CATALOG):
                    self.assertIn(job.key, golden)


class TraceTests(unittest.TestCase):
    def test_traced_and_untraced_outputs_identical(self):
        jobs = small_jobs()
        checker = Checker(CATALOG, golden_digests())
        tracer = Tracer()
        plain = run_pass(cli, jobs, checker, tracer, 0, False)
        original = cli.coloring_quiver
        tracer.install()
        try:
            traced = run_pass(cli, jobs, checker, tracer, 1, True)
        finally:
            tracer.uninstall()
        self.assertIs(cli.coloring_quiver, original)
        # The checker flags a job whose digest differs from its earlier pass.
        self.assertEqual((plain["failed"], traced["failed"]), (0, 0), traced["failures"])
        self.assertEqual(tracer.missing, [])
        self.assertGreater(traced["self_s"]["quiver.iso"], 0)
        self.assertEqual(traced["counts"]["quiver.iso_calls"],
                         sum(j.argv[0] == "compare" for j in jobs))
        self.assertGreater(traced["counts"]["cli.exceptions"], 0)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"cli.self", "catalog.load", "coloring.shadow"} <= names)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.spans.extend([("a", 0.0, 10.0, -1, "j"), ("b", 1.0, 4.0, 0, "j"),
                             ("c", 2.0, 3.0, 1, "j")])
        self_s, _ = tracer.take()
        self.assertEqual(self_s, {"a": 7.0, "b": 2.0, "c": 1.0})

    def test_quartiles(self):
        q = quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((q["median"], q["mean"], q["n"]), (3.0, 3.0, 5))
        self.assertLessEqual(q["q1"], q["median"])
        self.assertLessEqual(q["median"], q["q3"])


if __name__ == "__main__":
    unittest.main()
