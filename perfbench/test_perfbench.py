#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny sizes.

    python3 perfbench/test_perfbench.py

Runs every workload untraced and traced and checks that each emits exactly
the metrics BENCHMARK.json declares, with their units, and no failures.
Then feeds each oracle a deliberately wrong expected answer and checks
that it counts the result as failed. Builds into $CARGO_TARGET_DIR
(default .bench_build) like run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BUILD = os.path.abspath(os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def bench(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (r.returncode,
                                                         r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def check(self, out, metrics):
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in out["metrics"].items()},
            {m["name"]: m["unit"] for m in metrics})

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                out = bench(w["name"], 0)
                self.check(out, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][m["name"]]["value"], 0,
                                       m["name"])
            with self.subTest(workload=w["name"], trace=1):
                self.check(bench(w["name"], 1), SPEC["per_layer"])


class Oracles(unittest.TestCase):
    """Each oracle must reject a wrong expected answer."""

    @classmethod
    def setUpClass(cls):
        cls.bins = run.build(BUILD)
        cls.tmp = tempfile.mkdtemp(dir=BUILD)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def path(self, name):
        return os.path.join(self.tmp, name)

    def susc(self, *args):
        r = subprocess.run([self.bins["susc"]] + list(args),
                           capture_output=True, text=True)
        return r.stdout, r.returncode

    def repos(self):
        yield "b11", gen.gen_b11(self.path("b11.sus"), 5, **run.TINY["b11"])
        yield "hotel", gen.gen_hotel(self.path("hotel.sus"), 5,
                                     **run.TINY["hotel"])

    def test_report_oracles(self):
        for name, answer in self.repos():
            sus = self.path(name + ".sus")
            verify, _ = self.susc(sus)
            plan, _ = self.susc("plan", sus)
            lint, code = self.susc("lint", sus)
            self.assertEqual(gen.verify_mismatches(verify, answer), [])
            self.assertEqual(gen.plan_mismatches(plan, answer), [])
            self.assertTrue(gen.lint_ok(lint, code, answer))

            client = sorted(answer.valid)[0]
            plans = answer.valid[client]
            wrong = set(plans)
            wrong.pop() if wrong else wrong.add("{1 -> nowhere}")
            answer.valid[client] = wrong
            self.assertEqual(gen.verify_mismatches(verify, answer), [client])
            self.assertEqual(gen.plan_mismatches(plan, answer), [client])
            answer.valid[client] = plans
            answer.candidates[client] += 1
            self.assertEqual(gen.plan_mismatches(plan, answer), [client])
            answer.candidates[client] -= 1
            answer.lint_findings += 1
            self.assertFalse(gen.lint_ok(lint, code, answer))

    def driver(self, *args, cwd=None):
        return run.run_driver(self.bins, list(args), cwd or self.tmp)

    def test_replay_oracle(self):
        for name, answer in self.repos():
            sus, expect = self.path(name + ".sus"), self.path(name + ".exp")
            answer.write(expect)
            self.assertEqual(self.driver("trace-cold", sus, expect,
                                         "-")["failed"], 0)
            client = sorted(answer.valid)[0]
            answer.valid[client] = {"{1 -> nowhere}"}
            answer.lint_findings += 1
            answer.write(expect)
            # Replay and Verifier verdicts and the lint count, both passes.
            self.assertEqual(self.driver("trace-cold", sus, expect,
                                         "-")["failed"], 6)

    def test_monitor_oracle(self):
        sus, stream = self.path("m.sus"), self.path("m.txt")
        answer = gen.gen_monitor(sus, stream, 5, **run.TINY["monitor"])
        ok = self.driver("monitor", sus, stream, "0", "1", "-")
        self.assertEqual(ok["failed"], 0)
        self.assertEqual(ok["metrics"]["monitor.blocked"], answer.blocked)
        with open(stream) as f:
            text = f.read()
        # Drop the first injected mark, and mark an admitted label blocked.
        i = text.index("!")
        j = text.index(" ", text.index("batch ") + 8)
        with open(stream, "w") as f:
            f.write(text[:j] + "!" + text[j:i] + text[i + 1:])
        bad = self.driver("monitor", sus, stream, "0", "1", "-")
        self.assertGreaterEqual(bad["failed"], 2)

    def test_daemon_oracles(self):
        answer = gen.gen_b11(self.path("d.sus"), 5, **run.TINY["b11"])
        good, bad = self.path("good.txt"), self.path("bad.txt")
        n = gen.gen_load(good, 5, answer, 0.5, rates=(40, 4, 20))
        with open(good) as f:
            lines = f.read().splitlines()
        # Expect a plan no client has, and one client more than there are
        # (so that no churn can report every client).
        wrong = ["clients %d" % (len(answer.valid) + 1)]
        for line in lines[1:]:
            due, verb, params, expected = line.split(" ", 3)
            if verb == "verify":
                expected = "{1 -> nowhere}"
            wrong.append(" ".join([due, verb, params, expected]))
        with open(bad, "w") as f:
            f.write("\n".join(wrong) + "\n")
        verifies = sum(" verify " in line for line in wrong)
        churns = sum(" churn " in line for line in wrong)
        cwd = os.getcwd()
        os.chdir(self.tmp)
        live = None
        try:
            live = run.Daemon(self.bins, self.path("d.sus"), "o.sock")
            ok = self.driver("loadgen", "o.sock", good, "2")
            ko = self.driver("loadgen", "o.sock", bad, "2")
        finally:
            if live:
                live.stop()
            os.chdir(cwd)
        self.assertEqual(ok["attempted"], n)
        self.assertEqual(ok["failed"], 0)
        self.assertEqual(ko["failed"], verifies + churns)
        self.assertGreater(verifies, 0)
        self.assertGreater(churns, 0)


if __name__ == "__main__":
    unittest.main()
