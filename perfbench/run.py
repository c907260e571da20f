#!/usr/bin/env python3
"""perfbench: the repository benchmark for susc/susd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds susc, susd and the in-process driver
(perfbench/driver.cpp) from source into $CARGO_TARGET_DIR (default
.bench_build), generates the workload's inputs from the seed, measures for
about S seconds and prints, as its last line, one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 a separate traced run reports the per-layer ones. The line
before it carries host metadata, the load average and sample counts.
Every verdict is checked against the generator's own answer; a wrong one
is a failed operation. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1
CONNECTIONS = min(4, NPROC)
TIMEOUT_S = 120
SETUPS = 5  # set-ups per run; setup_s is their median


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


# Build ---------------------------------------------------------------------

def build(build_dir):
    """susc and susd as the repository builds them, then the driver linked
    against the same libraries. Build output goes to stderr."""
    sus = os.path.join(build_dir, "sus")
    drv = os.path.join(build_dir, "driver")
    steps = []
    if not os.path.exists(os.path.join(sus, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", sus,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", sus, "-j", str(NPROC),
                  "--target", "susc", "susd"])
    if not os.path.exists(os.path.join(drv, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", drv,
                      "-DSUS_SOURCE_DIR=" + ROOT, "-DSUS_BUILD_DIR=" + sus])
    steps.append(["cmake", "--build", drv, "-j", str(NPROC)])
    for argv in steps:
        if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: %s" % " ".join(argv))
    return {"susc": os.path.join(sus, "src", "tools", "susc"),
            "susd": os.path.join(sus, "src", "tools", "susd"),
            "driver": os.path.join(drv, "perfbench-driver"),
            "sus_build": sus}


def host_metadata(bins):
    """nproc, compiler, build type and whether asserts are compiled in."""
    meta = {"nproc": NPROC, "machine": platform.machine(),
            "python": platform.python_version()}
    cache = os.path.join(bins["sus_build"], "CMakeCache.txt")
    with open(cache) as f:
        text = f.read()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
    meta["build_type"] = m.group(1) if m else "?"
    m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
    if m:
        out = subprocess.run([m.group(1), "--version"], capture_output=True,
                             text=True).stdout
        meta["compiler"] = out.splitlines()[0] if out else m.group(1)
    flags = os.path.join(bins["sus_build"], "src", "support", "CMakeFiles",
                         "sus_support.dir", "flags.make")
    with open(flags) as f:
        meta["asserts"] = "off" if "-DNDEBUG" in f.read() else \
            "on (kept in optimized builds by design)"
    return meta


# Processes -----------------------------------------------------------------

class Run:
    def __init__(self, seconds, code, out, rss_mb):
        self.seconds, self.code, self.out, self.rss_mb = (seconds, code, out,
                                                          rss_mb)


def run_timed(argv, cwd, out_path):
    """Exec to exit of one program run; stdout goes to a file so that the
    reap can collect the child's rusage (peak RSS)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out,
                             stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        elapsed = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return Run(elapsed, p.returncode, text, usage.ru_maxrss / 1024.0)


def run_driver(bins, args, cwd):
    r = subprocess.run([bins["driver"]] + args, cwd=cwd, capture_output=True,
                       text=True, timeout=TIMEOUT_S)
    if r.returncode != 0 or not r.stdout.strip():
        raise BenchError("driver %s exited %d: %s"
                         % (args[0], r.returncode, r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1])


def ping(sock_name):
    """One `ping` over a fresh connection; True on `pong`."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.settimeout(5)
        s.connect(sock_name)
        s.sendall(b"sus/1 ping\n")
        data = b""
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            data += chunk
        return data.endswith(b"\npong\n")
    except OSError:
        return False
    finally:
        s.close()


class Daemon:
    """A `susd --listen SOCK --warm FILE`, timed from spawn to first pong.
    Socket names are relative: the caller runs inside the work directory,
    so a deep checkout path cannot overflow sun_path."""

    def __init__(self, bins, sus, sock_name):
        self.sock = sock_name
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["susd"], "--listen", sock_name, "--warm", sus],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while not ping(sock_name):
                if self.proc.poll() is not None:
                    raise BenchError("susd exited %d during start-up"
                                     % self.proc.returncode)
                if time.perf_counter() - t0 > TIMEOUT_S:
                    raise BenchError("susd never answered a ping")
                time.sleep(0.002)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            m = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M)
        return int(m.group(1)) / 1024.0 if m else 0.0

    def stop(self):
        if self.proc.poll() is None:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.settimeout(5)
                s.connect(self.sock)
                s.sendall(b"sus/1 shutdown\n")
                s.recv(4096)
            except OSError:
                pass
            finally:
                s.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def median(values):
    return statistics.median(values) if values else 0.0


# Workloads -----------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("wrong result: %s" % what)

    def add(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]


# Input sizes; --tiny shrinks them for the self-check (test_perfbench.py).
SIZES = {"b11": {}, "hotel": {}, "monitor": {}}
TINY = {"b11": {"families": 40, "per_family": 4, "clients": 8},
        "hotel": {"hotels": 20, "clients": 8},
        "monitor": {"narrow_sessions": 8, "wide_sessions": 2,
                    "narrow_sets": 2, "batch": 256, "narrow_batches": 4}}


def generate_repo(gen, workload, sus, seed):
    if workload == "b11-cold":
        return gen.gen_b11(sus, seed, **SIZES["b11"])
    return gen.gen_hotel(sus, seed, **SIZES["hotel"])


def verify_exit(answer):
    return 0 if all(answer.valid.values()) else 1


def cold(gen, bins, work, workload, seed, seconds, tally, detail):
    """The four one-shot commands, interleaved least-measured-first so that
    each gets a like share of the time and of any background noise."""
    sus = os.path.join(work, "repo.sus")
    snap = os.path.join(work, "repo.snap")
    out = os.path.join(work, "out.txt")
    answer = generate_repo(gen, workload, sus, seed)
    code = verify_exit(answer)

    def report_ok(r):
        return r.code == code and not gen.verify_mismatches(r.out, answer)

    setup, rss = [], []
    for _ in range(SETUPS):
        r = run_timed([bins["susd"], "--warm", "--save-snapshot", snap, sus],
                      work, out)
        tally.check(report_ok(r), "susd --warm --save-snapshot")
        setup.append(r.seconds)
        rss.append(r.rss_mb)

    commands = [
        ("op1_ms", [bins["susc"], sus], report_ok),
        ("op2_ms", [bins["susc"], "plan", sus],
         lambda r: r.code == code and not gen.plan_mismatches(r.out, answer)),
        ("op3_ms", [bins["susc"], "lint", sus],
         lambda r: gen.lint_ok(r.out, r.code, answer)),
        ("op4_ms", [bins["susd"], "--snapshot", snap, "--warm", sus],
         report_ok),
    ]
    times = {name: [] for name, _, _ in commands}
    spent = {name: 0.0 for name, _, _ in commands}
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        todo = [c for c in commands if not over or len(times[c[0]]) < 3]
        if not todo:
            break
        name, argv, ok = min(todo, key=lambda c: spent[c[0]])
        r = run_timed(argv, work, out)
        tally.check(ok(r), " ".join(os.path.basename(a) for a in argv))
        times[name].append(r.seconds * 1e3)
        spent[name] += r.seconds
        rss.append(r.rss_mb)
    detail["samples"] = {k: len(v) for k, v in times.items()}
    detail["samples"]["setup_s"] = len(setup)
    metrics = {k: median(v) for k, v in times.items()}
    metrics["setup_s"] = median(setup)
    metrics["peak_rss_mb"] = max(rss)
    return metrics


def monitor(gen, bins, work, seed, seconds, trace, tally, detail, spans):
    policies = os.path.join(work, "policies.sus")
    stream = os.path.join(work, "stream.txt")
    answer = gen.gen_monitor(policies, stream, seed, **SIZES["monitor"])
    detail["labels_per_pass"] = answer.items
    result = run_driver(bins, ["monitor", policies, stream, str(seconds),
                               "1" if trace else "0", spans], work)
    tally.add(result)
    m = result["metrics"]
    if trace:
        tally.check(m["monitor.blocked"] == answer.blocked,
                    "blocked %s, injected %d" % (m["monitor.blocked"],
                                                 answer.blocked))
    else:
        detail["samples"] = {k: int(v) for k, v in m.items()
                             if k.startswith("samples.")}
        detail["narrow_p99_ms"] = m["narrow_p99_ms"]
        detail["wide_p99_ms"] = m["wide_p99_ms"]
    return m


def traced(gen, bins, work, workload, seed, tally, detail, spans):
    """The per-layer run: the driver replays the pipeline through each
    layer's entry points. On B11 it also replays the daemon (requests
    through Engine::handle, churn repair) and measures the socket round
    trip and the load generator's lateness against a live susd."""
    if workload == "monitor-stream":
        return monitor(gen, bins, work, seed, 0, True, tally, detail, spans)
    sus = os.path.join(work, "repo.sus")
    expect = os.path.join(work, "expect.txt")
    answer = generate_repo(gen, workload, sus, seed)
    answer.write(expect)
    metrics = run_driver(bins, ["trace-cold", sus, expect, spans], work)
    tally.add(metrics)
    metrics = metrics["metrics"]
    if workload != "b11-cold":
        return metrics
    served = run_driver(bins, ["trace-daemon", sus, expect,
                               spans.replace(".json", "-daemon.json")], work)
    tally.add(served)
    schedule = os.path.join(work, "load.txt")
    gen.gen_load(schedule, seed, answer, 1 if SIZES is TINY else 3)
    live = None
    try:
        live = Daemon(bins, sus, "t.sock")
        rtt = run_driver(bins, ["rtt", live.sock, "200"], work)
        load = run_driver(bins, ["loadgen", live.sock, schedule,
                                 str(CONNECTIONS)], work)
    finally:
        if live:
            live.stop()
    tally.add(rtt)
    tally.add(load)
    metrics = merge_traces(metrics, served["metrics"])
    metrics["daemon.rtt_us"] = rtt["metrics"]["rtt_us"]
    metrics["bench.lag_p99_ms"] = load["metrics"]["lag_p99_ms"]
    return metrics


def merge_traces(cold, served):
    """One traced run from the one-shot replay and the daemon replay: the
    daemon's own metrics from the second, self and unattributed time
    summed, the overhead over both walls, everything else from the first."""
    out = dict(cold)
    for k, v in served.items():
        if k.startswith(("daemon.", "core.repair_ms.",
                         "core.reverified_fraction")):
            out[k] = v
        elif k.startswith("self.") or k == "bench.unattributed_ms":
            out[k] = cold[k] + v
    out["bench.trace_overhead_ratio"] = (
        (cold["bench.traced_ms"] + served["bench.traced_ms"])
        / (cold["bench.untraced_ms"] + served["bench.untraced_ms"]))
    return out


# Main ----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (for the self-check)")
    args = ap.parse_args()
    if args.tiny:
        global SIZES
        SIZES = TINY

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (have %s)"
                         % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    bins = build(build_dir)
    sys.path.insert(0, HERE)
    import gen

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "loadavg_before": list(os.getloadavg()),
              "host": host_metadata(bins)}
    work = os.path.join(build_dir, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(build_dir, "spans-%s.json" % args.workload)
    tally = Tally()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        if args.trace:
            metrics = traced(gen, bins, work, args.workload, args.seed, tally,
                             detail, spans)
        elif args.workload.endswith("-cold"):
            metrics = cold(gen, bins, work, args.workload, args.seed,
                           args.seconds, tally, detail)
        else:
            metrics = monitor(gen, bins, work, args.seed, args.seconds, False,
                              tally, detail, "-")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    out = {}
    for m in wanted:
        value = float(metrics.get(m["name"], 0.0))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    if tally.attempted == 0:
        raise BenchError("no operation was attempted")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(1)
