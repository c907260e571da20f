#!/usr/bin/env python3
"""CI check for the susc observability outputs.

Usage: check_metrics_json.py SUSC_BINARY SCHEMA_JSON EXAMPLE_SUS \
           [BENCH_MONITOR] [BENCH_PLANS]

Runs the shipped example through susc five ways and asserts:
  1. `--metrics-out` emits JSON valid against tests/metrics_schema.json
     (the normative sus-metrics-v1 schema), and the verify run counts
     `plan.index.lookups` (the index is the only enumeration);
  2. `--trace-out` emits well-formed Chrome trace_event JSON that counts
     the spans its ring dropped (`otherData.dropped_spans`);
  3. both also work through the `susc lint` subcommand, whose trace holds
     one `lint.pass` span, tagged with the pass id, per enabled pass (a
     pass switched off with `--disable` has none), and every
     `validity.static` span of the verify trace counts its explored
     states;
  4. stdout/stderr and the exit code are bit-for-bit identical with and
     without the observability flags (the instrumentation may never
     change a verdict);
  5. a deliberately tripped resource budget (`--max-product-states 1`)
     exits 3, prints Inconclusive(resource) verdicts, counts the trip in
     `governor.budget_hits`, and still validates against the schema.

With the optional BENCH_MONITOR argument (the bench_monitor binary), also
smoke-runs the fused-monitor benchmark with `--quick --metrics-out=` and
asserts the emitted JSON validates and actually exercised the monitor:
`monitor.events` > 0 and `monitor.fusions` >= 1.

With the optional BENCH_PLANS argument (the bench_plans binary), also
smoke-runs the plan-search benchmark the same way and asserts the emitted
JSON validates and actually exercised indexed candidate selection:
`plan.index.lookups` > 0 and `plan.enumerator.plans` > 0. The `susc plan`
subcommand is additionally driven with `--metrics-out` (with one churn
round) and its metrics must validate and count `plan.index.lookups` and
`plan.repair.runs`.

The schema validator is deliberately minimal and self-contained — it
implements exactly the JSON Schema subset the schema file uses (type,
const, required, properties, additionalProperties, items, minimum) so
the check needs nothing beyond the standard library.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"check_metrics_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(instance, schema, path="$"):
    """Validates the subset of JSON Schema used by metrics_schema.json."""
    if "const" in schema:
        if instance != schema["const"]:
            fail(f"{path}: expected {schema['const']!r}, got {instance!r}")
        return
    ty = schema.get("type")
    if ty == "object":
        if not isinstance(instance, dict):
            fail(f"{path}: expected object, got {type(instance).__name__}")
        for key in schema.get("required", []):
            if key not in instance:
                fail(f"{path}: missing required key '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                validate(value, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                validate(value, extra, f"{path}.{key}")
            elif extra is False:
                fail(f"{path}: unexpected key '{key}'")
    elif ty == "array":
        if not isinstance(instance, list):
            fail(f"{path}: expected array, got {type(instance).__name__}")
        items = schema.get("items")
        if items is not None:
            for i, value in enumerate(instance):
                validate(value, items, f"{path}[{i}]")
    elif ty == "integer":
        if not isinstance(instance, int) or isinstance(instance, bool):
            fail(f"{path}: expected integer, got {instance!r}")
        if "minimum" in schema and instance < schema["minimum"]:
            fail(f"{path}: {instance} below minimum {schema['minimum']}")
    else:
        fail(f"{path}: schema uses unsupported type {ty!r}")


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True)


def check_trace(path):
    trace = json.loads(Path(path).read_text())
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    for i, ev in enumerate(events):
        for key in ("name", "cat", "ph", "pid", "tid", "ts", "dur"):
            if key not in ev:
                fail(f"{path}: traceEvents[{i}] missing '{key}'")
        if ev["ph"] != "X":
            fail(f"{path}: traceEvents[{i}] is not a complete event")
        if ev["dur"] < 0:
            fail(f"{path}: traceEvents[{i}] has negative duration")
    dropped = trace.get("otherData", {}).get("dropped_spans")
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"{path}: no otherData.dropped_spans count")
    return len(events)


def check_lint_pass_spans(susc, trace_path, disabled=None):
    """Every pass `susc lint --list-passes` names, minus `disabled`, must
    have exactly one `lint.pass` span in the trace; `disabled` none."""
    listing = run([susc, "lint", "--list-passes"])
    if listing.returncode != 0:
        fail(f"susc lint --list-passes failed: exit {listing.returncode}")
    passes = [line.split()[0] for line in listing.stdout.splitlines()
              if line.strip()]
    if not passes:
        fail("susc lint --list-passes listed no passes")
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    seen = [ev.get("args", {}).get("pass") for ev in events
            if ev["name"] == "lint.pass"]
    for pass_id in passes:
        want = 0 if pass_id == disabled else 1
        if seen.count(pass_id) != want:
            fail(f"lint trace has {seen.count(pass_id)} lint.pass span(s) "
                 f"for {pass_id}, expected {want}")
    if len(seen) != len(passes) - (1 if disabled else 0):
        fail(f"lint trace has {len(seen)} lint.pass spans for "
             f"{len(passes)} passes ({disabled or 'none'} disabled)")


def check_validity_spans(trace_path):
    """Every `validity.static` span records how many configurations the
    check explored (at least the initial one)."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    checks = [ev for ev in events if ev["name"] == "validity.static"]
    if not checks:
        fail("verify trace has no validity.static span")
    for ev in checks:
        if ev.get("args", {}).get("states", 0) < 1:
            fail(f"validity.static span without an explored-state count: "
                 f"{ev}")


def check_bench_monitor(bench, schema, tmp):
    """The monitor leg: bench_monitor --quick must emit valid metrics
    that show the fused path actually ran."""
    metrics = str(Path(tmp) / "monitor-metrics.json")
    res = run([bench, "--quick", f"--metrics-out={metrics}"])
    if res.returncode != 0:
        fail(f"bench_monitor --quick failed: exit {res.returncode}\n"
             f"{res.stderr}")
    mon = json.loads(Path(metrics).read_text())
    validate(mon, schema)
    counters = mon["counters"]
    if counters.get("monitor.events", 0) <= 0:
        fail("bench_monitor counted no monitor.events")
    if counters.get("monitor.fusions", 0) < 1:
        fail("bench_monitor performed no monitor.fusions")


def check_bench_plans(bench, schema, tmp):
    """The plan-search leg: bench_plans --quick must emit valid metrics
    that show indexed enumeration actually ran."""
    metrics = str(Path(tmp) / "plans-metrics.json")
    res = run([bench, "--quick", f"--metrics-out={metrics}"])
    if res.returncode != 0:
        fail(f"bench_plans --quick failed: exit {res.returncode}\n"
             f"{res.stderr}")
    plans = json.loads(Path(metrics).read_text())
    validate(plans, schema)
    counters = plans["counters"]
    if counters.get("plan.index.lookups", 0) <= 0:
        fail("bench_plans performed no plan.index.lookups")
    if counters.get("plan.enumerator.plans", 0) <= 0:
        fail("bench_plans enumerated no plans")


def check_susc_plan(susc, schema, example, tmp):
    """The `susc plan` leg: a run with one churn round must emit valid
    metrics that count the index and the repair engine."""
    metrics = str(Path(tmp) / "plan-metrics.json")
    res = run([susc, "plan", "--churn", "1", "--seed", "7",
               "--metrics-out", metrics, example])
    if res.returncode not in (0, 1):
        fail(f"susc plan failed: exit {res.returncode}\n{res.stderr}")
    plan = json.loads(Path(metrics).read_text())
    validate(plan, schema)
    counters = plan["counters"]
    if counters.get("plan.index.lookups", 0) <= 0:
        fail("susc plan performed no plan.index.lookups")
    if counters.get("plan.repair.runs", 0) <= 0:
        fail("susc plan --churn performed no plan.repair.runs")


def main():
    if len(sys.argv) not in (4, 5, 6):
        fail(f"usage: {sys.argv[0]} SUSC_BINARY SCHEMA_JSON EXAMPLE_SUS "
             f"[BENCH_MONITOR] [BENCH_PLANS]")
    susc, schema_path, example = sys.argv[1:4]
    bench_monitor = sys.argv[4] if len(sys.argv) >= 5 else None
    bench_plans = sys.argv[5] if len(sys.argv) == 6 else None
    schema = json.loads(Path(schema_path).read_text())

    with tempfile.TemporaryDirectory() as tmp:
        metrics = str(Path(tmp) / "metrics.json")
        trace = str(Path(tmp) / "trace.json")

        # Baseline: no observability flags.
        plain = run([susc, "--jobs", "4", example])

        # Instrumented run: must behave identically on stdout/stderr.
        observed = run([susc, "--jobs", "4", "--metrics-out", metrics,
                        "--trace-out", trace, example])
        if observed.returncode != plain.returncode:
            fail(f"exit code changed: {plain.returncode} -> "
                 f"{observed.returncode}")
        if observed.stdout != plain.stdout or observed.stderr != plain.stderr:
            fail("observability flags changed the tool output")

        verify_metrics = json.loads(Path(metrics).read_text())
        validate(verify_metrics, schema)
        # `susc FILE` enumerates through the ServiceIndex, like susd.
        if verify_metrics["counters"].get("plan.index.lookups", 0) <= 0:
            fail("susc FILE performed no plan.index.lookups")
        n_events = check_trace(trace)
        check_validity_spans(trace)

        # The lint subcommand honours the same flags.
        lint_metrics = str(Path(tmp) / "lint-metrics.json")
        lint_trace = str(Path(tmp) / "lint-trace.json")
        lint = run([susc, "lint", "--metrics-out", lint_metrics,
                    "--trace-out", lint_trace, example])
        if lint.returncode not in (0, 1):
            fail(f"susc lint failed: exit {lint.returncode}\n{lint.stderr}")
        validate(json.loads(Path(lint_metrics).read_text()), schema)
        check_trace(lint_trace)
        check_lint_pass_spans(susc, lint_trace)
        off = "sus-lint-dead-branch"
        lint = run([susc, "lint", f"--disable={off}", "--trace-out",
                    lint_trace, example])
        if lint.returncode not in (0, 1):
            fail(f"susc lint --disable failed: exit {lint.returncode}\n"
                 f"{lint.stderr}")
        check_lint_pass_spans(susc, lint_trace, disabled=off)

        # Governor trip: a 1-state product budget is deterministic (unlike
        # a short deadline) and must make the run inconclusive rather than
        # silently wrong — exit 3, an explicit verdict, and a counted trip.
        gov_metrics = str(Path(tmp) / "gov-metrics.json")
        governed = run([susc, "--jobs", "4", "--max-product-states", "1",
                        "--metrics-out", gov_metrics, example])
        if governed.returncode != 3:
            fail(f"tripped budget run: expected exit 3, got "
                 f"{governed.returncode}\n{governed.stderr}")
        if "Inconclusive" not in governed.stdout:
            fail("tripped budget run printed no Inconclusive verdict")
        gov = json.loads(Path(gov_metrics).read_text())
        validate(gov, schema)
        if gov["counters"].get("governor.budget_hits", 0) <= 0:
            fail("governor.budget_hits not counted on a tripped run")

        if bench_monitor is not None:
            check_bench_monitor(bench_monitor, schema, tmp)
        if bench_plans is not None:
            check_bench_plans(bench_plans, schema, tmp)
            check_susc_plan(susc, schema, example, tmp)

    legs = "susc"
    if bench_monitor:
        legs += " + bench_monitor"
    if bench_plans:
        legs += " + bench_plans + susc plan"
    print(f"check_metrics_json: OK ({legs}: {n_events} trace events, "
          f"metrics valid against {Path(schema_path).name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
