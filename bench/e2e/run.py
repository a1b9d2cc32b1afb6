#!/usr/bin/env python3
"""End-to-end benchmark of THEMIS: builds bench/e2e, runs its workloads and
prints every metric by name, unit and sample count.

One workload per invocation (the form BENCHMARK.json names):

    python3 bench/e2e/run.py --workload dense_lan --seed 7 --trace 0

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1). Other forms:

    python3 bench/e2e/run.py                   # every workload, seed 42
    python3 bench/e2e/run.py --out R.jsonl     # also append results to R.jsonl
    python3 bench/e2e/run.py --verify          # every check, short runs
    python3 bench/e2e/run.py --smoke           # ~10 s rot check (ctest)

Exit status: 0 when every check passed and no operation failed, 1 when one
did (the result line is still printed), 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("dense_lan", "wan_federation", "churn_checkpoint",
             "server_realtime")
# A run must end well inside three minutes (the build excluded).
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def build(build_dir):
    """Configures (once) and builds themis_e2e; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the THEMIS sources (CMakeLists.txt, src/) are not in {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "e2e-build.log"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail(f"configure failed; see {log_path}")
        cmd = ["cmake", "--build", str(build_dir), "--target", "themis_e2e",
               "-j", str(os.cpu_count() or 4)]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail(f"build failed; see {log_path}")
    return build_dir / "themis_e2e"


def self_times(events):
    """Per span name: count, total and self microseconds. A span's self time
    is its duration minus the part its direct children on the same thread
    cover."""
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    stats = {}

    def close(entry):
        _, name, child_us, dur = entry
        s = stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += dur
        s[2] += max(0, dur - child_us)

    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [end, name, child_us, dur]
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][2] += min(end, stack[-1][0]) - start
            stack.append([end, e["name"], 0, e["dur"]])
        while stack:
            close(stack.pop())
    return stats


def check(report, ok, what):
    report["checks"] += 1
    if not ok:
        report["checks_failed"] += 1
        report["failures"].append(what)


def analyse_trace(report):
    """Reads the run's Chrome trace: checks no span was overwritten, prints
    per-span self time, and derives the span-based per-layer metrics."""
    notes = report["notes"]
    trace = json.loads(Path(notes["trace_file"]).read_text())
    events = trace["traceEvents"]
    recorded = int(notes["trace_recorded"])
    check(report, len(events) == recorded,
          f"trace kept {len(events)} of {recorded} spans")
    stats = self_times(events)
    total_self = sum(s[2] for s in stats.values()) or 1
    print(f"  trace: {len(events)} spans of {recorded} recorded "
          f"(ring {notes['trace_ring_capacity']} per thread)")
    print(f"  {'span':28s} {'count':>8s} {'total_ms':>11s} {'self_ms':>11s}"
          f" {'self%':>6s}")
    for name, (count, total, self_us) in sorted(
            stats.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:28s} {count:8d} {total / 1e3:11.1f} "
              f"{self_us / 1e3:11.1f} {100 * self_us / total_self:6.1f}")

    metrics = report["metrics"]
    ticks = stats.get("node.shed_tick")
    if ticks and "node.shed_tick_us_mean" not in metrics:
        # DES shed ticks run on every shard's thread; their share is of the
        # engine's thread time (RunFor wall time x shards).
        run_for = stats.get("e2e.run_for", [0, 0, 0])[1]
        shards = int(notes.get("shards", "1"))
        metrics["node.shed_tick_us_mean"] = ticks[1] / ticks[0]
        metrics["node.shed_tick_share"] = (
            ticks[1] / (run_for * shards) if run_for else 0.0)
        report["samples"]["node.shed_tick_us_mean"] = ticks[0]


def run_workload(exe, workload, seed, seconds, traced, smoke, build_dir):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if smoke:
        cmd.append("--smoke")
    if traced:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(trace_dir / f"{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload} exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload} printed no report")


def fmt(value):
    return f"{value:.6g}"


def summarise(spec, workload, report, traced):
    """Prints the run's metrics and returns its result line's object."""
    metrics = report["metrics"]
    samples = report["samples"]
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    result = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            value = float(metrics[name])
            n = samples.get(name)
            extra = f"  (n={n})" if n is not None else ""
        elif traced:
            # A layer this workload does not run: nothing to measure.
            value = 0.0
            extra = "  (layer not exercised)"
        else:
            fail(f"{workload} did not report {name}")
        raw = metrics.get("raw." + name)
        if raw is not None:
            speed = fmt(metrics["host.speed"])
            extra += f"  raw={fmt(raw)} at host speed {speed}"
        print(f"  {name:40s} {fmt(value):>14s} {unit}{extra}")
        result[name] = {"value": value, "unit": unit}
    attempted = report["ops"] + report["checks"]
    failed = report["ops_failed"] + report["checks_failed"]
    print(f"  checks: {report['checks'] - report['checks_failed']} of "
          f"{report['checks']} passed; operations: {report['ops']} "
          f"attempted, {report['ops_failed']} failed")
    for f in report["failures"]:
        print(f"  FAILED: {f}")
    return {"correct": report["checks_failed"] == 0, "attempted": attempted,
            "failed": failed, "metrics": result}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append one JSON line per run to this file")
    parser.add_argument("--verify", action="store_true",
                        help="run every check on short traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scenarios, traced, every workload")
    parser.add_argument("--build-dir", type=Path, default=ROOT / "build-e2e")
    args = parser.parse_args()

    exe = build(args.build_dir.resolve())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace) or args.verify or args.smoke
    seconds = args.seconds
    if args.smoke:
        seconds = 2.0
    elif args.verify:
        seconds = min(seconds, 8.0)

    results = {}
    for workload in workloads:
        report = run_workload(exe, workload, args.seed, seconds, traced,
                              args.smoke, args.build_dir.resolve())
        print(f"themis e2e: workload={workload} seed={args.seed} "
              f"seconds={seconds:g} trace={int(traced)}")
        if traced:
            analyse_trace(report)
        identity = report["notes"].get("shard_identity")
        if identity is not None:
            print(f"  1-shard vs {report['notes']['shards']}-shard digest: "
                  f"{identity}")
            if args.verify:
                check(report, identity == "match",
                      "1-shard digest equals the sharded digest")
        result = summarise(spec, workload, report, traced)
        results[workload] = result
        if args.out:
            record = {"workload": workload, "seed": args.seed,
                      "trace": int(traced), "seconds": seconds,
                      "correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": report["metrics"]}
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")

    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({"correct": all(r["correct"]
                                         for r in results.values()),
                          "attempted": sum(r["attempted"]
                                           for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
