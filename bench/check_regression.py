#!/usr/bin/env python3
"""Compare a merged BENCH_results.json against a committed baseline.

Usage: check_regression.py RESULTS_JSON [BASELINE_JSON] [--tolerance 0.20]
           [--min-speedup BENCH:FAST_CONFIG:BASE_CONFIG:RATIO ...]
           [--max-metric-ratio BENCH:CONFIG_A:CONFIG_B:METRIC:RATIO ...]

For every (bench, config) run present in both files with a non-zero
throughput, fail (exit 1) when the measured tuples/s — normalized by each
file's `calib_ops_per_sec` CPU score, which cancels machine-class and host-
load differences — falls more than TOLERANCE below the baseline. Configs
missing from either side are reported but not fatal (benches evolve);
zero-throughput runs (no tuple notion) are skipped.

--min-speedup gates a within-results ratio: the *wall-clock* tuples/s of
FAST_CONFIG must be at least RATIO times BASE_CONFIG's (both runs of BENCH
in RESULTS_JSON). CI uses it to pin the parallel engine's speedup
(bench_scale_federation:shards=4:shards=1:1.5); wall-clock is deliberate —
a parallel run burns more CPU-seconds than it saves. BASELINE_JSON may be
omitted for a speedup-only check (no baseline comparison), which CI does
against a dedicated full-length bench run for a less noise-sensitive
measurement than the --quick smoke.

--max-metric-ratio gates a within-results ratio over the *simulated-domain*
metrics a bench attached via PerfRecorder::AddMetric (the `"metrics"`
object on a run) and the run's own deterministic counts (`allocations`,
`allocs_per_tuple`, `tuples_processed`): CONFIG_A's METRIC must be at most
RATIO times CONFIG_B's. Unlike throughput these values are deterministic,
so the gate is exact. CI uses it to pin that SIC-aware orphan re-placement
recovers no slower than the round-robin cursor
(bench_recovery:sic-aware:round-robin:mean_censored_ttr_ms:1.0) and that
250 ms checkpoint capture allocates at most 1.5x per tuple what the
capture-off run does
(bench_checkpoint_recovery:ckpt/250ms:reset:allocs_per_tuple:1.5).

A bench present in the baseline but absent from the results entirely (no
runs at all — the binary crashed, was skipped, or stopped emitting JSON) is
fatal: per-config gaps degrade gracefully, whole-bench gaps mean the gate
silently stopped gating.

--summary prints a calibration-normalized markdown table of every run in
RESULTS_JSON (and exits 0 when no baseline/gates are given); the nightly
workflow appends it to the job summary as the cross-run trend line.

Refresh the baseline with `bench/run_benches.sh build bench/baseline.json
--quick` (see EXPERIMENTS.md, "Refreshing the baseline").
"""

import argparse
import json
import sys


def load_runs(path):
    """Returns {(bench, config): calibration-normalized throughput}.

    Prefers tuples per CPU second (robust against host contention); falls
    back to wall-clock throughput for files written before cpu_s existed.
    """
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    runs = {}
    for entry in entries:
        calib = entry.get("calib_ops_per_sec", 0.0)
        for run in entry.get("runs", []):
            tps = run.get("tuples_per_cpu_sec", 0.0) or run.get(
                "tuples_per_sec", 0.0
            )
            runs[(entry["bench"], run["config"])] = (
                tps / calib if calib > 0 else 0.0,
                run.get("cpu_s", run.get("wall_s", 0.0)),
            )
    return runs


def load_wall_tps(path):
    """Returns {(bench, config): wall-clock tuples_per_sec}."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    return {
        (entry["bench"], run["config"]): run.get("tuples_per_sec", 0.0)
        for entry in entries
        for run in entry.get("runs", [])
    }


# Run fields that repeat exactly for a given binary and seed (allocation
# counts are present when the bench links the counting allocator).
DETERMINISTIC_RUN_FIELDS = ("allocations", "allocs_per_tuple",
                            "tuples_processed")


def load_metrics(path):
    """Returns {(bench, config, metric): value} from runs' `metrics` and
    their deterministic top-level counts."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    metrics = {}
    for entry in entries:
        for run in entry.get("runs", []):
            key = (entry["bench"], run["config"])
            for name in DETERMINISTIC_RUN_FIELDS:
                if name in run:
                    metrics[key + (name,)] = run[name]
            for name, value in run.get("metrics", {}).items():
                metrics[key + (name,)] = value
    return metrics


def check_metric_ratios(results_path, specs):
    """Evaluates BENCH:A:B:METRIC:RATIO specs; returns a list of failures."""
    if not specs:
        return []
    metrics = load_metrics(results_path)
    failures = []
    for spec in specs:
        try:
            bench, config_a, config_b, metric, ratio_s = spec.split(":")
            max_ratio = float(ratio_s)
        except ValueError:
            failures.append(f"malformed --max-metric-ratio spec: {spec!r}")
            continue
        key_a = (bench, config_a, metric)
        key_b = (bench, config_b, metric)
        if key_a not in metrics or key_b not in metrics:
            failures.append(
                f"{bench}: missing metric {metric!r} for ratio check "
                f"({config_a}: {key_a in metrics}, "
                f"{config_b}: {key_b in metrics})")
            continue
        a, b = metrics[key_a], metrics[key_b]
        ok = a <= max_ratio * b
        print(f"metric {bench} {metric}: {config_a}={a:.4g} vs "
              f"{config_b}={b:.4g} (need <= {max_ratio:.2f}x) "
              f"{'OK' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{bench}: {metric} of {config_a} ({a:.4g}) exceeds "
                f"{max_ratio:.2f}x of {config_b} ({b:.4g})")
    return failures


def check_speedups(results_path, specs):
    """Evaluates BENCH:FAST:BASE:RATIO specs; returns a list of failures."""
    wall = load_wall_tps(results_path)
    failures = []
    for spec in specs:
        try:
            bench, fast_config, base_config, ratio_s = spec.split(":")
            min_ratio = float(ratio_s)
        except ValueError:
            failures.append(f"malformed --min-speedup spec: {spec!r}")
            continue
        fast = wall.get((bench, fast_config), 0.0)
        base = wall.get((bench, base_config), 0.0)
        if base <= 0 or fast <= 0:
            failures.append(
                f"{bench}: missing run(s) for speedup check "
                f"({fast_config}={fast:.1f}, {base_config}={base:.1f})")
            continue
        ratio = fast / base
        status = "OK" if ratio >= min_ratio else "FAIL"
        print(f"speedup {bench} {fast_config} vs {base_config}: "
              f"{ratio:.2f}x (wall-clock, need >= {min_ratio:.2f}x) {status}")
        if ratio < min_ratio:
            failures.append(
                f"{bench}: {fast_config} is {ratio:.2f}x of {base_config}, "
                f"below the required {min_ratio:.2f}x")
    return failures


def print_summary(results_path):
    """Prints a calibration-normalized markdown table of every run."""
    with open(results_path, encoding="utf-8") as f:
        entries = json.load(f)
    print("| bench | config | tuples/s | tuples/cpu-s | normalized |")
    print("|---|---|---:|---:|---:|")
    for entry in entries:
        calib = entry.get("calib_ops_per_sec", 0.0)
        for run in entry.get("runs", []):
            cpu_tps = run.get("tuples_per_cpu_sec", 0.0)
            norm = cpu_tps / calib if calib > 0 else 0.0
            print(f"| {entry['bench']} | {run['config']} "
                  f"| {run.get('tuples_per_sec', 0.0):.0f} "
                  f"| {cpu_tps:.0f} | {norm:.4f} |")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("results")
    parser.add_argument("baseline", nargs="?", default=None)
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument(
        "--min-cpu-s", type=float, default=0.1,
        help="skip runs whose baseline burned less CPU than this "
             "(too short to measure reliably)")
    parser.add_argument(
        "--min-speedup", action="append", default=[],
        metavar="BENCH:FAST_CONFIG:BASE_CONFIG:RATIO",
        help="require FAST_CONFIG's wall-clock tuples/s to be at least "
             "RATIO x BASE_CONFIG's within the results file")
    parser.add_argument(
        "--max-metric-ratio", action="append", default=[],
        metavar="BENCH:CONFIG_A:CONFIG_B:METRIC:RATIO",
        help="require CONFIG_A's METRIC (PerfRecorder::AddMetric) to be at "
             "most RATIO x CONFIG_B's within the results file")
    parser.add_argument(
        "--summary", action="store_true",
        help="print a calibration-normalized markdown table of all runs "
             "(the nightly job appends it to the job summary)")
    args = parser.parse_args()

    if args.summary:
        print_summary(args.results)

    if args.baseline is None:
        failures = check_speedups(args.results, args.min_speedup)
        failures += check_metric_ratios(args.results, args.max_metric_ratio)
        if failures:
            print(f"\n{len(failures)} gate failure(s):", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        if not args.min_speedup and not args.max_metric_ratio:
            if args.summary:
                return 0
            print("error: no baseline and no --min-speedup/"
                  "--max-metric-ratio: nothing to check",
                  file=sys.stderr)
            return 1
        print("\nOK: all gates passed")
        return 0

    results = load_runs(args.results)
    baseline = load_runs(args.baseline)

    # A whole bench vanishing from the results is fatal (the binary crashed
    # or stopped emitting JSON); individual configs may come and go.
    results_benches = {bench for bench, _ in results}
    missing_benches = sorted(
        {bench for bench, _ in baseline} - results_benches)
    for bench in missing_benches:
        print(f"error: bench {bench!r} has no entry in {args.results}",
              file=sys.stderr)

    regressions = []
    compared = 0
    print("(throughputs below are tuples per CPU-second divided by each "
          "file's CPU calibration score)")
    print(f"{'bench/config':<60} {'base':>12} {'now':>12} {'ratio':>7}")
    for key, (base_tps, base_cpu) in sorted(baseline.items()):
        if base_tps <= 0:
            continue
        if base_cpu < args.min_cpu_s:
            print(f"{key[0] + '/' + key[1]:<60} <too short to gate "
                  f"({base_cpu:.3f}s cpu)>")
            continue
        if key not in results:
            print(f"{key[0] + '/' + key[1]:<60} {'<missing in results>'}")
            continue
        now_tps, _ = results[key]
        if now_tps <= 0:
            continue
        ratio = now_tps / base_tps
        compared += 1
        marker = " REGRESSION" if ratio < 1.0 - args.tolerance else ""
        print(
            f"{key[0] + '/' + key[1]:<60} {base_tps:>12.4f} {now_tps:>12.4f}"
            f" {ratio:>6.2f}x{marker}"
        )
        if marker:
            regressions.append((key, ratio))

    for key in sorted(set(results) - set(baseline)):
        print(f"{key[0] + '/' + key[1]:<60} <new, no baseline>")

    speedup_failures = check_speedups(args.results, args.min_speedup)
    speedup_failures += check_metric_ratios(args.results,
                                            args.max_metric_ratio)

    if compared == 0:
        print("error: no comparable runs between results and baseline",
              file=sys.stderr)
        return 1
    if missing_benches:
        print(f"\n{len(missing_benches)} bench(es) missing from results: "
              f"{', '.join(missing_benches)}", file=sys.stderr)
        return 1
    if speedup_failures:
        print(f"\n{len(speedup_failures)} gate failure(s):",
              file=sys.stderr)
        for failure in speedup_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond "
            f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for (bench, config), ratio in regressions:
            print(f"  {bench}/{config}: {ratio:.2f}x of baseline",
                  file=sys.stderr)
        return 1
    print(f"\nOK: {compared} run(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
