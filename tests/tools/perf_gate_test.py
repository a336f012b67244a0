#!/usr/bin/env python3
"""Tests for tools/check_perf_regression.py (the BENCH_campaign.json gate).

Each case writes a small baseline/current JSON pair into a temp directory,
runs the gate as CI does and checks its exit code and report lines:
  * a missing baseline skips the gate (exit 0);
  * a false invariant flag fails it on any host, and a record without one
    fails too;
  * a timed regression fails on a matching host_cpus and is skipped on a
    different one;
  * a timed metric the baseline does not carry yet is skipped;
  * higher-is-better metrics fail on a drop beyond the tolerance, pass a
    drop inside it and pass any rise;
  * the governor ticks-per-body floor fails below 5x, passes at it, and a
    record without the count fails on any host.

Run directly or through ctest: python3 tests/tools/perf_gate_test.py --root <repo>
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile


def passing_record(host_cpus=4):
    """The smallest record every floor and invariant of the gate accepts."""
    return {
        "host_cpus": host_cpus,
        "single_core_host": False,
        "campaign": {"identical_reports": True, "identical_reports_with_faults": True,
                     "speedup_vs_jobs1": 2.0, "serial_seconds": 10.0},
        "event_queue": {"periodic_matches_chain": True,
                        "schedule_fire_ns_per_event": 100.0,
                        "periodic_tick_ns_per_event": 20.0},
        "scaler": {"decisions_identical": True, "speedup_fast_vs_reference": 2.0},
        "sim": {"governor_ticks": 1700, "governor_bodies": 100,
                "governor_ticks_per_body": 17.0},
        "checkpoint": {"journaled_reports_identical": True},
        "batch": {"identical_reports": True, "identical_reports_across_jobs": True,
                  "model_cells_unbacked": True, "model_only_host_bytes": 0,
                  "speedup_vs_scalar": 10.0},
        "pipeline": {"all_verified": True, "pipelined_energy_lower": True,
                     "identical_reports_across_jobs": True,
                     "identical_reports_across_engines": True,
                     "identical_reports_after_resume": True,
                     "min_makespan_speedup": 1.4, "min_overlap_efficiency": 0.5},
        "service": {"drop_accounting_exact": True, "watch_min_events_per_sec": 1e6,
                    "admission_latency_p50_us": 2000.0,
                    "admission_latency_p99_us": 5000.0,
                    "submissions_per_sec": 400.0, "completions_per_sec": 40.0},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(__file__), "..", ".."))
    root = os.path.abspath(parser.parse_args().root)
    gate = os.path.join(root, "tools", "check_perf_regression.py")
    failures = []
    tmp = tempfile.mkdtemp(prefix="perf_gate_test_")

    def run(label, baseline, current):
        """Write the pair (baseline None = no file) and run the gate."""
        base_path = os.path.join(tmp, label + "_baseline.json")
        cur_path = os.path.join(tmp, label + "_current.json")
        if baseline is not None:
            with open(base_path, "w") as f:
                json.dump(baseline, f)
        with open(cur_path, "w") as f:
            json.dump(current, f)
        done = subprocess.run(
            [sys.executable, gate, "--baseline", base_path, "--current", cur_path],
            capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr

    def expect(label, baseline, current, code, *needles):
        got, out = run(label, baseline, current)
        if got != code:
            failures.append(f"{label}: exit {got}, expected {code}\n{out}")
            return
        for needle in needles:
            if needle not in out:
                failures.append(f"{label}: output lacks {needle!r}\n{out}")

    base = passing_record()
    expect("identical", base, base, 0, "perf gate passed",
           "[OK] service.submissions_per_sec")

    expect("missing_baseline", None, base, 0, "[SKIP] no usable baseline")

    broken = copy.deepcopy(base)
    broken["event_queue"]["periodic_matches_chain"] = False
    expect("false_invariant", base, broken, 1,
           "event_queue.periodic_matches_chain: expected true, got False")
    other_host = copy.deepcopy(broken)
    other_host["host_cpus"] = 8
    expect("false_invariant_any_host", base, other_host, 1,
           "event_queue.periodic_matches_chain: expected true")

    backed = copy.deepcopy(base)
    backed["batch"]["model_only_host_bytes"] = 4096
    backed["batch"]["model_cells_unbacked"] = False
    expect("model_cells_backed", base, backed, 1,
           "batch.model_cells_unbacked: expected true, got False")
    no_flag = copy.deepcopy(base)
    del no_flag["batch"]["model_cells_unbacked"]
    expect("model_cells_flag_missing", base, no_flag, 1,
           "batch.model_cells_unbacked: missing from current record")

    slow = copy.deepcopy(base)
    slow["event_queue"]["periodic_tick_ns_per_event"] = 40.0
    expect("timed_regression_same_host", base, slow, 1,
           "[FAIL] event_queue.periodic_tick_ns_per_event")
    slow_other_host = copy.deepcopy(slow)
    slow_other_host["host_cpus"] = 8
    expect("timed_regression_other_host", base, slow_other_host, 0,
           "[SKIP] timed comparisons: baseline host_cpus=4 != current host_cpus=8")

    slow_latency = copy.deepcopy(base)
    slow_latency["service"]["admission_latency_p99_us"] = 9000.0
    expect("latency_regression", base, slow_latency, 1,
           "[FAIL] service.admission_latency_p99_us")

    old_baseline = copy.deepcopy(base)
    del old_baseline["event_queue"]["periodic_tick_ns_per_event"]
    expect("timed_not_in_baseline", old_baseline, slow, 0,
           "[SKIP] event_queue.periodic_tick_ns_per_event: not in baseline")

    fewer = copy.deepcopy(base)
    fewer["service"]["submissions_per_sec"] = 200.0  # 2x drop
    expect("higher_is_better_drop", base, fewer, 1,
           "[FAIL] service.submissions_per_sec")
    slight = copy.deepcopy(base)
    slight["service"]["completions_per_sec"] = 36.0  # 10% drop, inside 25%
    expect("higher_is_better_within_tolerance", base, slight, 0,
           "[OK] service.completions_per_sec")
    more = copy.deepcopy(base)
    more["service"]["submissions_per_sec"] = 800.0
    more["service"]["completions_per_sec"] = 80.0
    expect("higher_is_better_rise", base, more, 0,
           "[OK] service.submissions_per_sec", "[OK] service.completions_per_sec")
    fewer_other_host = copy.deepcopy(fewer)
    fewer_other_host["host_cpus"] = 8
    expect("higher_is_better_other_host", base, fewer_other_host, 0,
           "[SKIP] timed comparisons")

    per_tick = copy.deepcopy(base)
    per_tick["sim"]["governor_ticks_per_body"] = 1.0  # every tick dispatched
    expect("governor_spans_below_floor", base, per_tick, 1,
           "sim.governor_ticks_per_body: 1.00 < 5.0 floor")
    per_tick_other_host = copy.deepcopy(per_tick)
    per_tick_other_host["host_cpus"] = 8
    expect("governor_spans_below_floor_any_host", base, per_tick_other_host, 1,
           "sim.governor_ticks_per_body: 1.00 < 5.0 floor")
    at_floor = copy.deepcopy(base)
    at_floor["sim"]["governor_ticks_per_body"] = 5.0
    expect("governor_spans_at_floor", base, at_floor, 0,
           "[OK]   governor ticks per dispatched body 5.00")
    no_count = copy.deepcopy(base)
    del no_count["sim"]
    expect("governor_spans_missing", base, no_count, 1,
           "sim.governor_ticks_per_body: missing from current record")

    for name in os.listdir(tmp):
        os.remove(os.path.join(tmp, name))
    os.rmdir(tmp)

    if failures:
        print(f"perf_gate_test: {len(failures)} failure(s)")
        for f in failures:
            print(f)
        return 1
    print("perf_gate_test: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
