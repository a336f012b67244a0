// ggbench: runs one benchmark workload against the greengpu library
// and the greengpud daemon and prints its metrics.  ggbench/run.py builds
// and invokes it; see ggbench/README.md for the workloads and metrics.
//
//   ggbench --workload paper-campaign|fault-sweep|service --seed N
//                  --seconds S --trace 0|1 --work-dir DIR --bin-dir DIR
//
// Human-readable lines come first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit status is 0 whenever
// that line is printed (a failed gate reads "correct": false), 2 on bad
// arguments and 1 when the run could not finish.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace ggbench {

void Report::gate(bool ok, const std::string& what) {
  if (!ok) {
    failures.push_back(what);
    std::printf("GATE FAILED: %s\n", what.c_str());
  }
}

void report_layers(Report& report, const std::map<std::string, double>& measured) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"workloads.construct_ms", "ms"},
      {"workloads.setup_ms", "ms"},
      {"workloads.compute_ms", "ms"},
      {"workloads.verify_ms", "ms"},
      {"workloads.verify_runs", "count"},
      {"sim.step_ms", "ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.simulated_s", "s"},
      {"sim.dvfs_transitions", "count"},
      {"greengpu.scaler_decisions", "count"},
      {"greengpu.governor_decisions", "count"},
      {"greengpu.division_moves", "count"},
      {"campaign.cell_ms_max", "ms"},
      {"campaign.slowest_row_ms", "ms"},
      {"campaign.full_runs", "count"},
      {"campaign.model_runs", "count"},
      {"campaign.forked_cells", "count"},
      {"campaign.prefix_iterations_saved", "count"},
      {"report.render_ms", "ms"},
      {"persist.journal_bytes", "bytes"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.snapshot_files", "count"},
      {"service.submit_us_p50", "us"},
      {"service.submit_us_p99", "us"},
      {"service.transport_us_p50", "us"},
      {"service.socket_submit_ms_p99", "ms"},
      {"service.run_job_ms_p50", "ms"},
      {"service.run_job_ms_max", "ms"},
      {"service.complete_us_p50", "us"},
      {"service.journal_records", "count"},
      {"service.journal_bytes", "bytes"},
      {"telemetry.frames", "count"},
      {"telemetry.dropped", "count"},
      {"telemetry.watch_lag_p50_ms", "ms"},
      {"telemetry.watch_lag_p99_ms", "ms"},
      {"host.verify_compute_pct", "%"},
      {"host.model_construct_pct", "%"},
      {"trace.overhead_ms", "ms"},
      {"trace.residual_ms", "ms"},
  };
  std::size_t used = 0;
  for (const auto& [name, unit] : kLayers) {
    const auto it = measured.find(name);
    used += it != measured.end() ? 1 : 0;
    report.metric(name, it != measured.end() ? it->second : 0.0, unit);
  }
  if (used != measured.size()) throw std::logic_error("ggbench: unknown per-layer metric");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_line(const std::string& workload, const std::string& name, double value,
                const std::string& unit) {
  std::printf("%s %s = %.6g %s\n", workload.c_str(), name.c_str(), value, unit.c_str());
}

namespace {

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--bin-dir") {
      args.bin_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s needs a value\n", argv[argc - 1]);
    return false;
  }
  if (args.workload.empty() || args.work_dir.empty() || args.bin_dir.empty() ||
      !(args.seconds > 0.0)) {
    std::fprintf(stderr, "need --workload, --seconds > 0, --work-dir and --bin-dir\n");
    return false;
  }
  return true;
}

void print_result(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace ggbench

int main(int argc, char** argv) {
  ggbench::Args args;
  try {
    if (!ggbench::parse_args(argc, argv, args)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  try {
    args.trace_dir = args.bin_dir + "/traces";
    std::filesystem::create_directories(args.work_dir);
    std::filesystem::create_directories(args.trace_dir);
    ggbench::Report report;
    if (args.workload == "paper-campaign" || args.workload == "fault-sweep") {
      ggbench::run_campaign_workload(args, report);
    } else if (args.workload == "service") {
      ggbench::run_service_workload(args, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    for (const auto& m : report.metrics) {
      if (!std::isfinite(m.value)) report.gate(false, "metric " + m.name + " is not finite");
    }
    std::fflush(stdout);
    ggbench::print_result(report);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ggbench: %s\n", e.what());
    return 1;
  }
}
