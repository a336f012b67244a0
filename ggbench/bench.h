// Shared vocabulary of the benchmark program: arguments, the result record
// every workload fills, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ggbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Scratch directory inside the checkout (journals, sockets, reports).
  std::string work_dir;
  /// Directory of the built binaries (greengpud lives here).
  std::string bin_dir;
  /// Where traced runs leave their span files (kept after the run).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What one benchmark run reports.  `metrics` is the last-line JSON;
/// `failures` lists every correctness gate that did not hold.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a gate: `ok` false marks the run incorrect with `what`.
  void gate(bool ok, const std::string& what);
};

/// Report every per-layer metric, in one fixed order with its unit, taking
/// values from `measured`; a layer the workload does not touch reads 0.
/// Throws std::logic_error on a name that is not a per-layer metric.
void report_layers(Report& report, const std::map<std::string, double>& measured);

/// Monotonic host seconds (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Human-readable line on stdout: "<workload> <name> = <value> <unit>".
void print_line(const std::string& workload, const std::string& name, double value,
                const std::string& unit);

void run_campaign_workload(const Args& args, Report& report);
void run_service_workload(const Args& args, Report& report);

}  // namespace ggbench
