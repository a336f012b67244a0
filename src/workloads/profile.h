// Workload intensity profiles and calibration helpers.
//
// Each workload in Table II is characterized by how hard it drives the GPU
// cores and memory (and how fast a CPU-side implementation is relative to the
// GPU).  Profiles are specified in terms of *target utilizations at peak
// frequencies*; `make_gpu_estimate` converts them into the work quantities
// (cycles, bytes, overhead) the device model consumes, so the utilization a
// monitor would measure at peak clocks matches the target by construction —
// and responds physically when clocks change.
#pragma once

#include <compare>
#include <cstddef>

#include "src/cudalite/api.h"
#include "src/sim/specs.h"

namespace gg::workloads {

/// Target behaviour of one simulated work unit.
struct IntensityProfile {
  /// GPU core utilization this phase shows at peak clocks, in [0, 1].
  double core_util{0.5};
  /// GPU memory utilization at peak clocks, in [0, 1].
  double mem_util{0.5};
  /// Simulated duration of one unit at peak clocks, seconds.
  double unit_time_s{1e-3};
  /// Units per iteration (the "enlarged" Table II problem sizes).
  double units_per_iteration{1000.0};
  /// CPU time per unit / GPU time per unit, both at peak clocks.  6 means
  /// the GPU processes a unit 6x faster; time-balanced division then sits
  /// near r = 1/(1+6).
  double cpu_slowdown{8.0};
  /// Fraction of the CPU unit time that scales with CPU frequency (the rest
  /// is memory-stall/overhead time).
  double cpu_compute_fraction{0.85};

  /// Memberwise, so workload configs can default their own comparison (the
  /// reference memo's key, reference_memo.h).
  auto operator<=>(const IntensityProfile&) const = default;
};

/// Build the GPU work estimate for `units` units of the given profile on the
/// given hardware.  Peak-clock utilization equals the profile targets:
///   cycles/unit = core_util * unit_time * core_throughput(peak)
///   bytes/unit  = mem_util  * unit_time * mem_bandwidth(peak)
///   overhead    = unit_time   (the pipelined serialization floor)
[[nodiscard]] cudalite::WorkEstimate make_gpu_estimate(const sim::GpuSpec& gpu,
                                                       Megahertz core_peak,
                                                       Megahertz mem_peak,
                                                       const IntensityProfile& p,
                                                       double units);

/// Build the CPU work description for `units` units of the profile:
/// per-unit CPU time at peak = cpu_slowdown * unit_time, split into a
/// frequency-scaling ops component and a fixed overhead component.
[[nodiscard]] sim::CpuWork make_cpu_work(const sim::CpuSpec& cpu, Megahertz cpu_peak,
                                         const IntensityProfile& p, double units);

}  // namespace gg::workloads
