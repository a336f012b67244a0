// Simulated CPU package (AMD Phenom II X2 class) with DVFS.
//
// The CPU executes FIFO work items across its cores and additionally models
// the *synchronous-communication spin* the paper observed: with the CUDA 3.2
// blocking APIs, the host thread busy-waits at 100 % utilization while the
// GPU computes, which defeats the ondemand governor (Section VII-A, Fig. 6c).
// `set_spinning(true)` puts the device into that state: full utilization and
// full dynamic power on one core, but no work progress.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "src/common/annotations.h"
#include "src/sim/dvfs.h"
#include "src/sim/event_queue.h"
#include "src/sim/power_meter.h"
#include "src/sim/specs.h"

namespace gg::sim {

/// Work description for one CPU-side task.
struct CpuWork {
  /// Divisible work units; must be > 0.
  double units{1.0};
  /// Aggregate "ops" per unit (spread across the active cores).
  double ops_per_unit{0.0};
  /// Frequency-independent time per unit (memory stalls, I/O).
  Seconds overhead_per_unit{0.0};
  /// Cores used by this task (<= spec.cores); 0 means all cores.
  int active_cores{0};
};

/// Cumulative CPU activity counters for windowed utilization sampling.
struct CpuActivityCounters {
  /// Integral over time of package utilization in [0, 1]
  /// (busy cores / total cores; spinning counts as busy).
  double util_integral{0.0};
  /// Total time at least one core was busy or spinning.
  double busy_integral{0.0};
  /// Total time spent in the synchronous-wait spin state (no real work).
  double spin_integral{0.0};
};

class CpuDevice {
 public:
  using CompletionCallback = std::function<void()>;

  CpuDevice(EventQueue& queue, CpuSpec spec, DvfsTable table, std::size_t initial_level);

  /// The paper's testbed CPU at the peak P-state.
  static CpuDevice testbed_default(EventQueue& queue);

  // --- Execution ----------------------------------------------------------
  void submit(const CpuWork& work, CompletionCallback on_complete);
  [[nodiscard]] bool busy() const { return active_.has_value(); }
  [[nodiscard]] std::size_t queued() const { return fifo_.size(); }
  [[nodiscard]] Seconds predict_duration(const CpuWork& work) const;

  /// Enter/leave the synchronous-wait spin state.  Ignored (for power and
  /// utilization purposes) while real work is executing.
  void set_spinning(bool spinning);
  [[nodiscard]] bool spinning() const { return spinning_; }

  // --- DVFS ---------------------------------------------------------------
  void set_level(std::size_t level);
  [[nodiscard]] std::size_t level() const { return domain_.level(); }
  [[nodiscard]] Megahertz frequency() const { return domain_.frequency(); }
  [[nodiscard]] const DvfsTable& table() const { return domain_.table(); }
  [[nodiscard]] std::uint64_t frequency_transitions() const { return domain_.transitions(); }

  // --- Monitoring ---------------------------------------------------------
  /// Instantaneous package utilization in [0, 1].
  [[nodiscard]] double utilization_now() const;
  [[nodiscard]] CpuActivityCounters counters();
  [[nodiscard]] Joules energy();
  /// Energy consumed while in the spin state (used by the Fig. 6c
  /// CPU-throttling emulation: that energy is what an asynchronous stack
  /// could have spent at the lowest P-state instead).
  [[nodiscard]] Joules spin_energy();
  [[nodiscard]] Watts power_now() const;
  /// CPU-side power if idle at the given level (board power included).
  [[nodiscard]] Watts idle_power(std::size_t at_level) const;
  /// CPU-side power at the given level and package utilization (used by the
  /// Fig. 6c throttling emulation to price the spin loop at the lowest
  /// P-state).
  [[nodiscard]] Watts power_at(std::size_t at_level, double utilization) const;

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t tasks_completed() const { return tasks_completed_; }

  // --- Steady accounting ----------------------------------------------------
  /// The per-instant factors of the accounting: power, package utilization
  /// and the running task's time per unit (0 when idle).  They hold still
  /// while nothing changes the package's state — level, task or spin flag.
  struct Rates {
    Watts power{0.0};
    double utilization{0.0};
    Seconds unit_time{0.0};
  };
  [[nodiscard]] Rates rates() const;
  /// counters(), with `r` taken by rates() since the package's state last
  /// changed: the same float operations, in the same order, without
  /// re-deriving the factors (for runs of controller ticks).
  GG_HOT const CpuActivityCounters& counters(const Rates& r) {
    const Seconds now = queue_.now();
    const Seconds dt = now - last_account_;
    if (dt <= Seconds{0.0}) {
      last_account_ = now;
    } else {
      accrue(r, now, dt);
    }
    return counters_;
  }

  /// Serialize the package's accounting state (P-state, transition count,
  /// utilization/energy/spin integrals, completion counter).  Only legal at
  /// a quiescent instant: idle, not spinning, empty FIFO.
  void save(common::SnapshotWriter& w);
  /// Counterpart of save(); the device must be idle and built from the same
  /// spec/table (configuration is not serialized).
  void load(common::SnapshotReader& r);

 private:
  struct Active {
    CpuWork work;
    double units_done{0.0};
    CompletionCallback on_complete;
  };

  void account();
  GG_HOT void accrue(const Rates& r, Seconds now, Seconds dt) {
    energy_.advance(now, r.power);
    counters_.util_integral += r.utilization * dt.get();
    if (r.utilization > 0.0) counters_.busy_integral += dt.get();
    if (!active_ && spinning_) {
      counters_.spin_integral += dt.get();
      spin_energy_ += r.power * dt;
    }
    if (active_) active_->units_done += dt / r.unit_time;
    last_account_ = now;
  }
  [[nodiscard]] Seconds unit_time(const CpuWork& w) const;
  [[nodiscard]] int effective_cores(const CpuWork& w) const;
  void start_next_if_idle();
  void schedule_completion();
  void on_completion_event();

  EventQueue& queue_;
  CpuSpec spec_;
  FreqDomain domain_;

  std::deque<Active> fifo_;
  std::optional<Active> active_;
  EventHandle completion_;
  bool spinning_{false};

  Seconds last_account_{0.0};
  CpuActivityCounters counters_{};
  EnergyIntegrator energy_{};
  Joules spin_energy_{0.0};
  std::uint64_t tasks_completed_{0};
};

}  // namespace gg::sim
