// Energy integration and Wattsup-style power metering.
//
// The paper measures energy with two Wattsup Pro wall-socket meters (1 Hz
// sampling).  Internally the simulator integrates power exactly over
// piecewise-constant intervals (every device state change advances the
// integrator); the `PowerMeter` additionally logs 1 Hz average-power samples
// so traces look like the meters' output.
#pragma once

#include <stdexcept>
#include <vector>

#include "src/common/snapshot.h"
#include "src/common/units.h"

namespace gg::sim {

/// Exact integrator for piecewise-constant power.  Call `advance(t, p)` with
/// the power that was drawn since the previous call.
class EnergyIntegrator {
 public:
  /// Integrate `power_since_last` over [last_time, now] and move to `now`.
  void advance(Seconds now, Watts power_since_last) {
    if (now < last_) throw std::invalid_argument("EnergyIntegrator: time went backwards");
    energy_ += power_since_last * (now - last_);
    last_ = now;
  }

  [[nodiscard]] Joules energy() const { return energy_; }
  [[nodiscard]] Seconds last_time() const { return last_; }

  void reset(Seconds now) {
    last_ = now;
    energy_ = Joules{0.0};
  }

  /// Serialize the accumulated energy and the last accounting instant; a
  /// restored integrator continues the exact piecewise sum bit-for-bit.
  void save(common::SnapshotWriter& w) const {
    w.f64(last_.get());
    w.f64(energy_.get());
  }
  void load(common::SnapshotReader& r) {
    last_ = Seconds{r.f64()};
    energy_ = Joules{r.f64()};
  }

 private:
  Seconds last_{0.0};
  Joules energy_{0.0};
};

/// One averaged meter sample covering [t - interval, t].
struct MeterSample {
  Seconds time{0.0};
  Watts average_power{0.0};
};

/// Wall-socket style meter: exposes exact cumulative energy plus an optional
/// 1 Hz (configurable) averaged-power sample log.
class PowerMeter {
 public:
  explicit PowerMeter(Seconds sample_interval = Seconds{1.0})
      : sample_interval_(sample_interval) {}

  /// Integrate power over the elapsed interval; emits averaged samples for
  /// every full sampling period crossed.
  void advance(Seconds now, Watts power_since_last);

  [[nodiscard]] Joules energy() const { return integrator_.energy(); }
  [[nodiscard]] const std::vector<MeterSample>& samples() const { return samples_; }
  [[nodiscard]] Seconds sample_interval() const { return sample_interval_; }

  void reset(Seconds now);

 private:
  Seconds sample_interval_;
  EnergyIntegrator integrator_;
  // Sample bookkeeping: energy accumulated within the current sample window.
  Seconds window_start_{0.0};
  Joules window_energy_{0.0};
  std::vector<MeterSample> samples_;
};

}  // namespace gg::sim
