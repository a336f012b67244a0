#include "src/sim/power_meter.h"

#include <stdexcept>

namespace gg::sim {

void PowerMeter::advance(Seconds now, Watts power_since_last) {
  Seconds t = integrator_.last_time();
  if (now < t) throw std::invalid_argument("PowerMeter: time went backwards");
  // Split the interval at sample-window boundaries so each emitted sample is
  // the true average power over its window.
  while (window_start_ + sample_interval_ <= now) {
    const Seconds boundary = window_start_ + sample_interval_;
    window_energy_ += power_since_last * (boundary - t);
    samples_.push_back(MeterSample{boundary, window_energy_ / sample_interval_});
    window_energy_ = Joules{0.0};
    window_start_ = boundary;
    t = boundary;
  }
  window_energy_ += power_since_last * (now - t);
  integrator_.advance(now, power_since_last);
}

void PowerMeter::reset(Seconds now) {
  integrator_.reset(now);
  window_start_ = now;
  window_energy_ = Joules{0.0};
  samples_.clear();
}

}  // namespace gg::sim
