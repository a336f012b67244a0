#include "src/greengpu/cpu_governor.h"

#include <stdexcept>

#include "src/common/annotations.h"
#include "src/greengpu/loss.h"

namespace gg::greengpu {

CpuGovernor::CpuGovernor(sim::Platform& platform, Seconds interval)
    : platform_(&platform), interval_(interval),
      sampler_(platform.cpu(), platform.queue()) {
  if (interval_ <= Seconds{0.0}) {
    throw std::invalid_argument("CpuGovernor: interval must be > 0");
  }
}

GovernorDecision CpuGovernor::step(Seconds now) {
  const double u = sampler_.sample();
  const std::size_t level = decide(u);
  platform_->cpu().set_level(level);
  ++steps_;
  const GovernorDecision d{now, u, level};
  decisions_.push(d);
  return d;
}

// step(), tick after tick, while the level holds.  The CPU's rates stay
// put over such a run, so they are taken once, and set_level() is skipped
// (it would only re-account a zero-length window); every float operation
// runs in step()'s order.  Returns after the first tick that moves the
// level — that can reschedule a CPU completion, and so the next foreign
// event — or when the next tick no longer fires before it.  Every
// governor's decide() reads only the utilization, the current level and
// its own state, so the ticks in between need no dispatch of their own.
GG_HOT void CpuGovernor::run_ticks() {
  sim::EventQueue& q = platform_->queue();
  sim::CpuDevice& cpu = platform_->cpu();
  const sim::CpuDevice::Rates rates = cpu.rates();
  const std::size_t level = cpu.level();
  do {
    const Seconds now = q.now();
    const double u = sampler_.sample(cpu.counters(rates), now);
    const std::size_t next = decide(u);
    ++steps_;
    decisions_.push(GovernorDecision{now, u, next});
    if (next != level) {
      cpu.set_level(next);
      return;
    }
  } while (q.advance_current_timer());
}

void CpuGovernor::attach() { attach_at(platform_->queue().now() + interval_); }

void CpuGovernor::attach_at(Seconds first_step) {
  detach();
  ticks_ = platform_->queue().schedule_every(first_step, interval_, [this] { run_ticks(); });
}

namespace {

void save_governor_decision(common::SnapshotWriter& w, const GovernorDecision& d) {
  w.f64(d.time.get());
  w.f64(d.util);
  w.u64(d.level);
}

GovernorDecision load_governor_decision(common::SnapshotReader& r) {
  GovernorDecision d;
  d.time = Seconds{r.f64()};
  d.util = r.f64();
  d.level = static_cast<std::size_t>(r.u64());
  return d;
}

}  // namespace

void CpuGovernor::save(common::SnapshotWriter& w) const {
  sampler_.save(w);
  w.u64(steps_);
  decisions_.save(w, save_governor_decision);
}

void CpuGovernor::load(common::SnapshotReader& r) {
  sampler_.load(r);
  steps_ = r.u64();
  decisions_.load(r, load_governor_decision);
}

void WmaCpuGovernor::save(common::SnapshotWriter& w) const {
  CpuGovernor::save(w);
  table_.save(w);
}

void WmaCpuGovernor::load(common::SnapshotReader& r) {
  CpuGovernor::load(r);
  table_.load(r);
}

void CpuGovernor::detach() { ticks_.cancel(); }

std::size_t OndemandGovernor::decide(double util) {
  std::size_t level = current_level();
  if (util > params_.up_threshold) {
    level = 0;  // jump to the highest available frequency
  } else if (util < params_.down_threshold) {
    if (level < table().lowest_level()) ++level;  // next lowest frequency
  }
  return level;
}

std::size_t ConservativeGovernor::decide(double util) {
  std::size_t level = current_level();
  if (util > params_.up_threshold) {
    if (level > 0) --level;  // one step up, never a jump
  } else if (util < params_.down_threshold) {
    if (level < table().lowest_level()) ++level;
  }
  return level;
}

WmaCpuGovernor::WmaCpuGovernor(sim::Platform& platform, Seconds interval, double alpha,
                               double beta, double weight_floor)
    : CpuGovernor(platform, interval),
      alpha_(alpha),
      one_minus_beta_(1.0 - beta),
      weight_floor_(weight_floor),
      umean_(umean_table(platform.cpu().table())),
      table_(platform.cpu().table().levels(), 1),
      scratch_losses_(umean_.size(), 0.0) {}

std::size_t WmaCpuGovernor::decide(double util) {
  // Degenerate 1-D case of Eq. 3: the "memory" dimension has a single level
  // with zero loss, so phi = 1 reduces the total loss to the CPU loss
  // (1.0 * loss is the loss bit-exactly, and the single pre-blended memory
  // entry is 0.0).  Fused update: allocation-free, argmax tracked inline.
  for (std::size_t i = 0; i < umean_.size(); ++i) {
    scratch_losses_[i] = component_loss(util, umean_[i], alpha_);
  }
  static constexpr double kZeroMemLoss[1] = {0.0};
  return table_
      .update_fused(scratch_losses_.data(), kZeroMemLoss, one_minus_beta_, weight_floor_)
      .core;
}

std::string_view to_string(CpuGovernorKind kind) {
  switch (kind) {
    case CpuGovernorKind::kNone: return "none";
    case CpuGovernorKind::kPerformance: return "performance";
    case CpuGovernorKind::kPowersave: return "powersave";
    case CpuGovernorKind::kOndemand: return "ondemand";
    case CpuGovernorKind::kConservative: return "conservative";
    case CpuGovernorKind::kWma: return "wma";
  }
  return "unknown";
}

CpuGovernorKind cpu_governor_from_string(std::string_view name) {
  if (name == "none") return CpuGovernorKind::kNone;
  if (name == "performance") return CpuGovernorKind::kPerformance;
  if (name == "powersave") return CpuGovernorKind::kPowersave;
  if (name == "ondemand") return CpuGovernorKind::kOndemand;
  if (name == "conservative") return CpuGovernorKind::kConservative;
  if (name == "wma") return CpuGovernorKind::kWma;
  throw std::invalid_argument("unknown CPU governor: " + std::string(name));
}

std::unique_ptr<CpuGovernor> make_cpu_governor(CpuGovernorKind kind,
                                               sim::Platform& platform,
                                               const OndemandParams& params) {
  switch (kind) {
    case CpuGovernorKind::kNone:
      return nullptr;
    case CpuGovernorKind::kPerformance:
      return std::make_unique<PerformanceGovernor>(platform, params.interval);
    case CpuGovernorKind::kPowersave:
      return std::make_unique<PowersaveGovernor>(platform, params.interval);
    case CpuGovernorKind::kOndemand:
      return std::make_unique<OndemandGovernor>(platform, params);
    case CpuGovernorKind::kConservative:
      return std::make_unique<ConservativeGovernor>(platform, params);
    case CpuGovernorKind::kWma:
      return std::make_unique<WmaCpuGovernor>(platform, params.interval);
  }
  throw std::invalid_argument("unknown CPU governor kind");
}

}  // namespace gg::greengpu
