// Process-lifetime memo of the workloads' scalar verification references.
//
// A workload's scalar reference — the serial rerun `verify()` compares the
// divided, clocked execution against — is a pure function of its config:
// every input is generated from the config (seed included) in a full-compute
// `setup` (constructors are config-only, see workload.h).  Only an instance
// that ran with compute on may consult the memo.
// Cells that share a config (one workload under several policies, fault
// replicates, repeated greengpud requests) therefore share one reference.
//
// The memo holds the *expected output* only.  Every cell still runs its own
// kernels and compares its own result against the expected output, with the
// same tolerances as before, so `verify()` stays a per-cell check.  (The
// batch engine's verify memo is a different thing: it shares a verification
// *outcome* so model-only cells can skip compute.)
//
// Keys are the whole config struct, ordered by its defaulted operator<=>,
// so adding a config field can never leave a key stale.  Entries live for
// the process; see docs/ARCHITECTURE.md for the footprint.  When concurrent
// cells race on a cold entry each computes the reference outside the lock
// and the first insert wins; references are deterministic, so the losers'
// copies are identical and are dropped.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace gg::workloads {

struct ReferenceMemoStats {
  /// Distinct configs held.
  std::size_t entries{0};
  /// Reference computations, including copies dropped by a lost race.
  std::size_t computed{0};
};

template <typename Config, typename Expected>
class ReferenceMemo {
 public:
  /// The expected output for `config`, calling `compute()` on a miss.
  template <typename Compute>
  [[nodiscard]] std::shared_ptr<const Expected> get_or_compute(const Config& config,
                                                               Compute compute) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(config);
      if (it != entries_.end()) return it->second;
    }
    // Computed unlocked: a cold reference must not stall other lookups.
    auto fresh = std::make_shared<const Expected>(compute());
    const std::lock_guard<std::mutex> lock(mutex_);
    ++computed_;
    return entries_.try_emplace(config, std::move(fresh)).first->second;
  }

  [[nodiscard]] ReferenceMemoStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {entries_.size(), computed_};
  }

 private:
  mutable std::mutex mutex_;
  std::map<Config, std::shared_ptr<const Expected>> entries_;
  std::size_t computed_{0};
};

/// The process-wide memo of workload type `W`, keyed by `W::Config` and
/// holding `W::Reference`.
template <typename W>
ReferenceMemo<typename W::Config, typename W::Reference>& reference_memo() {
  static ReferenceMemo<typename W::Config, typename W::Reference> memo;
  return memo;
}

}  // namespace gg::workloads
