// In-memory span recorder for the traced runs.
//
// The benchmark records spans around its own calls into each layer of the
// program (the program itself is not instrumented).  Spans nest on one
// thread: a span's parent is the span open when it began, and a layer's
// self time is its duration minus the time its child spans cover.  Spans
// stay in memory and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ggbench {

struct Span {
  std::string name;
  double start{0.0};
  double end{0.0};
  /// Index of the enclosing span, -1 at top level.
  int parent{-1};
  /// Campaign cell index or service request seq the span belongs to.
  std::uint64_t id{0};
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; returns its index (or -1 when disabled).
  int begin(const std::string& name, std::uint64_t id);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (seconds) of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Summed duration of spans called `name` whose parent is called
  /// `parent_name`.
  [[nodiscard]] double total_under(const std::string& name,
                                   const std::string& parent_name) const;

  struct Layer {
    double self_s{0.0};
    std::size_t spans{0};
  };
  /// Self time per span name.  Their sum equals the summed duration of the
  /// top-level spans.
  [[nodiscard]] std::map<std::string, Layer> self_times() const;

  /// One JSON object per line: name, start, end (seconds from the first
  /// span), parent, id.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer.begin(name, id)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Print the self-time table for `tracer` against `wall_s` (the traced
/// wall time) with the residual the spans do not cover, and return the
/// residual in seconds.
double print_self_times(const std::string& workload, const Tracer& tracer,
                        double wall_s);

}  // namespace ggbench
