#include "trace.h"

#include <cstdio>
#include <stdexcept>

#include "bench.h"

namespace ggbench {

int Tracer::begin(const std::string& name, std::uint64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_s();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("ggbench: spans closed out of order");
  }
  open_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::total_under(const std::string& name,
                           const std::string& parent_name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == parent_name) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

std::map<std::string, Tracer::Layer> Tracer::self_times() const {
  // Spans nest on one thread, so the children of a span are disjoint
  // intervals inside it and the time they cover is their summed duration.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Layer> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& layer = layers[spans_[i].name];
    layer.self_s += spans_[i].end - spans_[i].start - child_time[i];
    ++layer.spans;
  }
  return layers;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("ggbench: cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                 "\"id\":%llu}\n",
                 s.name.c_str(), s.start - t0, s.end - t0, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fclose(f);
}

double print_self_times(const std::string& workload, const Tracer& tracer,
                        double wall_s) {
  double covered = 0.0;
  std::printf("%s self time per layer (traced wall %.3f s):\n", workload.c_str(),
              wall_s);
  for (const auto& [name, layer] : tracer.self_times()) {
    covered += layer.self_s;
    std::printf("  %-28s %10.3f ms  %6.2f%%  (%zu spans)\n", name.c_str(),
                1e3 * layer.self_s, 100.0 * layer.self_s / wall_s, layer.spans);
  }
  const double residual = wall_s - covered;
  std::printf("  %-28s %10.3f ms  %6.2f%%\n", "(residual)", 1e3 * residual,
              100.0 * residual / wall_s);
  return residual;
}

}  // namespace ggbench
