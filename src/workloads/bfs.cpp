#include "src/workloads/bfs.h"

#include <limits>
#include <utility>

#include "src/common/rng.h"
#include "src/workloads/reference_memo.h"

namespace gg::workloads {

namespace {
constexpr int kInf = std::numeric_limits<int>::max() / 2;
}

Bfs::Bfs(BfsConfig config) : config_(config) {}

void Bfs::generate_inputs() {
  Rng rng(config_.seed);
  const std::size_t n = config_.nodes;
  // Random out-edges, transposed into an in-edge CSR by counting sort.  A
  // chain edge v-1 -> v guarantees connectivity so distances are finite;
  // each vertex lists its chain edge first, then its random in-edges in
  // draw order.
  const std::size_t extra_edges = n * (config_.avg_degree - 1);
  std::vector<std::pair<std::size_t, std::size_t>> extra;  // (u, v), draw order
  extra.reserve(extra_edges);
  row_offsets_.assign(n + 1, 0);
  for (std::size_t v = 1; v < n; ++v) ++row_offsets_[v + 1];
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const std::size_t u = rng.uniform_int(n);
    const std::size_t v = rng.uniform_int(n);
    if (u != v) {
      extra.emplace_back(u, v);
      ++row_offsets_[v + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) row_offsets_[v + 1] += row_offsets_[v];
  in_neighbors_.resize(row_offsets_[n]);
  std::vector<std::size_t> next(row_offsets_.begin(), row_offsets_.end() - 1);
  for (std::size_t v = 1; v < n; ++v) in_neighbors_[next[v]++] = v - 1;
  for (const auto& [u, v] : extra) in_neighbors_[next[v]++] = u;
}

IntensityProfile Bfs::profile(std::size_t /*iter*/) const { return config_.profile; }

void Bfs::setup(cudalite::Runtime& rt) {
  const std::size_t n = config_.nodes;
  if (rt.compute_enabled()) {
    generate_inputs();
    dist_in_.assign(n, kInf);
    dist_in_[0] = 0;  // source
    dist_out_ = dist_in_;
  }
  dev_dist_ = rt.alloc<int>(n);
  rt.memcpy_h2d(dev_dist_, dist_in_.data(), n);
  ran_ = false;
}

void Bfs::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  for (std::size_t v = begin; v < end; ++v) {
    int best = dist_in_[v];
    for (std::size_t e = row_offsets_[v]; e < row_offsets_[v + 1]; ++e) {
      const int cand = dist_in_[in_neighbors_[e]];
      if (cand < kInf && cand + 1 < best) best = cand + 1;
    }
    dist_out_[v] = best;
  }
}

void Bfs::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);  // identical relaxation
}

void Bfs::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  std::swap(dist_in_, dist_out_);
}

void Bfs::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_dist_, dist_in_.data(), config_.nodes);
  rt.memcpy_d2h(result_, dev_dist_);
  rt.free(dev_dist_);
  // A model-only run built no inputs, so it has no result to verify.
  ran_ = rt.compute_enabled();
}

Bfs::Reference Bfs::reference() const {
  // Serial reference: identical rounds of relaxation.
  const std::size_t n = config_.nodes;
  std::vector<int> in(n, kInf);
  std::vector<int> out(n, kInf);
  in[0] = 0;
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    for (std::size_t v = 0; v < n; ++v) {
      int best = in[v];
      for (std::size_t e = row_offsets_[v]; e < row_offsets_[v + 1]; ++e) {
        const int cand = in[in_neighbors_[e]];
        if (cand < kInf && cand + 1 < best) best = cand + 1;
      }
      out[v] = best;
    }
    std::swap(in, out);
  }
  return in;
}

bool Bfs::verify() const {
  if (!ran_) return false;
  const auto ref =
      reference_memo<Bfs>().get_or_compute(config_, [this] { return reference(); });
  return result_ == *ref;
}

}  // namespace gg::workloads
