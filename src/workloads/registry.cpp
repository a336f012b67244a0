#include "src/workloads/registry.h"

#include <stdexcept>

#include "src/workloads/bfs.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/kmeans_pipeline.h"
#include "src/workloads/lud.h"
#include "src/workloads/nbody.h"
#include "src/workloads/pathfinder.h"
#include "src/workloads/qrng.h"
#include "src/workloads/srad.h"
#include "src/workloads/srad_stream.h"
#include "src/workloads/streamcluster.h"

namespace gg::workloads {

namespace {
/// Process-wide pipeline tuning; written by set_pipeline_tuning before runs,
/// only read by make_workload afterwards.
PipelineTuning g_pipeline_tuning{};
}  // namespace

std::vector<std::string> pipeline_workload_names() {
  return {"kmeans_pipeline", "srad_stream"};
}

void set_pipeline_tuning(const PipelineTuning& tuning) { g_pipeline_tuning = tuning; }

PipelineTuning pipeline_tuning() { return g_pipeline_tuning; }

std::vector<std::string> all_workload_names() {
  return {"bfs",     "lud",     "nbody",  "pathfinder", "QG",
          "srad_v2", "hotspot", "kmeans", "streamcluster"};
}

std::vector<std::string> divisible_workload_names() { return {"kmeans", "hotspot"}; }

namespace {

template <typename W>
WorkloadPtr make_default() {
  return std::make_unique<W>();
}

WorkloadPtr make_kmeans_pipeline() {
  KmeansPipelineConfig cfg;
  cfg.pipelined = g_pipeline_tuning.pipelined;
  cfg.stream_depth = g_pipeline_tuning.stream_depth;
  cfg.chunks = g_pipeline_tuning.chunks;
  return std::make_unique<KmeansPipeline>(cfg);
}

WorkloadPtr make_srad_stream() {
  SradStreamConfig cfg;
  cfg.pipelined = g_pipeline_tuning.pipelined;
  cfg.stream_depth = g_pipeline_tuning.stream_depth;
  cfg.frames_per_iteration = g_pipeline_tuning.chunks;
  return std::make_unique<SradStream>(cfg);
}

struct Entry {
  std::string_view name;
  WorkloadPtr (*make)();
};

/// Every name and alias make_workload accepts, with its constructor.
constexpr Entry kRegistry[] = {
    {"bfs", &make_default<Bfs>},
    {"lud", &make_default<Lud>},
    {"nbody", &make_default<Nbody>},
    {"pathfinder", &make_default<Pathfinder>},
    {"PF", &make_default<Pathfinder>},
    {"QG", &make_default<Qrng>},
    {"qrng", &make_default<Qrng>},
    {"srad_v2", &make_default<Srad>},
    {"srad", &make_default<Srad>},
    {"hotspot", &make_default<Hotspot>},
    {"kmeans", &make_default<Kmeans>},
    {"streamcluster", &make_default<Streamcluster>},
    {"SC", &make_default<Streamcluster>},
    {"kmeans_pipeline", &make_kmeans_pipeline},
    {"srad_stream", &make_srad_stream},
};

const Entry* find_entry(std::string_view name) {
  for (const Entry& e : kRegistry) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace

bool is_workload_name(std::string_view name) { return find_entry(name) != nullptr; }

WorkloadPtr make_workload(std::string_view name) {
  if (const Entry* e = find_entry(name)) return e->make();
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace gg::workloads
