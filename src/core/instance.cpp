#include "core/instance.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace metis::core {

SpmInstance::SpmInstance(net::Topology topology,
                         std::vector<workload::Request> requests,
                         InstanceConfig config, net::PathCache* path_cache,
                         const std::vector<net::Path>* require_paths)
    : topology_(std::move(topology)),
      requests_(std::move(requests)),
      config_(config) {
  if (config_.num_slots <= 0) {
    throw std::invalid_argument("SpmInstance: num_slots must be positive");
  }
  if (config_.max_paths <= 0) {
    throw std::invalid_argument("SpmInstance: max_paths must be positive");
  }
  if (require_paths != nullptr &&
      require_paths->size() != requests_.size()) {
    throw std::invalid_argument("SpmInstance: require_paths size mismatch");
  }
  for (const workload::Request& r : requests_) {
    workload::validate_request(r, topology_.num_nodes(), config_.num_slots);
  }
  // One Yen run per distinct endpoint pair.
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<net::Path>> by_pair;
  for (const workload::Request& r : requests_) {
    by_pair.emplace(std::make_pair(r.src, r.dst), std::vector<net::Path>{});
  }
  for (auto& [pair, paths] : by_pair) {
    paths = path_cache != nullptr
                ? path_cache->paths(pair.first, pair.second, config_.max_paths)
                : net::k_shortest_paths(topology_, pair.first, pair.second,
                                        config_.max_paths);
    if (paths.empty()) {
      throw std::invalid_argument(
          "SpmInstance: request endpoints are disconnected (" +
          std::to_string(pair.first) + " -> " + std::to_string(pair.second) + ")");
    }
  }
  paths_.reserve(requests_.size());
  for (std::size_t idx = 0; idx < requests_.size(); ++idx) {
    const workload::Request& r = requests_[idx];
    paths_.push_back(by_pair.at({r.src, r.dst}));
    if (require_paths != nullptr && !(*require_paths)[idx].empty()) {
      const net::Path& required = (*require_paths)[idx];
      if (!net::is_simple_path(topology_, required, r.src, r.dst)) {
        throw std::invalid_argument(
            "SpmInstance: require_paths[" + std::to_string(idx) +
            "] is not a simple src->dst path");
      }
      for (net::EdgeId e : required.edges) {
        if (!topology_.edge_enabled(e)) {
          throw std::invalid_argument(
              "SpmInstance: require_paths[" + std::to_string(idx) +
              "] crosses a disabled edge");
        }
      }
      auto& candidates = paths_.back();
      if (std::find(candidates.begin(), candidates.end(), required) ==
          candidates.end()) {
        candidates.push_back(required);
      }
    }
  }
}

bool SpmInstance::path_uses_edge(int i, int j, net::EdgeId e) const {
  const std::vector<net::EdgeId>& edges = paths_.at(i).at(j).edges;
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

}  // namespace metis::core
