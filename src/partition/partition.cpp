#include "partition/partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace focus::partition {

Weight edge_cut(const Graph& g, const std::vector<PartId>& part) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  Weight cut = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const graph::Edge& e : g.neighbors(v)) {
      if (e.to > v && part[e.to] != part[v]) cut += e.weight;
    }
  }
  return cut;
}

std::vector<Weight> part_node_weights(const Graph& g,
                                      const std::vector<PartId>& part,
                                      PartId parts) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  std::vector<Weight> w(static_cast<std::size_t>(parts), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    FOCUS_ASSERT(part[v] >= 0 && part[v] < parts, "node with invalid part");
    w[static_cast<std::size_t>(part[v])] += g.node_weight(v);
  }
  return w;
}

std::vector<Weight> part_edge_weights(const Graph& g,
                                      const std::vector<PartId>& part,
                                      PartId parts) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  std::vector<Weight> w(static_cast<std::size_t>(parts), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const graph::Edge& e : g.neighbors(v)) {
      w[static_cast<std::size_t>(part[v])] += e.weight;
    }
  }
  return w;
}

double node_balance(const Graph& g, const std::vector<PartId>& part,
                    PartId parts) {
  const auto weights = part_node_weights(g, part, parts);
  const Weight total = g.total_node_weight();
  if (total == 0) return 1.0;
  const Weight max_w = *std::max_element(weights.begin(), weights.end());
  return static_cast<double>(max_w) * static_cast<double>(parts) /
         static_cast<double>(total);
}

bool is_complete(const std::vector<PartId>& part, PartId parts) {
  for (const PartId p : part) {
    if (p < 0 || p >= parts) return false;
  }
  return true;
}

}  // namespace focus::partition
