#include "graph/coarsen.hpp"

#include <numeric>

#include "common/error.hpp"

namespace focus::graph {

std::vector<std::vector<NodeId>> GraphHierarchy::expand_clusters(
    std::size_t level) const {
  FOCUS_CHECK(level < levels.size(), "level out of range");
  const std::size_t n0 = levels[0].node_count();
  // map[v] = ancestor of finest node v at `level`.
  std::vector<NodeId> map(n0);
  std::iota(map.begin(), map.end(), 0u);
  for (std::size_t l = 0; l < level; ++l) {
    for (auto& m : map) m = parent[l][m];
  }
  std::vector<std::vector<NodeId>> clusters(levels[level].node_count());
  for (NodeId v = 0; v < n0; ++v) {
    clusters[map[v]].push_back(v);
  }
  return clusters;
}

NodeId GraphHierarchy::ancestor_at(NodeId v, std::size_t level) const {
  FOCUS_CHECK(level < levels.size(), "level out of range");
  NodeId cur = v;
  for (std::size_t l = 0; l < level; ++l) cur = parent[l][cur];
  return cur;
}

namespace {

/// Heaviest unmatched neighbor of v that respects the weight cap, ties
/// broken by weight descending, then id ascending.
NodeId best_neighbor(const Graph& g, NodeId v, Weight max_node_weight,
                     const std::vector<bool>& matched) {
  NodeId best = kInvalidNode;
  Weight best_weight = 0;
  for (const Edge& e : g.neighbors(v)) {
    if (matched[e.to]) continue;
    if (max_node_weight > 0 &&
        g.node_weight(v) + g.node_weight(e.to) > max_node_weight) {
      continue;
    }
    if (e.weight > best_weight ||
        (e.weight == best_weight && (best == kInvalidNode || e.to < best))) {
      best = e.to;
      best_weight = e.weight;
    }
  }
  return best;
}

}  // namespace

std::vector<NodeId> heavy_edge_matching(const Graph& g, Rng& rng,
                                        Weight max_node_weight) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> match(n);
  std::iota(match.begin(), match.end(), 0u);

  const auto order = rng.permutation(static_cast<std::uint32_t>(n));
  std::vector<bool> matched(n, false);
  for (const NodeId v : order) {
    if (matched[v]) continue;
    const NodeId best = best_neighbor(g, v, max_node_weight, matched);
    if (best != kInvalidNode) {
      match[v] = best;
      match[best] = v;
      matched[v] = true;
      matched[best] = true;
    }
  }
  return match;
}

Graph contract(const Graph& g, const std::vector<NodeId>& matching,
               std::vector<NodeId>& parent) {
  const std::size_t n = g.node_count();
  FOCUS_CHECK(matching.size() == n, "matching size mismatch");

  parent.assign(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] != kInvalidNode) continue;
    const NodeId partner = matching[v];
    FOCUS_ASSERT(matching[partner] == v, "matching is not symmetric");
    parent[v] = next;
    parent[partner] = next;  // partner == v for unmatched nodes
    ++next;
  }

  GraphBuilder builder(next, /*default_node_weight=*/1);
  std::vector<Weight> coarse_weight(next, 0);
  for (NodeId v = 0; v < n; ++v) coarse_weight[parent[v]] += g.node_weight(v);
  for (NodeId c = 0; c < next; ++c) builder.set_node_weight(c, coarse_weight[c]);

  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : g.neighbors(v)) {
      if (e.to < v) continue;  // each undirected edge once
      const NodeId cu = parent[v];
      const NodeId cv = parent[e.to];
      if (cu == cv) continue;  // contracted edge disappears
      builder.add_edge(cu, cv, e.weight);
    }
  }
  return builder.build();
}

GraphHierarchy build_multilevel(const Graph& g0, const CoarsenConfig& config) {
  FOCUS_CHECK(config.max_levels >= 1, "need at least one level");
  GraphHierarchy h;
  h.levels.push_back(g0);

  Rng rng(config.seed);
  while (h.levels.size() <= config.max_levels) {
    const Graph& fine = h.levels.back();
    if (fine.node_count() <= config.min_nodes) break;
    const auto matching =
        heavy_edge_matching(fine, rng, config.max_node_weight);
    std::vector<NodeId> parent;
    Graph coarse = contract(fine, matching, parent);
    if (static_cast<double>(coarse.node_count()) >
        config.min_reduction * static_cast<double>(fine.node_count())) {
      break;  // stalled: nearly nothing matched
    }
    h.parent.push_back(std::move(parent));
    h.levels.push_back(std::move(coarse));
  }
  return h;
}

}  // namespace focus::graph
