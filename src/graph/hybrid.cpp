#include "graph/hybrid.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/error.hpp"

namespace focus::graph {

std::vector<PartId> HybridGraphSet::project_to_reads(
    const std::vector<PartId>& hybrid_parts, std::size_t read_count) const {
  FOCUS_CHECK(hybrid_parts.size() == hybrid_graph().node_count(),
              "partition size does not match hybrid graph");
  std::vector<PartId> read_parts(read_count, kNoPart);
  for (NodeId h = 0; h < cluster_reads.size(); ++h) {
    for (const NodeId read : cluster_reads[h]) {
      FOCUS_ASSERT(read < read_count, "cluster read out of range");
      read_parts[read] = hybrid_parts[h];
    }
  }
  return read_parts;
}

namespace {

// clusters[l][v] = the reads of multilevel node (l, v).
using LevelClusters = std::vector<std::vector<std::vector<NodeId>>>;

// Per-multilevel-level representative marks and stored layouts.
struct Selection {
  // is_rep[l][v]
  std::vector<std::vector<bool>> is_rep;
  // layouts keyed per level, only for representatives.
  std::vector<std::map<NodeId, std::vector<LayoutStep>>> layouts;
  std::vector<std::size_t> reps_per_level;
};

Selection select_representatives(const GraphHierarchy& ml,
                                 const LevelClusters& clusters,
                                 ContiguityTester& tester) {
  const std::size_t depth = ml.depth();
  Selection sel;
  sel.is_rep.resize(depth);
  sel.layouts.resize(depth);
  sel.reps_per_level.assign(depth, 0);
  for (std::size_t l = 0; l < depth; ++l) {
    sel.is_rep[l].assign(ml.levels[l].node_count(), false);
  }

  // children[l][v] = level-l nodes whose parent (level l+1) is v.
  std::vector<std::vector<std::vector<NodeId>>> children(depth);
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    children[l + 1].resize(ml.levels[l + 1].node_count());
    for (NodeId v = 0; v < ml.levels[l].node_count(); ++v) {
      children[l + 1][ml.parent[l][v]].push_back(v);
    }
  }

  // Top-down selection, iterative (explicit stack).
  std::vector<std::pair<std::size_t, NodeId>> stack;
  const std::size_t top = depth - 1;
  for (NodeId v = 0; v < ml.levels[top].node_count(); ++v) {
    stack.emplace_back(top, v);
  }
  while (!stack.empty()) {
    const auto [l, v] = stack.back();
    stack.pop_back();
    std::vector<LayoutStep> layout;
    const bool contiguous = tester.contiguous(clusters[l][v], &layout);
    FOCUS_ASSERT(contiguous || l > 0, "single-read cluster must be contiguous");
    if (contiguous) {
      sel.is_rep[l][v] = true;
      sel.layouts[l].emplace(v, std::move(layout));
      ++sel.reps_per_level[l];
    } else {
      for (const NodeId c : children[l][v]) stack.emplace_back(l - 1, c);
    }
  }
  return sel;
}

}  // namespace

HybridGraphSet build_hybrid(const GraphHierarchy& ml,
                            const Digraph& read_graph,
                            std::vector<std::uint32_t> read_lengths) {
  FOCUS_CHECK(ml.depth() >= 1, "multilevel set is empty");
  FOCUS_CHECK(ml.finest().node_count() == read_graph.node_count(),
              "multilevel set's finest level has " +
                  std::to_string(ml.finest().node_count()) +
                  " nodes but the read graph has " +
                  std::to_string(read_graph.node_count()) + " reads");
  const std::size_t depth = ml.depth();

  LevelClusters clusters(depth);
  for (std::size_t l = 0; l < depth; ++l) {
    clusters[l] = ml.expand_clusters(l);
  }
  ContiguityTester tester(read_graph, std::move(read_lengths));
  Selection sel = select_representatives(ml, clusters, tester);

  HybridGraphSet out;
  out.reps_per_level = sel.reps_per_level;
  out.origin.resize(depth);
  out.hierarchy.levels.resize(depth);
  out.hierarchy.parent.resize(depth - 1);

  // anchor[l][v] = (rep level, rep node) covering multilevel node (l, v) when
  // some ancestor-or-self at level >= l is a representative; otherwise (l, v)
  // itself. Computed per level by walking the ancestor chain.
  // hybrid_id[l]: map from anchor (level,node) to the hybrid node id at
  // hybrid level l.
  std::vector<std::map<std::pair<std::uint32_t, NodeId>, NodeId>> hybrid_id(
      depth);
  // ml_to_hybrid[l][v] = hybrid node id (at hybrid level l) of ml node (l,v).
  std::vector<std::vector<NodeId>> ml_to_hybrid(depth);

  for (std::size_t l = 0; l < depth; ++l) {
    const std::size_t n = ml.levels[l].node_count();
    ml_to_hybrid[l].assign(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      // Find the representative on the ancestor chain starting at (l, v).
      std::uint32_t rep_level = static_cast<std::uint32_t>(l);
      NodeId rep_node = v;
      bool found = false;
      {
        std::size_t cl = l;
        NodeId cv = v;
        for (;;) {
          if (sel.is_rep[cl][cv]) {
            rep_level = static_cast<std::uint32_t>(cl);
            rep_node = cv;
            found = true;
            break;
          }
          if (cl + 1 >= depth) break;
          cv = ml.parent[cl][cv];
          ++cl;
        }
      }
      const std::pair<std::uint32_t, NodeId> key =
          found ? std::make_pair(rep_level, rep_node)
                : std::make_pair(static_cast<std::uint32_t>(l), v);
      auto [it, inserted] = hybrid_id[l].try_emplace(
          key, static_cast<NodeId>(hybrid_id[l].size()));
      ml_to_hybrid[l][v] = it->second;
    }
  }

  // Build each hybrid level's graph and origin table.
  for (std::size_t l = 0; l < depth; ++l) {
    const Graph& mlg = ml.levels[l];
    const std::size_t hn = hybrid_id[l].size();
    out.origin[l].resize(hn);
    for (const auto& [key, hid] : hybrid_id[l]) {
      out.origin[l][hid] = HybridOrigin{key.first, key.second};
    }

    GraphBuilder builder(hn);
    std::vector<Weight> node_weight(hn, 0);
    for (NodeId v = 0; v < mlg.node_count(); ++v) {
      node_weight[ml_to_hybrid[l][v]] += mlg.node_weight(v);
    }
    for (NodeId h = 0; h < hn; ++h) builder.set_node_weight(h, node_weight[h]);
    for (NodeId v = 0; v < mlg.node_count(); ++v) {
      for (const Edge& e : mlg.neighbors(v)) {
        if (e.to < v) continue;
        const NodeId hu = ml_to_hybrid[l][v];
        const NodeId hv = ml_to_hybrid[l][e.to];
        if (hu == hv) continue;
        builder.add_edge(hu, hv, e.weight);
      }
    }
    out.hierarchy.levels[l] = builder.build();
  }

  // Hybrid parent maps. A hybrid node at level l with origin (j, u):
  //   j > l  : it persists at level l+1 with the same origin;
  //   j == l : its multilevel parent's hybrid node at level l+1 is its parent
  //            (for l+1 < depth).
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    const std::size_t hn = out.hierarchy.levels[l].node_count();
    auto& parent = out.hierarchy.parent[l];
    parent.assign(hn, kInvalidNode);
    for (NodeId h = 0; h < hn; ++h) {
      const HybridOrigin o = out.origin[l][h];
      if (o.ml_level > l) {
        const auto it = hybrid_id[l + 1].find({o.ml_level, o.ml_node});
        FOCUS_ASSERT(it != hybrid_id[l + 1].end(),
                     "persistent representative missing at coarser level");
        parent[h] = it->second;
      } else {
        const NodeId ml_parent = ml.parent[l][o.ml_node];
        parent[h] = ml_to_hybrid[l + 1][ml_parent];
      }
    }
  }

  // G'0 clusters and layouts. At hybrid level 0 every node's origin is a
  // distinct representative, so each multilevel cluster moves out once.
  out.cluster_reads.resize(out.hierarchy.levels[0].node_count());
  for (NodeId h = 0; h < out.cluster_reads.size(); ++h) {
    const HybridOrigin o = out.origin[0][h];
    out.cluster_reads[h] = std::move(clusters[o.ml_level][o.ml_node]);
  }

  out.layouts.resize(out.cluster_reads.size());
  for (NodeId h = 0; h < out.cluster_reads.size(); ++h) {
    const HybridOrigin o = out.origin[0][h];
    const auto it = sel.layouts[o.ml_level].find(o.ml_node);
    FOCUS_ASSERT(it != sel.layouts[o.ml_level].end(),
                 "hybrid-graph node without a stored layout");
    out.layouts[h] = it->second;
  }

  out.selection_work = tester.work();
  return out;
}

}  // namespace focus::graph
