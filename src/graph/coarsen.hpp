// Graph coarsening by heavy-edge matching (paper §II-C, §III; Karypis &
// Kumar [15]).
//
// One coarsening step finds a matching M on G by visiting nodes in random
// order and matching each unmatched node with its unmatched neighbor of
// maximum edge weight ("heavy edge matching"), then contracts matched pairs:
// node weights add, parallel edges merge with summed weights. Iterating
// produces the multilevel graph set G = {G0, G1, …, Gn} with
// |V(Gn)| <= … <= |V(G0)|.
//
// Coarsening is serial: a pooled scoring pass for the matching measured no
// faster on the D1-D3 overlap graphs (EXPERIMENTS.md, "Shared-memory thread
// pool").
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace focus::graph {

/// A hierarchy of graphs: levels[0] is the finest; parent[l][v] gives the
/// level-(l+1) node that level-l node v was merged into (parent.size() ==
/// levels.size() - 1). Both the multilevel and the hybrid graph set take
/// this shape, so the partitioner works on either.
struct GraphHierarchy {
  std::vector<Graph> levels;
  std::vector<std::vector<NodeId>> parent;

  std::size_t depth() const { return levels.size(); }
  const Graph& finest() const { return levels.front(); }
  const Graph& coarsest() const { return levels.back(); }

  /// Maps every level-`level` node to its constituent finest-level nodes.
  std::vector<std::vector<NodeId>> expand_clusters(std::size_t level) const;

  /// Ancestor of finest-level node v at `level`.
  NodeId ancestor_at(NodeId v, std::size_t level) const;
};

struct CoarsenConfig {
  /// Stop when the coarsest graph has at most this many nodes…
  std::size_t min_nodes = 64;
  /// …or after this many coarsening steps (paper's runs had ~10 levels)…
  std::size_t max_levels = 10;
  /// …or when a step shrinks the node count by less than this factor
  /// (coarsening has stalled, e.g. on a star graph).
  double min_reduction = 0.95;
  /// When positive, a match is rejected if the merged node would exceed this
  /// weight (Karypis & Kumar's maxvwgt: prevents coarse nodes so heavy that
  /// no balanced partition of the coarsest graph exists). The assembly
  /// pipeline leaves this unlimited — growing clusters is the point of the
  /// hybrid graph — while the partitioner's internal re-coarsening caps it.
  Weight max_node_weight = 0;
  std::uint64_t seed = 1;
  /// Has no effect: coarsening is serial. Kept only because the
  /// whole-pipeline benchmark (pipeline_bench/pipeline.cpp) sets it.
  unsigned threads = 1;
};

/// Heavy-edge matching: returns match[v] = partner (or v itself when
/// unmatched). Deterministic given the rng state. `max_node_weight`
/// (positive) rejects matches whose merged weight would exceed the cap.
std::vector<NodeId> heavy_edge_matching(const Graph& g, Rng& rng,
                                        Weight max_node_weight = 0);

/// Contracts a matching: fills `parent` (fine -> coarse id) and returns the
/// coarse graph.
Graph contract(const Graph& g, const std::vector<NodeId>& matching,
               std::vector<NodeId>& parent);

/// Builds the multilevel graph set by repeated HEM + contraction.
GraphHierarchy build_multilevel(const Graph& g0, const CoarsenConfig& config);

}  // namespace focus::graph
