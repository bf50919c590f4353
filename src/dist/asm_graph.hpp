// AsmGraph: the mutable directed assembly graph that the distributed
// algorithms of paper §V operate on. Nodes are hybrid-graph read clusters
// carrying their contig sequence; edges are directed overlaps ("the target
// continues the source to the right") with an overlap-length estimate that
// the containment stage verifies by alignment.
//
// Removal is by marking: the master process "removes" recorded nodes/edges
// (paper §V-A/B/C) by flipping flags, so edge ids stay stable across the
// whole simplification pipeline and worker-recorded ids remain valid.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace focus::dist {

using EdgeId = std::uint32_t;
inline constexpr EdgeId kInvalidEdge = 0xffffffffu;

struct AsmNode {
  std::string contig;
  /// Number of reads in the underlying cluster (coverage proxy).
  Weight reads = 1;
  bool removed = false;
};

struct AsmEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// Overlap length in bp. An estimate until `verified` is set by the
  /// containment/verification stage.
  std::uint32_t overlap = 0;
  /// Estimated start position of `to`'s contig within `from`'s contig
  /// coordinates. For a plain dovetail this is len(from) − overlap; it is
  /// smaller when `to` lies inside `from` (containment candidates).
  std::uint32_t offset = 0;
  float identity = 1.0f;
  bool verified = false;
  bool removed = false;
};

class AsmGraph {
 public:
  AsmGraph() = default;

  NodeId add_node(std::string contig, Weight reads);

  /// Adds an edge with an overlap estimate. `offset_estimate` locates `to`'s
  /// contig within `from`'s coordinates; when omitted it defaults to the
  /// dovetail value len(from) − overlap.
  EdgeId add_edge(NodeId from, NodeId to, std::uint32_t overlap_estimate);
  EdgeId add_edge(NodeId from, NodeId to, std::uint32_t overlap_estimate,
                  std::uint32_t offset_estimate);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const AsmNode& node(NodeId v) const { return nodes_[v]; }
  const AsmEdge& edge(EdgeId e) const { return edges_[e]; }

  bool node_live(NodeId v) const { return !nodes_[v].removed; }
  bool edge_live(EdgeId e) const {
    const AsmEdge& edge = edges_[e];
    return !edge.removed && !nodes_[edge.from].removed &&
           !nodes_[edge.to].removed;
  }

  /// Live out/in edge ids of v (skips removed edges and edges to removed
  /// nodes), in insertion order.
  std::vector<EdgeId> live_out(NodeId v) const;
  std::vector<EdgeId> live_in(NodeId v) const;
  std::size_t live_out_degree(NodeId v) const;
  std::size_t live_in_degree(NodeId v) const;

  /// Live edge id from u to v, if any.
  std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  void remove_edge(EdgeId e) { edges_[e].removed = true; }
  void remove_node(NodeId v) { nodes_[v].removed = true; }
  void set_verified(EdgeId e, std::uint32_t overlap, float identity) {
    edges_[e].overlap = overlap;
    edges_[e].identity = identity;
    edges_[e].verified = true;
  }

  std::size_t live_node_count() const;
  std::size_t live_edge_count() const;

  /// Concatenates the contigs of a path, trimming each edge's overlap:
  /// contig(p0) + contig(p1)[overlap01:] + …
  std::string merge_path_contigs(const std::vector<NodeId>& path) const;

 private:
  std::vector<AsmNode> nodes_;
  std::vector<AsmEdge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace focus::dist
