// Directed overlap (assembly) graph over reads.
//
// Because preprocessing adds the reverse complement of every read to the set
// (paper §II-A), all overlaps are forward-forward and a suffix→prefix overlap
// q→r means "r continues q to the right". Containments are kept out of the
// edge set and recorded separately — a contained read adds no layout
// information.
//
// This graph drives the contiguity test behind best-representative selection
// (§II-D) and contig sequence construction.
//
// Storage is CSR: one offsets array and one edge array, each node's row
// sorted by (to ascending, overlap descending). Only out-edges are stored.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "align/overlap.hpp"
#include "common/types.hpp"

namespace focus::graph {

struct DiEdge {
  NodeId to = kInvalidNode;
  /// Overlap alignment length between the two reads.
  Weight overlap = 0;
};

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count)
      : offsets_(node_count + 1, 0), contained_(node_count, false) {}

  std::size_t node_count() const { return contained_.size(); }

  /// Stages an edge for hand-built graphs; it joins the CSR rows at the next
  /// finalize(). Throws focus::Error on an out-of-range endpoint or a
  /// self-loop.
  void add_edge(NodeId from, NodeId to, Weight overlap);

  std::span<const DiEdge> out_edges(NodeId v) const {
    return {edges_.data() + offsets_[v], edges_.data() + offsets_[v + 1]};
  }
  std::size_t out_degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Throws focus::Error when `v` is not a node of this graph.
  void mark_contained(NodeId v);
  bool is_contained(NodeId v) const { return contained_[v]; }

  /// Merges the staged edges into the CSR rows and sorts every row by
  /// (to, overlap desc) for deterministic iteration. Call once after all
  /// edges are added.
  void finalize();

  std::size_t edge_count() const { return edges_.size() + staged_.size(); }

 private:
  std::vector<std::size_t> offsets_;  // node_count + 1 row starts into edges_
  std::vector<DiEdge> edges_;
  std::vector<std::pair<NodeId, DiEdge>> staged_;  // add_edge, pre-finalize
  std::vector<bool> contained_;
};

/// Builds the directed read graph from verified overlaps: suffix/prefix
/// overlaps become directed edges; containment overlaps mark the contained
/// read. Duplicate pair records are collapsed (maximum overlap wins). The
/// result does not depend on the order or orientation of the records.
Digraph build_read_digraph(std::size_t read_count,
                           const std::vector<align::Overlap>& overlaps);

}  // namespace focus::graph
