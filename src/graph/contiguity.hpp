// Contiguity test for read clusters (paper §II-D).
//
// A "best representative" node must come from the most reduced graph level
// possible "whose corresponding read cluster assembles into a contiguous
// contig". This tester decides that property on the directed read graph:
// the cluster's induced subgraph (containment reads excluded), after local
// transitive reduction, must form a single simple path. When it does, the
// path *is* the layout of the cluster's contig.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace focus::graph {

/// One read in a contig layout and its overlap with the next read in the
/// path (0 for the last read).
struct LayoutStep {
  NodeId read = kInvalidNode;
  Weight overlap_to_next = 0;
};

/// Runs on flat arrays only: per-read stamps sized once, and per-call
/// scratch in the cluster's local indices whose capacity is reused from call
/// to call. One tester serves any number of calls on one thread.
class ContiguityTester {
 public:
  /// `reads` is the directed read graph; `read_lengths[v]` the sequence
  /// length of read v (used to pick a representative when a cluster consists
  /// solely of contained reads).
  ContiguityTester(const Digraph& reads,
                   std::vector<std::uint32_t> read_lengths);

  /// True iff the cluster assembles into one contiguous contig. On success,
  /// if `layout` is non-null it receives the reads in left-to-right path
  /// order with their chaining overlaps; on failure it is left untouched.
  /// Throws focus::Error if a member is not a read of the graph or appears
  /// twice.
  bool contiguous(std::span<const NodeId> cluster,
                  std::vector<LayoutStep>* layout = nullptr);

  /// Work units consumed since construction (for virtual-time accounting).
  /// A call with at most one non-contained member costs its cluster size;
  /// any other call costs the cluster size, plus the full out-degree of
  /// every active member, plus, for each induced edge u->m, m's induced
  /// out-degree (the transitive-reduction scan).
  double work() const { return work_; }

 private:
  const Digraph* reads_;
  std::vector<std::uint32_t> read_lengths_;

  // Per read: stamp_[v] == epoch_ makes v a member of the current cluster,
  // and local_[v] is then its index among the active (non-contained)
  // members, or kInvalidNode for a contained one.
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> local_;
  std::uint32_t epoch_ = 0;

  // Per call, indexed by local member id.
  std::vector<NodeId> active_;          // local id -> read
  std::vector<std::uint32_t> row_;      // CSR row starts into adj_
  std::vector<DiEdge> adj_;             // induced edges, local targets
  std::vector<std::uint32_t> in_degree_;
  std::vector<std::uint32_t> kept_;     // the one reduced out-edge (adj_ slot)
  // Reduction marks for the member u being scanned, by local id and sized
  // once for the largest possible cluster: mark_epoch_ in direct_[w] means
  // u->w is an edge, in transitive_[w] that u->w is redundant.
  std::vector<std::uint32_t> direct_;
  std::vector<std::uint32_t> transitive_;
  std::uint32_t mark_epoch_ = 0;

  double work_ = 0.0;
};

}  // namespace focus::graph
