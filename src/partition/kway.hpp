// Global k-way Kernighan–Lin refinement (paper §IV-D, after Karypis &
// Kumar's k-way scheme [19]).
//
// Boundary nodes (external cost > 0) enter a gain priority queue with
// gain = E − I. Nodes are evaluated in descending gain; each moves to the
// adjacent partition with the greatest external cost, unless the target is
// already 1.03× heavier than the source (node-weight balance). After fifty
// moves without improving the maximal partial gain sum the pass ends, moves
// past the maximum are undone, and passes repeat until no improvement.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace focus::partition {

struct KwayConfig {
  std::size_t idle_move_limit = 50;
  std::size_t max_passes = 8;
  /// A move into Pj from Pi is rejected when w(Pj) >= bound * w(Pi).
  double balance_bound = 1.03;
};

/// Refines a k-way partitioning in place; returns the final edge cut.
/// `work` accumulates work units for virtual-time accounting.
Weight kway_kl_refine(const graph::Graph& g, std::vector<PartId>& part,
                      PartId parts, const KwayConfig& config = {},
                      double* work = nullptr);

}  // namespace focus::partition
