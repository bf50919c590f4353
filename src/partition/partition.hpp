// Partition types and quality metrics (paper §IV).
//
// A partitioning P = {P1 … Pk} assigns every node a part id in [0, k). The
// quality measures are the paper's: edge cut (total weight of edges whose
// endpoints lie in different parts) and node/edge-weight balance across
// parts (the growing and refinement algorithms enforce a 1.03 bound).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace focus::partition {

using graph::Graph;

/// Total weight of edges crossing between parts.
Weight edge_cut(const Graph& g, const std::vector<PartId>& part);

/// Per-part sums of node weights.
std::vector<Weight> part_node_weights(const Graph& g,
                                      const std::vector<PartId>& part,
                                      PartId parts);

/// Per-part sums of incident edge weights (cross edges count for both).
std::vector<Weight> part_edge_weights(const Graph& g,
                                      const std::vector<PartId>& part,
                                      PartId parts);

/// max_i(part weight) * k / total weight; 1.0 = perfectly balanced.
double node_balance(const Graph& g, const std::vector<PartId>& part,
                    PartId parts);

/// True iff every node has a part id in [0, parts).
bool is_complete(const std::vector<PartId>& part, PartId parts);

}  // namespace focus::partition
