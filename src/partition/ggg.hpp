// Greedy graph growing bisection (paper §IV-A, after Karypis & Kumar with
// the paper's customizations).
//
// A random seed node starts partition P1; the frontier ("horizon") is kept in
// a gain priority queue where gain(v) = (external weight toward the growing
// partition) − (internal weight toward the rest). The highest-gain node is
// absorbed and its neighbors' gains updated. Growth alternates sides: if a
// side's incident edge weight exceeds 1.03× the other's, it stops and a new
// seed starts the other side. Growing ends when either side reaches half the
// graph's node weight; leftover nodes go to the lighter side.
//
// A sequential dependence chain: every absorption changes the frontier
// gains the next absorption reads. It only ever runs on the coarsest graph
// of a region (a few hundred nodes); the parallel partitioner (mlpart.hpp)
// runs the regions of a bisection step on separate ranks, and within one
// region `PartitionerConfig::trials` independently seeded GGG+KL growths run
// in trial order (each trial's Rng derives purely from (seed, region,
// trial); the best coarsest cut wins with ties broken toward the smaller
// trial index).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace focus::partition {

struct GggConfig {
  /// Edge-weight imbalance bound between the growing sides.
  double edge_balance_bound = 1.03;
};

/// Produces an initial bisection (part ids 0/1) of g. Deterministic given
/// the rng state. `work` (if non-null) accumulates work units.
std::vector<PartId> greedy_graph_growing(const graph::Graph& g, Rng& rng,
                                         const GggConfig& config = {},
                                         double* work = nullptr);

}  // namespace focus::partition
