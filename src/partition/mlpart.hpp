// Multilevel k-way graph partitioning driver (paper §III–IV, §VI-B).
//
// Recursive bisection in log2(k) steps: every region is bisected by (a)
// coarsening its induced subgraph, (b) greedy graph growing on the coarsest
// graph, (c) Kernighan–Lin refinement projected back down the levels. The
// 2^i regions of step i are independent — the natural parallelism the paper
// exploits (§IV-C): with 2^(log2(k)−1) ranks the bisection phase needs only
// log2(k) steps. Afterwards the partition is lifted to every level of the
// input hierarchy (majority weight vote over clusters) and each level is
// independently refined by the global k-way Kernighan–Lin algorithm — the
// second source of parallelism, bounded by the number of levels. Hence the
// paper's processor bound max(n_levels, 2^(log2 k − 1)).
//
// Two drivers walk the same bisection tree:
//  * partition_hierarchy_parallel — the paper's parallel partitioner on mpr
//    virtual ranks (the regions of a step and the per-level refinements run
//    on separate ranks); answers the cluster-scaling question (Fig. 4) in
//    deterministic virtual time. It is the driver the assembler runs.
//  * partition_hierarchy — the single-threaded recursion-tree reference the
//    mpr driver is tested against. Both produce byte-identical partitions.
// Neither uses a host thread pool: the mpr driver's region bodies run
// serially on their rank threads.
//
// Feeding the *multilevel* hierarchy here reproduces the paper's naïve
// baseline (full uncoarsening to G0); feeding the *hybrid* hierarchy
// reproduces the biology-aware variant whose finest graph G'0 is far
// smaller.
#pragma once

#include <vector>

#include "graph/coarsen.hpp"
#include "mpr/runtime.hpp"
#include "partition/ggg.hpp"
#include "partition/kl.hpp"
#include "partition/kway.hpp"

namespace focus::partition {

struct PartitionerConfig {
  graph::CoarsenConfig coarsen;  // for per-region re-coarsening
  GggConfig ggg;
  KlConfig kl;
  KwayConfig kway;
  /// Master seed; every stochastic choice derives from it deterministically.
  std::uint64_t seed = 42;
  /// Independently seeded GGG+KL trials per initial bisection (Karypis &
  /// Kumar run several and keep the best). Trial t of a region draws its Rng
  /// purely from (seed, region, t); trials run in trial order, the best
  /// coarsest-level cut wins and ties break toward the smaller trial index.
  /// 1 (the default) reproduces the single-trial partitioner bit for bit.
  unsigned trials = 1;
  /// Run the per-level global k-way refinement stage.
  bool kway_refinement = true;
  /// Has no effect: both partitioning drivers and the node-list gather are
  /// single-threaded. Kept only because the whole-pipeline benchmark
  /// (pipeline_bench/pipeline.cpp) sets it.
  unsigned threads = 0;
};

/// A partition for every level of a GraphHierarchy.
struct HierarchyPartitioning {
  std::vector<std::vector<PartId>> levels;  // [l][node] -> part
  PartId parts = 0;
  /// Edge cut on the finest level.
  Weight finest_cut = 0;

  const std::vector<PartId>& finest() const { return levels.front(); }
};

/// Bisects the nodes in `region` (ids into `g`) via coarsen + multi-trial
/// GGG + KL with projection. Returns one side bit per region entry.
/// `region_weight` is the total node weight of the region, accounted once by
/// the caller at the split point (asserted against the induced subgraph).
/// `work` (if non-null) accumulates work units for virtual-time accounting.
std::vector<std::uint8_t> bisect_region(const graph::Graph& g,
                                        const std::vector<NodeId>& region,
                                        const PartitionerConfig& config,
                                        std::uint64_t region_seed,
                                        Weight region_weight, double* work);

/// Serial reference implementation: walks the recursion tree depth first.
HierarchyPartitioning partition_hierarchy(const graph::GraphHierarchy& h,
                                          PartId k,
                                          const PartitionerConfig& config);

struct ParallelPartitionResult {
  HierarchyPartitioning partitioning;
  mpr::RunStats stats;
};

/// Distributed driver: bisection regions round-robin over ranks per step,
/// then per-level k-way refinement round-robin over ranks. Produces the
/// same partitioning as the serial driver for every rank count.
///
/// It runs the recovering phase engine (mpr/ft_phase.hpp) for every fault
/// plan; an empty plan injects nothing. Each bisection step is
/// one phase whose scan commands carry the region node lists and weights
/// (workers are stateless — every scan is a pure function of the command
/// payload plus the replicated hierarchy), followed by one phase of
/// per-level k-way refinement whose commands carry the lifted level labels.
/// `symmetric` replicates the engine's phase log (§7b), so a survivor takes
/// over the coordinator role; without it the role is fixed at rank 0, and
/// its death throws focus::Error. It is a bool rather than
/// dist::DistProtocol because the partition layer sits below dist. Either
/// way a recovered partitioning is byte-identical to the fault-free one.
ParallelPartitionResult partition_hierarchy_parallel(
    const graph::GraphHierarchy& h, PartId k, const PartitionerConfig& config,
    int nranks, mpr::CostModel cost = {}, const mpr::FaultPlan& fault_plan = {},
    const mpr::FaultConfig& fault = {}, bool symmetric = false);

/// Lifts a finest-level partition to every hierarchy level by majority
/// (node-weight) vote within each cluster.
std::vector<std::vector<PartId>> lift_partition(
    const graph::GraphHierarchy& h, const std::vector<PartId>& finest,
    PartId parts);

}  // namespace focus::partition
