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
// Two orthogonal parallel drivers exist:
//  * partition_hierarchy_parallel — mpr virtual ranks; answers the paper's
//    cluster-scaling question (Fig. 4) in deterministic virtual time.
//  * partition_hierarchy with PartitionerConfig::threads > 1 — a shared
//    ThreadPool; real host parallelism. The recursion tree is walked with
//    fork_join (the two halves of every split run concurrently) and the
//    per-level scoring loops inside KL/k-way/projection use parallel_for.
//    Both drivers produce byte-identical partitions for every width.
//
// Feeding the *multilevel* hierarchy here reproduces the paper's naïve
// baseline (full uncoarsening to G0); feeding the *hybrid* hierarchy
// reproduces the biology-aware variant whose finest graph G'0 is far
// smaller.
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
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
  /// purely from (seed, region, t); the best coarsest-level cut wins, ties
  /// break toward the smaller trial index, so the result is a total-order
  /// argmin independent of evaluation order. Trials run concurrently on the
  /// host pool — this is what parallelizes *inside* the root bisection, the
  /// serial bottleneck of the Fig. 4 pool speedup. 1 (the default)
  /// reproduces the single-trial partitioner bit for bit.
  unsigned trials = 1;
  /// Run the per-level global k-way refinement stage.
  bool kway_refinement = true;
  /// Host threads for the serial driver's ThreadPool (0 = auto: honor
  /// FOCUS_THREADS, else hardware concurrency). The partition is
  /// byte-identical for every value. The mpr driver ignores this and keeps
  /// each virtual rank single-threaded, mirroring CoarsenConfig::threads.
  unsigned threads = 0;
};

/// A partition for every level of a GraphHierarchy.
struct HierarchyPartitioning {
  std::vector<std::vector<PartId>> levels;  // [l][node] -> part
  PartId parts = 0;
  /// Edge cut on the finest level.
  Weight finest_cut = 0;
  /// Total sequential work units spent (sum over all tasks).
  double work = 0.0;
  /// Work units per bisection task: step_work[s][r] is the work of bisecting
  /// the region with label r in recursion step s (2^s regions per step).
  /// Deterministic across thread widths; `work` is their fixed-order sum
  /// plus `kway_work`. Feeds the benchmark's schedule model.
  std::vector<std::vector<double>> step_work;
  /// Work units of the global k-way refinement of each hierarchy level.
  std::vector<double> kway_work;
  /// Intra-bisection parallelism split of each region task, feeding the
  /// Fig. 4 bench's speedup model (both deterministic across widths):
  /// step_trial_work[s][r] holds the per-trial GGG+KL work of the
  /// multi-trial initial bisection (empty when trials == 1), and
  /// step_pooled_work[s][r] the portion of step_work[s][r] spent in
  /// pool-parallel scoring loops (KL D-value sweeps, chunked pair-search
  /// chunks) outside the trials.
  std::vector<std::vector<std::vector<double>>> step_trial_work;
  std::vector<std::vector<double>> step_pooled_work;

  const std::vector<PartId>& finest() const { return levels.front(); }
};

/// Optional per-task accounting returned by bisect_region for the bench's
/// intra-bisection speedup model.
struct BisectRegionAccounting {
  /// GGG+KL work of each initial-bisection trial (empty when trials == 1,
  /// whose work is charged straight to `work` to keep the single-trial
  /// accounting bit-identical to the pre-trials partitioner).
  std::vector<double> trial_work;
  /// Work spent in pool-parallelizable loops outside the trials.
  double pooled_work = 0.0;
};

/// Bisects the nodes in `region` (ids into `g`) via coarsen + multi-trial
/// GGG + KL with projection. Returns one side bit per region entry.
/// `region_weight` is the total node weight of the region, accounted once by
/// the caller at the split point (asserted against the induced subgraph).
/// With a pool, the initial-bisection trials run concurrently (each trial's
/// work lands in a per-trial slot merged in trial order) and the KL scoring,
/// pair-search, and projection loops run as parallel scoring passes — all
/// byte-identical to the serial walk.
std::vector<std::uint8_t> bisect_region(const graph::Graph& g,
                                        const std::vector<NodeId>& region,
                                        const PartitionerConfig& config,
                                        std::uint64_t region_seed,
                                        Weight region_weight, double* work,
                                        ThreadPool* pool = nullptr,
                                        BisectRegionAccounting* acct = nullptr);

/// Serial reference implementation — and, with config.threads != 1, the
/// pool-parallel host driver. Byte-identical output at every thread width.
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
/// (node-weight) vote within each cluster. With a pool, the per-level winner
/// selection runs as a parallel loop (vote tallying stays serial: it
/// scatters into per-parent buckets).
std::vector<std::vector<PartId>> lift_partition(
    const graph::GraphHierarchy& h, const std::vector<PartId>& finest,
    PartId parts, ThreadPool* pool = nullptr);

}  // namespace focus::partition
